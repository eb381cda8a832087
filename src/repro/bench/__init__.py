"""Benchmark harness regenerating every table and figure of the paper's
evaluation (§5) plus the headline claims of §1.1 — on the simulator, so
every rate here is a *model prediction* in virtual time.  The live TCP
runtime is measured by ``bench_e2e/`` (``python bench_e2e/run.py``).

Each module can be run directly (``python -m repro.bench.fig10``) to print
the series/rows of the corresponding figure/table; the ``benchmarks/``
directory wraps the same entry points in pytest-benchmark tests with
reduced parameters.
"""

from . import fig5, fig6, fig7, fig8, fig9, fig10, headline, table3
from .harness import (
    PAPER_TABLE3_SIZES,
    SIM_SIZE_LIMIT,
    RunResult,
    allconcur_estimate,
    overlay_for,
    run_allconcur,
    run_allgather,
    run_leader_based,
)
from .reporting import format_gbps, format_rate, format_seconds, format_table, print_table

__all__ = [
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "headline", "table3",
    "PAPER_TABLE3_SIZES", "SIM_SIZE_LIMIT", "RunResult",
    "overlay_for", "run_allconcur", "run_allgather", "run_leader_based",
    "allconcur_estimate",
    "format_table", "print_table", "format_seconds", "format_rate",
    "format_gbps",
]
