"""Opt-in performance regression guard against ``BENCH_trace.json``.

Runs the quick fig6 end-to-end measurement (same subset and window as
``bench_trace_kernels``, best of three to damp scheduler noise) and fails
if it regresses more than 20% against the committed baseline.  Opt-in —
wall-clock checks are inherently machine-dependent, so this is not part
of the default suite:

    pytest benchmarks/check_bench.py -m bench_guard

Regenerate the baseline with ``pytest benchmarks/bench_trace_kernels.py
--benchmark-only -s`` after intentional performance changes.
"""

import json
import time
from pathlib import Path

import pytest
from conftest import BENCH_WINDOW

from repro.common import memo
from repro.experiments.perf import fig6_performance
from repro.workloads.profiles import get_profile

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace.json"
_ALLOWED_REGRESSION = 1.20
_ROUNDS = 3


def _best_fig6_time(subset) -> float:
    best = float("inf")
    for _ in range(_ROUNDS):
        memo.clear_cache()
        start = time.perf_counter()
        fig6_performance(window=BENCH_WINDOW, benchmarks=subset, jobs=1)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.bench_guard
def test_fig6_end_to_end_has_not_regressed():
    baseline = json.loads(_RESULT_PATH.read_text())
    committed = baseline["fig6_end_to_end"]
    subset = [get_profile(name) for name in committed["benchmarks"]]
    assert (BENCH_WINDOW.warmup, BENCH_WINDOW.measured) == (
        committed["warmup"], committed["measured"]
    ), "bench window changed; regenerate BENCH_trace.json first"

    measured = _best_fig6_time(subset)
    budget = committed["columnar_s"] * _ALLOWED_REGRESSION
    assert measured <= budget, (
        f"fig6 end-to-end regressed: best of {_ROUNDS} runs took "
        f"{measured:.3f}s against a committed {committed['columnar_s']}s "
        f"(+20% budget {budget:.3f}s)"
    )
