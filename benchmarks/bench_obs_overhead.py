"""Overhead budget of the observability layer.

Runs the same serial Figure 6 slice in fresh interpreters in two modes —
observability off (``REPRO_OBS=off``) and instrumented (the default:
metrics, per-simulation spans including the two ``sim.prepass`` windows)
— and asserts the instrumented mode stays within the 5% overhead budget
the telemetry design targets (aggregate-point publication, no per-row
or per-event instrumentation).  Fresh processes ensure the env switch is
exercised the way workers see it: read once at import, every instrument
resolved to a shared no-op.

Each mode takes the minimum of three child runs to suppress scheduler
noise; a small absolute slack absorbs residual timer jitter on loaded
hosts.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import print_table

import repro

_CHILD = """
import time
from repro.experiments.perf import fig6_performance
from repro.experiments.runner import SimulationWindow
from repro.workloads.profiles import get_profile

window = SimulationWindow(warmup=2000, measured=8000)
benchmarks = [get_profile(n) for n in ("gzip", "mcf")]
start = time.perf_counter()
fig6_performance(window=window, benchmarks=benchmarks, jobs=1)
print(time.perf_counter() - start)
"""

_ROUNDS = 3


def _child_seconds(obs: str) -> float:
    env = dict(os.environ)
    env["REPRO_OBS"] = obs
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    best = float("inf")
    for _ in range(_ROUNDS):
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD],
            env=env, capture_output=True, text=True, check=True, timeout=600,
        )
        best = min(best, float(proc.stdout.strip().splitlines()[-1]))
    return best


@pytest.mark.slow
def test_obs_overhead_within_budget():
    start = time.perf_counter()
    off_s = _child_seconds("off")
    on_s = _child_seconds("on")
    total = time.perf_counter() - start

    print_table(
        "Observability overhead (serial fig6 slice, min of "
        f"{_ROUNDS} fresh processes)",
        ["mode", "wall (s)", "vs off"],
        [
            ["REPRO_OBS=off", f"{off_s:.2f}", "—"],
            ["instrumented", f"{on_s:.2f}", f"{on_s / off_s - 1.0:+.1%}"],
        ],
    )
    print(f"(benchmark wall time {total:.1f}s)")

    # The budget: instrumentation costs < 5% on the hot serial path.  A
    # small absolute slack absorbs cross-process timer noise on short
    # runs.
    budget = off_s * 1.05 + 0.5
    assert on_s <= budget, (
        f"instrumented run {on_s:.2f}s vs {off_s:.2f}s baseline "
        f"({on_s / off_s - 1.0:+.1%}) exceeds the 5% observability budget"
    )
