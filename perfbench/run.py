"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` repeats the workload's driver calls in a closed loop for
``--seconds`` seconds with no benchmark tracing.  Each pass runs in a fresh
interpreter, as a CLI user's command would, so no process-lifetime state
carries from one pass to the next; the pass checks every operation and
reports back to this process, which prints the end-to-end metrics.
``--trace 1`` runs the workload in this one process: once untraced at its
own jobs, once traced at jobs=1 and once more untraced at jobs=1 (the
reference for the tracing overhead); it checks that all three agree bit
for bit and prints the per-layer metrics of :mod:`perfbench.ledger`.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
human-readable lines, the environment and a digest of every simulated
value come first.  ``--reduced`` shrinks every workload so a run takes
seconds (tests).

Timings are worst-of-passes.  The reference machine is a shared two-vCPU
VM whose vCPUs run at about half speed most of the time and at full speed
in short, irregular spells, so a fast pass mostly says how many of those
spells a run happened to catch.  A run's slowest pass is the one that
caught fewest; it measures the program at the machine's common speed and
repeats from run to run.  So ``wall_s`` is the slowest pass, and every
operation is timed by its slowest pass before ``op_p50_s`` and
``op_tail_s`` take the median and tail over operations.  ``peak_rss_mb``
is the median over passes.
``setup_s`` is the median, over at least ``SETUP_SAMPLES`` fresh
interpreters, of the time to import ``repro`` and build the workload's
inputs.  The run writes only under ``perfbench/out``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, so fig6-sweep's two workers use the
# machine's two cores and nothing else competes with them.  Set before
# anything imports NumPy; worker and probe processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Fresh interpreters timed per run for setup_s, at least.
SETUP_SAMPLES = 5
# A tail percentile needs this many operations beyond it.
TAIL_BEYOND = 10
# Every child must end this long after the run starts, so the run ends
# within the benchmark's 180-second limit.
DEADLINE_S = 170.0
_START = time.monotonic()

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed (default 42, where the paper "
                             "errors are quoted)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="how long the untraced loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="seconds-long sizes, for the benchmark's tests")
    # Internal: what one fresh interpreter of the untraced loop does.
    parser.add_argument("--child", choices=("setup", "pass"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail_percentile(n: int) -> int:
    """The highest percentile, a multiple of 5 from 50 to 95, that leaves
    at least ``TAIL_BEYOND`` of ``n`` operations beyond it; 100 (the
    slowest operation) when ``n`` is too small for any."""
    for q in range(95, 45, -5):
        if n * (100 - q) / 100.0 >= TAIL_BEYOND:
            return q
    return 100


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def git_sha() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # Never report the commit of a repository above this one.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _child(args, mode: str) -> dict:
    """Run one fresh interpreter in ``mode`` and return its report.

    A child that dies without reporting counts as one failed operation.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.reduced:
        cmd.append("--reduced")
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - _START)),
        )
    except subprocess.TimeoutExpired:
        problem = f"{mode} process passed the {DEADLINE_S:.0f} s deadline"
    else:
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 and lines:
            try:
                return json.loads(lines[-1])
            except ValueError:
                pass
        tail = (done.stderr.strip().splitlines() or ["no report"])[-1]
        problem = f"{mode} process exited {done.returncode}: {tail}"
    return {"attempted": 1, "failed": 1, "failures": [problem]}


def _run_child(args, workload, workloads, start: float) -> int:
    """Body of one fresh interpreter: time setup, maybe run one pass."""
    inputs = workload.build(args.seed, args.reduced)
    report = {"setup_s": time.perf_counter() - start}
    if args.child == "pass":
        done = workloads.run_pass(workload, inputs, workload.jobs)
        report.update(
            wall_s=done.wall_s,
            attempted=done.attempted,
            failed=done.failed,
            failures=done.evaluation.failures,
            latencies=done.evaluation.latencies,
            instructions=done.evaluation.instructions,
            accuracy=done.evaluation.accuracy,
            digest=done.evaluation.digest,
            peak_rss_mb=peak_rss_mb(),
        )
    print(json.dumps(report))
    return 0


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _say(line: str) -> None:
    print(line, flush=True)


def _report(correct: bool, attempted: int, failed: int, metrics) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)


def _write(name: str, text: str) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name).write_text(text)


def _header(args, workload, nproc, versions) -> None:
    _say(f"perfbench {workload.name} seed={args.seed} trace={args.trace}"
         f"{' reduced' if args.reduced else ''}: {workload.why}")
    _say(f"env nproc={nproc} python={platform.python_version()} "
         + " ".join(f"{k}={v}" for k, v in versions.items())
         + f" git={git_sha()}")


def _problems(failures, digests) -> list[str]:
    """Every failed check, plus passes whose simulated values differ."""
    problems = list(failures)
    if len(set(digests)) > 1:
        problems.append(
            f"simulated results differ between passes: {sorted(set(digests))}"
        )
    for problem in problems[:20]:
        _say(f"FAILED {problem}")
    return problems


def untraced(args, workload) -> int:
    import numpy

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_child(args, "pass"))
        if passes[-1]["failed"] or time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    setup = [p["setup_s"] for p in passes if "setup_s" in p]
    while len(setup) < SETUP_SAMPLES:
        probe = _child(args, "setup")
        if "setup_s" not in probe:
            passes.append(probe)
            break
        setup.append(probe["setup_s"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    good = [p for p in passes if p.get("latencies") and not p["failed"]]
    problems = _problems(
        [f for p in passes for f in p["failures"]],
        [_digest(p["digest"]) for p in good],
    )
    if not good or len(setup) < SETUP_SAMPLES:
        _report(False, attempted, max(failed, 1), {})
        return 1

    first = good[0]
    n = len(first["latencies"])
    q = tail_percentile(n)
    # Passes whose digests agree ran the same operations in the same order,
    # so operation i is timed by its slowest pass.
    worst = numpy.max(
        [p["latencies"] for p in good if len(p["latencies"]) == n], axis=0)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": max(p["wall_s"] for p in good),
        "op_p50_s": float(numpy.median(worst)),
        "op_tail_s": float(numpy.percentile(worst, q)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    _say(f"passes {len(good)} in {elapsed:.1f} s, jobs={workload.jobs}, one "
         "fresh interpreter each; pass walls "
         + " ".join(f"{p['wall_s']:.3f}" for p in good))
    for name, (value, unit) in metrics.items():
        note = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "wall_s": f"slowest of {len(good)} passes",
            "op_p50_s": f"n={n} operations, each its slowest pass",
            "op_tail_s": f"p{q} of n={n} operations, each its slowest pass",
            "peak_rss_mb": "median over passes of the pass process or its "
                           "largest worker",
        }.get(name, "")
        _say(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    if first["instructions"]:
        _say(f"sim_kips {first['instructions'] / values['wall_s'] / 1e3:.6g} "
             f"kinst/s ({first['instructions']} simulated instructions per "
             "pass, slowest pass)")
    _say(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} "
         f"operations)")
    for name, (value, unit, note) in first["accuracy"].items():
        _say(f"{name} {value:.6g} {unit} ({note})")
    if first["accuracy"]:
        _say("accuracy: the model is validated only against these published "
             "numbers, at this seed")
    _say(f"digest {workload.name} seed={args.seed} ops={n} "
         f"sha256={_digest(first['digest'])}")
    _write(f"digest-{workload.name}-s{args.seed}.txt",
           "\n".join(first["digest"]) + "\n")
    _write(f"passes-{workload.name}-s{args.seed}.json", json.dumps({
        "setup_s": setup,
        "passes": [{k: p[k] for k in ("wall_s", "latencies", "peak_rss_mb")}
                   for p in good],
    }))
    _report(not problems, attempted, failed, metrics)
    return 0


def traced(args, workload, workloads, ledger) -> int:
    from repro.common import memo
    from repro.obs.metrics import merge_snapshots

    inputs = workload.build(args.seed, args.reduced)
    plain = workloads.run_pass(workload, inputs, workload.jobs)
    tracer = ledger.Tracer()
    traced_pass = workloads.run_pass(workload, inputs, 1, tracer=tracer)
    memo_stats = {k: copy.copy(v) for k, v in memo.get_cache().stats.items()}
    # The untraced jobs=1 reference runs last: the first in-process pass
    # pays one-time costs (lazy imports, heap growth) that it must not.
    reference = workloads.run_pass(workload, inputs, 1)
    passes = [plain, traced_pass, reference]
    problems = _problems(
        [f for p in passes for f in p.evaluation.failures],
        [_digest(p.evaluation.digest) for p in passes],
    )
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    totals, host_s = ledger.summarize(tracer.records)
    counters = merge_snapshots(
        t.metrics for _i, _r, t in traced_pass.capture.sweeps
    ).as_dict()["counters"]
    reference_s = reference.capture.task_s
    overhead = (traced_pass.capture.task_s / reference_s - 1.0
                if reference_s else 0.0)
    values = ledger.layer_metrics(
        totals, host_s, counters, memo_stats,
        traced_pass.evaluation.instructions,
        [t for _i, _r, t in plain.capture.sweeps], overhead,
    )
    units = {name: unit for name, unit, _b in ledger.PER_LAYER_METRICS}
    _say(f"traced pass at jobs=1: {len(tracer.records)} spans, host "
         f"{host_s:.3f} s; untraced jobs={workload.jobs} wall "
         f"{plain.wall_s:.3f} s")
    for name, value in values.items():
        _say(f"{name} {value:.6g} {units[name]}")
    _say(f"digest {workload.name} seed={args.seed} "
         f"sha256={_digest(traced_pass.evaluation.digest)}")
    _write(f"spans-{workload.name}-s{args.seed}.json", json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "fields": ["name", "start", "end", "parent", "op", "count"],
        "spans": tracer.records,
    }))
    _report(not problems, attempted, failed,
            {name: (value, units[name]) for name, value in values.items()})
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    start = time.perf_counter()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.child:
        return _run_child(args, workload, workloads, start)

    import numpy
    import scipy

    from perfbench import ledger

    _header(args, workload, workloads.nproc(),
            {"numpy": numpy.__version__, "scipy": scipy.__version__})
    if args.trace:
        return traced(args, workload, workloads, ledger)
    return untraced(args, workload)


if __name__ == "__main__":
    sys.exit(main())
