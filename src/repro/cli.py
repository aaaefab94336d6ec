"""Command-line interface: regenerate any of the paper's results.

Usage::

    python -m repro list
    python -m repro simulate gzip --chip 3d-2a
    python -m repro fig4 | fig7 | fig8 | fig9
    python -m repro table4 | table5 | table6 | table7 | table8
    python -m repro vias | wires | coverage | constraint | hetero
    python -m repro fig6 --window 20000 --metrics m.json  # + span self times

The heavyweight figures (fig5, fig6) accept ``--window N`` to trade
fidelity for time; the pytest-benchmark harness under ``benchmarks/``
remains the canonical way to regenerate everything with assertions.
"""

from __future__ import annotations

import argparse
import os
import shlex
import signal
import sys
import threading

from repro.common.config import ChipModel
from repro.common.errors import ReproError, SweepAbortedError
from repro.common.tables import print_table
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import engine
from repro.experiments import (
    SimulationWindow,
    constant_thermal_performance,
    fault_coverage_campaign,
    fig4_thermal_sweep,
    fig6_performance,
    fig7_frequency_histogram,
    fig8_ser_scaling,
    fig9_mbu_curve,
    section34_wire_analysis,
    section4_heterogeneous,
    simulate_rmt,
    table4_bandwidth,
    table5_pipeline_power,
    table6_variability,
    table7_devices,
    table8_power_ratios,
    via_summary,
)
from repro.obs import events, log
from repro.obs.tracing import span_self_times
from repro.workloads.profiles import get_profile, spec2k_suite

_CHIP_BY_NAME = {c.value: c for c in ChipModel}


def _say(*parts) -> None:
    """Emit one user-facing line through the ``repro.cli`` logger."""
    log.get_logger("cli").info(" ".join(str(p) for p in parts))


def _window(args) -> SimulationWindow:
    measured = args.window
    return SimulationWindow(warmup=max(1000, measured // 4), measured=measured)


def _cmd_list(_args) -> None:
    _say("experiments:")
    for name, what in [
        ("simulate", "RMT co-simulation of one benchmark on one chip model"),
        ("fig4", "peak temperature vs checker power"),
        ("fig6", "per-benchmark IPC across chip models (slow)"),
        ("fig7", "checker DFS frequency residency"),
        ("fig8", "SRAM soft-error-rate scaling"),
        ("fig9", "multi-bit upset probability vs critical charge"),
        ("table4", "die-to-die bandwidth requirements"),
        ("table5", "pipeline-depth power overheads"),
        ("table6", "ITRS variability projections"),
        ("table7", "ITRS device characteristics"),
        ("table8", "relative power across technology nodes"),
        ("vias", "d2d via count / power / area"),
        ("wires", "horizontal interconnect budgets"),
        ("coverage", "fault-injection detection/recovery audit"),
        ("constraint", "constant-thermal-constraint frequency and loss"),
        ("hetero", "the 90 nm checker die analysis (slow)"),
    ]:
        _say(f"  {name:10s} {what}")
    _say("\nbenchmarks:", " ".join(p.name for p in spec2k_suite()))


def _cmd_simulate(args) -> None:
    chip = _CHIP_BY_NAME[args.chip]
    profile = get_profile(args.benchmark)
    result = simulate_rmt(profile, chip, window=_window(args), seed=args.seed)
    lead = result.leading
    _say(f"{profile.name} on {chip.value}:")
    _say(f"  leading IPC           : {lead.ipc:.3f}")
    _say(f"  branch mispredicts    : {lead.branch_mispredict_rate:.1%}")
    _say(f"  L2 misses / 10k       : {lead.l2_misses_per_10k:.2f}")
    _say(f"  avg L2 hit latency    : {lead.average_l2_hit_latency:.1f} cycles")
    _say(f"  checker mean frequency: {result.mean_frequency_fraction:.2f}x peak")
    _say(f"  checker modal level   : {result.modal_frequency_fraction:.1f}x")
    _say(f"  backpressure commits  : {result.backpressure_commits}")


def _cmd_fig4(_args) -> None:
    rows = fig4_thermal_sweep()
    print_table(
        "Figure 4: peak temperature vs checker power",
        ["checker (W)", "2d-2a (C)", "3d-2a (C)", "2d-a (C)", "3d delta (C)"],
        [
            [r.checker_power_w, f"{r.temp_2d_2a_c:.1f}", f"{r.temp_3d_2a_c:.1f}",
             f"{r.temp_2d_a_c:.1f}", f"{r.delta_3d_vs_2da:+.1f}"]
            for r in rows
        ],
    )


def _cmd_fig6(args) -> None:
    benchmarks = None
    if args.benchmarks:
        benchmarks = [
            get_profile(name.strip())
            for name in args.benchmarks.split(",")
            if name.strip()
        ]
    rows = fig6_performance(window=_window(args), benchmarks=benchmarks)
    print_table(
        "Figure 6: IPC per benchmark",
        ["benchmark", "2d-a", "2d-2a", "3d-2a", "3d-checker"],
        [
            [r.benchmark] + [f"{r.ipc[c.value]:.2f}" for c in (
                ChipModel.TWO_D_A, ChipModel.TWO_D_2A,
                ChipModel.THREE_D_2A, ChipModel.THREE_D_CHECKER)]
            for r in rows
        ],
    )


def _cmd_fig7(args) -> None:
    result = fig7_frequency_histogram(window=_window(args))
    print_table(
        "Figure 7: checker frequency residency",
        ["normalized f", "% of intervals"],
        [[f"{lvl:.1f}", f"{frac:.1%}"] for lvl, frac in result.fractions.items()],
    )
    _say(f"mode {result.mode:.1f}, mean {result.mean:.2f} "
          f"({result.mean_frequency_hz() / 1e9:.2f} GHz)")


def _cmd_fig8(_args) -> None:
    print_table(
        "Figure 8: SER scaling",
        ["node (nm)", "per-bit", "whole chip"],
        [[r["feature_nm"], r["per_bit_relative"], r["chip_relative"]]
         for r in fig8_ser_scaling()],
    )


def _cmd_fig9(_args) -> None:
    print_table(
        "Figure 9: MBU probability",
        ["node (nm)", "Qcrit (fC)", "P(MBU)"],
        [[r["feature_nm"], r["critical_charge_fc"], r["mbu_probability"]]
         for r in fig9_mbu_curve()],
    )


def _cmd_table4(_args) -> None:
    rows = table4_bandwidth()
    print_table(
        "Table 4: D2D bandwidth",
        ["data", "width (bits)", "placement"],
        [[r.data, r.width_bits, r.placement] for r in rows],
    )
    _say(f"total: {sum(r.width_bits for r in rows)} vias")


def _cmd_table5(_args) -> None:
    print_table(
        "Table 5: pipeline power",
        ["FO4", "dyn (paper)", "dyn (model)", "leak (paper)", "leak (model)"],
        [
            [r.fo4_per_stage, r.published_dynamic, r.model_dynamic,
             r.published_leakage, r.model_leakage]
            for r in table5_pipeline_power()
        ],
    )


def _cmd_table6(_args) -> None:
    print_table(
        "Table 6: ITRS variability",
        ["node (nm)", "Vth", "perf", "power"],
        [
            [r["feature_nm"], f"{r['vth_variability']:.0%}",
             f"{r['circuit_performance_variability']:.0%}",
             f"{r['circuit_power_variability']:.0%}"]
            for r in table6_variability()
        ],
    )


def _cmd_table7(_args) -> None:
    print_table(
        "Table 7: ITRS devices",
        ["node (nm)", "V", "Lgate (nm)", "C/um (F)", "Ioff/um (uA)"],
        [
            [r["feature_nm"], r["voltage_v"], r["gate_length_nm"],
             f"{r['capacitance_f_per_um']:.2e}", r["leakage_ua_per_um"]]
            for r in table7_devices()
        ],
    )


def _cmd_table8(_args) -> None:
    print_table(
        "Table 8: relative power",
        ["nodes", "dyn (derived/paper)", "leak (derived/paper)"],
        [
            [f"{r.old_nm}/{r.new_nm}",
             f"{r.dynamic_derived}/{r.dynamic_published}",
             f"{r.leakage_derived}/{r.leakage_published}"]
            for r in table8_power_ratios()
        ],
    )


def _cmd_vias(_args) -> None:
    summary = via_summary()
    _say(f"vias: {summary.num_vias}")
    _say(f"per-via power: {summary.per_via_power_mw:.4f} mW")
    _say(f"total power  : {summary.total_power_mw:.2f} mW")
    _say(f"total area   : {summary.total_area_mm2:.3f} mm2")


def _cmd_wires(_args) -> None:
    budgets = section34_wire_analysis()
    print_table(
        "Section 3.4: wire budgets",
        ["model", "inter-core (mm)", "ic metal (mm2)", "L2 metal (mm2)", "power (W)"],
        [
            [name, f"{b.intercore_length_mm:.0f}",
             f"{b.intercore_metal_area_mm2:.2f}", f"{b.l2_metal_area_mm2:.2f}",
             f"{b.total_power_w:.1f}"]
            for name, b in budgets.items()
        ],
    )


def _cmd_coverage(args) -> None:
    result = fault_coverage_campaign(seed=args.seed)
    _say(f"instructions : {result.instructions}")
    _say(f"faults       : {result.faults_injected}")
    _say(f"detected     : {result.mismatches_detected}")
    _say(f"recovered    : {result.recoveries}")
    _say(f"ECC corrected: {result.ecc_corrections}")
    _say(f"ECC detected : {result.ecc_uncorrectable}")
    _say(f"arch. safe   : {result.architecturally_safe}")


def _cmd_constraint(args) -> None:
    for power in (7.0, 15.0):
        result = constant_thermal_performance(
            checker_power_w=power, window=_window(args)
        )
        _say(
            f"{power:4.0f} W checker: {result.frequency_ghz:.2f} GHz, "
            f"{result.performance_loss:.1%} performance loss"
        )


def _cmd_thermalmap(args) -> None:
    from repro.experiments.thermal import standard_floorplan
    from repro.thermal import ChipThermalModel
    from repro.viz import floorplan_map, heatmap

    chip = _CHIP_BY_NAME[args.chip]
    plan = standard_floorplan(chip, checker_power_w=7.0)
    solved = ChipThermalModel(plan).solve()
    for die in range(plan.num_dies):
        _say(f"--- die {die + 1} floorplan ---")
        _say(floorplan_map(plan, die=die, width=58, height=14))
        layer = "active_1" if die == 0 else "active_2"
        grid = solved.layer_grids[layer]
        _say(f"--- die {die + 1} temperature ({grid.max():.1f} C peak) ---")
        _say(heatmap(grid[::-1], width=58, height=14))
    _say(f"chip peak: {solved.peak_c:.1f} C at {solved.hottest_block()}")


def _cmd_presets(_args) -> None:
    from repro.presets import load_preset, preset_names

    for name in preset_names():
        point = load_preset(name)
        _say(f"{name:12s} {point.description}")


def _cmd_report(args) -> None:
    from repro.experiments.report import generate_report, render_partial_report

    if args.partial:
        root = args.checkpoint or ".repro/checkpoints"
        data = render_partial_report(args.partial, args.out,
                                     checkpoint_root=root)
        _say(f"wrote PARTIAL report {args.out}/results_partial.md "
             f"({data['tasks_committed']} task(s) committed)")
        return
    generate_report(args.out, window=_window(args))
    _say(f"wrote {args.out}/results.json and {args.out}/results.md")


def _cmd_hetero(args) -> None:
    result = section4_heterogeneous(window=_window(args))
    _say(f"checker power : {result.checker_power_65nm_w:.1f} W (65nm) -> "
          f"{result.checker_power_90nm_w:.1f} W (90nm)")
    _say(f"upper cache   : 9 banks -> {result.upper_cache_banks_90nm} banks")
    _say(f"die delta     : {result.checker_die_delta_w:+.1f} W")
    _say(f"peak temps    : {result.peak_temp_homogeneous_c:.1f} C -> "
          f"{result.peak_temp_hetero_c:.1f} C")
    _say(f"peak clock    : {2 * result.peak_frequency_ratio:.1f} GHz")
    _say(f"leader slowdown: {result.leading_slowdown:.1%}")


_COMMANDS = {
    "list": _cmd_list,
    "simulate": _cmd_simulate,
    "fig4": _cmd_fig4,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "table6": _cmd_table6,
    "table7": _cmd_table7,
    "table8": _cmd_table8,
    "vias": _cmd_vias,
    "wires": _cmd_wires,
    "coverage": _cmd_coverage,
    "constraint": _cmd_constraint,
    "hetero": _cmd_hetero,
    "report": _cmd_report,
    "thermalmap": _cmd_thermalmap,
    "presets": _cmd_presets,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce results from 'Leveraging 3D Technology for "
        "Improved Reliability' (MICRO 2007).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "simulate":
            p.add_argument("benchmark")
        if name in ("simulate", "thermalmap"):
            p.add_argument(
                "--chip", default="3d-2a", choices=sorted(_CHIP_BY_NAME)
            )
        if name == "report":
            p.add_argument("--out", default="results")
            p.add_argument("--partial", default=None, metavar="RUN_ID",
                           help="render a clearly-marked partial report "
                                "from an interrupted run's checkpoint "
                                "instead of re-running the experiments")
        if name == "fig6":
            p.add_argument(
                "--benchmarks", default=None,
                help="comma-separated benchmark subset (default: full suite)",
            )
        p.add_argument("--window", type=int, default=20_000,
                       help="measured instructions per simulation")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for sweeps: 1 runs them "
                            "in-process, more use a process pool "
                            "(default: REPRO_JOBS or cpu count)")
        p.add_argument("--checkpoint", nargs="?", const=".repro/checkpoints",
                       default=None, metavar="DIR",
                       help="persist completed sweep tasks under DIR "
                            "(default .repro/checkpoints) for --resume")
        p.add_argument("--resume", default=None, metavar="RUN_ID",
                       help="resume an interrupted checkpointed run: "
                            "re-executes only tasks missing from its "
                            "checkpoint")
        p.add_argument("--metrics", nargs="?", const="run_manifest.json",
                       default=None, metavar="PATH",
                       help="write a run manifest (metrics + sweep "
                            "accounting) to PATH after the command")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="append JSONL events (run/sweep/manifest) to PATH")
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="more output (DEBUG-level logging)")
        p.add_argument("-q", "--quiet", action="count", default=0,
                       help="less output (warnings only)")
    return parser


class _Terminated(KeyboardInterrupt):
    """SIGTERM in the controller: the run stops as on Ctrl-C, exit 143."""


def _raise_terminated(_signum, _frame) -> None:
    """The CLI's SIGTERM handler (pool workers restore the default)."""
    raise _Terminated


def _resume_hints(argv: list[str], checkpoint_dir: str,
                  run_id: str) -> dict[str, str]:
    """The commands that finish and inspect a stopped run, by label: its
    own arguments with the checkpoint directory made absolute and
    ``--resume RUN_ID`` appended, and the partial report."""
    root = os.path.abspath(checkpoint_dir)
    kept, rest = [], list(argv)
    while rest:
        token = rest.pop(0)
        if token in ("--checkpoint", "--resume"):
            # --resume always takes a value, --checkpoint only optionally.
            if rest and (token == "--resume" or not rest[0].startswith("-")):
                rest.pop(0)
        elif not token.startswith(("--checkpoint=", "--resume=")):
            kept.append(token)
    python = ["python", "-m", "repro"]
    return {
        "resume with": shlex.join(
            python + kept + ["--checkpoint", root, "--resume", run_id]),
        "partial report": shlex.join(
            python + ["report", "--partial", run_id, "--checkpoint", root]),
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Library errors (:class:`ReproError`) become a one-line ``error:``
    message and exit code 2; Ctrl-C exits 130 and SIGTERM 143, after the
    event sink is flushed.  Any enabled sweep checkpoint is already on
    disk because tasks are persisted as they complete, so a run that was
    interrupted, or aborted by a task error or a dead worker, prints the
    command line that continues it with ``--resume``, stored beside the
    checkpoint before the command runs.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    log.configure(verbosity=args.verbose - args.quiet)
    logger = log.get_logger("cli")
    if args.trace_out:
        events.set_sink(args.trace_out)
    run_id = events.begin_run(args.command, run_id=args.resume)
    checkpoint_dir = None if getattr(args, "partial", None) else (
        args.checkpoint or (".repro/checkpoints" if args.resume else None)
    )
    hints = (_resume_hints(argv, checkpoint_dir, run_id)
             if checkpoint_dir else {})
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        prior_sigterm = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        engine.set_default_jobs(args.jobs)
        if checkpoint_dir:
            checkpoint_mod.set_checkpoint_dir(checkpoint_dir)
            checkpoint_mod.save_resume_command(
                checkpoint_dir, run_id, hints["resume with"])
            _say(f"checkpointing sweeps under {checkpoint_dir}/{run_id}")
        _COMMANDS[args.command](args)
        if args.metrics:
            metrics = engine.run_metrics(run_id)
            sweeps = engine.timing_summary(run_id)
            # The worker count the sweeps ran with (a sweep with fewer
            # chunks than workers runs with fewer); the request only when
            # the command ran no sweep.
            jobs = max((s["jobs"] for s in sweeps),
                       default=engine.resolve_jobs(args.jobs))
            events.write_manifest(
                args.metrics,
                command=args.command,
                seed=args.seed,
                window=args.window,
                jobs=jobs,
                run_id=run_id,
                metrics=metrics.as_dict(),
                sweeps=sweeps,
                extra={
                    "executor": engine.resolve_executor(jobs),
                    "span_self_s": span_self_times(
                        metrics.spans,
                        sum(t.cpu_s for t in engine.timings(run_id)),
                    ),
                },
            )
            _say(f"wrote run manifest {args.metrics}")
        return 0
    except ReproError as exc:
        events.emit("run_error", run_id=run_id, error=str(exc))
        logger.error(f"error: {exc}")
        if isinstance(exc, SweepAbortedError):
            # What committed is on disk: the resume re-runs the rest.
            for label, command in hints.items():
                logger.error(f"{label}: {command}")
        return 2
    except KeyboardInterrupt as exc:
        code = 143 if isinstance(exc, _Terminated) else 130
        events.emit("run_interrupted", run_id=run_id, exit_code=code)
        logger.error("terminated" if code == 143 else "interrupted")
        for label, command in hints.items():
            logger.error(f"{label}: {command}")
        return code
    finally:
        if on_main_thread:
            signal.signal(signal.SIGTERM, prior_sigterm or signal.SIG_DFL)
        engine.set_default_jobs(None)
        checkpoint_mod.set_checkpoint_dir(None)
        if args.trace_out:
            events.set_sink(None)


if __name__ == "__main__":
    sys.exit(main())
