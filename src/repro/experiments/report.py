"""One-shot report generation: every fast experiment into JSON/markdown.

``python -m repro report`` (or :func:`generate_report`) runs the
analytical and reduced-window experiments and writes a machine-readable
``results.json`` plus a human-readable ``results.md`` — the artifact a
release pipeline would publish next to EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.common.config import ChipModel
from repro.common.errors import ConfigError
from repro.common.tables import format_table
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import engine
from repro.experiments.coverage import fault_coverage_campaign
from repro.experiments.frequency import fig7_frequency_histogram
from repro.experiments.interconnect import (
    section34_wire_analysis,
    table4_bandwidth,
    via_summary,
)
from repro.experiments.pipeline_depth import table5_pipeline_power
from repro.experiments.runner import SimulationWindow
from repro.experiments.technology import (
    fig8_ser_scaling,
    fig9_mbu_curve,
    table6_variability,
    table7_devices,
    table8_power_ratios,
)
from repro.experiments.thermal import fig4_thermal_sweep, thermal_variants
from repro.obs import events
from repro.obs.tracing import UNATTRIBUTED, flatten_spans, span_self_times
from repro.workloads.profiles import get_profile

__all__ = ["generate_report", "render_partial_report"]

_DEFAULT_SUBSET = ("gzip", "mcf", "mesa")


def _collect(window: SimulationWindow, subset) -> dict:
    benchmarks = [get_profile(n) for n in subset]
    fig7 = fig7_frequency_histogram(window=window, benchmarks=benchmarks)
    coverage = fault_coverage_campaign(instructions=10_000)
    return {
        "table4": [dataclasses.asdict(r) for r in table4_bandwidth()],
        "table5": [dataclasses.asdict(r) for r in table5_pipeline_power()],
        "table6": table6_variability(),
        "table7": table7_devices(),
        "table8": [dataclasses.asdict(r) for r in table8_power_ratios()],
        "fig4": [dataclasses.asdict(r) for r in fig4_thermal_sweep()],
        "fig4_variants": {
            "7W": thermal_variants(7.0),
            "15W": thermal_variants(15.0),
        },
        "fig7": {
            "fractions": {str(k): v for k, v in fig7.fractions.items()},
            "mode": fig7.mode,
            "mean": fig7.mean,
        },
        "fig8": fig8_ser_scaling(),
        "fig9": fig9_mbu_curve(),
        "vias": dataclasses.asdict(via_summary()),
        "wires": {
            name: dataclasses.asdict(budget)
            for name, budget in section34_wire_analysis().items()
        },
        "coverage": dataclasses.asdict(coverage),
    }


def _render_markdown(data: dict) -> str:
    sections = ["# repro results\n"]
    sections.append(format_table(
        "Figure 4: 3D thermal overhead",
        ["checker W", "2d-2a C", "3d-2a C", "2d-a C"],
        [
            [r["checker_power_w"], round(r["temp_2d_2a_c"], 1),
             round(r["temp_3d_2a_c"], 1), round(r["temp_2d_a_c"], 1)]
            for r in data["fig4"]
        ],
    ))
    sections.append(format_table(
        "Figure 7: checker frequency residency",
        ["normalized f", "fraction"],
        [[k, f"{v:.3f}"] for k, v in data["fig7"]["fractions"].items()],
    ))
    sections.append(format_table(
        "Table 8: relative power",
        ["nodes", "dynamic", "leakage"],
        [
            [f"{r['old_nm']}/{r['new_nm']}", r["dynamic_derived"],
             r["leakage_derived"]]
            for r in data["table8"]
        ],
    ))
    vias = data["vias"]
    sections.append(
        f"\nd2d vias: {vias['num_vias']} "
        f"({vias['total_power_mw']:.2f} mW, {vias['total_area_mm2']:.3f} mm2)"
    )
    cov = data["coverage"]
    sections.append(
        f"fault coverage: {cov['faults_injected']} injected, "
        f"{cov['mismatches_detected']} detected, "
        f"store stream correct: {cov['store_stream_correct']}"
    )
    for name, budget in data["wires"].items():
        sections.append(
            f"wires {name}: inter-core {budget['intercore_length_mm']:.0f} mm, "
            f"power {budget['intercore_power_w'] + budget['l2_power_w']:.1f} W"
        )
    if data.get("sweep_timings"):
        sections.append(format_table(
            "Sweep timings (experiment engine)",
            ["sweep", "tasks", "jobs", "cpu (s)", "wall (s)", "speedup",
             "tasks/s"],
            [
                [t["label"], t["tasks"], t["jobs"], t["cpu_s"], t["wall_s"],
                 "—" if t["wall_s"] <= 0 or t["tasks"] == 0
                 else f"{t['speedup']:.2f}x",
                 "—" if t["wall_s"] <= 0 or t["tasks"] == 0
                 else f"{t['tasks'] / t['wall_s']:.1f}"]
                for t in data["sweep_timings"]
            ],
        ))
        resumed = [
            t for t in data["sweep_timings"]
            if t["resumed_tasks"] or t["duplicate_results"]
        ]
        if resumed:
            sections.append(format_table(
                "Sweep resilience (resumes)",
                ["sweep", "resumed", "dup results dropped"],
                [[t["label"], t["resumed_tasks"], t["duplicate_results"]]
                 for t in resumed],
            ))
    metrics = data.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        cache_rows = []
        categories = sorted({
            name.split(".")[1] for name in counters
            if name.startswith("memo.")
            and name.endswith((".hits", ".misses"))
        })
        for category in categories:
            hits = counters.get(f"memo.{category}.hits", 0)
            misses = counters.get(f"memo.{category}.misses", 0)
            if hits or misses:
                rate = hits / (hits + misses)
                cache_rows.append([category, hits, misses, f"{rate:.1%}"])
        if cache_rows:
            sections.append(format_table(
                "Artifact cache (memoized simulation artifacts)",
                ["artifact", "hits", "misses", "hit rate"],
                cache_rows,
            ))
        sections.append(format_table(
            "Run metrics (counters)",
            ["counter", "value"],
            [[name, counters[name]] for name in sorted(counters)
             if not name.startswith("sim.ops.")],
        ))
    span_rows = flatten_spans(metrics.get("spans"))
    if span_rows:
        self_s = data["span_self_s"]
        sections.append(format_table(
            "Span hot paths",
            ["span", "count", "wall (s)", "cpu (s)", "self (s)"],
            [[path, count, f"{wall:.3f}", f"{cpu:.3f}", f"{self_s[path]:.3f}"]
             for path, count, wall, cpu in span_rows]
            + [[UNATTRIBUTED, "", "", "", f"{self_s[UNATTRIBUTED]:.3f}"]],
        ))
    return "\n\n".join(sections) + "\n"


def render_partial_report(
    run_id: str,
    out_dir: str | Path,
    checkpoint_root: str | Path | None = None,
) -> dict:
    """Render what an interrupted run committed before it stopped.

    Scans every sweep checkpoint under ``<checkpoint_root>/<run_id>``
    (read-only — safe against a live run) and writes
    ``results_partial.json``/``results_partial.md``: committed task
    counts per sweep and the resume hint.  The markdown is prominently
    marked PARTIAL so it cannot be mistaken for a complete report.
    """
    root = Path(checkpoint_root) if checkpoint_root is not None else (
        checkpoint_mod.checkpoint_dir()
    )
    if root is None:
        raise ConfigError(
            "partial report needs a checkpoint directory "
            "(--checkpoint or set_checkpoint_dir)"
        )
    run_dir = Path(root) / run_id
    sweeps = [
        checkpoint_mod.scan_sweep(path)
        for path in sorted(run_dir.glob("*.jsonl"))
    ]
    data = {
        "partial": True,
        "run_id": run_id,
        "checkpoint_dir": str(root),
        "sweeps": sweeps,
        "tasks_committed": sum(s["tasks_committed"] for s in sweeps),
        "finalized_sweeps": sum(1 for s in sweeps if s["finalized"]),
    }

    sections = [
        "# repro results — PARTIAL\n",
        "**This run was interrupted.** The tables below cover only work "
        "committed to the checkpoint before the run stopped; figures and "
        "derived metrics are omitted because they would be computed from "
        f"incomplete sweeps. Resume with:\n\n"
        f"    python -m repro <command> --checkpoint {root} "
        f"--resume {run_id}\n",
    ]
    if sweeps:
        sections.append(format_table(
            "Partial sweep progress",
            ["sweep", "tasks committed", "cpu (s)", "torn lines",
             "finalized"],
            [
                [s["label"], s["tasks_committed"], f"{s['wall_s']:.2f}",
                 s["truncated_lines"], "yes" if s["finalized"] else "no"]
                for s in sweeps
            ],
        ))
    else:
        sections.append(
            f"No sweep checkpoints found under {run_dir} — the run "
            "stopped before any task committed."
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results_partial.json").write_text(
        json.dumps(data, indent=2, default=str)
    )
    (out / "results_partial.md").write_text("\n\n".join(sections) + "\n")
    return data


def generate_report(
    out_dir: str | Path,
    window: SimulationWindow | None = None,
    subset: tuple[str, ...] = _DEFAULT_SUBSET,
) -> dict:
    """Run the report experiments and write ``results.json``/``results.md``.

    Returns the collected data dictionary.
    """
    window = window or SimulationWindow(warmup=3000, measured=10_000)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Timings and metrics are scoped by run id, so a long-lived process
    # (test session, notebook) can generate several reports without one
    # run's sweeps leaking into the next — and without clearing a global
    # registry someone else may be reading.
    run_id = events.begin_run("report")
    data = _collect(window, subset)
    data["sweep_timings"] = engine.timing_summary(run_id)
    metrics = engine.run_metrics(run_id)
    data["metrics"] = metrics.as_dict()
    data["span_self_s"] = span_self_times(
        metrics.spans, sum(t.cpu_s for t in engine.timings(run_id))
    )
    (out / "results.json").write_text(json.dumps(data, indent=2, default=str))
    (out / "results.md").write_text(_render_markdown(data))
    events.write_manifest(
        out / "run_manifest.json",
        command="report",
        window=window.measured,
        run_id=run_id,
        metrics=data["metrics"],
        sweeps=data["sweep_timings"],
        extra={"span_self_s": data["span_self_s"]},
    )
    return data
