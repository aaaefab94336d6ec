"""The one-shot report generator."""

import json

from repro.experiments.report import generate_report
from repro.experiments.runner import SimulationWindow


def test_generate_report(tmp_path):
    data = generate_report(
        tmp_path, window=SimulationWindow(warmup=1000, measured=4000),
        subset=("gzip",),
    )
    json_path = tmp_path / "results.json"
    md_path = tmp_path / "results.md"
    assert json_path.exists() and md_path.exists()

    loaded = json.loads(json_path.read_text())
    assert loaded["vias"]["num_vias"] == 1409
    assert len(loaded["fig4"]) == 7
    assert loaded["coverage"]["store_stream_correct"] is True
    assert set(loaded["wires"]) == {"2d-a", "2d-2a", "3d-2a"}
    assert abs(sum(float(v) for v in loaded["fig7"]["fractions"].values()) - 1.0) < 1e-6

    text = md_path.read_text()
    assert "Figure 4" in text
    assert "Table 8" in text
    assert "fault coverage" in text
    assert data["vias"]["num_vias"] == 1409

    # The span table carries each span's self time and the task time no
    # span covers; the run manifest carries the same table.
    assert "self (s)" in text and "(unattributed)" in text
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["span_self_s"] == loaded["span_self_s"]
    # Each sweep row rounds its cpu_s to milliseconds.
    sweeps = loaded["sweep_timings"]
    cpu_s = sum(t["cpu_s"] for t in sweeps)
    assert abs(sum(loaded["span_self_s"].values()) - cpu_s) \
        <= 5e-4 * len(sweeps) + 1e-9
