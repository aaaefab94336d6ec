"""The command-line interface."""

import json
import shlex

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.common import memo
from repro.common.tables import format_table
from repro.experiments import engine
from repro.obs import events


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "gzip", "--chip", "2d-a", "--window", "5000"]
        )
        assert args.benchmark == "gzip"
        assert args.chip == "2d-a"
        assert args.window == 5000

    def test_bad_chip_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "gzip", "--chip", "4d"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "hetero" in out and "gzip" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "1409" in out

    def test_table8(self, capsys):
        assert main(["table8"]) == 0
        assert "2.21" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        assert "per-bit" in capsys.readouterr().out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        assert "Qcrit" in capsys.readouterr().out

    def test_vias(self, capsys):
        assert main(["vias"]) == 0
        assert "mW" in capsys.readouterr().out

    def test_wires(self, capsys):
        assert main(["wires"]) == 0
        assert "3d-2a" in capsys.readouterr().out

    def test_coverage(self, capsys):
        assert main(["coverage"]) == 0
        assert "arch. safe   : True" in capsys.readouterr().out

    def test_simulate_small(self, capsys):
        assert main(["simulate", "gzip", "--window", "4000"]) == 0
        out = capsys.readouterr().out
        assert "leading IPC" in out

    def test_table5(self, capsys):
        assert main(["table5"]) == 0
        assert "3.45" in capsys.readouterr().out

    def test_table6_and_7(self, capsys):
        assert main(["table6"]) == 0
        assert main(["table7"]) == 0
        out = capsys.readouterr().out
        assert "Vth" in out and "Lgate" in out

    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "hetero-90nm" in out and "3d-2a-7w" in out

    def test_thermalmap(self, capsys):
        assert main(["thermalmap", "--chip", "2d-a"]) == 0
        out = capsys.readouterr().out
        assert "chip peak" in out
        assert "floorplan" in out

    def test_report(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path), "--window", "3000"]) == 0
        assert (tmp_path / "results.json").exists()


class TestResilience:
    def test_parser_accepts_resilience_flags(self):
        args = build_parser().parse_args([
            "fig6", "--checkpoint", "--resume", "run-1",
        ])
        assert args.checkpoint == ".repro/checkpoints"
        assert args.resume == "run-1"

    def test_checkpoint_accepts_explicit_dir(self, tmp_path):
        args = build_parser().parse_args(
            ["list", "--checkpoint", str(tmp_path / "ck")]
        )
        assert args.checkpoint == str(tmp_path / "ck")

    def test_repro_error_exits_2(self, capsys):
        assert main(["list", "--jobs", "0"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_empty_window_exits_2(self, capsys):
        assert main(["fig6", "--window", "0"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_executor_flag_rejects_unknown_backend(self):
        # The backend follows --jobs, tasks run once and fail fast, and
        # a dead worker aborts the sweep: the removed backend, task-policy
        # and fault-injection flags, and the removed gc command, are
        # rejected by the parser.
        for argv in (["vias", "--executor", "socket"],
                     ["vias", "--executor", "local"],
                     ["vias", "--respawns", "2"],
                     ["fig6", "--retries", "2"],
                     ["fig6", "--task-timeout", "1.5"],
                     ["fig6", "--fail-fast"],
                     ["fig6", "--no-fail-fast"],
                     ["fig6", "--drain-timeout", "5"],
                     ["fig6", "--chaos", "worker-kill:0.1"],
                     ["gc", "--keep-last", "1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_manifest_records_executor(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "vias", lambda _args: None)
        for jobs, backend in (("1", "inline"), ("3", "local")):
            manifest_path = tmp_path / f"m{jobs}.json"
            assert main([
                "vias", "--jobs", jobs, "--metrics", str(manifest_path),
            ]) == 0
            manifest = json.loads(manifest_path.read_text())
            assert manifest["executor"] == backend

    def test_manifest_header_matches_the_sweeps(self, tmp_path, capsys):
        # One benchmark forms one chunk, so the pool is capped to a
        # single worker and the sweep runs inline; the header must say
        # what the sweep ran, not what was asked for.
        manifest_path = tmp_path / "one.json"
        assert main([
            "fig6", "--benchmarks", "gzip", "--window", "2000",
            "--jobs", "2", "--metrics", str(manifest_path),
        ]) == 0
        manifest = json.loads(manifest_path.read_text())
        [sweep] = manifest["sweeps"]
        assert (sweep["jobs"], sweep["executor"]) == (1, "inline")
        assert (manifest["jobs"], manifest["executor"]) == (1, "inline")

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        def _interrupt(_args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "vias", _interrupt)
        assert main(["vias"]) == 130
        assert "interrupted" in capsys.readouterr().out

    def test_interrupt_with_checkpoint_prints_resume_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        def _interrupt(_args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "vias", _interrupt)
        ck = str(tmp_path / "ck")
        assert main(
            ["vias", "--window", "3000", "--seed", "7", "--checkpoint", ck]
        ) == 130
        out = capsys.readouterr().out
        run_id = events.current_run_id()
        # The printed hint is the run's own command line, resumable as is.
        hint = next(line for line in out.splitlines()
                    if line.startswith("resume with: "))
        argv = shlex.split(hint[len("resume with: "):])
        assert argv[:3] == ["python", "-m", "repro"]
        args = build_parser().parse_args(argv[3:])
        assert (args.command, args.checkpoint, args.window, args.seed,
                args.resume) == ("vias", ck, 3000, 7, run_id)
        assert (f"partial report: python -m repro report --partial {run_id}"
                f" --checkpoint {ck}") in out

    def test_checkpoint_resume_end_to_end(self, tmp_path, capsys):
        """A checkpointed fig6 run resumed under its run id re-executes
        nothing and reproduces the manifest metrics exactly."""
        ck = tmp_path / "ck"
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        memo.clear_cache()
        engine.clear_timings()
        assert main([
            "fig6", "--benchmarks", "gzip", "--window", "2000",
            "--jobs", "1", "--checkpoint", str(ck), "--metrics", str(m1),
        ]) == 0
        manifest1 = json.loads(m1.read_text())
        run_id = manifest1["run_id"]
        assert manifest1["sweeps"][0]["resumed_tasks"] == 0
        # A real resume happens in a fresh process; clear the in-process
        # sweep registry so the two runs' accounting stays apart.
        engine.clear_timings()
        memo.clear_cache()
        assert main([
            "fig6", "--benchmarks", "gzip", "--window", "2000",
            "--jobs", "1", "--checkpoint", str(ck),
            "--resume", run_id, "--metrics", str(m2),
        ]) == 0
        manifest2 = json.loads(m2.read_text())
        assert manifest2["run_id"] == run_id
        sweep = manifest2["sweeps"][0]
        assert sweep["tasks"] == 4
        assert sweep["resumed_tasks"] == 4
        assert manifest2["metrics"] == manifest1["metrics"]


def test_format_table_alignment():
    text = format_table("T", ["a", "bb"], [[1, 2], [333, 4]])
    lines = text.splitlines()
    assert lines[0] == "=== T ==="
    assert lines[1].startswith("a")
    assert "333" in lines[3]
