"""Public API surface: every __all__ entry resolves, docstrings exist,
and importing the package neither loads scipy or networkx nor builds the
kernel."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.common",
    "repro.isa",
    "repro.workloads",
    "repro.cache",
    "repro.core",
    "repro.power",
    "repro.floorplan",
    "repro.thermal",
    "repro.interconnect",
    "repro.reliability",
    "repro.experiments",
    "repro.viz",
]

MODULES = [
    "repro.cli",
    "repro.presets",
    "repro.common.units",
    "repro.common.tables",
    "repro.core.tmr",
    "repro.thermal.transient",
    "repro.thermal.dtm",
    "repro.thermal.leakage",
    "repro.experiments.ablations",
    "repro.experiments.calibration",
    "repro.experiments.error_performance",
    "repro.experiments.report",
    "repro.experiments.sensitivity",
    "repro.experiments.shared_cache",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports_and_documents(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} has no module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} exports nothing"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_objects_have_docstrings(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if callable(obj) or isinstance(obj, type):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_version():
    import repro

    assert repro.__version__.count(".") == 2


def test_import_does_not_load_scipy():
    """scipy serves only the thermal grid's reference oracle and networkx
    nothing at run time, so importing the package and its thermal solvers
    must pay neither's import."""
    src = Path(importlib.util.find_spec("repro").origin).parents[1]
    probe = (
        "import sys, repro, repro.thermal; "
        "print([m for m in ('scipy', 'networkx') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_import_does_not_load_servers_or_profilers():
    """The run record is the manifest and the event sink, so importing the
    package loads no HTTP server and no profiler."""
    src = Path(importlib.util.find_spec("repro").origin).parents[1]
    probe = (
        "import sys, repro; "
        "print([m for m in ('http.server', 'socketserver', 'cProfile') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_import_builds_no_kernel(tmp_path):
    """The compiled timing kernel is built and loaded on first use only:
    importing the package loads neither its loader nor setuptools, and
    writes nothing to the kernel cache."""
    src = Path(importlib.util.find_spec("repro").origin).parents[1]
    probe = (
        "import sys, repro, repro.core; "
        "print([m for m in ('repro.core._native', 'setuptools') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src),
             "XDG_CACHE_HOME": str(tmp_path)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
    assert list(tmp_path.iterdir()) == []
