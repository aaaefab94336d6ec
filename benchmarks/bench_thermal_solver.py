"""Cosine-mode thermal solver vs sparse LU, recorded to ``BENCH_thermal.json``.

For the 2d-a, 2d-2a and 3d-2a stacks on the paper's 50×50 grid (7 W
checker, the Figure 4 floorplans), one process times

* **spectral** -- ``GridThermalModel`` construction (the per-mode
  factorization) plus one ``solve``, best of a few repeats; and
* **splu** -- a sparse LU of the same grid's reference matrix
  (``model.matrix``) plus one solve of the same power map, the path the
  spectral solver replaced.  Assembling the matrix is timed on its own.

Both answers are checked against each other (max |ΔT| ≤ 1e-9 °C) and
against the matrix, as the residual ‖G·T − P‖∞ of each, with ``T`` the
rise over ambient.  Every speedup is taken against the splu run of the
same stack in the same process, never against a stored time:

    pytest benchmarks/bench_thermal_solver.py -s
"""

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import print_table
from scipy.sparse.linalg import splu

from repro.common.config import ChipModel, ThermalConfig
from repro.experiments.thermal import standard_floorplan
from repro.thermal.grid import GridThermalModel
from repro.thermal.hotspot import ChipThermalModel

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_thermal.json"
_CHIPS = (ChipModel.TWO_D_A, ChipModel.TWO_D_2A, ChipModel.THREE_D_2A)
_SPECTRAL_REPEATS = 5
_MAX_DT_C = 1e-9


def _grid_inputs(chip: ChipModel):
    """The grid constructor arguments and power maps of one chip."""
    captured = {}

    def capture(**kwargs):
        captured.update(kwargs)
        return GridThermalModel(**kwargs)

    plan = standard_floorplan(chip, checker_power_w=7.0)
    model = ChipThermalModel(plan, ThermalConfig(), grid_factory=capture)
    return captured, model.power_maps()


def _stacked(grid: GridThermalModel, temps) -> np.ndarray:
    return np.concatenate([temps[layer.name].ravel() for layer in grid.layers])


def _measure(chip: ChipModel) -> dict:
    kwargs, maps = _grid_inputs(chip)
    best = None
    for _ in range(_SPECTRAL_REPEATS):
        start = time.perf_counter()
        grid = GridThermalModel(**kwargs)
        built = time.perf_counter()
        temps = grid.solve(maps)
        done = time.perf_counter()
        if best is None or done - start < best[0] + best[1]:
            best = (built - start, done - built)
    spectral_build_s, spectral_solve_s = best

    power = np.zeros((len(grid.layers), grid.rows * grid.cols))
    for name, cells in maps.items():
        power[grid.layer_index(name)] = cells.ravel()
    power = power.ravel()
    start = time.perf_counter()
    matrix = grid.matrix
    assembled = time.perf_counter()
    lu = splu(matrix)
    factored = time.perf_counter()
    reference_rise = lu.solve(power)
    solved = time.perf_counter()
    del lu

    spectral_rise = _stacked(grid, temps) - grid.ambient_c
    reference_temps = reference_rise + grid.ambient_c
    spectral_s = spectral_build_s + spectral_solve_s
    splu_s = solved - assembled
    return {
        "layers": len(grid.layers),
        "unknowns": matrix.shape[0],
        "spectral_factorize_s": round(spectral_build_s, 6),
        "spectral_solve_s": round(spectral_solve_s, 6),
        "splu_assemble_s": round(assembled - start, 4),
        "splu_factorize_s": round(factored - assembled, 4),
        "splu_solve_s": round(solved - factored, 4),
        "speedup": round(splu_s / spectral_s, 1),
        "residual_spectral_w": float(
            np.max(np.abs(matrix @ spectral_rise - power))
        ),
        "residual_splu_w": float(np.max(np.abs(matrix @ reference_rise - power))),
        "max_abs_dt_c": float(np.max(np.abs(_stacked(grid, temps) - reference_temps))),
        "peak_c": float(reference_temps.max()),
    }


@pytest.mark.slow
def test_thermal_solver_speedup():
    results = {chip.value: _measure(chip) for chip in _CHIPS}
    print_table(
        "Thermal solver: cosine modes vs sparse LU (50x50, same run)",
        ["stack", "unknowns", "spectral (s)", "splu (s)", "speedup",
         "resid spectral", "resid splu", "max |dT| (C)"],
        [
            [name, r["unknowns"],
             f"{r['spectral_factorize_s'] + r['spectral_solve_s']:.4f}",
             f"{r['splu_factorize_s'] + r['splu_solve_s']:.2f}",
             f"{r['speedup']:.0f}x", f"{r['residual_spectral_w']:.1e}",
             f"{r['residual_splu_w']:.1e}", f"{r['max_abs_dt_c']:.1e}"]
            for name, r in results.items()
        ],
    )
    _RESULT_PATH.write_text(json.dumps({
        "grid": [ThermalConfig().grid_rows, ThermalConfig().grid_cols],
        "checker_power_w": 7.0,
        "host": {"machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "stacks": results,
    }, indent=2) + "\n")

    for result in results.values():
        assert result["max_abs_dt_c"] <= _MAX_DT_C
        # Acceptance floor; the measured margin is far larger.
        assert result["speedup"] >= 10.0
