"""The cosine-mode thermal solver vs its sparse LU oracle.

:class:`GridThermalModel` solves ``G·T = P`` by diagonalizing every
layer's lateral coupling in one DCT-II basis and sweeping the resulting
per-mode tridiagonal systems through the stack.  That is exact only
because every conductance is uniform within a layer, so these tests pin
it against a direct sparse LU of the assembled matrix (``model.matrix``)
over random stacks: layer count, thicknesses, resistivities, lateral
scales, non-square dies and grids, and package resistances all vary.
The agreement bound is relative to the largest temperature rise, since
both solvers round at the scale of the solution.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from repro.common.config import ThermalConfig
from repro.experiments.thermal import fig4_thermal_sweep
from repro.thermal.grid import GridThermalModel
from repro.thermal.materials import Layer, stack_for_2d, stack_for_3d
from repro.thermal.transient import TransientThermalModel, _capacity_for

_REL_TOL = 1e-7


def _log_floats(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def _models(draw):
    """A random stack with power maps on its powered layers."""
    n = draw(st.integers(1, 16))
    powered = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    powered[draw(st.integers(0, n - 1))] = True
    layers = [
        Layer(
            f"layer_{i}",
            draw(_log_floats(1e-7, 3e-3)),
            draw(_log_floats(1.0 / 400.0, 10.0)),
            has_power=has_power,
            lateral_scale=draw(st.floats(1.0, 70.0)),
        )
        for i, has_power in enumerate(powered)
    ]
    rows = draw(st.integers(2, 16))
    cols = draw(st.integers(2, 16))
    model = GridThermalModel(
        layers=layers,
        width_m=draw(_log_floats(1e-3, 2e-2)),
        height_m=draw(_log_floats(1e-3, 2e-2)),
        rows=rows,
        cols=cols,
        sink_r_k_mm2_per_w=draw(st.floats(0.5, 20.0)),
        secondary_r_k_mm2_per_w=draw(_log_floats(1e2, 1e6)),
        ambient_c=draw(st.floats(0.0, 100.0)),
    )
    cell_power = arrays(float, (rows, cols), elements=st.floats(0.0, 2.0))
    power = {layer.name: draw(cell_power) for layer in layers if layer.has_power}
    return model, power


def _flat_power(model: GridThermalModel, power) -> np.ndarray:
    flat = np.zeros((len(model.layers), model.rows, model.cols))
    for name, grid in power.items():
        flat[model.layer_index(name)] = grid
    return flat.ravel()


def _stacked(model: GridThermalModel, temps) -> np.ndarray:
    return np.concatenate([temps[layer.name].ravel() for layer in model.layers])


def _assert_close(temps: np.ndarray, rise: np.ndarray, ambient: float) -> None:
    """``temps`` (°C) within ``_REL_TOL`` of the largest rise of ``rise``.

    The solver returns absolute temperatures, so its answer also carries
    the rounding of ``ambient + rise``, one spacing of the largest
    temperature, which dominates only for vanishing powers.
    """
    largest = np.max(np.abs(rise))
    bound = _REL_TOL * largest + np.spacing(abs(ambient) + largest)
    assert np.max(np.abs(temps - ambient - rise)) <= bound


def _assert_matches_lu(model, power):
    reference = splu(model.matrix).solve(_flat_power(model, power))
    _assert_close(_stacked(model, model.solve(power)), reference, model.ambient_c)


@given(_models())
@settings(max_examples=60, deadline=None)
def test_solve_matches_sparse_lu(drawn):
    _assert_matches_lu(*drawn)


@given(_models(), _log_floats(1e-6, 1.0), st.floats(0.0, 30.0))
@settings(max_examples=40, deadline=None)
def test_transient_step_matches_sparse_lu(drawn, timestep_s, start_rise):
    model, power = drawn
    cell_area = (model.width_m / model.cols) * (model.height_m / model.rows)
    c_over_dt = np.repeat(
        [
            _capacity_for(layer) * layer.thickness_m * cell_area / timestep_s
            for layer in model.layers
        ],
        model.rows * model.cols,
    )
    rise = np.linspace(0.0, start_rise, c_over_dt.size)
    lu = splu((diags(c_over_dt) + model.matrix).tocsc())
    reference = lu.solve(_flat_power(model, power) + c_over_dt * rise)

    transient = TransientThermalModel(model, timestep_s=timestep_s)
    stepped = transient.step(rise + model.ambient_c, power)
    _assert_close(stepped, reference, model.ambient_c)


@pytest.mark.parametrize("rows,cols", [(12, 12), (9, 14)])
@pytest.mark.parametrize("stack_for", [stack_for_2d, stack_for_3d])
def test_paper_stacks_match_sparse_lu(stack_for, rows, cols):
    config = ThermalConfig()
    layers = stack_for(config)
    model = GridThermalModel(
        layers=layers, width_m=7.1e-3, height_m=6.4e-3, rows=rows, cols=cols,
        sink_r_k_mm2_per_w=config.heatsink_resistance_k_per_w_mm2,
        secondary_r_k_mm2_per_w=config.secondary_resistance_k_per_w_mm2,
        ambient_c=config.ambient_c,
    )
    rng = np.random.default_rng(rows * cols)
    power = {
        layer.name: rng.random((rows, cols)) * 0.1
        for layer in layers
        if layer.has_power
    }
    _assert_matches_lu(model, power)


def test_fig4_sweep_is_bit_identical_across_jobs():
    thermal = ThermalConfig(grid_rows=12, grid_cols=12)
    powers = (2.0, 7.0, 15.0, 25.0)
    serial = fig4_thermal_sweep(powers, thermal, jobs=1)
    parallel = fig4_thermal_sweep(powers, thermal, jobs=2)
    assert serial == parallel
