"""The thermal grid solver and chip-level thermal model."""

import numpy as np
import pytest

from repro.common.config import ChipModel, ThermalConfig
from repro.common.errors import ThermalModelError
from repro.floorplan.layouts import build_floorplan
from repro.thermal.grid import GridThermalModel
from repro.thermal.hotspot import ChipThermalModel, solve_floorplan
from repro.thermal.materials import Layer, stack_for_2d, stack_for_3d
from repro.thermal.transient import TransientThermalModel


def tiny_model(rows=10, cols=10, sink_r=10.0):
    layers = [
        Layer("base", 1e-3, 1.0 / 400.0),
        Layer("active", 1e-6, 0.01, has_power=True),
    ]
    return GridThermalModel(
        layers=layers, width_m=5e-3, height_m=5e-3, rows=rows, cols=cols,
        sink_r_k_mm2_per_w=sink_r, secondary_r_k_mm2_per_w=1e5, ambient_c=47.0,
    )


class TestGridSolver:
    def test_zero_power_is_ambient(self):
        model = tiny_model()
        temps = model.solve({"active": np.zeros((10, 10))})
        assert np.allclose(temps["active"], 47.0, atol=1e-6)

    def test_uniform_power_uniform_temperature(self):
        model = tiny_model()
        power = np.full((10, 10), 0.1)
        temps = model.solve({"active": power})["active"]
        assert temps.std() < 0.05 * (temps.mean() - 47.0)

    def test_uniform_power_matches_analytic(self):
        model = tiny_model()
        power = np.full((10, 10), 0.1)   # 10 W over 25 mm²
        temps = model.solve({"active": power})["active"]
        # 1D expectation: convection (10 K·mm²/W) in series with the 1 mm
        # copper base (1e-3 m x 1/400 (mK)/W = 2.5 K·mm²/W) over 25 mm².
        expected = 10.0 * (10.0 + 2.5) / 25.0
        assert temps.mean() - 47.0 == pytest.approx(expected, rel=0.05)

    def test_hotspot_is_hotter_than_surroundings(self):
        model = tiny_model()
        power = np.zeros((10, 10))
        power[5, 5] = 2.0
        temps = model.solve({"active": power})["active"]
        assert temps[5, 5] == temps.max()
        assert temps[0, 0] < temps[5, 5]

    def test_superposition(self):
        """The solver is linear: T(P1+P2) - Tamb = (T(P1)-Tamb) + (T(P2)-Tamb)."""
        model = tiny_model()
        p1 = np.zeros((10, 10)); p1[2, 2] = 1.0
        p2 = np.zeros((10, 10)); p2[7, 7] = 1.5
        t1 = model.solve({"active": p1})["active"] - 47.0
        t2 = model.solve({"active": p2})["active"] - 47.0
        t12 = model.solve({"active": p1 + p2})["active"] - 47.0
        assert np.allclose(t12, t1 + t2, atol=1e-8)

    def test_more_power_is_hotter_everywhere(self):
        model = tiny_model()
        p = np.full((10, 10), 0.05)
        t_low = model.solve({"active": p})["active"]
        t_high = model.solve({"active": 2 * p})["active"]
        assert np.all(t_high >= t_low - 1e-9)

    def test_power_on_non_power_layer_rejected(self):
        model = tiny_model()
        with pytest.raises(ThermalModelError):
            model.solve({"base": np.ones((10, 10))})

    def test_wrong_shape_rejected(self):
        model = tiny_model()
        with pytest.raises(ThermalModelError):
            model.solve({"active": np.ones((5, 5))})

    def test_negative_power_rejected(self):
        model = tiny_model()
        with pytest.raises(ThermalModelError):
            model.solve({"active": np.full((10, 10), -1.0)})

    def test_unknown_layer_rejected(self):
        model = tiny_model()
        with pytest.raises(KeyError):
            model.solve({"nope": np.ones((10, 10))})

    def test_duplicate_layer_names_rejected(self):
        layers = [
            Layer("base", 1e-3, 1.0 / 400.0),
            Layer("active", 1e-6, 0.01, has_power=True),
            Layer("active", 1e-6, 0.01, has_power=True),
        ]
        with pytest.raises(ThermalModelError, match="duplicate layer names"):
            GridThermalModel(
                layers=layers, width_m=5e-3, height_m=5e-3, rows=4, cols=4,
                sink_r_k_mm2_per_w=10.0, secondary_r_k_mm2_per_w=1e5,
                ambient_c=47.0,
            )


def _layers(**base):
    """The tiny_model stack, with fields of its base layer overridden."""
    base = {"thickness_m": 1e-3, "resistivity_mk_per_w": 1.0 / 400.0, **base}
    return [Layer("base", **base), Layer("active", 1e-6, 0.01, has_power=True)]


class TestRejectsSingularOrIndefiniteG:
    """Inputs that would make G singular or indefinite raise up front."""

    @pytest.mark.parametrize("overrides", [
        {"width_m": 0.0},
        {"height_m": float("nan")},
        {"sink_r_k_mm2_per_w": -10.0},
        {"sink_r_k_mm2_per_w": float("inf")},
        {"secondary_r_k_mm2_per_w": 0.0},
        {"layers": _layers(thickness_m=0.0)},
        {"layers": _layers(thickness_m=float("inf"))},
        {"layers": _layers(resistivity_mk_per_w=-0.01)},
        {"layers": _layers(lateral_scale=0.0)},
    ], ids=[
        "zero-width", "nan-height", "negative-sink", "infinite-sink",
        "zero-secondary", "zero-thickness", "infinite-thickness",
        "negative-resistivity", "zero-lateral-scale",
    ])
    def test_bad_geometry_rejected(self, overrides):
        kwargs = {
            "layers": _layers(), "width_m": 5e-3, "height_m": 5e-3,
            "rows": 4, "cols": 4, "sink_r_k_mm2_per_w": 10.0,
            "secondary_r_k_mm2_per_w": 1e5, "ambient_c": 47.0, **overrides,
        }
        with pytest.raises(ThermalModelError, match="finite and positive"):
            GridThermalModel(**kwargs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_conductance_fails_the_pivot_check(self):
        # A subnormal resistivity is finite and positive, but its
        # conductivity overflows, so the per-mode pivots are not finite.
        with pytest.raises(ThermalModelError, match="pivot"):
            GridThermalModel(
                layers=_layers(resistivity_mk_per_w=1e-320), width_m=5e-3,
                height_m=5e-3, rows=4, cols=4, sink_r_k_mm2_per_w=10.0,
                secondary_r_k_mm2_per_w=1e5, ambient_c=47.0,
            )

    def test_nan_power_rejected(self):
        power = np.full((4, 4), 0.1)
        power[0, 0] = np.nan
        with pytest.raises(ThermalModelError, match="non-finite"):
            tiny_model(rows=4, cols=4).solve({"active": power})

    def test_infinite_power_rejected_by_transient_step(self):
        transient = TransientThermalModel(tiny_model(rows=4, cols=4))
        power = np.full((4, 4), 0.1)
        power[2, 3] = np.inf
        with pytest.raises(ThermalModelError, match="non-finite"):
            transient.step(transient.initial_state(), {"active": power})


class TestStacks:
    def test_2d_stack_has_one_power_layer(self):
        layers = stack_for_2d(ThermalConfig())
        assert sum(1 for l in layers if l.has_power) == 1

    def test_3d_stack_has_two_power_layers(self):
        layers = stack_for_3d(ThermalConfig())
        assert sum(1 for l in layers if l.has_power) == 2

    def test_3d_stack_layer_order(self):
        names = [l.name for l in stack_for_3d(ThermalConfig())]
        assert names.index("active_1") < names.index("d2d_via") < names.index("active_2")

    def test_table3_thicknesses(self):
        cfg = ThermalConfig()
        layers = {l.name: l for l in stack_for_3d(cfg)}
        assert layers["active_1"].thickness_m == pytest.approx(1e-6)
        assert layers["d2d_via"].thickness_m == pytest.approx(10e-6)
        assert layers["bulk_si_2"].thickness_m == pytest.approx(20e-6)


class TestChipThermalModel:
    @pytest.fixture(scope="class")
    def base_result(self):
        return solve_floorplan(build_floorplan(ChipModel.TWO_D_A, wire_power_w=5.1))

    def test_peak_in_plausible_range(self, base_result):
        assert 60.0 < base_result.peak_c < 100.0

    def test_hottest_block_is_a_core_unit(self, base_result):
        assert base_result.hottest_block() in (
            "regfile", "int_exec", "rob", "rename",
        )

    def test_banks_cooler_than_core(self, base_result):
        assert base_result.block_peak_c["bank0"] < base_result.block_peak_c["regfile"]

    def test_block_mean_below_block_peak(self, base_result):
        for name in base_result.block_peak_c:
            assert base_result.block_mean_c[name] <= base_result.block_peak_c[name] + 1e-9

    def test_3d_stacking_raises_temperature(self, base_result):
        stacked = solve_floorplan(
            build_floorplan(ChipModel.THREE_D_2A, checker_power_w=7.0, wire_power_w=12.1)
        )
        assert stacked.peak_c > base_result.peak_c

    def test_checker_power_raises_3d_peak(self):
        def peak(p):
            return solve_floorplan(
                build_floorplan(ChipModel.THREE_D_2A, checker_power_w=p, wire_power_w=12.1)
            ).peak_c
        assert peak(25.0) > peak(15.0) > peak(2.0)

    def test_block_power_overrides(self):
        plan = build_floorplan(ChipModel.TWO_D_A, wire_power_w=5.1)
        model = ChipThermalModel(plan)
        hot = model.solve({"regfile": 12.0}).peak_c
        nominal = model.solve().peak_c
        assert hot > nominal

    def test_repeated_solves_are_consistent(self):
        plan = build_floorplan(ChipModel.TWO_D_A, wire_power_w=5.1)
        model = ChipThermalModel(plan)
        assert model.solve().peak_c == pytest.approx(model.solve().peak_c)
