"""Transient thermal simulation: heat capacities + implicit time stepping.

The steady-state grid answers "where does the design settle"; DTM and
workload phase behaviour need the *trajectory*.  Each grid cell gets a
heat capacity from its material's volumetric specific heat, and the
solver steps ``C dT/dt = P - G(T - boundary)`` with backward Euler —
unconditionally stable, so milliseconds-long thermal transients take a
handful of solves.  A layer's cells share one heat capacity, so ``C/dt``
is a per-layer diagonal shift of ``G`` and each step reuses the grid's
cosine-mode solver with its own pivots.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ThermalModelError
from repro.thermal.grid import GridThermalModel

__all__ = ["TransientThermalModel", "VOLUMETRIC_HEAT_CAPACITY"]

# Volumetric heat capacity, J/(m^3 K).
VOLUMETRIC_HEAT_CAPACITY = {
    "si": 1.75e6,
    "cu": 3.45e6,
}


def _capacity_for(layer) -> float:
    """Volumetric heat capacity for a layer, by material guess from name."""
    name = layer.name
    if "si" in name or "active" in name:
        return VOLUMETRIC_HEAT_CAPACITY["si"]
    # metal stacks, spreader, sink, d2d vias: copper-dominated
    return VOLUMETRIC_HEAT_CAPACITY["cu"]


class TransientThermalModel:
    """Backward-Euler transient stepping over a :class:`GridThermalModel`.

    Each step solves ``(C/dt + G)·(T' - T_amb) = P + C/dt·(T - T_amb)``,
    where ``C`` is the per-cell heat capacity (layer thickness × cell area
    × volumetric heat capacity) and ``G`` the grid's conductance matrix
    with its boundary terms on the diagonal.
    """

    def __init__(self, grid: GridThermalModel, timestep_s: float = 1e-4):
        if timestep_s <= 0:
            raise ThermalModelError("timestep must be positive")
        self.grid = grid
        self.timestep_s = timestep_s
        cell_area = (grid.width_m / grid.cols) * (grid.height_m / grid.rows)
        self._c_over_dt = np.array([
            _capacity_for(layer) * layer.thickness_m * cell_area
            for layer in grid.layers
        ]) / timestep_s
        self._factors = grid._factorize(self._c_over_dt)
        self._shape = (len(grid.layers), grid.rows, grid.cols)

    # ------------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        """All cells at ambient."""
        return np.full(self._shape, self.grid.ambient_c).ravel()

    def step(
        self, state: np.ndarray, power_maps: dict[str, np.ndarray]
    ) -> np.ndarray:
        """Advance one timestep; returns the new temperature state."""
        ambient = self.grid.ambient_c
        rhs = self.grid._power_stack(power_maps)
        rise = np.reshape(state, self._shape) - ambient
        rhs += self._c_over_dt[:, None, None] * rise
        return (self.grid._rise(rhs, self._factors) + ambient).ravel()

    def run(
        self,
        power_maps: dict[str, np.ndarray],
        duration_s: float,
        state: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[float]]:
        """Simulate ``duration_s`` of constant power.

        Returns the final state and the peak temperature after each step.
        """
        if state is None:
            state = self.initial_state()
        peaks: list[float] = []
        steps = max(1, int(round(duration_s / self.timestep_s)))
        for _ in range(steps):
            state = self.step(state, power_maps)
            peaks.append(float(state.max()))
        return state, peaks

    def peak_of(self, state: np.ndarray, layer_name: str) -> float:
        """Peak temperature within one layer of a state vector."""
        per_layer = self.grid.rows * self.grid.cols
        li = self.grid.layer_index(layer_name)
        return float(state[li * per_layer : (li + 1) * per_layer].max())
