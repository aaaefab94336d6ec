"""Floorplan-level thermal analysis: rasterize blocks, solve, report.

This is the layer the experiment drivers use: give it a powered
:class:`~repro.floorplan.layouts.Floorplan` and it returns peak and
per-block temperatures, with the grid solver and stack construction hidden
behind one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.config import ThermalConfig
from repro.floorplan.layouts import Floorplan
from repro.thermal.grid import GridThermalModel
from repro.thermal.materials import stack_for_2d, stack_for_3d

__all__ = ["ThermalResult", "ChipThermalModel", "solve_floorplan"]

_ACTIVE_LAYER = {0: "active_1", 1: "active_2"}


@dataclass
class ThermalResult:
    """Temperatures of one solved floorplan."""

    peak_c: float
    block_peak_c: dict[str, float]
    block_mean_c: dict[str, float]
    layer_grids: dict[str, np.ndarray]

    def hottest_block(self) -> str:
        """Name of the hottest block."""
        return max(self.block_peak_c, key=self.block_peak_c.get)


class ChipThermalModel:
    """Reusable thermal model for one floorplan geometry.

    The grid solver is factorised at construction; :meth:`solve` can
    then be called repeatedly with different block powers (same
    geometry), which is how the checker-power sweep of Figure 4 runs.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        config: ThermalConfig | None = None,
        grid_factory=None,
    ):
        self.config = config or ThermalConfig()
        self.floorplan = floorplan
        cfg = self.config
        layers = (
            stack_for_3d(cfg) if floorplan.num_dies == 2 else stack_for_2d(cfg)
        )
        # ``grid_factory`` lets a cache (repro.common.memo) share one
        # factorised grid between floorplans with identical stacks.
        if grid_factory is None:
            grid_factory = GridThermalModel
        self.grid = grid_factory(
            layers=layers,
            width_m=floorplan.die_width_mm * 1e-3,
            height_m=floorplan.die_height_mm * 1e-3,
            rows=cfg.grid_rows,
            cols=cfg.grid_cols,
            sink_r_k_mm2_per_w=cfg.heatsink_resistance_k_per_w_mm2,
            secondary_r_k_mm2_per_w=cfg.secondary_resistance_k_per_w_mm2,
            ambient_c=cfg.ambient_c,
        )
        self._cell_w = floorplan.die_width_mm / cfg.grid_cols
        self._cell_h = floorplan.die_height_mm / cfg.grid_rows
        # Precompute block -> cell overlap fractions for rasterization.
        self._block_cells: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
        for block in floorplan.blocks:
            self._block_cells[block.name] = (
                block.die,
                *self._rasterize(block.rect),
            )

    def _rasterize(self, rect) -> tuple[np.ndarray, np.ndarray]:
        """(flat cell indices, overlap fraction of the block in each cell)."""
        cfg = self.config
        c0 = max(0, int(rect.x / self._cell_w))
        c1 = min(cfg.grid_cols, int(np.ceil(rect.x2 / self._cell_w)))
        r0 = max(0, int(rect.y / self._cell_h))
        r1 = min(cfg.grid_rows, int(np.ceil(rect.y2 / self._cell_h)))
        indices = []
        fractions = []
        for r in range(r0, r1):
            y_lo, y_hi = r * self._cell_h, (r + 1) * self._cell_h
            dy = min(y_hi, rect.y2) - max(y_lo, rect.y)
            if dy <= 0:
                continue
            for c in range(c0, c1):
                x_lo, x_hi = c * self._cell_w, (c + 1) * self._cell_w
                dx = min(x_hi, rect.x2) - max(x_lo, rect.x)
                if dx <= 0:
                    continue
                indices.append(r * cfg.grid_cols + c)
                fractions.append(dx * dy / rect.area)
        return np.array(indices, dtype=int), np.array(fractions)

    # ------------------------------------------------------------------
    def power_maps(
        self, block_powers: dict[str, float] | None = None
    ) -> dict[str, np.ndarray]:
        """Per-cell power (W) of each powered active layer.

        ``block_powers`` overrides the floorplan's per-block powers (same
        names); blocks not mentioned keep their floorplan power.
        """
        cfg = self.config
        maps = {
            name: np.zeros((cfg.grid_rows, cfg.grid_cols))
            for name in set(_ACTIVE_LAYER[b.die] for b in self.floorplan.blocks)
        }
        # Distributed interconnect power overlays the die uniformly.
        n_cells = cfg.grid_rows * cfg.grid_cols
        for die, power in self.floorplan.distributed_power_w.items():
            layer = _ACTIVE_LAYER[die]
            maps.setdefault(layer, np.zeros((cfg.grid_rows, cfg.grid_cols)))
            maps[layer] += power / n_cells
        for block in self.floorplan.blocks:
            power = block.power_w
            if block_powers and block.name in block_powers:
                power = block_powers[block.name]
            if power <= 0:
                continue
            die, idx, frac = self._block_cells[block.name]
            layer = _ACTIVE_LAYER[die]
            flat = maps[layer].ravel()
            np.add.at(flat, idx, power * frac)
        return maps

    def solve(self, block_powers: dict[str, float] | None = None) -> ThermalResult:
        """Solve for temperatures.

        ``block_powers`` overrides the floorplan's per-block powers (same
        names); blocks not mentioned keep their floorplan power.
        """
        cfg = self.config
        temps = self.grid.solve(self.power_maps(block_powers))

        block_peak: dict[str, float] = {}
        block_mean: dict[str, float] = {}
        for block in self.floorplan.blocks:
            die, idx, frac = self._block_cells[block.name]
            grid = temps[_ACTIVE_LAYER[die]].ravel()
            cells = grid[idx]
            block_peak[block.name] = float(cells.max()) if cells.size else cfg.ambient_c
            block_mean[block.name] = (
                float(np.average(cells, weights=frac)) if cells.size else cfg.ambient_c
            )
        peak = max(
            float(temps[_ACTIVE_LAYER[d]].max())
            for d in range(self.floorplan.num_dies)
            if _ACTIVE_LAYER[d] in temps
        )
        return ThermalResult(
            peak_c=peak,
            block_peak_c=block_peak,
            block_mean_c=block_mean,
            layer_grids=temps,
        )


def solve_floorplan(
    floorplan: Floorplan, config: ThermalConfig | None = None
) -> ThermalResult:
    """One-shot convenience: build the model for a floorplan and solve it."""
    return ChipThermalModel(floorplan, config).solve()
