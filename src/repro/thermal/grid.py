"""Steady-state 3D resistive-grid thermal solver (HotSpot grid model).

Each layer is discretised into a rows×cols grid of cells.  Cells conduct
laterally to their four neighbours and vertically to the cells above/below;
the bottom face convects to ambient through the heat-sink resistance and
the top face through a (much weaker) secondary package path.  Solving
``G·(T - T_amb) = P`` yields the steady-state temperature field.

The solver is exact and direct, but never forms ``G``.  Every conductance
is uniform within a layer, so each layer's lateral coupling is the same
pair of 1D path Laplacians (along rows and along columns, insulated
edges), only scaled per layer.  The orthonormal DCT-II cosine modes are
eigenvectors of both, so in the cosine basis the lateral coupling of every
layer is diagonal at once and ``G`` splits into rows×cols independent
tridiagonal systems through the stack, one per mode.  The constructor
eliminates them once -- their pivots depend only on geometry, which is
why the experiment drivers share one model across dozens of power
assignments -- and :meth:`GridThermalModel.solve` is dense cosine-matrix
products around one vectorized forward/back sweep.  The assembled sparse
``G`` survives as the reference oracle, :attr:`GridThermalModel.matrix`.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from repro.common.errors import ThermalModelError
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.thermal.materials import Layer

__all__ = ["GridThermalModel"]


def _cosine_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II basis (one mode per row) and its eigenvalues.

    ``Q[k, j] = sqrt(2/n)·cos(πk(j+½)/n)`` with row 0 ``sqrt(1/n)``
    diagonalizes the n-point path Laplacian (insulated ends):
    ``L = Qᵀ·diag(μ)·Q`` with ``μ[k] = 2 - 2cos(πk/n)``.
    """
    k = np.arange(n)
    q = math.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n)
    q[0] = math.sqrt(1.0 / n)
    return q, 2.0 - 2.0 * np.cos(np.pi * k / n)


def _require_positive(what: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ThermalModelError(f"{what} must be finite and positive, got {value!r}")


class GridThermalModel:
    """Steady-state conduction solver over a layered grid."""

    def __init__(
        self,
        layers: list[Layer],
        width_m: float,
        height_m: float,
        rows: int,
        cols: int,
        sink_r_k_mm2_per_w: float,
        secondary_r_k_mm2_per_w: float,
        ambient_c: float,
    ):
        if not layers:
            raise ThermalModelError("stack needs at least one layer")
        if rows < 2 or cols < 2:
            raise ThermalModelError("grid must be at least 2x2")
        names = [layer.name for layer in layers]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            # layer_index / solve address layers by name; a duplicate would
            # silently route power to the first match only.
            raise ThermalModelError(
                f"duplicate layer names in stack: {sorted(duplicates)}"
            )
        # A zero, negative or non-finite value here makes G singular or
        # indefinite: the solve would return NaN or sub-ambient nonsense.
        _require_positive("die width", width_m)
        _require_positive("die height", height_m)
        _require_positive("sink resistance", sink_r_k_mm2_per_w)
        _require_positive("secondary resistance", secondary_r_k_mm2_per_w)
        for layer in layers:
            _require_positive(f"{layer.name} thickness", layer.thickness_m)
            _require_positive(f"{layer.name} resistivity", layer.resistivity_mk_per_w)
            _require_positive(f"{layer.name} lateral scale", layer.lateral_scale)
        self.layers = list(layers)
        self.rows = rows
        self.cols = cols
        self.width_m = width_m
        self.height_m = height_m
        self.ambient_c = ambient_c

        dx = width_m / cols
        dy = height_m / rows
        cell_area_m2 = dx * dy
        cell_area_mm2 = cell_area_m2 * 1e6
        t = np.array([layer.thickness_m for layer in self.layers])
        rho = np.array([layer.resistivity_mk_per_w for layer in self.layers])
        k = np.array([layer.conductivity_w_per_mk for layer in self.layers])
        scale = np.array([layer.lateral_scale for layer in self.layers])
        # Per-layer conductance between neighbouring cells.  Lateral
        # east-west: cross-section dy*t over distance dx; north-south the
        # same turned by 90 degrees.
        self._g_ew = k * dy * t / dx * scale
        self._g_ns = k * dx * t / dy * scale
        # Vertical to the next layer: series of half-thickness slabs.
        self._g_vert = 1.0 / (
            (t[:-1] / 2.0 * rho[:-1] + t[1:] / 2.0 * rho[1:]) / cell_area_m2
        )
        # Boundary conductances to ambient: half-thickness conduction from
        # the cell centre to the face, in series with the convective film.
        sink_g = cell_area_mm2 / sink_r_k_mm2_per_w
        secondary_g = cell_area_mm2 / secondary_r_k_mm2_per_w
        self._g_bot = 1.0 / ((t[0] / 2.0 * rho[0]) / cell_area_m2 + 1.0 / sink_g)
        self._g_top = 1.0 / ((t[-1] / 2.0 * rho[-1]) / cell_area_m2 + 1.0 / secondary_g)

        self._qr, mu_r = _cosine_modes(rows)
        self._qc, mu_c = _cosine_modes(cols)
        self._qr_t = np.ascontiguousarray(self._qr.T)
        self._qc_t = np.ascontiguousarray(self._qc.T)
        # Eigenvalue of each layer's lateral coupling on mode (i, j).
        self._lateral = (
            self._g_ns[:, None, None] * mu_r[None, :, None]
            + self._g_ew[:, None, None] * mu_c[None, None, :]
        )
        with span("thermal.factorize"):
            self._factors = self._factorize(np.zeros(len(self.layers)))
        get_registry().counter("thermal.factorizations").inc()

    # ------------------------------------------------------------------
    def _factorize(self, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode Thomas factors of ``G + diag(shift)``, one shift per layer.

        Returns ``(inv_w, u)``: the reciprocal pivots, shape (layers, rows,
        cols), and ``u[l] = g_vert[l] / w[l]``, which is both the forward
        elimination multiplier into layer l+1 and the back-substitution
        coupling from it.  Each pivot is accumulated as a sum of positive
        conductances -- the mode's own lateral and boundary terms plus the
        series path to ambient through the layers below -- so no
        cancellation occurs and positive inputs give positive pivots.
        """
        extra = np.array(shift, dtype=float)
        extra[0] += self._g_bot
        extra[-1] += self._g_top
        g_up = np.append(self._g_vert, 0.0)  # nothing above the top layer
        pivots = np.empty_like(self._lateral)
        below = 0.0  # conductance to ambient through the layers below
        for li in range(len(self.layers)):
            excess = self._lateral[li] + extra[li] + below
            pivots[li] = excess + g_up[li]
            below = g_up[li] * excess / pivots[li]
        with np.errstate(divide="ignore", over="ignore"):
            inv_w = 1.0 / pivots
        # The sweep has no pivot failure to report, so check here that the
        # system is positive definite to working precision.
        if not np.all((pivots > 0) & np.isfinite(pivots) & np.isfinite(inv_w)):
            raise ThermalModelError(
                "conductance matrix is singular or indefinite: "
                "a mode pivot is not finite and positive"
            )
        return inv_w, self._g_vert[:, None, None] * inv_w[:-1]

    def _rise(self, rhs: np.ndarray, factors) -> np.ndarray:
        """Solve ``(G + diag(shift))·x = rhs`` for the factors of one shift.

        ``rhs`` and the result are (layers, rows, cols) stacks.
        """
        inv_w, u = factors
        x = self._qr @ rhs @ self._qc_t  # into cosine modes
        for li in range(1, len(x)):
            x[li] += u[li - 1] * x[li - 1]
        x *= inv_w
        for li in range(len(x) - 2, -1, -1):
            x[li] += u[li] * x[li + 1]
        return self._qr_t @ x @ self._qc  # back to cells

    def _power_stack(self, power_maps: dict[str, np.ndarray]) -> np.ndarray:
        """Validated power maps as one (layers, rows, cols) stack."""
        power = np.zeros((len(self.layers), self.rows, self.cols))
        for name, grid in power_maps.items():
            li = self.layer_index(name)
            if not self.layers[li].has_power:
                raise ThermalModelError(f"layer {name!r} cannot dissipate power")
            if grid.shape != (self.rows, self.cols):
                raise ThermalModelError(
                    f"power map for {name!r} has shape {grid.shape}, "
                    f"expected {(self.rows, self.cols)}"
                )
            if not np.all(np.isfinite(grid)):
                raise ThermalModelError(f"non-finite cell power in {name!r}")
            if np.any(grid < 0):
                raise ThermalModelError("negative cell power")
            power[li] += grid
        return power

    # ------------------------------------------------------------------
    @cached_property
    def matrix(self):
        """The assembled sparse conductance matrix ``G`` (CSC).

        The reference oracle for :meth:`solve`, built on first access:
        cells are numbered layer by layer, row-major within a layer, and
        the boundary conductances sit on the diagonal.
        """
        from scipy.sparse import csc_matrix, diags, identity, kron

        def path_laplacian(n: int):
            degree = np.full(n, 2.0)
            degree[[0, -1]] = 1.0
            return diags([-np.ones(n - 1), degree, -np.ones(n - 1)], [-1, 0, 1])

        vertical = np.zeros(len(self.layers))
        vertical[:-1] += self._g_vert
        vertical[1:] += self._g_vert
        vertical[0] += self._g_bot
        vertical[-1] += self._g_top
        east_west = kron(identity(self.rows), path_laplacian(self.cols))
        north_south = kron(path_laplacian(self.rows), identity(self.cols))
        return csc_matrix(
            kron(diags(self._g_ew), east_west)
            + kron(diags(self._g_ns), north_south)
            + kron(
                diags([-self._g_vert, vertical, -self._g_vert], [-1, 0, 1]),
                identity(self.rows * self.cols),
            )
        )

    def layer_index(self, name: str) -> int:
        """Index of a layer by name."""
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise KeyError(f"no layer named {name!r}")

    def solve(self, power_maps: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Solve for temperatures given per-layer power maps (watts/cell).

        ``power_maps`` maps layer names to (rows, cols) arrays; layers not
        mentioned dissipate nothing.  Returns temperature grids (°C) for
        every layer.
        """
        power = self._power_stack(power_maps)
        get_registry().counter("thermal.solves").inc()
        with span("thermal.solve"):
            temps = self._rise(power, self._factors) + self.ambient_c
        return {layer.name: temps[i] for i, layer in enumerate(self.layers)}
