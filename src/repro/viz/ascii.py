"""ASCII rendering of thermal fields, floorplans, and histograms.

The offline environment has no plotting stack, so the examples and CLI
render results as text: temperature grids as shaded-character heatmaps,
floorplans as labelled tile maps, and distributions as bar charts.
"""

from __future__ import annotations

import numpy as np

from repro.floorplan.layouts import Floorplan

__all__ = [
    "heatmap",
    "floorplan_map",
    "bar_chart",
]

_SHADES = " .:-=+*#%@"


def heatmap(
    grid: np.ndarray,
    width: int = 60,
    height: int = 24,
    vmin: float | None = None,
    vmax: float | None = None,
    legend: bool = True,
) -> str:
    """Render a 2D field as a character heatmap (hotter = denser glyph)."""
    if grid.ndim != 2:
        raise ValueError("heatmap needs a 2D array")
    lo = float(grid.min()) if vmin is None else vmin
    hi = float(grid.max()) if vmax is None else vmax
    span = max(1e-12, hi - lo)

    rows, cols = grid.shape
    out_rows = min(height, rows)
    out_cols = min(width, cols)
    lines = []
    for r in range(out_rows):
        src_r = int(r * rows / out_rows)
        line = []
        for c in range(out_cols):
            src_c = int(c * cols / out_cols)
            level = (float(grid[src_r, src_c]) - lo) / span
            idx = min(len(_SHADES) - 1, max(0, int(level * (len(_SHADES) - 1) + 0.5)))
            line.append(_SHADES[idx])
        lines.append("".join(line))
    if legend:
        lines.append(f"[{lo:.1f} '{_SHADES[0]}' .. '{_SHADES[-1]}' {hi:.1f}]")
    return "\n".join(lines)


def floorplan_map(
    plan: Floorplan, die: int = 0, width: int = 60, height: int = 24
) -> str:
    """Render one die of a floorplan as a labelled tile map.

    Each block is painted with a letter; the legend maps letters back to
    block names.
    """
    blocks = plan.die_blocks(die)
    if not blocks:
        raise ValueError(f"die {die} has no blocks")
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
    legend = {}
    canvas = [["." for _ in range(width)] for _ in range(height)]
    for i, block in enumerate(blocks):
        letter = letters[i % len(letters)]
        legend[letter] = block.name
        x0 = int(block.rect.x / plan.die_width_mm * width)
        x1 = max(x0 + 1, int(block.rect.x2 / plan.die_width_mm * width))
        y0 = int(block.rect.y / plan.die_height_mm * height)
        y1 = max(y0 + 1, int(block.rect.y2 / plan.die_height_mm * height))
        for y in range(y0, min(y1, height)):
            for x in range(x0, min(x1, width)):
                canvas[y][x] = letter
    # Render with y increasing upward (floorplan convention).
    lines = ["".join(row) for row in reversed(canvas)]
    lines.append("")
    lines.extend(
        f"  {letter} = {name}" for letter, name in sorted(legend.items())
    )
    return "\n".join(lines)


def bar_chart(
    data: dict, width: int = 50, value_format: str = "{:.1%}"
) -> str:
    """Horizontal bar chart of a label -> value mapping."""
    if not data:
        raise ValueError("bar chart needs at least one entry")
    peak = max(data.values())
    label_width = max(len(str(k)) for k in data)
    lines = []
    for key, value in data.items():
        bar = "#" * (int(width * value / peak) if peak > 0 else 0)
        lines.append(
            f"{str(key).rjust(label_width)} | {bar} {value_format.format(value)}"
        )
    return "\n".join(lines)
