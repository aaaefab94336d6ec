"""Interconnect models: inter-die vias, buses, horizontal wires, NoC."""

from repro.interconnect.buses import (
    BusSpec,
    intercore_buses,
    l2_pillar,
    total_d2d_vias,
)
from repro.interconnect.noc import RouterModel
from repro.interconnect.vias import D2dViaModel
from repro.interconnect.wires import (
    WIRE_PITCH_MM,
    WIRE_POWER_W_PER_MM,
    WireBudget,
    intercore_wire_length_mm,
    l2_wire_length_mm,
    wire_budget,
)

__all__ = [
    "BusSpec",
    "intercore_buses",
    "l2_pillar",
    "total_d2d_vias",
    "RouterModel",
    "D2dViaModel",
    "WIRE_PITCH_MM",
    "WIRE_POWER_W_PER_MM",
    "WireBudget",
    "intercore_wire_length_mm",
    "l2_wire_length_mm",
    "wire_budget",
]
