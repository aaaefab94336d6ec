#!/usr/bin/env python
"""Thermal transient of snapping on the checker die.

Simulates the time trajectory of the 3d-2a chip's temperature when a
workload phase raises the checker from idle to its full 15 W (the DTM
scenario the paper's Discussion paragraph sketches): how fast the chip
approaches the trigger, and what steady-state throttle DTM settles at.

    python examples/thermal_transient.py
"""

from repro.common.config import ChipModel, ThermalConfig
from repro.experiments.thermal import standard_floorplan
from repro.thermal import ChipThermalModel, DtmController, TransientThermalModel


def main() -> None:
    plan = standard_floorplan(ChipModel.THREE_D_2A, checker_power_w=15.0)
    model = ChipThermalModel(plan, ThermalConfig())
    transient = TransientThermalModel(model.grid, timestep_s=1e-3)

    idle = model.power_maps({"checker": 15.0 * 0.32})   # leakage only
    busy = model.power_maps({"checker": 15.0})

    print("phase 1: checker idle (leakage only), 50 ms")
    state, peaks = transient.run(idle, duration_s=0.05)
    print(f"  peak settles at {peaks[-1]:.1f} C")

    print("phase 2: checker goes busy (15 W), 100 ms")
    state, peaks = transient.run(busy, duration_s=0.1, state=state)
    for t_ms in (1, 5, 10, 25, 50, 100):
        step = min(len(peaks) - 1, t_ms - 1)
        print(f"  t = {t_ms:3d} ms : peak {peaks[step]:.1f} C")
    steady = model.solve().peak_c
    print(f"  steady state would be {steady:.1f} C")

    print("\nDTM steady state for an 84 C trigger:")
    controller = DtmController(plan, trigger_c=84.0)
    result = controller.steady_state()
    if result.emergency:
        print(f"  throttle to {result.frequency_fraction:.2f}x frequency "
              f"(peak {result.throttled_peak_c:.1f} C, "
              f"up to {result.performance_cost:.0%} performance cost)")
    else:
        print("  no emergency: full speed fits the trigger")


if __name__ == "__main__":
    main()
