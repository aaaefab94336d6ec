"""Floorplan-derived NUCA topology vs the calibrated hop tables.

The NUCA model's per-bank hop counts (``repro.cache.nuca._BANK_HOPS``)
are calibrated tables reproducing the paper's average hit latencies.
Here hop counts are derived from the floorplan instead: banks sharing an
edge on one die are linked, the controller attaches to the lower-die
banks bordering it, and the upper-die banks hang off the via pillar above
the controller.  A 0-1 breadth-first search then gives every bank's
distance, and the checks below keep the calibrated tables from drifting
away from the geometry that justifies them.
"""

from collections import deque

import pytest

from repro.cache.nuca import bank_hops_for_model
from repro.common.config import ChipModel
from repro.floorplan.layouts import build_floorplan
from repro.interconnect.wires import _adjacent

_CTL = "l2_ctl"
_PILLAR = "l2_pillar"
# Links also span the checker/buffer strip that separates bank rows on
# the upper die (the wires route over it), so banks facing each other
# across a gap this narrow are neighbours too.
_MAX_GAP_MM = 1.1
# One hop gets a request from the core into the controller's router.
_INGRESS_HOPS = 1


def _faces_across_gap(a, b) -> bool:
    """Rectangles that overlap in x (or y) and face each other across a
    gap no wider than ``_MAX_GAP_MM``."""
    overlap_x = min(a.x2, b.x2) - max(a.x, b.x)
    overlap_y = min(a.y2, b.y2) - max(a.y, b.y)
    gap_y = max(a.y, b.y) - min(a.y2, b.y2)
    gap_x = max(a.x, b.x) - min(a.x2, b.x2)
    return (overlap_x > 0 and 0 < gap_y <= _MAX_GAP_MM) or (
        overlap_y > 0 and 0 < gap_x <= _MAX_GAP_MM
    )


def bank_grid(plan) -> dict[str, dict[str, int]]:
    """The NUCA network of a floorplan, as ``node -> {neighbour: hops}``.

    Nodes: the L2 controller, the via pillar (3D only) and every bank.
    The pillar's edge to the controller weighs 0 (vertical vias add no
    grid hop); every other link weighs 1.
    """
    banks = [b for b in plan.blocks if b.name.startswith("bank")]
    ctl = plan.block(_CTL)
    graph = {_CTL: {}, **{bank.name: {} for bank in banks}}

    def link(a, b, hops=1):
        graph.setdefault(a, {})[b] = hops
        graph.setdefault(b, {})[a] = hops

    for i, a in enumerate(banks):
        for b in banks[i + 1:]:
            if a.die == b.die and (
                _adjacent(a.rect, b.rect) or _faces_across_gap(a.rect, b.rect)
            ):
                link(a.name, b.name)
    for bank in banks:
        if bank.die == 0 and _adjacent(bank.rect, ctl.rect):
            link(_CTL, bank.name)
    # The pillar surfaces above the controller and reaches the upper-die
    # banks whose footprint overlaps or borders the controller's, else
    # the nearest one.
    upper = [b for b in banks if b.die == 1]
    if upper:
        link(_CTL, _PILLAR, 0)
        above = [
            b for b in upper
            if b.rect.intersection_area(ctl.rect) > 1e-9
            or _adjacent(b.rect, ctl.rect)
        ] or [min(upper, key=lambda b: b.rect.manhattan_distance_to(ctl.rect))]
        for bank in above:
            link(_PILLAR, bank.name)
    return graph


def distances(graph, source=_CTL) -> dict[str, int]:
    """Shortest distances from ``source`` to every reachable node (0-1
    BFS: a node reached over a 0-weight edge goes to the deque's front)."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour, hops in graph[node].items():
            d = dist[node] + hops
            if neighbour not in dist or d < dist[neighbour]:
                dist[neighbour] = d
                if hops:
                    queue.append(neighbour)
                else:
                    queue.appendleft(neighbour)
    return dist


def derive_bank_hops(plan) -> dict[str, int]:
    """Hop count from the requesting core to every bank, by shortest
    path plus the ingress hop."""
    return {
        name: d + _INGRESS_HOPS
        for name, d in distances(bank_grid(plan)).items()
        if name.startswith("bank")
    }


def average_hit_latency(plan, hop_cycles=4, bank_access_cycles=6) -> float:
    """Mean L2 hit latency implied by the derived topology."""
    hops = list(derive_bank_hops(plan).values())
    return sum(h * hop_cycles + bank_access_cycles for h in hops) / len(hops)


@pytest.fixture(scope="module")
def plans():
    return {
        chip: build_floorplan(chip, checker_power_w=7.0)
        for chip in ChipModel
    }


def test_graph_is_connected(plans):
    for chip, plan in plans.items():
        graph = bank_grid(plan)
        assert set(distances(graph)) == set(graph), chip


def test_every_bank_reachable(plans):
    for chip, plan in plans.items():
        hops = derive_bank_hops(plan)
        banks = [b.name for b in plan.blocks if b.name.startswith("bank")]
        assert set(hops) == set(banks)
        assert all(h >= 1 for h in hops.values())


def test_derived_average_matches_calibrated_2da(plans):
    """The hand-calibrated table (18-cycle average) must agree with the
    latency the floorplan geometry implies, within a cycle or two."""
    derived = average_hit_latency(plans[ChipModel.TWO_D_A])
    table = bank_hops_for_model(ChipModel.TWO_D_A)
    calibrated = sum(h * 4 + 6 for h in table) / len(table)
    assert derived == pytest.approx(calibrated, abs=3.0)


def test_derived_average_orderings(plans):
    """2d-2a is farther on average than 2d-a; 3d-2a lands between them,
    close to 2d-a (Section 3.3's observation)."""
    lat = {
        chip: average_hit_latency(plan)
        for chip, plan in plans.items()
        if chip is not ChipModel.THREE_D_CHECKER
    }
    assert lat[ChipModel.TWO_D_A] < lat[ChipModel.TWO_D_2A]
    assert lat[ChipModel.TWO_D_A] <= lat[ChipModel.THREE_D_2A] <= lat[ChipModel.TWO_D_2A]


def test_upper_die_banks_use_the_pillar(plans):
    hops = derive_bank_hops(plans[ChipModel.THREE_D_2A])
    plan = plans[ChipModel.THREE_D_2A]
    upper = [b.name for b in plan.blocks if b.die == 1 and b.name.startswith("bank")]
    # Upper banks start right at the pillar: their minimum hop distance is
    # comparable to the lower die's closest banks.
    assert min(hops[name] for name in upper) <= 2
