"""The compiled per-stream front end vs its oracles.

``BranchPredictor.update_window`` runs ``branch_update`` from
``_kernel.c`` on the predictor's own tables; the per-branch ``update`` is
its oracle, so any cut of a stream into windows must leave the flags, the
counter tables, the global history, the BTB rows and the lookup and
mispredict counts exactly where per-branch updates leave them.  Tiny
geometries (1-64 entry tables, 0-12 history bits, 1-5 BTB sets including
non-powers of two, 1-4 ways) make aliasing, history wrap and BTB eviction
fire on short streams.  ``build_trace_schedule`` runs ``trace_schedule``
and must equal its NumPy oracle ``_build_trace_schedule_reference`` on
any trace, down to empty and one-row traces and queues of one entry.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import BranchPredictorConfig, LeadingCoreConfig
from repro.common.errors import SimulationError
from repro.core import _native
from repro.core.branch import ADDRESS_LIMIT, BranchPredictor, BranchStream
from repro.core.leading import (
    _build_trace_schedule_reference,
    build_trace_schedule,
)
from repro.isa.opcodes import OP_BY_CODE
from repro.isa.soa import TraceArrays

_TABLES = ("_bimodal", "_pht", "_chooser",
           "_btb_tags", "_btb_targets", "_btb_fill")


def _require_kernel():
    if _native.load() is None:
        pytest.skip("compiled kernel unavailable")


def _assert_same_predictor(a, b):
    for table in _TABLES:
        assert np.array_equal(getattr(a, table), getattr(b, table)), table
    assert a._history == b._history
    assert (a.lookups, a.mispredicts) == (b.lookups, b.mispredicts)


_SIZES = st.sampled_from([1, 2, 4, 8, 16, 32, 64])
_CONFIGS = st.builds(
    BranchPredictorConfig,
    bimodal_entries=_SIZES,
    level2_entries=_SIZES,
    history_bits=st.integers(0, 12),
    btb_sets=st.integers(1, 5),
    btb_ways=st.integers(1, 4),
)
# A few sites and targets, so BTB rows hit, alias and mismatch, plus
# addresses anywhere in the BTB's range.
_ADDRESSES = st.one_of(
    st.integers(0, 24).map(lambda k: 4 * k),
    st.integers(0, ADDRESS_LIMIT - 1),
)
_BRANCHES = st.lists(
    st.tuples(_ADDRESSES, st.booleans(), _ADDRESSES), max_size=300
)


@given(
    config=_CONFIGS,
    branches=_BRANCHES,
    cut_fracs=st.lists(st.floats(0.0, 1.0), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_update_window_equals_per_branch_updates(config, branches, cut_fracs):
    _require_kernel()
    compiled, oracle = BranchPredictor(config), BranchPredictor(config)
    n = len(branches)
    cuts = sorted(int(f * n) for f in cut_fracs)
    for start, end in zip([0, *cuts], [*cuts, n]):
        window = branches[start:end]
        pcs = np.array([b[0] for b in window], dtype=np.int64)
        takens = np.array([b[1] for b in window], dtype=bool)
        targets = np.array([b[2] for b in window], dtype=np.int64)
        flags = compiled.update_window(pcs, takens, targets)
        expected = [oracle.update(*b) for b in window]
        assert flags.dtype == bool
        assert flags.tolist() == expected
        _assert_same_predictor(compiled, oracle)
        assert [compiled.predict(pc) for pc in pcs.tolist()] == [
            oracle.predict(pc) for pc in pcs.tolist()
        ]
    assert compiled._native is not None


def test_clone_copies_the_tables():
    _require_kernel()
    predictor = BranchPredictor(BranchPredictorConfig(btb_sets=3))
    predictor.update_window([0, 4, 8], [True, True, False], [12, 16, 20])
    clone = predictor.clone()
    _assert_same_predictor(clone, predictor)
    clone.update_window([0, 4], [False, True], [12, 40])
    assert not np.array_equal(clone._btb_targets, predictor._btb_targets)
    assert clone.lookups == predictor.lookups + 2


def test_update_window_rejects_state_it_cannot_index():
    """BTB fill counts bound the rows the routine scans and the history
    must fit its mask; a rejected call changes nothing."""
    _require_kernel()
    predictor = BranchPredictor(BranchPredictorConfig(btb_ways=2))
    predictor._btb_fill[3] = 3
    with pytest.raises(SimulationError):
        predictor.update_window([12], [True], [40])
    predictor._btb_fill[3] = 0
    predictor._history = predictor._history_mask + 1
    with pytest.raises(SimulationError):
        predictor.update_window([12], [True], [40])
    predictor._history = 0
    _assert_same_predictor(predictor, BranchPredictor())
    assert predictor.update_window([12], [True], [40]).tolist() == [True]


@pytest.mark.parametrize("pc, target", [
    (-4, 0), (ADDRESS_LIMIT, 0), (0, -1), (0, ADDRESS_LIMIT),
])
def test_addresses_outside_the_btb_range_raise(pc, target):
    """pcs and targets beyond the uint32 BTB raise instead of wrapping,
    before any branch of the window is resolved."""
    predictor = BranchPredictor()
    with pytest.raises(SimulationError):
        predictor.update(pc, True, target)
    with pytest.raises(SimulationError):
        predictor.update_window([0, pc], [True, True], [0, target])
    fresh = BranchPredictor()
    _assert_same_predictor(predictor, fresh)
    last = ADDRESS_LIMIT - 1
    assert predictor.update(last, True, last)  # a cold BTB
    assert predictor.predict(last) == (True, last)
    assert predictor.update_window([last], [True], [last]).tolist() == [False]


def test_view_flags_count_mispredicts_past_int8():
    """View flags are read-only bool slices whose builtin ``sum`` is the
    window's mispredict count as a Python int (int8 flags would wrap at
    127, NumPy scalars would not serialize as JSON)."""
    rng = np.random.default_rng(5)
    n = 2000
    pcs = rng.integers(0, 64, size=n) * 4
    takens = rng.random(n) < 0.5
    targets = rng.integers(0, 64, size=n) * 4
    reference = BranchPredictor()
    view = BranchStream(BranchPredictor()).view()
    flags = view.update_window(pcs, takens, targets)
    expected = reference.update_window(pcs, takens, targets)
    assert np.array_equal(flags, expected)
    assert flags.readonly
    count = sum(flags)
    assert type(count) is int
    assert count == view.mispredicts == reference.mispredicts > 127


def _trace(ops, dst, src1, src2):
    n = len(ops)
    zeros = np.zeros(n, dtype=np.int64)
    return TraceArrays(
        op=np.array(ops, dtype=np.int8),
        dst=np.array(dst, dtype=np.int16),
        src1=np.array(src1, dtype=np.int16),
        src2=np.array(src2, dtype=np.int16),
        pc=zeros, address=zeros, taken=zeros.astype(bool), target=zeros,
        hard=zeros.astype(bool),
    )


_REGISTER = st.integers(-3, 70)
_ROWS = st.lists(
    st.tuples(st.integers(0, len(OP_BY_CODE) - 1), _REGISTER, _REGISTER,
              _REGISTER),
    max_size=120,
)


@given(
    rows=_ROWS,
    rob=st.integers(1, 130),
    lsq=st.integers(1, 130),
    int_iq=st.integers(1, 130),
    fp_iq=st.integers(1, 130),
)
@example(rows=[], rob=1, lsq=1, int_iq=1, fp_iq=1)
@example(rows=[(0, 1, 1, -1)], rob=1, lsq=1, int_iq=1, fp_iq=1)
@example(rows=[(0, -1, 0, 0)], rob=1, lsq=1, int_iq=1, fp_iq=1)  # no writer
@settings(max_examples=200, deadline=None)
def test_schedule_equals_numpy_oracle(rows, rob, lsq, int_iq, fp_iq):
    _require_kernel()
    trace = _trace(*(list(column) for column in zip(*rows))) if rows \
        else TraceArrays.empty()
    config = LeadingCoreConfig(
        rob_size=rob, lsq_size=lsq, int_issue_queue_size=int_iq,
        fp_issue_queue_size=fp_iq,
    )
    got = build_trace_schedule(trace, config)
    expected = _build_trace_schedule_reference(trace, config)
    for column in ("cg", "ig", "w1", "w2"):
        got_column = getattr(got, column)
        assert got_column.dtype == np.int64
        assert got_column.tolist() == getattr(expected, column).tolist()


def test_schedule_rejects_what_it_cannot_index():
    """Op codes index the class table and queue sizes the rings."""
    _require_kernel()
    config = LeadingCoreConfig()
    with pytest.raises(SimulationError):
        build_trace_schedule(_trace([len(OP_BY_CODE)], [0], [0], [0]), config)
    with pytest.raises(SimulationError):
        build_trace_schedule(
            _trace([0], [0], [0], [0]),
            LeadingCoreConfig(lsq_size=0),
        )
