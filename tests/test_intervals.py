"""Unit and property tests for RunMap (the SACK scoreboard core).

The first half pins RunMap's single-tag face: a plain set of disjoint
half-open integer intervals, the shape of the receiver's out-of-order
store (:class:`~repro.tcp.scoreboard.ReceiverScoreboard`).  Every set
operation is a RunMap call with one tag, through the helpers below.
The second half pins the tagged runs the sender's scoreboard uses.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.intervals import RunMap

#: The one tag of a single-tag map.
ON = 1


def _add(m, start, end):
    """Cover ``[start, end)``; the newly covered sub-ranges."""
    return [(s, e) for s, e, _ in m.map_range(start, end, {None: ON})]


def _remove(m, start, end):
    """Uncover ``[start, end)``; the sub-ranges actually removed."""
    return [(s, e) for s, e, _ in m.map_range(start, end, {ON: None})]


def _remove_below(m, bound):
    return sum(m.clear_below(bound).values())


def _intervals(m):
    return [(s, e) for s, e, _ in m.runs]


def _gaps(m, start, end):
    return [(s, e) for s, e, t in m.segments(start, end) if t is None]


def _covers(m, start, end):
    return all(t is not None for _, _, t in m.segments(start, end))


class TestBasics:
    def test_empty(self):
        s = RunMap()
        assert len(s) == 0
        assert not s
        assert s.get(5) is None
        assert _intervals(s) == []

    def test_single_add(self):
        s = RunMap()
        assert _add(s, 5, 6)
        assert s.get(5) is not None
        assert s.get(4) is None
        assert s.get(6) is None
        assert len(s) == 1

    def test_duplicate_add_returns_false(self):
        s = RunMap()
        assert _add(s, 5, 6)
        assert not _add(s, 5, 6)
        assert len(s) == 1

    def test_adjacent_adds_merge(self):
        s = RunMap()
        _add(s, 1, 2)
        _add(s, 2, 3)
        _add(s, 3, 4)
        assert _intervals(s) == [(1, 4)]

    def test_min_max(self):
        s = RunMap()
        _add(s, 10, 15)
        _add(s, 20, 25)
        assert s.min == 10
        assert s.max == 25

    def test_min_on_empty_raises(self):
        with pytest.raises(ValueError):
            RunMap().min


class TestAddRange:
    def test_disjoint_ranges(self):
        s = RunMap()
        assert _add(s, 0, 5) == [(0, 5)]
        assert _add(s, 10, 15) == [(10, 15)]
        assert _intervals(s) == [(0, 5), (10, 15)]
        assert len(s) == 10

    def test_empty_range_is_noop(self):
        s = RunMap()
        assert _add(s, 5, 5) == []
        assert _add(s, 5, 3) == []

    def test_overlapping_range_returns_only_new(self):
        s = RunMap()
        _add(s, 0, 10)
        new = _add(s, 5, 15)
        assert new == [(10, 15)]
        assert _intervals(s) == [(0, 15)]

    def test_range_bridging_two_intervals(self):
        s = RunMap()
        _add(s, 0, 5)
        _add(s, 10, 15)
        new = _add(s, 3, 12)
        assert new == [(5, 10)]
        assert _intervals(s) == [(0, 15)]

    def test_range_inside_existing_returns_nothing(self):
        s = RunMap()
        _add(s, 0, 100)
        assert _add(s, 10, 20) == []
        assert len(s) == 100

    def test_adjacent_ranges_merge(self):
        s = RunMap()
        _add(s, 0, 5)
        _add(s, 5, 10)
        assert _intervals(s) == [(0, 10)]

    def test_range_covering_multiple_gaps(self):
        s = RunMap()
        _add(s, 2, 4)
        _add(s, 6, 8)
        _add(s, 10, 12)
        new = _add(s, 0, 14)
        assert new == [(0, 2), (4, 6), (8, 10), (12, 14)]
        assert _intervals(s) == [(0, 14)]

    def test_repeated_sack_block_is_cheap_noop(self):
        s = RunMap()
        _add(s, 100, 200)
        for _ in range(10):
            assert _add(s, 100, 200) == []


class TestRemoveBelow:
    def test_removes_whole_intervals(self):
        s = RunMap()
        _add(s, 0, 5)
        _add(s, 10, 15)
        assert _remove_below(s, 7) == 5
        assert _intervals(s) == [(10, 15)]

    def test_truncates_partial_interval(self):
        s = RunMap()
        _add(s, 0, 10)
        assert _remove_below(s, 4) == 4
        assert _intervals(s) == [(4, 10)]
        assert len(s) == 6

    def test_noop_below_everything(self):
        s = RunMap()
        _add(s, 10, 20)
        assert _remove_below(s, 5) == 0
        assert len(s) == 10


class TestQueries:
    def test_first_gap_at_or_after(self):
        s = RunMap()
        _add(s, 0, 5)
        _add(s, 7, 10)
        assert s.first_gap_at_or_after(0) == 5
        assert s.first_gap_at_or_after(5) == 5
        assert s.first_gap_at_or_after(6) == 6
        assert s.first_gap_at_or_after(8) == 10

    def test_covered_in(self):
        s = RunMap()
        _add(s, 0, 5)
        _add(s, 10, 20)
        assert s.covered_in(0, 25) == 15
        assert s.covered_in(3, 12) == 4
        assert s.covered_in(5, 10) == 0
        assert s.covered_in(12, 12) == 0


@st.composite
def _operations(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=1, max_value=30),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return [(start, start + width) for start, width in ops]


class TestProperties:
    @given(_operations())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_set(self, ranges):
        """A single-tag RunMap behaves exactly like a plain set of ints."""
        s = RunMap()
        reference = set()
        for start, end in ranges:
            new = _add(s, start, end)
            new_flat = {v for a, b in new for v in range(a, b)}
            expected_new = set(range(start, end)) - reference
            assert new_flat == expected_new
            reference |= set(range(start, end))
        assert len(s) == len(reference)
        covered = {v for a, b in _intervals(s) for v in range(a, b)}
        assert covered == reference

    @given(_operations(), st.integers(min_value=0, max_value=250))
    @settings(max_examples=100, deadline=None)
    def test_remove_below_matches_reference(self, ranges, bound):
        s = RunMap()
        reference = set()
        for start, end in ranges:
            _add(s, start, end)
            reference |= set(range(start, end))
        removed = _remove_below(s, bound)
        assert removed == len({v for v in reference if v < bound})
        remaining = {v for a, b in _intervals(s) for v in range(a, b)}
        assert remaining == {v for v in reference if v >= bound}

    @given(_operations())
    @settings(max_examples=100, deadline=None)
    def test_intervals_sorted_and_disjoint(self, ranges):
        s = RunMap()
        for start, end in ranges:
            _add(s, start, end)
        intervals = _intervals(s)
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 < a2  # disjoint and non-adjacent (merged)
        for a, b in intervals:
            assert a < b


class TestIntervalSetExtensions:
    """Removal, gaps and coverage on the single-tag face."""

    def test_remove_range_splits_interval(self):
        s = RunMap()
        _add(s, 0, 10)
        assert _remove(s, 3, 6) == [(3, 6)]
        assert _intervals(s) == [(0, 3), (6, 10)]
        assert len(s) == 7

    def test_remove_range_skips_uncovered(self):
        s = RunMap()
        _add(s, 0, 2)
        _add(s, 5, 8)
        assert _remove(s, 1, 7) == [(1, 2), (5, 7)]
        assert _intervals(s) == [(0, 1), (7, 8)]

    def test_remove_range_noop(self):
        s = RunMap()
        _add(s, 5, 8)
        assert _remove(s, 0, 5) == []
        assert _remove(s, 8, 12) == []
        assert _remove(s, 6, 6) == []
        assert _intervals(s) == [(5, 8)]

    def test_iter_gaps(self):
        s = RunMap()
        _add(s, 2, 4)
        _add(s, 6, 8)
        assert _gaps(s, 0, 10) == [(0, 2), (4, 6), (8, 10)]
        assert _gaps(s, 2, 8) == [(4, 6)]
        assert _gaps(s, 2, 4) == []
        assert _gaps(s, 5, 5) == []

    def test_contains_range(self):
        s = RunMap()
        _add(s, 2, 8)
        assert _covers(s, 2, 8)
        assert _covers(s, 3, 5)
        assert _covers(s, 4, 4)  # empty range is vacuously covered
        assert not _covers(s, 1, 3)
        assert not _covers(s, 7, 9)

    @given(_operations(), _operations())
    @settings(max_examples=100, deadline=None)
    def test_remove_range_matches_reference(self, adds, removes):
        s = RunMap()
        reference = set()
        for start, end in adds:
            _add(s, start, end)
            reference |= set(range(start, end))
        for start, end in removes:
            removed = _remove(s, start, end)
            removed_flat = {v for a, b in removed for v in range(a, b)}
            assert removed_flat == reference & set(range(start, end))
            reference -= set(range(start, end))
        assert {v for a, b in _intervals(s) for v in range(a, b)} == reference

    @given(_operations())
    @settings(max_examples=100, deadline=None)
    def test_iter_gaps_complements_coverage(self, ranges):
        s = RunMap()
        for start, end in ranges:
            _add(s, start, end)
        covered = {v for a, b in _intervals(s) for v in range(a, b)}
        gaps = {v for a, b in _gaps(s, 0, 260) for v in range(a, b)}
        assert gaps == set(range(260)) - covered


# ----------------------------------------------------------------------
# RunMap
# ----------------------------------------------------------------------

def _expand(m):
    """Flatten a RunMap to a per-integer tag dict."""
    return {v: t for s, e, t in m.runs for v in range(s, e)}


def _ref_map_range(ref, start, end, table):
    """Per-integer model of RunMap.map_range, with run-merged returns."""
    changed = []
    for seq in range(start, end):
        old = ref.get(seq)
        if old in table:
            new = table[old]
            if new == old:  # identity mapping: not a change
                continue
            if new is None:
                ref.pop(seq, None)
            else:
                ref[seq] = new
            if changed and changed[-1][1] == seq and changed[-1][2] == old:
                changed[-1] = (changed[-1][0], seq + 1, old)
            else:
                changed.append((seq, seq + 1, old))
    return changed


def _ref_claim_first(ref, tag, new_tag, start, limit):
    """Per-integer model of RunMap.claim_first."""
    if limit <= 0:
        return None
    cands = [s for s, t in ref.items() if t == tag and s >= start]
    if not cands:
        return None
    first = min(cands)
    seq = first
    while seq < first + limit and ref.get(seq) == tag:
        ref[seq] = new_tag
        seq += 1
    return (first, seq)


class TestRunMapBasics:
    def test_map_range_into_gap(self):
        m = RunMap()
        assert m.map_range(3, 7, {None: 1}) == [(3, 7, None)]
        assert m.runs == [(3, 7, 1)]
        assert m.get(3) == 1 and m.get(7) is None
        assert m.count(1) == 4 and len(m) == 4

    def test_map_range_retag_and_merge(self):
        m = RunMap()
        m.map_range(0, 4, {None: 1})
        m.map_range(6, 8, {None: 1})
        # Retagging the gap to the same tag merges all three runs.
        assert m.map_range(4, 6, {None: 1}) == [(4, 6, None)]
        assert m.runs == [(0, 8, 1)]

    def test_map_range_passthrough_untouched_tags(self):
        m = RunMap()
        m.map_range(0, 10, {None: 1})
        m.map_range(2, 5, {1: 2})
        # Table without key 1: the tagged stretch passes through.
        assert m.map_range(0, 10, {None: 3}) == []
        assert m.runs == [(0, 2, 1), (2, 5, 2), (5, 10, 1)]

    def test_map_range_repeated_noop_is_cheap(self):
        m = RunMap()
        m.map_range(0, 100, {None: 1})
        assert m.map_range(0, 100, {None: 1}) == []
        assert m.map_range(10, 90, {None: 1}) == []

    def test_map_range_untag(self):
        m = RunMap()
        m.map_range(0, 6, {None: 1})
        assert m.map_range(2, 4, {1: None}) == [(2, 4, 1)]
        assert m.runs == [(0, 2, 1), (4, 6, 1)]
        assert m.count(1) == 4

    def test_set_range_overwrites(self):
        m = RunMap()
        m.map_range(0, 4, {None: 1})
        m.set_range(2, 6, 2)
        assert m.runs == [(0, 2, 1), (2, 6, 2)]
        m.set_range(0, 6, None)
        assert not m

    def test_clear_below_returns_tag_counts(self):
        m = RunMap()
        m.map_range(0, 3, {None: 1})
        m.map_range(5, 9, {None: 2})
        assert m.clear_below(7) == {1: 3, 2: 2}
        assert m.runs == [(7, 9, 2)]
        assert m.clear_below(7) == {}

    def test_claim_first_whole_run_merges_neighbours(self):
        m = RunMap()
        m.map_range(0, 3, {None: 3})   # existing claimed run
        m.map_range(3, 6, {None: 2})   # pending
        m.map_range(6, 9, {None: 3})
        assert m.claim_first(2, 3, 0, 10) == (3, 6)
        assert m.runs == [(0, 9, 3)]   # both neighbours absorbed

    def test_claim_first_partial_run(self):
        m = RunMap()
        m.map_range(4, 10, {None: 2})
        assert m.claim_first(2, 3, 0, 2) == (4, 6)
        assert m.runs == [(4, 6, 3), (6, 10, 2)]
        assert m.claim_first(2, 3, 0, 2) == (6, 8)
        assert m.runs == [(4, 8, 3), (8, 10, 2)]

    def test_claim_first_straddling_start(self):
        m = RunMap()
        m.map_range(0, 8, {None: 2})
        assert m.claim_first(2, 3, 5, 2) == (5, 7)
        assert m.runs == [(0, 5, 2), (5, 7, 3), (7, 8, 2)]

    def test_claim_first_nothing_pending(self):
        m = RunMap()
        assert m.claim_first(2, 3, 0, 5) is None
        m.map_range(0, 4, {None: 1})
        assert m.claim_first(2, 3, 0, 5) is None
        m.map_range(4, 6, {None: 2})
        assert m.claim_first(2, 3, 6, 5) is None  # only below start
        assert m.claim_first(2, 3, 0, 0) is None  # zero budget

    def test_first_tag(self):
        m = RunMap()
        assert m.first_tag(2) is None
        m.map_range(3, 6, {None: 2})
        assert m.first_tag(2) == 3
        assert m.first_tag(2, 4) == 4  # clipped into the run
        assert m.first_tag(2, 6) is None
        assert m.first_tag(1) is None

    def test_run_at_and_tail_runs(self):
        m = RunMap()
        m.map_range(0, 2, {None: 1})
        m.map_range(4, 6, {None: 2})
        m.map_range(8, 9, {None: 1})
        assert m.run_at(5) == (4, 6, 2)
        assert m.run_at(3) is None
        assert m.tail_runs(2) == [(4, 6, 2), (8, 9, 1)]
        assert m.tail_runs(5) == [(0, 2, 1), (4, 6, 2), (8, 9, 1)]

    def test_segments_tile_exactly(self):
        m = RunMap()
        m.map_range(2, 4, {None: 1})
        m.map_range(6, 8, {None: 2})
        pieces = list(m.segments(0, 10))
        assert pieces == [
            (0, 2, None), (2, 4, 1), (4, 6, None), (6, 8, 2), (8, 10, None),
        ]
        assert list(m.segments(3, 3)) == []

    def test_first_gap_at_or_after(self):
        m = RunMap()
        m.map_range(0, 3, {None: 1})
        m.map_range(3, 5, {None: 2})  # adjacent, different tag
        assert m.first_gap_at_or_after(0) == 5
        assert m.first_gap_at_or_after(5) == 5
        assert m.first_gap_at_or_after(7) == 7


@st.composite
def _runmap_ops(draw):
    tags = st.sampled_from([1, 2, 3, 4])
    maybe_tag = st.sampled_from([None, 1, 2, 3, 4])
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(["map", "set", "clear", "claim"]))
        if kind == "map":
            start = draw(st.integers(min_value=0, max_value=60))
            width = draw(st.integers(min_value=1, max_value=20))
            pairs = draw(
                st.dictionaries(maybe_tag, maybe_tag, min_size=1, max_size=3)
            )
            ops.append(("map", start, start + width, pairs))
        elif kind == "set":
            start = draw(st.integers(min_value=0, max_value=60))
            width = draw(st.integers(min_value=1, max_value=20))
            ops.append(("set", start, start + width, draw(maybe_tag)))
        elif kind == "clear":
            ops.append(("clear", draw(st.integers(min_value=0, max_value=80))))
        else:
            ops.append((
                "claim",
                draw(tags),
                draw(tags),
                draw(st.integers(min_value=0, max_value=60)),
                draw(st.integers(min_value=1, max_value=10)),
            ))
    return ops


class TestRunMapProperties:
    @given(_runmap_ops())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_integer_reference(self, ops):
        """Every RunMap mutator must agree with a naive per-int dict —
        both the return value and the resulting state — and keep the
        run-structure invariants after every operation."""
        m = RunMap()
        ref = {}
        for op in ops:
            if op[0] == "map":
                _, start, end, table = op
                got = m.map_range(start, end, table)
                want = _ref_map_range(ref, start, end, table)
                assert got == want, (op, got, want)
            elif op[0] == "set":
                _, start, end, tag = op
                m.set_range(start, end, tag)
                for seq in range(start, end):
                    if tag is None:
                        ref.pop(seq, None)
                    else:
                        ref[seq] = tag
            elif op[0] == "clear":
                _, bound = op
                got = m.clear_below(bound)
                want = {}
                for seq in [s for s in ref if s < bound]:
                    t = ref.pop(seq)
                    want[t] = want.get(t, 0) + 1
                assert got == want, (op, got, want)
            else:
                _, tag, new_tag, start, limit = op
                got = m.claim_first(tag, new_tag, start, limit)
                want = _ref_claim_first(ref, tag, new_tag, start, limit)
                assert got == want, (op, got, want)
            m.check()
            assert _expand(m) == ref

    @given(_runmap_ops(), st.integers(min_value=0, max_value=85))
    @settings(max_examples=150, deadline=None)
    def test_queries_match_reference(self, ops, probe):
        m = RunMap()
        ref = {}
        for op in ops:
            if op[0] == "map":
                m.map_range(op[1], op[2], op[3])
                _ref_map_range(ref, op[1], op[2], op[3])
            elif op[0] == "set":
                for seq in range(op[1], op[2]):
                    if op[3] is None:
                        ref.pop(seq, None)
                    else:
                        ref[seq] = op[3]
                m.set_range(op[1], op[2], op[3])
            elif op[0] == "clear":
                m.clear_below(op[1])
                for seq in [s for s in ref if s < op[1]]:
                    del ref[seq]
            else:
                m.claim_first(op[1], op[2], op[3], op[4])
                _ref_claim_first(ref, op[1], op[2], op[3], op[4])
        # Point query
        assert m.get(probe) == ref.get(probe)
        # first_tag per tag
        for tag in (1, 2, 3, 4):
            want = min(
                (s for s, t in ref.items() if t == tag and s >= probe),
                default=None,
            )
            got = m.first_tag(tag, probe)
            if want is not None:
                assert got == want
            else:
                assert got is None
            assert m.count(tag) == sum(1 for t in ref.values() if t == tag)
        # first gap
        gap = probe
        while gap in ref:
            gap += 1
        assert m.first_gap_at_or_after(probe) == gap
        # covered_in + segments tile the probe window exactly
        assert m.covered_in(probe, probe + 10) == sum(
            1 for s in ref if probe <= s < probe + 10
        )
        cursor = probe
        for s, e, t in m.segments(probe, probe + 10):
            assert s == cursor and e > s
            for seq in range(s, e):
                assert ref.get(seq) == t
            cursor = e
        assert cursor == probe + 10
        # run_at agrees with the expansion
        run = m.run_at(probe)
        if probe in ref:
            assert run is not None and run[0] <= probe < run[1]
            assert run[2] == ref[probe]
        else:
            assert run is None
