"""Disjoint half-open integer runs, each carrying a small integer tag.

Used for SACK scoreboards on both ends of a connection (via
:mod:`repro.tcp.scoreboard`): the receiver's out-of-order store (one
tag) and the sender's record of per-segment recovery state (one tag per
state).  Both need *incremental* range operations — every ACK repeats
previously seen SACK blocks, and reprocessing them per-segment would
make loss episodes quadratic.  :class:`RunMap` keeps one tag per run,
so a whole window of per-segment states collapses to a handful of runs,
and its bulk retag (:meth:`RunMap.map_range`) returns only the pieces
whose tag actually changed.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Mapping, Optional, Tuple


class RunMap:
    """Disjoint, sorted, half-open integer runs, each carrying a tag.

    Every covered integer has a small integer tag, untagged integers
    form the gaps, and adjacent runs with equal tags are kept merged.
    All bulk operations are O(runs touched), never O(integers touched)
    — the property the SACK scoreboard needs to make loss episodes
    O(runs) per ACK.

    Tags are arbitrary hashable values in principle; the scoreboard
    uses small ints.  ``None`` is reserved to mean "untagged".
    """

    __slots__ = ("_starts", "_ends", "_tags", "_tag_counts")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._tags: List[int] = []
        self._tag_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self._starts)

    def __len__(self) -> int:
        """Total number of tagged integers."""
        return sum(self._tag_counts.values())

    def get(self, value: int) -> Optional[int]:
        """The tag at ``value``, or None if untagged."""
        idx = bisect.bisect_right(self._starts, value) - 1
        if idx >= 0 and value < self._ends[idx]:
            return self._tags[idx]
        return None

    @property
    def runs(self) -> List[Tuple[int, int, int]]:
        """All runs as ``(start, end, tag)``, ascending."""
        return list(zip(self._starts, self._ends, self._tags))

    @property
    def min(self) -> int:
        if not self._starts:
            raise ValueError("empty RunMap has no min")
        return self._starts[0]

    @property
    def max(self) -> int:
        """One past the largest tagged integer."""
        if not self._ends:
            raise ValueError("empty RunMap has no max")
        return self._ends[-1]

    def count(self, tag: int) -> int:
        """How many integers carry ``tag`` (O(1))."""
        return self._tag_counts.get(tag, 0)

    def run_at(self, value: int) -> Optional[Tuple[int, int, int]]:
        """The run covering ``value`` as ``(start, end, tag)``, or None."""
        idx = bisect.bisect_right(self._starts, value) - 1
        if idx >= 0 and value < self._ends[idx]:
            return (self._starts[idx], self._ends[idx], self._tags[idx])
        return None

    def tail_runs(self, k: int) -> List[Tuple[int, int, int]]:
        """The last ``k`` runs (ascending) without copying the rest."""
        return list(zip(self._starts[-k:], self._ends[-k:], self._tags[-k:]))

    # ------------------------------------------------------------------
    def segments(self, start: int, end: int) -> Iterator[Tuple[int, int, Optional[int]]]:
        """Yield ``(s, e, tag)`` pieces covering all of ``[start, end)``.

        Gaps are yielded with tag ``None``, so consecutive pieces tile
        the requested range exactly.
        """
        if end <= start:
            return
        starts, ends, tags = self._starts, self._ends, self._tags
        cursor = start
        i = bisect.bisect_right(ends, start)
        n = len(starts)
        while cursor < end:
            if i < n and starts[i] < end:
                s, e, t = starts[i], ends[i], tags[i]
                if cursor < s:
                    yield (cursor, s, None)
                    cursor = s
                piece_end = min(e, end)
                if cursor < piece_end:
                    yield (cursor, piece_end, t)
                    cursor = piece_end
                i += 1
            else:
                yield (cursor, end, None)
                cursor = end

    def first_tag(self, tag: int, start: int = 0) -> Optional[int]:
        """Lowest integer >= ``start`` carrying ``tag``, or None."""
        if self._tag_counts.get(tag, 0) <= 0:
            return None
        starts, ends, tags = self._starts, self._ends, self._tags
        i = bisect.bisect_right(ends, start)
        for j in range(i, len(starts)):
            if tags[j] == tag:
                s = starts[j]
                return s if s > start else start
        return None

    def covered_in(self, start: int, end: int) -> int:
        """How many integers in ``[start, end)`` are tagged (any tag)."""
        total = 0
        for s, e, t in self.segments(start, end):
            if t is not None:
                total += e - s
        return total

    def first_gap_at_or_after(self, value: int) -> int:
        """Smallest integer >= ``value`` not tagged by any run."""
        probe = value
        idx = bisect.bisect_right(self._starts, probe) - 1
        while idx >= 0 and probe < self._ends[idx]:
            probe = self._ends[idx]
            idx += 1
            if idx >= len(self._starts) or self._starts[idx] > probe:
                break
        return probe

    def claim_first(
        self, tag: int, new_tag: int, start: int, limit: int
    ) -> Optional[Tuple[int, int]]:
        """Retag the head of the lowest ``tag`` run at/after ``start``.

        Finds the first run carrying ``tag`` that extends past
        ``start``, retags its first ``limit`` integers (clipped to
        ``start``) as ``new_tag``, and returns the claimed ``(s, e)``
        range — or None when no such run exists.  One call replaces a
        find + per-integer retag loop: the scan happens once per batch
        and the retag is a single run-boundary adjustment, which is
        what keeps batched retransmission dispatch O(1) per run.
        """
        if limit <= 0 or self._tag_counts.get(tag, 0) <= 0:
            return None
        starts, ends, tags = self._starts, self._ends, self._tags
        j = bisect.bisect_right(ends, start)
        n = len(starts)
        while j < n and tags[j] != tag:
            j += 1
        if j >= n:
            return None
        s0, e0 = starts[j], ends[j]
        if s0 < start:
            # Run straddles ``start``: claim from the middle (rare) via
            # the generic path, which handles the three-way split.
            c_end = min(e0, start + limit)
            self.map_range(start, c_end, {tag: new_tag})
            return (start, c_end)
        k = min(e0 - s0, limit)
        c_end = s0 + k
        if new_tag == tag:  # identity claim: the range, no restructuring
            return (s0, c_end)
        counts = self._tag_counts
        counts[tag] -= k
        counts[new_tag] = counts.get(new_tag, 0) + k
        if k == e0 - s0:
            # Whole run retagged in place; merge with equal neighbours.
            tags[j] = new_tag
            if j > 0 and ends[j - 1] == s0 and tags[j - 1] == new_tag:
                ends[j - 1] = e0
                del starts[j], ends[j], tags[j]
                j -= 1
            if j + 1 < len(starts) and starts[j + 1] == ends[j] \
                    and tags[j + 1] == new_tag:
                ends[j] = ends[j + 1]
                del starts[j + 1], ends[j + 1], tags[j + 1]
        else:
            starts[j] = c_end  # shrink the remainder in place
            if j > 0 and ends[j - 1] == s0 and tags[j - 1] == new_tag:
                ends[j - 1] = c_end  # extend the preceding claimed run
            else:
                starts.insert(j, s0)
                ends.insert(j, c_end)
                tags.insert(j, new_tag)
        return (s0, c_end)

    # ------------------------------------------------------------------
    def map_range(
        self, start: int, end: int, table: Mapping[Optional[int], Optional[int]]
    ) -> List[Tuple[int, int, Optional[int]]]:
        """Retag ``[start, end)`` through ``table`` (old tag -> new tag).

        Tags absent from ``table`` pass through unchanged; a ``None``
        key addresses untagged integers and a ``None`` value untags.
        Returns the pieces whose tag actually changed, as sorted
        disjoint ``(s, e, old_tag)`` tuples — the transition record the
        scoreboard turns into pipe/loss accounting.

        Cost is O(log runs) when nothing changes (the repeated-SACK-
        block case) and O(runs touched) otherwise.
        """
        if end <= start:
            return []
        starts, ends, tags = self._starts, self._ends, self._tags
        n = len(starts)

        # Fast path: the range sits inside a single run (or single gap)
        # whose tag maps to itself.  Every duplicated SACK block and
        # every already-marked loss probe lands here.  The same bisect
        # doubles as the slow path's ``lo`` (first run ending > start):
        # when start lies inside run i that run ends past start (lo=i);
        # otherwise every run up to and including i ends at or before
        # start (lo=i+1).
        i = bisect.bisect_right(starts, start) - 1
        if i >= 0 and start < ends[i]:
            if end <= ends[i]:
                old = tags[i]
                if table.get(old, old) == old:
                    return []
            lo = i
        else:
            nxt = starts[i + 1] if i + 1 < n else None
            if (nxt is None or end <= nxt) and table.get(None, None) is None:
                return []
            lo = i + 1

        hi = bisect.bisect_left(starts, end, lo)  # first run starting >= end

        if lo == hi:
            # The range sits wholly inside one gap (the fast path above
            # already established table[None] is a real tag): insert one
            # run, coalescing with equal-tag neighbours.  This is the
            # dominant real transition — fresh SACK territory extending
            # an adjacent SACKed run — so it skips the generic tiling.
            new = table[None]
            counts = self._tag_counts
            counts[new] = counts.get(new, 0) + (end - start)
            left = lo > 0 and ends[lo - 1] == start and tags[lo - 1] == new
            right = lo < n and starts[lo] == end and tags[lo] == new
            if left and right:
                ends[lo - 1] = ends[lo]
                del starts[lo], ends[lo], tags[lo]
            elif left:
                ends[lo - 1] = end
            elif right:
                starts[lo] = start
            else:
                starts.insert(lo, start)
                ends.insert(lo, end)
                tags.insert(lo, new)
            return [(start, end, None)]

        # General path: one fused pass tiles [start, end) into pieces
        # (gaps included), maps each through the table, accumulates the
        # changed record and per-tag counts, and appends the surviving
        # pieces — pre-merged — straight into the replacement lists.
        changed: List[Tuple[int, int, Optional[int]]] = []
        counts = self._tag_counts
        r_starts: List[int] = []
        r_ends: List[int] = []
        r_tags: List[int] = []
        if starts[lo] < start:  # left keeper of a straddling run
            r_starts.append(starts[lo])
            r_ends.append(start)
            r_tags.append(tags[lo])
        cursor = start
        for j in range(lo, hi):
            s, e, t = starts[j], ends[j], tags[j]
            if cursor < s:  # gap piece [cursor, s), old tag None
                new = table.get(None, None)
                if new is not None:
                    changed.append((cursor, s, None))
                    counts[new] = counts.get(new, 0) + (s - cursor)
                    if r_tags and r_ends[-1] == cursor and r_tags[-1] == new:
                        r_ends[-1] = s
                    else:
                        r_starts.append(cursor)
                        r_ends.append(s)
                        r_tags.append(new)
                cursor = s
            piece_end = e if e < end else end
            if cursor < piece_end:
                new = table.get(t, t)
                if new != t:
                    changed.append((cursor, piece_end, t))
                    width = piece_end - cursor
                    counts[t] -= width
                    if new is not None:
                        counts[new] = counts.get(new, 0) + width
                if new is not None:
                    if r_tags and r_ends[-1] == cursor and r_tags[-1] == new:
                        r_ends[-1] = piece_end
                    else:
                        r_starts.append(cursor)
                        r_ends.append(piece_end)
                        r_tags.append(new)
                cursor = piece_end
        if cursor < end:  # trailing gap piece
            new = table.get(None, None)
            if new is not None:
                changed.append((cursor, end, None))
                counts[new] = counts.get(new, 0) + (end - cursor)
                if r_tags and r_ends[-1] == cursor and r_tags[-1] == new:
                    r_ends[-1] = end
                else:
                    r_starts.append(cursor)
                    r_ends.append(end)
                    r_tags.append(new)
        if not changed:
            return []
        if ends[hi - 1] > end:  # right keeper of a straddling run
            t = tags[hi - 1]
            if r_tags and r_ends[-1] == end and r_tags[-1] == t:
                r_ends[-1] = ends[hi - 1]
            else:
                r_starts.append(end)
                r_ends.append(ends[hi - 1])
                r_tags.append(t)

        # Coalesce with the untouched neighbours when tags line up.
        if r_tags and lo > 0 and ends[lo - 1] == r_starts[0] \
                and tags[lo - 1] == r_tags[0]:
            r_starts[0] = starts[lo - 1]
            lo -= 1
        if r_tags and hi < n and starts[hi] == r_ends[-1] \
                and tags[hi] == r_tags[-1]:
            r_ends[-1] = ends[hi]
            hi += 1

        starts[lo:hi] = r_starts
        ends[lo:hi] = r_ends
        tags[lo:hi] = r_tags
        return changed

    def set_range(self, start: int, end: int, tag: Optional[int]) -> List[
            Tuple[int, int, Optional[int]]]:
        """Unconditionally tag ``[start, end)``; returns changed pieces."""
        table = {None: tag}
        for t in list(self._tag_counts):
            table[t] = tag
        return self.map_range(start, end, table)

    def clear_below(self, bound: int) -> Dict[int, int]:
        """Drop all tagged integers < ``bound``; returns tag -> count."""
        starts, ends, tags = self._starts, self._ends, self._tags
        removed: Dict[int, int] = {}
        counts = self._tag_counts
        i = 0
        n = len(starts)
        while i < n and ends[i] <= bound:
            width = ends[i] - starts[i]
            t = tags[i]
            removed[t] = removed.get(t, 0) + width
            counts[t] -= width
            i += 1
        if i < n and starts[i] < bound:
            width = bound - starts[i]
            t = tags[i]
            removed[t] = removed.get(t, 0) + width
            counts[t] -= width
            starts[i] = bound
        if i:
            del starts[:i]
            del ends[:i]
            del tags[:i]
        return removed

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Verify structural invariants (test / audit aid).

        Runs must be sorted, non-empty, non-overlapping, merged (no
        adjacent runs with equal tags), and the per-tag counts must
        match the run lengths.  Raises ``ValueError`` on corruption.
        """
        prev_end = None
        prev_tag: Optional[int] = None
        totals: Dict[int, int] = {}
        for s, e, t in zip(self._starts, self._ends, self._tags):
            if e <= s:
                raise ValueError(f"empty or inverted run ({s}, {e})")
            if prev_end is not None:
                if s < prev_end:
                    raise ValueError(f"overlapping runs at {s}")
                if s == prev_end and t == prev_tag:
                    raise ValueError(f"unmerged adjacent runs at {s}")
            if t is None:
                raise ValueError(f"None tag stored at {s}")
            totals[t] = totals.get(t, 0) + (e - s)
            prev_end, prev_tag = e, t
        live = {t: c for t, c in self._tag_counts.items() if c}
        if live != totals:
            raise ValueError(f"tag counts {live} != run totals {totals}")
