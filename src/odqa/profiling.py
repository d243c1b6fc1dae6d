"""Column profiling in one streaming pass.

Per column: missing counts split by sentinel kind, present and distinct
counts, top values, per-agency presence, and raw size. Value counting is
exact up to a configurable distinct cap; past the cap the column switches
to a Space-Saving heavy-hitters sketch and the profile is flagged
approximate. distinct then reports the cap as a lower bound.

Each column is counted per Batch from the batch's shared value counts
and missing values, so the per-cell work runs in C: missing kinds add up
per distinct missing value, raw size is the sum of the cell lengths, and
per-agency presence is one Counter over the agencies of the rows whose
cell is present. A column's batch counts merge into its exact counts
only when the new distinct values cannot pass the cap; otherwise, and
for columns already in the sketch, the batch's present values are
replayed one by one in row order, so the row that crosses the cap and
every sketch update are the same as counting cell by cell.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .findings import Measurement, make_finding
from .ingest import Batch, RawTable, RowConsumer

log = logging.getLogger(__name__)

DEFAULT_DISTINCT_CAP = 1_000_000
DEFAULT_SKETCH_CAPACITY = 10_000
DEFAULT_TOP_K = 20

TIER_MOSTLY = "mostly_empty"
TIER_PARTIAL = "partially_empty"
TIER_FEW = "few_none_empty"


def missing_tier(blank_pct: float) -> str:
    """Tier boundaries are closed: >= 90 mostly, <= 2 few-or-none."""
    if blank_pct >= 90.0:
        return TIER_MOSTLY
    if blank_pct <= 2.0:
        return TIER_FEW
    return TIER_PARTIAL


class SpaceSavingSketch:
    """Space-Saving heavy hitters with deterministic eviction.

    Counts are exact while distinct values fit the capacity; afterwards a
    new value replaces the oldest minimum-count entry and inherits its
    count plus one, with the inherited amount kept as the entry's error
    bound. Ties evict the longest-resident entry so identical streams
    always produce identical sketches.
    """

    __slots__ = ("capacity", "_count", "_error", "_buckets", "_min")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("sketch capacity must be positive")
        self.capacity = capacity
        self._count: dict[str, int] = {}
        self._error: dict[str, int] = {}
        self._buckets: dict[int, dict[str, None]] = {}
        self._min = 1

    def __len__(self) -> int:
        return len(self._count)

    def _move(self, value: str, old: int, new: int) -> None:
        bucket = self._buckets[old]
        del bucket[value]
        if not bucket:
            del self._buckets[old]
        self._buckets.setdefault(new, {})[value] = None
        self._count[value] = new

    def update(self, value: str, by: int = 1) -> None:
        current = self._count.get(value)
        if current is not None:
            self._move(value, current, current + by)
            return
        if len(self._count) < self.capacity:
            self._count[value] = by
            self._error[value] = 0
            self._buckets.setdefault(by, {})[value] = None
            if by < self._min or len(self._count) == 1:
                self._min = by
            return
        while self._min not in self._buckets:
            self._min += 1
        bucket = self._buckets[self._min]
        victim = next(iter(bucket))
        del bucket[victim]
        if not bucket:
            del self._buckets[self._min]
        del self._count[victim]
        del self._error[victim]
        floor = self._min
        self._count[value] = floor + by
        self._error[value] = floor
        self._buckets.setdefault(floor + by, {})[value] = None

    def seed(self, counts: dict[str, int]) -> None:
        """Install exact counts (used when a column overflows its cap)."""
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for value, count in ordered[: self.capacity]:
            self._count[value] = count
            self._error[value] = 0
            self._buckets.setdefault(count, {})[value] = None
        self._min = min(self._count.values(), default=1)

    def top(self, k: int) -> list[tuple[str, int]]:
        items = sorted(self._count.items(), key=lambda kv: (-kv[1], kv[0]))
        return items[:k]

    def error_of(self, value: str) -> int:
        return self._error.get(value, 0)


@dataclass
class ColumnProfile:
    field: str
    total: int
    present: int
    missing: dict[str, int]
    distinct: int
    approximate: bool
    top_values: list[tuple[str, int]]
    per_agency_present: dict[str, int]
    raw_chars: int                    # code points; equals bytes for ASCII payloads
    exact_counts: dict[str, int] | None = None

    @property
    def blank_total(self) -> int:
        return self.total - self.present

    @property
    def blank_pct(self) -> float:
        return 0.0 if self.total == 0 else 100.0 * self.blank_total / self.total

    @property
    def tier(self) -> str:
        return missing_tier(self.blank_pct)

    def as_dict(self) -> dict:
        return {
            "field": self.field,
            "total": self.total,
            "present": self.present,
            "missing": dict(self.missing),
            "blank_pct": round(self.blank_pct, 4),
            "tier": self.tier,
            "distinct": self.distinct,
            "approximate": self.approximate,
            "top_values": [[v, n] for v, n in self.top_values],
            "per_agency_present": dict(sorted(self.per_agency_present.items())),
            "raw_chars": self.raw_chars,
        }


class ProfileCollector(RowConsumer):
    """Profiles every column of the stream in one pass."""

    def __init__(
        self,
        *,
        distinct_cap: int = DEFAULT_DISTINCT_CAP,
        sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
        top_k: int = DEFAULT_TOP_K,
        emit=None,
    ):
        if distinct_cap < 1:
            raise ValueError("distinct_cap must be positive")
        self._cap = distinct_cap
        self._sketch_capacity = sketch_capacity
        self._top_k = top_k
        self._emit = emit
        self.profiles: list[ColumnProfile] = []

    def start(self, table: RawTable) -> None:
        n = table.width
        self._headers = list(table.headers)
        self._total = 0
        self._present = [0] * n
        self._chars = [0] * n
        self._missing: list[dict[str, int]] = [{} for _ in range(n)]
        self._counts: list[dict[str, int] | None] = [{} for _ in range(n)]
        self._sketches: list[SpaceSavingSketch | None] = [None] * n
        self._agency: list[dict[str, int]] = [{} for _ in range(n)]

    def consume_batch(self, batch: Batch) -> None:
        """Count the batch column by column; see the module docstring."""
        self._total += len(batch.ordinals)
        agencies = batch.agencies()

        for i, column in enumerate(batch.columns):
            self._chars[i] += sum(map(len, column))
            present = batch.counts(i)
            absent = batch.missing(i)
            if absent:
                missing = self._missing[i]
                present = present.copy()
                for v, kind in absent.items():
                    missing[kind] = missing.get(kind, 0) + present.pop(v)
                if not present:
                    continue
            self._present[i] += sum(present.values())

            if agencies is not None:
                per_agency = self._agency[i]
                for a, n in Counter(compress(agencies, map(present.__contains__, column))).items():
                    if a is not None:
                        per_agency[a] = per_agency.get(a, 0) + n

            counts = self._counts[i]
            if counts is not None:
                seen = present.keys() & counts.keys()   # `&` walks the smaller side
                if len(counts) + len(present) - len(seen) <= self._cap:
                    prior = {v: counts[v] for v in seen}
                    counts.update(present)
                    for v, n in prior.items():
                        counts[v] += n
                    continue
            self._replay(i, filter(present.__contains__, column))

    def _replay(self, i: int, values: Iterable[str]) -> None:
        """Count present values one by one in row order, switching the
        column to a sketch on the value that would pass the distinct cap."""
        counts = self._counts[i]
        sketch = self._sketches[i]
        for v in values:
            if counts is not None:
                n = counts.get(v)
                if n is not None:
                    counts[v] = n + 1
                    continue
                if len(counts) < self._cap:
                    counts[v] = 1
                    continue
                sketch = self._sketches[i] = SpaceSavingSketch(self._sketch_capacity)
                sketch.seed(counts)
                counts = self._counts[i] = None
            sketch.update(v)

    def finish(self) -> list[ColumnProfile]:
        out: list[ColumnProfile] = []
        for i, name in enumerate(self._headers):
            counts = self._counts[i]
            sketch = self._sketches[i]
            if counts is not None:
                top = heapq.nsmallest(self._top_k, counts.items(), key=lambda kv: (-kv[1], kv[0]))
                distinct = len(counts)
                approximate = False
            else:
                top = sketch.top(self._top_k)
                distinct = self._cap  # lower bound: the cap was reached
                approximate = True
            prof = ColumnProfile(
                field=name,
                total=self._total,
                present=self._present[i],
                missing=dict(self._missing[i]),
                distinct=distinct,
                approximate=approximate,
                top_values=top,
                per_agency_present=self._agency[i],
                raw_chars=self._chars[i],
                exact_counts=counts,
            )
            out.append(prof)
            if self._emit is not None:
                if approximate:
                    self._emit(make_finding(
                        "approximate_profile",
                        f"{name!r} exceeded the distinct cap ({self._cap}); "
                        f"top values come from a Space-Saving sketch",
                        fields=(name,),
                        measured=Measurement(self._cap, "distinct_lower_bound"),
                    ))
                if prof.tier == TIER_MOSTLY and self._total > 0:
                    self._emit(make_finding(
                        "mostly_empty_field",
                        f"{name!r} is {prof.blank_pct:.1f}% blank",
                        fields=(name,),
                        measured=Measurement(round(prof.blank_pct, 4), "percent_blank"),
                    ))
        self.profiles = out
        return out


@dataclass(frozen=True)
class TierRow:
    field: str
    blank_pct: float
    tier: str


def tier_table(profiles: Iterable[ColumnProfile]) -> list[TierRow]:
    """Missingness tiers sorted by blank share, emptiest first."""
    rows = [TierRow(p.field, round(p.blank_pct, 4), p.tier) for p in profiles]
    rows.sort(key=lambda r: (-r.blank_pct, r.field))
    return rows


@dataclass(frozen=True)
class ConcentrationResult:
    field: str
    k: int
    top_k_share: float
    cumulative: tuple[float, ...]


def concentration(field: str, frequencies: Sequence[tuple[str, int]], k: int) -> ConcentrationResult:
    """Cumulative share of the k most frequent values.

    frequencies need not be sorted; ties order by value ascending. k past
    the number of distinct values saturates at share 1.0. Raises
    ValueError for k < 1, negative counts, or an all-zero total.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    for _, n in frequencies:
        if n < 0:
            raise ValueError("negative frequency")
    total = sum(n for _, n in frequencies)
    if total == 0:
        raise ValueError(f"{field}: concentration undefined for an empty distribution")
    ordered = sorted(frequencies, key=lambda kv: (-kv[1], kv[0]))
    cumulative = []
    running = 0
    for _, n in ordered:
        running += n
        cumulative.append(running / total)
    share = cumulative[min(k, len(cumulative)) - 1]
    return ConcentrationResult(field, k, share, tuple(cumulative))
