"""Column profiling in one streaming pass.

Per column: missing counts split by sentinel kind, present and distinct
counts, top values, per-agency presence, and raw size. Value counting is
exact up to a configurable distinct cap; past the cap the column switches
to a mergeable heavy-hitters summary (SpaceSavingSketch) and the profile
is flagged approximate. distinct then reports the cap as a lower bound.

Each column is counted per Batch from the batch's shared value counts
and missing values, so the per-cell work runs in C: missing kinds add up
per distinct missing value and raw size is the length of the joined
cells. Per-agency presence is one running Counter of every batch's
agencies, less a per-column Counter of the agencies of that column's
missing cells; only a column with missing cells in a batch pays a pass
over it, and finish drops the agencies left at zero and the rows without
an agency. A column's batch counts merge into its exact counts
while the new distinct values cannot pass the cap, so a column becomes
approximate exactly when its true distinct count passes the cap. The
batch that would pass it installs the exact counts into a sketch and is
merged there, as is every later batch. The sketch holds at most
2 x sketch_capacity counters plus one batch, and every top count it
reports is at least the true count and at most present/(sketch_capacity+1)
above it. Where the sketch prunes depends on the batch boundaries, so an
approximate column's top values depend on ingest.BATCH_ROWS; exact
columns do not.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import neg
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


def _add_counts(into: dict[str, int], counts: dict[str, int], seen: Iterable[str]) -> None:
    """Add counts into into. seen holds the values both already share: only
    those are added one by one, the rest go in with one C-level update, in
    first-appearance order."""
    prior = {v: into[v] for v in seen}
    into.update(counts)
    for v, n in prior.items():
        into[v] += n


def top_k(counts: dict[str, int], k: int) -> list[tuple[str, int]]:
    """The k largest counts, ties by value ascending.

    The order of heapq.nsmallest(k, counts.items(), key=lambda kv: (-kv[1], kv[0])),
    with each (-count, value) key built in C by zip instead of a Python call
    per entry.
    """
    return [(v, -n) for n, v in heapq.nsmallest(k, zip(map(neg, counts.values()), counts))]


class SpaceSavingSketch:
    """A mergeable heavy-hitters summary of at most 2 x capacity counters.

    merge adds a batch's value counts to the counters; once they number
    more than 2 x capacity they are pruned: t, the (capacity+1)-th largest
    counter, is taken off every counter, those left at or below 0 are
    dropped, and t is added to a running floor (Misra-Gries, mergeable as
    in Agarwal et al., PODS 2012). top prunes down to capacity counters
    the same way and reports counter + floor, the Space-Saving count
    (Metwally et al., ICDT 2005): for every reported value
    true <= reported <= true + N/(capacity+1) over the N counted cells,
    and every value with true > N/(capacity+1) is reported. The result
    depends only on the merged batches and their order.
    """

    __slots__ = ("capacity", "_count", "_floor")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("sketch capacity must be positive")
        self.capacity = capacity
        self._count: dict[str, int] = {}
        self._floor = 0

    def __len__(self) -> int:
        return len(self._count)

    def merge(self, counts: dict[str, int]) -> None:
        """Add a batch's value counts, pruning past 2 x capacity counters."""
        _add_counts(self._count, counts, counts.keys() & self._count.keys())
        if len(self._count) > 2 * self.capacity:
            self._prune()

    def _prune(self) -> None:
        t = sorted(self._count.values(), reverse=True)[self.capacity]
        self._count = {v: n - t for v, n in self._count.items() if n > t}
        self._floor += t

    def top(self, k: int) -> list[tuple[str, int]]:
        if len(self._count) > self.capacity:
            self._prune()
        return [(v, n + self._floor) for v, n in top_k(self._count, k)]


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
        if distinct_cap < 1 or sketch_capacity < 1:
            raise ValueError("distinct_cap and sketch_capacity must be positive")
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
        self._agencies: Counter = Counter()     # rows per agency
        self._agency_missing: list[Counter] = [Counter() for _ in range(n)]     # missing cells per agency

    def consume_batch(self, batch: Batch) -> None:
        """Count the batch column by column; see the module docstring."""
        self._total += len(batch.ordinals)
        agencies = batch.agencies()
        if agencies is not None:
            self._agencies.update(agencies)

        for i, column in enumerate(batch.columns):
            self._chars[i] += len("".join(column))
            present = batch.counts(i)
            absent = batch.missing(i)
            if absent:
                missing = self._missing[i]
                present = present.copy()
                for v, kind in absent.items():
                    missing[kind] = missing.get(kind, 0) + present.pop(v)
                if agencies is not None:
                    self._agency_missing[i].update(compress(agencies, map(absent.__contains__, column)))
                if not present:
                    continue
            self._present[i] += sum(present.values())

            counts = self._counts[i]
            if counts is not None:
                seen = present.keys() & counts.keys()   # `&` walks the smaller side
                if len(counts) + len(present) - len(seen) <= self._cap:
                    _add_counts(counts, present, seen)
                    continue
                self._sketches[i] = SpaceSavingSketch(self._sketch_capacity)
                self._sketches[i].merge(counts)
                self._counts[i] = None
            self._sketches[i].merge(present)

    def finish(self) -> list[ColumnProfile]:
        out: list[ColumnProfile] = []
        for i, name in enumerate(self._headers):
            counts = self._counts[i]
            sketch = self._sketches[i]
            if counts is not None:
                top = top_k(counts, self._top_k)
                distinct = len(counts)
                approximate = False
            else:
                top = sketch.top(self._top_k)
                distinct = self._cap  # lower bound: the cap was reached
                approximate = True
            per_agency = self._agencies - self._agency_missing[i]   # drops the agencies left at 0
            per_agency.pop(None, None)      # rows without an agency
            prof = ColumnProfile(
                field=name,
                total=self._total,
                present=self._present[i],
                missing=dict(self._missing[i]),
                distinct=distinct,
                approximate=approximate,
                top_values=top,
                per_agency_present=dict(per_agency),
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
