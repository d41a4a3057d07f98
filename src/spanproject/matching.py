"""Weighted matching of source entities to target candidate spans.

The optimization problem: choose source-to-candidate assignments maximizing
the summed matching cost, subject to (a) no two chosen candidates overlap,
and (b) each source entity used at most once (AT_MOST_ONE) or exactly once
(REQUIRE_ALL). Four solvers are provided:

* ``solve_greedy``: the fast approximation; repeatedly takes the largest
  remaining positive cost.
* ``solve_bruteforce``: exhaustive optimum for small instances, the oracle
  the others are tested against.
* ``solve_assignment_exact``: polynomial optimum when candidates are
  pairwise disjoint, where the problem is a plain assignment problem.
* ``solve_relaxed_mwis``: drops the per-source cap, leaving a maximum-weight
  independent set over intervals, solvable by a sort-by-end DP.

A pair with zero cost (no alignment evidence) is never assigned, by any
solver. All arithmetic is exact: costs are ``fractions.Fraction`` and greedy
orders them by an integer key; nothing here ever rounds, so identical inputs
give identical solutions on any platform.

``build_problem`` is the cost kernel. It counts alignment pairs from one
prefix-count array per source entity and visits only the positive cells:
zero cells all share one ``Fraction(0)``, positive ones come from a bounded
memo, and the problem is built without re-checking the cells it just
priced. ``matching_cost`` and ``AlignmentSet.count_within`` remain the
per-cell reference definition that tests compare it against.

``MatchingProblem.positive`` lists the positive cells as integer
``(numerator, denominator, s, t)`` tuples in row-major order; greedy reads
only that list, so its work grows with the positive cells, not the matrix.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm
from numbers import Rational
from operator import attrgetter

from .candidates import CandidateSet
from .core import AlignmentSet, EntitySpan, LabeledSentence, spans_overlap
from .errors import DataError, GuardError, InfeasibleError
from .formats import render_table

BRUTE_FORCE_MAX_SOURCES = 6
BRUTE_FORCE_MAX_CANDIDATES = 12

_ZERO = Fraction(0)


class MatchMode(Enum):
    AT_MOST_ONE = "atmost"
    REQUIRE_ALL = "all"


@dataclass(frozen=True, slots=True)
class MatchingProblem:
    """A cost matrix between labeled source entities and unlabeled candidates.

    ``positive`` is derived from ``costs``: one ``(numerator, denominator, s,
    t)`` entry per positive cell, in row-major order. Cells must be rational
    (``Fraction`` or ``int``) and non-negative.
    """

    sources: tuple[EntitySpan, ...]
    candidates: CandidateSet
    costs: tuple[tuple[Fraction, ...], ...]
    mode: MatchMode = MatchMode.AT_MOST_ONE
    positive: tuple[tuple[int, int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "costs", tuple(tuple(row) for row in self.costs))
        if len(self.costs) != len(self.sources):
            raise DataError(
                f"cost matrix has {len(self.costs)} rows for {len(self.sources)} sources"
            )
        positive = []
        for s, row in enumerate(self.costs):
            if len(row) != len(self.candidates.spans):
                raise DataError(
                    f"cost row has {len(row)} entries for "
                    f"{len(self.candidates.spans)} candidates"
                )
            for t, cell in enumerate(row):
                if not isinstance(cell, Rational):
                    raise DataError(
                        f"matching cost {cell!r} at ({s}, {t}) is not a rational number"
                    )
                # the sign of the numerator is exact, and skips Fraction's
                # generic comparison
                num = cell.numerator
                if num < 0:
                    raise DataError(f"negative matching cost {cell}")
                if num:
                    positive.append((num, cell.denominator, s, t))
        object.__setattr__(self, "positive", tuple(positive))

    @classmethod
    def _trusted(
        cls,
        sources: tuple[EntitySpan, ...],
        candidates: CandidateSet,
        costs: tuple[tuple[Fraction, ...], ...],
        mode: MatchMode,
        positive: tuple[tuple[int, int, int, int], ...],
    ) -> "MatchingProblem":
        """Wrap cells a caller has just priced, with their positive list.

        Skips ``__post_init__``, which would scan every cell again; only
        ``build_problem`` uses it.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "positive", positive)
        return self

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.sources), len(self.candidates.spans)


@dataclass(frozen=True, slots=True)
class MatchingSolution:
    """Chosen (source index, candidate index) pairs and their summed cost.

    ``exact`` is True when an exact solver produced it. The constructor
    normalizes assignment order; feasibility is deliberately not checked
    here, see validate_solution.
    """

    assignments: tuple[tuple[int, int], ...]
    objective: Fraction
    exact: bool

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(sorted(self.assignments)))


def matching_cost(src: EntitySpan, tgt: EntitySpan, align: AlignmentSet) -> Fraction:
    """Alignment-pair count inside src x tgt, normalized by the summed span lengths."""
    return Fraction(align.count_within(src, tgt), len(src) + len(tgt))


@lru_cache(maxsize=4096)
def _priced(count: int, total: int) -> tuple[Fraction, int, int]:
    """``Fraction(count, total)`` with its numerator and denominator, memoized.

    Fractions are immutable, so every cell with the same count and length
    sum can share one.
    """
    cost = Fraction(count, total)
    return cost, cost.numerator, cost.denominator


def build_problem(
    labeled: LabeledSentence,
    cands: CandidateSet,
    align: AlignmentSet,
    mode: MatchMode = MatchMode.AT_MOST_ONE,
) -> MatchingProblem:
    """Assemble the full cost matrix for one sentence pair.

    Alignment indices are checked against the labeled sentence only; the
    target side is checked by callers such as ``matching_problem``.

    Each cell equals ``matching_cost(src, tgt, align)``. For each source
    entity, ``prefix[j]`` counts its alignment pairs with target index below
    ``j``, so a cell's count is ``prefix[tgt.end] - prefix[tgt.start]``. The
    array runs to the largest candidate end: target indices past it fall in
    no candidate.

    Only positive cells are visited. Candidates come sorted by (start, end),
    so those sharing a start form a run with rising ends, and the positive
    ones are the run's tail whose end passes the first aligned index at or
    after the start; one bisection per run finds it. Each row starts as
    shared zeros, positive cells take their ``Fraction`` from a bounded memo
    on (count, length sum), and the problem is built without a second scan
    of the cells: a count is never negative and the lengths are positive.
    """
    for i, _ in align.pairs:
        if i >= len(labeled.sentence):
            raise DataError(
                f"alignment index {i} out of bounds for labeled sentence "
                f"{labeled.sentence.id} of length {len(labeled.sentence)}"
            )
    spans = cands.spans
    starts = list(map(attrgetter("start"), spans))
    ends = list(map(attrgetter("end"), spans))
    # runs of candidates sharing a start: (start, first index, index past the run)
    runs = [
        (start, bisect_left(starts, start), bisect_right(starts, start))
        for start in dict.fromkeys(starts)
    ]
    width = max(ends, default=0)
    costs = []
    positive = []
    for s, src in enumerate(labeled.entities):
        hits = [0] * (width + 1)
        for i, j in align.pairs:
            if src.start <= i < src.end and j < width:
                hits[j + 1] += 1
        prefix = list(accumulate(hits))
        total = prefix[-1]
        row = [_ZERO] * len(spans)
        src_len = len(src)
        for start, first, past in runs:
            before = prefix[start]
            if before == total:
                break  # no aligned index at or after this start, nor any later one
            # a candidate is positive once its end passes the first target
            # index whose prefix count exceeds `before`
            reach = bisect_right(prefix, before)
            for t in range(bisect_left(ends, reach, first, past), past):
                end = ends[t]
                cost, num, den = _priced(prefix[end] - before, src_len + end - start)
                row[t] = cost
                positive.append((num, den, s, t))
        costs.append(tuple(row))
    return MatchingProblem._trusted(
        labeled.entities, cands, tuple(costs), mode, tuple(positive)
    )


def solve_greedy(p: MatchingProblem) -> MatchingSolution:
    """Repeatedly take the largest strictly positive remaining cost.

    Choosing a pair consumes its source and every candidate overlapping the
    chosen candidate. Ties break toward the lower source start, then the
    lower candidate start, then the shorter candidate. Only AT_MOST_ONE is
    supported; greedy cannot promise full source coverage.

    Only the problem's positive-cell list is read, and it is sorted on an
    exact integer key: with ``scale`` the least common multiple of the
    positive cells' denominators, ``cost * scale`` is an integer for every
    cell, so the order is the same as sorting on the Fraction costs.
    Candidates are distinct and sorted by (start, end), so the candidate
    index orders them as (start, end) does, and a source index breaks the
    remaining ties (overlapping sources sharing a start) in row-major
    order. The scan stops once every source is used, and the objective sums
    the chosen cells' ``Fraction`` costs.
    """
    if p.mode is MatchMode.REQUIRE_ALL:
        raise DataError("greedy solving cannot guarantee REQUIRE_ALL; use an exact solver")
    spans = p.candidates.spans
    starts = [src.start for src in p.sources]
    scale = lcm(*{den for _, den, _, _ in p.positive})
    order = sorted(
        (-num * (scale // den), starts[s], t, s) for num, den, s, t in p.positive
    )
    used_sources: set[int] = set()
    chosen_spans: list[EntitySpan] = []
    assignments: list[tuple[int, int]] = []
    for _, _, t, s in order:
        if len(used_sources) == len(starts):
            break
        if s in used_sources:
            continue
        span = spans[t]
        if any(spans_overlap(span, prior) for prior in chosen_spans):
            continue
        assignments.append((s, t))
        used_sources.add(s)
        chosen_spans.append(span)
    objective = sum((p.costs[s][t] for s, t in assignments), Fraction(0))
    return MatchingSolution(tuple(assignments), objective, exact=False)


def _statically_uncoverable(p: MatchingProblem) -> tuple[int, ...]:
    """Sources with no positive cost against any candidate."""
    covered = {s for _, _, s, _ in p.positive}
    return tuple(s for s in range(len(p.sources)) if s not in covered)


def solve_bruteforce(p: MatchingProblem, unsafe: bool = False) -> MatchingSolution:
    """Exhaustive optimum over every feasible assignment subset.

    Guarded to 6 sources and 12 candidates unless ``unsafe=True``; the
    search memoizes on (next source, set of already-chosen candidates), which
    enumerates the same space as filtering all subsets but revisits nothing.
    Ties between optima break toward the lexicographically smallest
    assignment tuple.
    """
    n_src, n_cand = p.shape
    if not unsafe and (n_src > BRUTE_FORCE_MAX_SOURCES or n_cand > BRUTE_FORCE_MAX_CANDIDATES):
        raise GuardError(
            f"instance of size {n_src}x{n_cand} exceeds the brute-force guard "
            f"({BRUTE_FORCE_MAX_SOURCES}x{BRUTE_FORCE_MAX_CANDIDATES}); "
            "pass unsafe=True to override"
        )
    spans = p.candidates.spans
    require_all = p.mode is MatchMode.REQUIRE_ALL

    # candidate compatibility as bitmasks: conflict[t] = candidates overlapping t
    conflict = [0] * n_cand
    for t, span in enumerate(spans):
        for u, other in enumerate(spans):
            if u != t and spans_overlap(span, other):
                conflict[t] |= 1 << u

    memo: dict[tuple[int, int], tuple[Fraction, tuple[tuple[int, int], ...]] | None] = {}

    def best_from(s: int, used: int) -> tuple[Fraction, tuple[tuple[int, int], ...]] | None:
        """Optimal (objective, assignments) for sources s.., or None if infeasible."""
        if s == n_src:
            return Fraction(0), ()
        key = (s, used)
        if key in memo:
            return memo[key]
        best: tuple[Fraction, tuple[tuple[int, int], ...]] | None = None
        if not require_all:
            best = best_from(s + 1, used)
        for t in range(n_cand):
            cost = p.costs[s][t]
            if cost <= 0 or used >> t & 1 or conflict[t] & used:
                continue
            sub = best_from(s + 1, used | 1 << t)
            if sub is None:
                continue
            value = (cost + sub[0], ((s, t),) + sub[1])
            if best is None or value[0] > best[0] or (value[0] == best[0] and value[1] < best[1]):
                best = value
        memo[key] = best
        return best

    result = best_from(0, 0)
    if result is None:
        raise InfeasibleError(
            "no assignment covers every source", uncoverable=_statically_uncoverable(p)
        )
    objective, assignments = result
    return MatchingSolution(assignments, objective, exact=True)


def _hungarian_min(cost: list[list[Fraction]]) -> list[int]:
    """Minimum-cost perfect matching on a square matrix; returns column of each row.

    Potential-based shortest-augmenting-path method, cubic time. Exact
    because all arithmetic stays in Fraction.
    """
    k = len(cost)
    inf = float("inf")
    u = [Fraction(0)] * (k + 1)
    v = [Fraction(0)] * (k + 1)
    match = [0] * (k + 1)  # 1-based: column j is matched to row match[j]
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        match[0] = i
        j0 = 0
        minv: list = [inf] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            for j in range(1, k + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(k + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    result = [0] * k
    for j in range(1, k + 1):
        result[match[j] - 1] = j - 1
    return result


def solve_assignment_exact(p: MatchingProblem) -> MatchingSolution:
    """Exact optimum for pairwise-disjoint candidates.

    With disjoint candidates the overlap constraint collapses to "each
    candidate used at most once", a textbook assignment problem. The matrix
    is padded to square with zero-cost dummy rows and columns standing for
    "unassigned"; forbidden pairs (zero cost, or source-to-dummy under
    REQUIRE_ALL) get a cost large enough that the optimum avoids them
    whenever avoiding them is feasible.
    """
    if not p.candidates.is_disjoint():
        raise DataError(
            "candidates overlap; the assignment reduction needs disjoint candidates, "
            "use greedy or brute force instead"
        )
    n_src, n_cand = p.shape
    require_all = p.mode is MatchMode.REQUIRE_ALL
    if n_src == 0:
        return MatchingSolution((), Fraction(0), exact=True)
    if n_cand == 0:
        if require_all:
            raise InfeasibleError(
                "no candidates to cover sources", uncoverable=tuple(range(n_src))
            )
        return MatchingSolution((), Fraction(0), exact=True)

    max_cost = max((c for row in p.costs for c in row), default=Fraction(0))
    big = n_src * max_cost + 1
    k = n_src + n_cand
    zero = Fraction(0)
    matrix = [[zero] * k for _ in range(k)]
    for s in range(n_src):
        for t in range(n_cand):
            c = p.costs[s][t]
            matrix[s][t] = -c if c > 0 else big
        if require_all:
            for t in range(n_cand, k):
                matrix[s][t] = big

    cols = _hungarian_min(matrix)
    assignments = []
    objective = Fraction(0)
    for s in range(n_src):
        t = cols[s]
        if t < n_cand and p.costs[s][t] > 0:
            assignments.append((s, t))
            objective += p.costs[s][t]
        elif require_all:
            raise InfeasibleError(
                "no full positive-cost assignment exists",
                uncoverable=_statically_uncoverable(p),
            )
    return MatchingSolution(tuple(assignments), objective, exact=True)


def solve_relaxed_mwis(p: MatchingProblem) -> MatchingSolution:
    """Optimum of the relaxation that drops the per-source cap.

    Without that cap each candidate independently earns its best source's
    cost, so the problem is maximum-weight independent set over interval
    spans: classic sort-by-end dynamic programming. A source may back
    several chosen candidates; the result is exact for the relaxed
    objective and an upper bound for the capped one.
    """
    spans = p.candidates.spans
    weighted: list[tuple[EntitySpan, int, Fraction, int]] = []
    for t, span in enumerate(spans):
        weight = Fraction(0)
        source = -1
        for s in range(len(p.sources)):
            if p.costs[s][t] > weight:
                weight = p.costs[s][t]
                source = s
        if weight > 0:
            weighted.append((span, t, weight, source))
    weighted.sort(key=lambda item: (item[0].end, item[0].start, item[1]))

    ends = [item[0].end for item in weighted]
    n = len(weighted)
    dp = [Fraction(0)] * (n + 1)
    pred = [0] * n
    for i in range(n):
        span, _, weight, _ = weighted[i]
        pred[i] = bisect_right(ends, span.start)
        take = weight + dp[pred[i]]
        dp[i + 1] = take if take >= dp[i] else dp[i]

    assignments = []
    i = n
    while i > 0:
        span, t, weight, source = weighted[i - 1]
        if weight + dp[pred[i - 1]] >= dp[i - 1]:  # include on tie, for determinism
            assignments.append((source, t))
            i = pred[i - 1]
        else:
            i -= 1
    return MatchingSolution(tuple(assignments), dp[n], exact=True)


def validate_solution(
    p: MatchingProblem, sol: MatchingSolution, relaxed: bool = False
) -> None:
    """Independently check a solution's feasibility; raises on any violation.

    ``relaxed=True`` waives the per-source cap and the REQUIRE_ALL coverage
    check, matching solve_relaxed_mwis semantics.
    """
    n_src, n_cand = p.shape
    spans = p.candidates.spans
    seen_sources: set[int] = set()
    seen_cands: set[int] = set()
    objective = Fraction(0)
    for s, t in sol.assignments:
        if not (0 <= s < n_src and 0 <= t < n_cand):
            raise DataError(f"assignment ({s}, {t}) out of range for shape {p.shape}")
        if t in seen_cands:
            raise DataError(f"candidate {t} assigned twice")
        if not relaxed and s in seen_sources:
            raise DataError(f"source {s} assigned twice")
        if p.costs[s][t] <= 0:
            raise DataError(f"assignment ({s}, {t}) has zero cost")
        seen_sources.add(s)
        seen_cands.add(t)
        objective += p.costs[s][t]
    chosen = sorted(seen_cands)
    for a_pos, a in enumerate(chosen):
        for b in chosen[a_pos + 1 :]:
            if spans_overlap(spans[a], spans[b]):
                raise DataError(f"chosen candidates {a} and {b} overlap")
    if objective != sol.objective:
        raise DataError(f"objective {sol.objective} != recomputed {objective}")
    if not relaxed and p.mode is MatchMode.REQUIRE_ALL and len(seen_sources) != n_src:
        missing = sorted(set(range(n_src)) - seen_sources)
        raise DataError(f"REQUIRE_ALL solution leaves sources {missing} unassigned")


def render_problem(p: MatchingProblem) -> str:
    """Plain-text cost matrix with aligned columns, rationals printed as a/b."""
    n_src, n_cand = p.shape
    header = ["src\\cand"] + [f"t{t}={spans_fmt(p.candidates.spans[t])}" for t in range(n_cand)]
    rows = [header]
    for s in range(n_src):
        label = p.sources[s].label or "?"
        rows.append(
            [f"s{s}={spans_fmt(p.sources[s])}:{label}"]
            + [str(p.costs[s][t]) for t in range(n_cand)]
        )
    return f"mode={p.mode.value} shape={n_src}x{n_cand}\n" + render_table(rows)


def spans_fmt(span: EntitySpan) -> str:
    return f"[{span.start},{span.end})"
