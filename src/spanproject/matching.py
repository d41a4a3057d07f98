"""Weighted matching of source entities to target candidate spans.

The optimization problem: choose source-to-candidate assignments maximizing
the summed matching cost, subject to (a) no two chosen candidates overlap,
and (b) each source entity used at most once (AT_MOST_ONE) or exactly once
(REQUIRE_ALL). Three solvers are provided:

* ``solve_greedy``: the fast approximation; repeatedly takes the largest
  remaining positive cost.
* ``solve_assignment_exact``: polynomial optimum when candidates are
  pairwise disjoint, where the problem is a plain assignment problem.
* ``solve_exact``: the optimum by one DP over target positions that also
  tracks the set of sources used.

A pair with zero cost (no alignment evidence) is never assigned, by any
solver. All arithmetic is exact: costs are ``fractions.Fraction``, and every
solver works on them as integers scaled by the lcm of their denominators;
nothing here ever rounds, so identical inputs give identical solutions on any
platform.

``build_problem`` is the cost kernel. A cell is the number of alignment
pairs inside source x candidate, over the two spans' summed lengths. It
counts them from one prefix-count array per source entity, visits only the
positive cells and stores only those: ``MatchingProblem.positive`` lists
them as reduced integer ``(numerator, denominator, s, t)`` tuples in
row-major order. Every solver and ``validate_solution`` read that list, so
their work grows with the positive cells, not the matrix. The dense
``costs`` matrix of such a problem is built from the list on first read and
then kept; only ``render_problem`` and the problem's repr, == and hash read
it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heapify, heappop
from itertools import accumulate
from math import gcd, lcm
from numbers import Rational
from operator import itemgetter

from .candidates import CandidateSet
from .core import AlignmentSet, EntitySpan, LabeledSentence, MatchMode, _Value, spans_overlap
from .errors import DataError, GuardError, InfeasibleError
from .formats import render_table

EXACT_MAX_SOURCES = 10

_ZERO = Fraction(0)
_CELL = itemgetter(2, 3)  # the (s, t) of a positive entry


class MatchingProblem(_Value, derived=("positive",)):
    """A cost matrix between labeled source entities and unlabeled candidates.

    ``positive`` holds one reduced ``(numerator, denominator, s, t)`` entry
    per positive cell, in row-major order; it is left out of repr, == and
    hash. The constructor derives it from ``costs``, whose cells must be
    rational (``Fraction`` or ``int``) and non-negative. A problem from
    ``build_problem`` stores only ``positive``: its ``costs`` are built on
    first read, ``Fraction(0)`` in the zero cells, and then kept.
    ``candidates`` holds spans only, so the problems of every n-gram target
    of one length share one set.
    """

    __slots__ = ("sources", "candidates", "costs", "mode", "positive")
    sources: tuple[EntitySpan, ...]
    candidates: CandidateSet
    costs: tuple[tuple[Fraction, ...], ...]
    mode: MatchMode
    positive: tuple[tuple[int, int, int, int], ...]

    def __init__(
        self,
        sources: tuple[EntitySpan, ...],
        candidates: CandidateSet,
        costs: tuple[tuple[Fraction, ...], ...],
        mode: MatchMode = MatchMode.AT_MOST_ONE,
    ):
        set_sources, set_candidates, set_costs, set_mode, set_positive = self._setters
        sources = tuple(sources)
        costs = tuple(tuple(row) for row in costs)
        set_sources(self, sources)
        set_candidates(self, candidates)
        set_costs(self, costs)
        set_mode(self, mode)
        if len(costs) != len(sources):
            raise DataError(f"cost matrix has {len(costs)} rows for {len(sources)} sources")
        positive = []
        for s, row in enumerate(costs):
            if len(row) != len(candidates.spans):
                raise DataError(
                    f"cost row has {len(row)} entries for {len(candidates.spans)} candidates"
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
        set_positive(self, tuple(positive))

    @classmethod
    def _sparse(
        cls,
        sources: tuple[EntitySpan, ...],
        candidates: CandidateSet,
        mode: MatchMode,
        positive: tuple[tuple[int, int, int, int], ...],
    ) -> "MatchingProblem":
        """Wrap the positive cells a caller has just priced; ``costs`` stays unset.

        Skips ``__init__``, which needs the dense matrix; only
        ``build_problem`` uses it.
        """
        set_sources, set_candidates, _, set_mode, set_positive = cls._setters
        self = object.__new__(cls)
        set_sources(self, sources)
        set_candidates(self, candidates)
        set_mode(self, mode)
        set_positive(self, positive)
        return self

    def __getattr__(self, name: str):
        # reached only when a slot is unset: ``costs`` of a sparse problem
        if name != "costs":
            raise AttributeError(name)
        _, _, set_costs, _, _ = self._setters
        costs = _dense_costs(self)
        set_costs(self, costs)
        return costs

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.sources), len(self.candidates.spans)


class MatchingSolution(_Value):
    """Chosen (source index, candidate index) pairs and their summed cost.

    The constructor normalizes assignment order; feasibility is deliberately
    not checked here, see validate_solution.
    """

    __slots__ = ("assignments", "objective")
    assignments: tuple[tuple[int, int], ...]
    objective: Fraction

    def __init__(self, assignments: tuple[tuple[int, int], ...], objective: Fraction):
        set_assignments, set_objective = self._setters
        set_assignments(self, tuple(sorted(assignments)))
        set_objective(self, objective)


def _dense_costs(p: MatchingProblem) -> tuple[tuple[Fraction, ...], ...]:
    """The full cost matrix of ``p``, rebuilt from its positive cells."""
    n_src, n_cand = p.shape
    rows = [[_ZERO] * n_cand for _ in range(n_src)]
    for num, den, s, t in p.positive:
        rows[s][t] = Fraction(num, den)
    return tuple(map(tuple, rows))


def _positive_cell(p: MatchingProblem, s: int, t: int) -> tuple[int, int] | None:
    """Cell (s, t)'s ``(numerator, denominator)``, found by bisection; None if zero."""
    k = bisect_left(p.positive, (s, t), key=_CELL)
    if k < len(p.positive) and _CELL(p.positive[k]) == (s, t):
        return p.positive[k][:2]
    return None


def build_problem(
    labeled: LabeledSentence,
    cands: CandidateSet,
    align: AlignmentSet,
    mode: MatchMode = MatchMode.AT_MOST_ONE,
) -> MatchingProblem:
    """Price every positive cell of one sentence pair.

    Alignment indices are checked against the labeled sentence only; the
    target side is checked by callers such as ``matching_problem``.

    Each cell counts the alignment pairs inside src x tgt, over ``len(src) +
    len(tgt)``. The pairs are grouped by labeled-side index once. For each
    source entity, ``prefix[j]`` counts its alignment pairs with target
    index below ``j``, so a cell's count is ``prefix[tgt.end] -
    prefix[tgt.start]``. The array runs to the largest candidate end: target
    indices past it fall in no candidate.

    Only positive cells are visited. The candidate set's ``runs`` group the
    candidates sharing a start, ends rising, so the positive ones are the
    run's tail whose end passes the first aligned index at or after the
    start; one bisection per run finds it. Each cell is reduced by its gcd
    into the positive list, the problem's only storage; a count is never
    negative and the lengths are positive, so nothing needs re-checking.
    """
    n = len(labeled.sentence)
    targets_by_source: dict[int, list[int]] = {}
    for i, j in align.pairs:
        if i >= n:
            raise DataError(
                f"alignment index {i} out of bounds for labeled sentence "
                f"{labeled.sentence.id} of length {n}"
            )
        targets_by_source.setdefault(i, []).append(j)
    ends = cands.ends
    width = max(ends, default=0)
    positive = []
    for s, src in enumerate(labeled.entities):
        hits = [0] * (width + 1)
        for i in range(src.start, src.end):
            for j in targets_by_source.get(i, ()):
                if j < width:
                    hits[j + 1] += 1
        prefix = list(accumulate(hits))
        total = prefix[-1]
        src_len = src.end - src.start
        for start, first, past in cands.runs:
            before = prefix[start]
            if before == total:
                break  # no aligned index at or after this start, nor any later one
            # a candidate is positive once its end passes the first target
            # index whose prefix count exceeds `before`
            reach = bisect_right(prefix, before, start)
            for t in range(bisect_left(ends, reach, first, past), past):
                end = ends[t]
                count = prefix[end] - before
                length = src_len + end - start
                g = gcd(count, length)
                positive.append((count // g, length // g, s, t))
    return MatchingProblem._sparse(labeled.entities, cands, mode, tuple(positive))


def solve_greedy(p: MatchingProblem) -> MatchingSolution:
    """Repeatedly take the largest strictly positive remaining cost.

    Choosing a pair consumes its source and every candidate overlapping the
    chosen candidate. Ties break toward the lower source start, then the
    lower candidate start, then the shorter candidate. Only AT_MOST_ONE is
    supported; greedy cannot promise full source coverage.

    Only the problem's positive-cell list is read, and it is ordered on an
    exact integer key: with ``scale`` the least common multiple of the
    positive cells' denominators, ``cost * scale`` is an integer for every
    cell, so the order is the same as on the Fraction costs. Candidates are
    distinct and sorted by (start, end), so the candidate index orders them
    as (start, end) does, and a source index breaks the remaining ties
    (overlapping sources sharing a start) in row-major order. The scan stops
    once every source is used, usually after a few cells, so the cells are
    heapified and popped in order rather than sorted. The objective is the
    chosen cells' summed integer keys over ``scale``.
    """
    if p.mode is MatchMode.REQUIRE_ALL:
        raise DataError("greedy solving cannot guarantee REQUIRE_ALL; use an exact solver")
    spans = p.candidates.spans
    starts = [src.start for src in p.sources]
    scale = lcm(*{den for _, den, _, _ in p.positive})
    heap = [(-num * (scale // den), starts[s], t, s) for num, den, s, t in p.positive]
    heapify(heap)
    used_sources: set[int] = set()
    chosen_spans: list[EntitySpan] = []
    assignments: list[tuple[int, int]] = []
    neg_total = 0
    while heap and len(used_sources) < len(starts):
        neg, _, t, s = heappop(heap)
        if s in used_sources:
            continue
        span = spans[t]
        if any(spans_overlap(span, prior) for prior in chosen_spans):
            continue
        assignments.append((s, t))
        used_sources.add(s)
        chosen_spans.append(span)
        neg_total += neg
    return MatchingSolution(tuple(assignments), Fraction(-neg_total, scale))


def _statically_uncoverable(p: MatchingProblem) -> tuple[int, ...]:
    """Sources with no positive cost against any candidate."""
    covered = {s for _, _, s, _ in p.positive}
    return tuple(s for s in range(len(p.sources)) if s not in covered)


def _hungarian_min(cost: list[list[int]]) -> list[int]:
    """Minimum-cost perfect matching on a square integer matrix; returns column of each row.

    Potential-based shortest-augmenting-path method, cubic time, in exact
    integer arithmetic. None marks a column with no path yet: an infinite
    float there would mix floats into the sums, and a float minus an integer
    past about 1e308 overflows.
    """
    k = len(cost)
    u = [0] * (k + 1)
    v = [0] * (k + 1)
    match = [0] * (k + 1)  # 1-based: column j is matched to row match[j]
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        match[0] = i
        j0 = 0
        minv: list[int | None] = [None] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row, u0 = cost[i0 - 1], u[i0]
            delta = None
            j1 = 0
            for j in range(1, k + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u0 - v[j]
                least = minv[j]
                if least is None or cur < least:
                    minv[j] = least = cur
                    way[j] = j0
                if delta is None or least < delta:
                    delta = least
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
    whenever avoiding them is feasible. The matrix is filled from the
    positive cells; every other source-candidate cell is forbidden. Costs
    are integers under greedy's lcm scale, so the solver never rounds.
    """
    if not p.candidates.is_disjoint():
        raise DataError(
            "candidates overlap; the assignment reduction needs disjoint candidates, "
            "use greedy or exact instead"
        )
    n_src, n_cand = p.shape
    require_all = p.mode is MatchMode.REQUIRE_ALL
    if n_src == 0:
        return MatchingSolution((), Fraction(0))
    if n_cand == 0:
        if require_all:
            raise InfeasibleError(
                "no candidates to cover sources", uncoverable=tuple(range(n_src))
            )
        return MatchingSolution((), Fraction(0))

    scale = lcm(*{den for _, den, _, _ in p.positive})
    gains = {(s, t): num * (scale // den) for num, den, s, t in p.positive}
    big = n_src * max(gains.values(), default=0) + scale
    unassigned = big if require_all else 0
    matrix = [[big] * n_cand + [unassigned] * n_src for _ in range(n_src)]
    matrix += [[0] * (n_src + n_cand) for _ in range(n_cand)]
    for (s, t), gain in gains.items():
        matrix[s][t] = -gain

    cols = _hungarian_min(matrix)
    assignments = []
    total = 0
    for s in range(n_src):
        t = cols[s]
        if (s, t) in gains:
            assignments.append((s, t))
            total += gains[s, t]
        elif require_all:
            raise InfeasibleError(
                "no full positive-cost assignment exists",
                uncoverable=_statically_uncoverable(p),
            )
    return MatchingSolution(tuple(assignments), Fraction(total, scale))


def solve_exact(p: MatchingProblem) -> MatchingSolution:
    """Exact optimum, each source used at most once, by one pass over target positions.

    Guarded by source count. A state is a target position plus the mask of
    sources used so far. It moves on one position, or takes a positive cell
    whose candidate starts there: that jumps to the candidate's end and sets
    the source's bit, so candidates never overlap and the mask caps each
    source. Each state keeps the largest value (an integer under greedy's lcm
    scale), then the lexicographically smallest sorted assignment tuple: all
    cells are positive, so a common extension never reverses that choice.
    Under REQUIRE_ALL only the full mask counts.
    """
    if len(p.sources) > EXACT_MAX_SOURCES:
        raise GuardError(
            f"instance with {len(p.sources)} sources exceeds the exact solver's guard "
            f"({EXACT_MAX_SOURCES} sources)"
        )
    spans = p.candidates.spans
    scale = lcm(*{den for _, den, _, _ in p.positive})
    width = max((span.end for span in spans), default=0)
    moves = [[] for _ in range(width)]
    for num, den, s, t in p.positive:
        moves[spans[t].start].append((spans[t].end, 1 << s, num * (scale // den), (s, t)))
    # layers[j][mask] = (-value, assignments in target order); sorted only on ties
    layers = [{} for _ in range(width + 1)]
    layers[0][0] = (0, ())

    def offer(layer, mask, neg, chosen):
        held = layer.get(mask)
        if held is None or neg < held[0] or neg == held[0] and sorted(chosen) < sorted(held[1]):
            layer[mask] = (neg, chosen)

    for j in range(width):
        for mask, (neg, chosen) in layers[j].items():
            offer(layers[j + 1], mask, neg, chosen)
            for end, bit, gain, cell in moves[j]:
                if not mask & bit:
                    offer(layers[end], mask | bit, neg - gain, chosen + (cell,))
    final = layers[width]
    if p.mode is MatchMode.REQUIRE_ALL:
        full = (1 << len(p.sources)) - 1
        final = {full: final[full]} if full in final else {}
    if not final:
        raise InfeasibleError(
            "no assignment covers every source", uncoverable=_statically_uncoverable(p)
        )
    neg, chosen = min(final.values(), key=lambda entry: (entry[0], sorted(entry[1])))
    return MatchingSolution(chosen, Fraction(-neg, scale))


def validate_solution(p: MatchingProblem, sol: MatchingSolution) -> None:
    """Independently check a solution's feasibility; raises on any violation.

    Each assigned cell is looked up in the positive list by bisection, so
    the dense matrix is never built.
    """
    n_src, n_cand = p.shape
    spans = p.candidates.spans
    seen_sources: set[int] = set()
    seen_cands: set[int] = set()
    num_sum, den_sum = 0, 1  # the recomputed objective, as one unreduced fraction
    for s, t in sol.assignments:
        if not (0 <= s < n_src and 0 <= t < n_cand):
            raise DataError(f"assignment ({s}, {t}) out of range for shape {p.shape}")
        if t in seen_cands:
            raise DataError(f"candidate {t} assigned twice")
        if s in seen_sources:
            raise DataError(f"source {s} assigned twice")
        cell = _positive_cell(p, s, t)
        if cell is None:
            raise DataError(f"assignment ({s}, {t}) has zero cost")
        seen_sources.add(s)
        seen_cands.add(t)
        num, den = cell
        num_sum, den_sum = num_sum * den + num * den_sum, den_sum * den
    chosen = sorted(seen_cands)
    for a_pos, a in enumerate(chosen):
        for b in chosen[a_pos + 1 :]:
            if spans_overlap(spans[a], spans[b]):
                raise DataError(f"chosen candidates {a} and {b} overlap")
    objective = Fraction(num_sum, den_sum)
    if objective != sol.objective:
        raise DataError(f"objective {sol.objective} != recomputed {objective}")
    if p.mode is MatchMode.REQUIRE_ALL and len(seen_sources) != n_src:
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
