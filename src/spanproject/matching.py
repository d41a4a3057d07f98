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
solver. All arithmetic is exact: costs are ``fractions.Fraction``, and a
problem stores the cells its solvers read as integer gains over one
``scale`` per problem; nothing here ever rounds, so identical inputs give
identical solutions on any platform.

``build_problem`` is the cost kernel. A cell is the number of alignment
pairs inside source x candidate, over the two spans' summed lengths.

**Dominance.** Take a positive cell (s, t) and its aligned hull h, the
tightest span around the words of t aligned to source s. When h is a
candidate other than t, it has the same count over fewer words, so
cost(s, h) > cost(s, t), and no solver ever picks (s, t):

* Greedy pops h first. Then h is taken, by s (which uses s up) or by
  another source (and h overlaps t); or h is passed over, because s is used
  or h overlaps a chosen span, and each of those rules out t too.
* An optimum that used (s, t) would strictly improve by taking h instead,
  since h lies inside t. So dropping (s, t) leaves the set of optimal
  solutions, and the exact solvers' tie rule among them, as it was, under
  either mode.

**Frontier.** ``MatchingProblem.frontier`` maps each cell that this rule
keeps, ``(s, t)`` in row-major order, to an integer gain: the cell costs
exactly ``gain / scale``, one ``scale`` per problem. When the candidate set
is closed under sub-spans (every n-gram set is), every hull is a candidate,
so the frontier is the cells whose first and last target words are both
aligned to the source: ``build_problem`` prices them from the source's
aligned words alone, without visiting any other cell. For any other set,
such as disjoint NER spans, the frontier is every positive cell. Every
positive row keeps a frontier cell (its one-word cells are their own
hulls). Every solver reads only the frontier's gains, and
``validate_solution`` looks each chosen cell up in it, so their work grows
with the frontier, not the matrix. The frontier, like a problem's per-source
``links``, is a read-only view (``types.MappingProxyType``): both
constructors store a problem through one function, ``_store``, so no caller
can change a problem's answer after it is built.

**The dense view.** The ``costs`` matrix of a ``build_problem`` problem is
priced on first read and then kept. Only ``render_problem`` (the ``solve``
command's printout), the problem's repr, ==, hash, copy and pickle, and
``validate_solution`` given a cell outside the frontier read it, so a
``project`` run never builds it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop
from itertools import accumulate
from math import lcm
from numbers import Rational
from types import MappingProxyType

from .candidates import CandidateSet
from .core import (
    AlignmentSet,
    EntitySpan,
    LabeledSentence,
    MatchMode,
    _elements,
    _entity_links,
    _Value,
    spans_overlap,
)
from .errors import DataError, GuardError, InfeasibleError
from .formats import render_table

EXACT_MAX_SOURCES = 10

_ZERO = Fraction(0)


class MatchingProblem(_Value, derived=("frontier", "scale", "links")):
    """A cost matrix between labeled source entities and unlabeled candidates.

    ``frontier`` maps each positive cell a solver can ever pick (see the
    module docstring), ``(s, t)`` in row-major order, to its integer gain;
    the cell's cost is exactly ``gain / scale``. Both are left out of repr,
    == and hash. The constructor takes ``costs``, whose cells must be
    rational (``Fraction`` or ``int``, not ``bool``) and non-negative, and
    its ``frontier`` is every positive cell. A problem from
    ``build_problem`` stores its ``frontier`` and ``scale`` and, per
    source, its alignment pairs counted by target index (``links``); its
    ``costs`` are priced from those on first read, ``Fraction(0)`` in the
    zero cells, and then kept; ``links`` is None on a problem from the
    constructor. Both constructors store a problem through ``_store``,
    which keeps ``frontier`` and each of ``links``' maps as read-only views.
    ``candidates`` holds spans only, so the problems of every n-gram target
    of one length share one set.
    """

    __slots__ = ("sources", "candidates", "costs", "mode", "frontier", "scale", "links")
    sources: tuple[EntitySpan, ...]
    candidates: CandidateSet
    costs: tuple[tuple[Fraction, ...], ...]
    mode: MatchMode
    frontier: MappingProxyType[tuple[int, int], int]
    scale: int
    links: tuple[MappingProxyType[int, int], ...] | None

    def __init__(
        self,
        sources: tuple[EntitySpan, ...],
        candidates: CandidateSet,
        costs: tuple[tuple[Fraction, ...], ...],
        mode: MatchMode = MatchMode.AT_MOST_ONE,
    ):
        sources = _elements(sources, EntitySpan, "matching source")
        try:
            costs = tuple(tuple(row) for row in costs)
        except TypeError:
            raise DataError("a cost matrix must be an iterable of iterable rows") from None
        if type(candidates) is not CandidateSet:
            raise DataError(
                f"a matching problem needs a CandidateSet, got {type(candidates).__name__}"
            )
        if len(costs) != len(sources):
            raise DataError(f"cost matrix has {len(costs)} rows for {len(sources)} sources")
        positive = []
        for s, row in enumerate(costs):
            if len(row) != len(candidates.spans):
                raise DataError(
                    f"cost row has {len(row)} entries for {len(candidates.spans)} candidates"
                )
            for t, cell in enumerate(row):
                if not isinstance(cell, Rational) or cell.__class__ is bool:
                    raise DataError(
                        f"matching cost {cell!r} at ({s}, {t}) is not a rational number"
                    )
                # the sign of the numerator is exact, and skips Fraction's
                # generic comparison
                num = cell.numerator
                if num < 0:
                    raise DataError(f"negative matching cost {cell}")
                if num:
                    positive.append((s, t, num, cell.denominator))
        _store(self, sources, candidates, costs, mode, None, positive)

    def __getattr__(self, name: str):
        # reached only when a slot is unset: ``costs`` of a problem from
        # build_problem
        if name != "costs":
            raise AttributeError(name)
        _, _, set_costs, *_ = self._setters
        costs = _dense_costs(self)
        set_costs(self, costs)
        return costs

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.sources), len(self.candidates.spans)


class MatchingSolution(_Value):
    """Chosen (source index, candidate index) pairs and their summed cost.

    The constructor takes each assignment as a tuple of two and normalizes
    their order; feasibility is deliberately not checked here, see
    validate_solution.
    """

    __slots__ = ("assignments", "objective")
    assignments: tuple[tuple[int, int], ...]
    objective: Fraction

    def __init__(self, assignments: tuple[tuple[int, int], ...], objective: Fraction):
        set_assignments, set_objective = self._setters
        assignments = _elements(assignments, tuple, "assignment")
        for pos, pair in enumerate(assignments):
            if len(pair) != 2:
                from reprlib import repr as short_repr  # an assignment may be huge

                raise DataError(
                    f"assignment at position {pos} must be a (source, candidate) pair, "
                    f"got {short_repr(pair)}"
                )
        try:
            assignments = tuple(sorted(assignments))
        except TypeError as err:
            raise DataError(f"assignments cannot be ordered: {err}") from None
        set_assignments(self, assignments)
        set_objective(self, objective)


def _store(p, sources, candidates, costs, mode, links, cells) -> None:
    """Store every slot of problem ``p``, the one path both constructors take.

    ``costs`` None leaves the dense matrix to be priced on first read.
    ``links`` (a dict per source, or None) is kept as a tuple of read-only
    views, and the row-major ``(s, t, num, den)`` cells as a read-only
    ``frontier`` of integer gains over ``scale``.
    """
    set_sources, set_candidates, set_costs, set_mode, set_frontier, set_scale, set_links = (
        p._setters
    )
    set_sources(p, sources)
    set_candidates(p, candidates)
    if costs is not None:
        set_costs(p, costs)
    set_mode(p, mode)
    scale = lcm(*{den for _, _, _, den in cells})  # each gain / scale is exactly num / den
    set_frontier(p, MappingProxyType({(s, t): num * (scale // den) for s, t, num, den in cells}))
    set_scale(p, scale)
    set_links(p, None if links is None else tuple(map(MappingProxyType, links)))


def _cell_counts(sources, links, spans):
    """Per source, every candidate's ``(count, length)``, from the source's ``links``.

    ``prefix[j]`` counts the source's links with target index below ``j``,
    so a cell's count is ``prefix[tgt.end] - prefix[tgt.start]``, and its
    length is ``len(src) + len(tgt)``. The array runs to the largest
    candidate end: target indices past it fall in no candidate.
    """
    bounds = [(span.start, span.end) for span in spans]
    width = max([span.end for span in spans], default=0)
    for src, counts in zip(sources, links):
        hits = [0] * (width + 1)
        for j, count in counts.items():
            if j < width:
                hits[j + 1] += count
        prefix = list(accumulate(hits))
        src_len = src.end - src.start
        yield [(prefix[end] - prefix[start], src_len + end - start) for start, end in bounds]


def _dense_costs(p: MatchingProblem) -> tuple[tuple[Fraction, ...], ...]:
    """The full cost matrix of a problem from ``build_problem``; zero cells share one Fraction."""
    return tuple(
        tuple(Fraction(count, length) if count else _ZERO for count, length in row)
        for row in _cell_counts(p.sources, p.links, p.candidates.spans)
    )


def build_problem(
    labeled: LabeledSentence,
    cands: CandidateSet,
    align: AlignmentSet,
    mode: MatchMode = MatchMode.AT_MOST_ONE,
) -> MatchingProblem:
    """Price the frontier of one sentence pair: the cells a solver can ever pick.

    Alignment indices are checked against the labeled sentence only; the
    target side is checked by callers such as ``matching_problem``.

    Each cell counts the alignment pairs inside src x tgt, over ``len(src) +
    len(tgt)``. ``core._entity_links``, the grouping the heuristic shares,
    counts each source's pairs by target index in one pass over the pairs,
    and the problem keeps those counts (``links``) to price its dense
    ``costs`` if they are ever read.

    Over a candidate set closed under sub-spans, a source's frontier cells
    are its pairs of aligned target words ``first <= last`` that one
    candidate spans: for k aligned words, at most k(k+1)/2 cells, however
    many positive cells the source has. Prefix counts over the sorted
    aligned words give each cell's count, and the set's ``closed`` map gives
    the candidate index. Over any other set the frontier is every positive
    cell, counted by ``_cell_counts``. Each cell is stored unreduced, as
    ``count / length``; a count is positive and the lengths are positive, so
    nothing needs re-checking. See the module docstring for why no other
    cell is needed.
    """
    entities = labeled.entities
    links = _entity_links(labeled, align)  # links[s][j]: source s's pairs with target j
    closed = cands.closed
    frontier = []
    if closed is None:
        for s, row in enumerate(_cell_counts(entities, links, cands.spans)):
            for t, (count, length) in enumerate(row):
                if count:
                    frontier.append((s, t, count, length))
    else:
        for s, (src, counts) in enumerate(zip(entities, links)):
            aligned = sorted(counts)
            # below[x]: the source's pairs with target index below aligned[x]
            below = list(accumulate(map(counts.__getitem__, aligned), initial=0))
            src_len = src.end - src.start
            for x, start in enumerate(aligned):
                run = closed.get(start)
                if run is None:
                    continue  # no candidate starts here, so none contains this word
                first, past = run
                reach = start + past - first  # the run's ends: start + 1 .. reach
                before = below[x]
                for y in range(x, len(aligned)):
                    last = aligned[y]
                    if last >= reach:
                        break
                    count = below[y + 1] - before
                    frontier.append((s, first + last - start, count, src_len + last + 1 - start))
    p = object.__new__(MatchingProblem)  # __init__ needs the dense matrix
    _store(p, entities, cands, None, mode, links, frontier)
    return p


def solve_greedy(p: MatchingProblem) -> MatchingSolution:
    """Repeatedly take the largest strictly positive remaining cost.

    Choosing a pair consumes its source and every candidate overlapping the
    chosen candidate. Ties break toward the lower source start, then the
    lower candidate start, then the shorter candidate. Only AT_MOST_ONE is
    supported; greedy cannot promise full source coverage.

    Only the problem's frontier is read: the other positive cells would be
    passed over (see the module docstring). It is ordered on its integer
    gains, each ``cost * scale``, so the order is the same as on the
    Fraction costs. Candidates are distinct and sorted by (start, end), so
    the candidate index orders them as (start, end) does, and a source index
    breaks the remaining ties (overlapping sources sharing a start) in
    row-major order. The scan stops once every source is used, so the cells
    are heapified and popped in order rather than sorted. The objective is
    the chosen cells' summed gains over ``scale``.
    """
    if p.mode is MatchMode.REQUIRE_ALL:
        raise DataError("greedy solving cannot guarantee REQUIRE_ALL; use an exact solver")
    spans = p.candidates.spans
    starts = [src.start for src in p.sources]
    heap = [(-gain, starts[s], t, s) for (s, t), gain in p.frontier.items()]
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
    return MatchingSolution(tuple(assignments), Fraction(-neg_total, p.scale))


def _statically_uncoverable(p: MatchingProblem) -> tuple[int, ...]:
    """Sources with no positive cost against any candidate.

    A positive row keeps at least one frontier cell, so the frontier tells.
    """
    covered = {s for s, _ in p.frontier}
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
    frontier; every other source-candidate cell is forbidden, which changes
    no optimum (see the module docstring). Costs are the frontier's integer
    gains, so the solver never rounds.
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

    gains = p.frontier
    big = n_src * max(gains.values(), default=0) + p.scale
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
    return MatchingSolution(tuple(assignments), Fraction(total, p.scale))


def solve_exact(p: MatchingProblem) -> MatchingSolution:
    """Exact optimum, each source used at most once, by one pass over target positions.

    Guarded by source count. A state is a target position plus the mask of
    sources used so far. It moves on one position, or takes a positive cell
    whose candidate starts there: that jumps to the candidate's end and sets
    the source's bit, so candidates never overlap and the mask caps each
    source. Only frontier cells are moves: no optimum uses another cell
    (see the module docstring). Each state keeps the largest value (a sum
    of the frontier's integer gains), then the lexicographically smallest
    sorted assignment tuple: all cells are positive, so a common extension
    never reverses that choice. Under REQUIRE_ALL only the full mask counts.
    """
    if len(p.sources) > EXACT_MAX_SOURCES:
        raise GuardError(
            f"instance with {len(p.sources)} sources exceeds the exact solver's guard "
            f"({EXACT_MAX_SOURCES} sources)"
        )
    spans = p.candidates.spans
    width = max((span.end for span in spans), default=0)
    moves = [[] for _ in range(width)]
    for (s, t), gain in p.frontier.items():
        moves[spans[t].start].append((spans[t].end, 1 << s, gain, (s, t)))
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
    return MatchingSolution(chosen, Fraction(-neg, p.scale))


def validate_solution(p: MatchingProblem, sol: MatchingSolution) -> None:
    """Independently check a solution's feasibility; raises on any violation.

    Each assigned cell's gain is looked up in the frontier. Only a cell
    outside it, which no solver returns, is read from the dense ``costs``,
    so a valid choice that no solver would make is still accepted.
    """
    n_src, n_cand = p.shape
    spans = p.candidates.spans
    seen_sources: set[int] = set()
    seen_cands: set[int] = set()
    gain_sum, off_frontier = 0, _ZERO  # the recomputed objective: gain_sum / scale + off_frontier
    for s, t in sol.assignments:
        if not (type(s) is int and type(t) is int and 0 <= s < n_src and 0 <= t < n_cand):
            raise DataError(f"assignment ({s}, {t}) out of range for shape {p.shape}")
        if t in seen_cands:
            raise DataError(f"candidate {t} assigned twice")
        if s in seen_sources:
            raise DataError(f"source {s} assigned twice")
        gain = p.frontier.get((s, t))
        if gain is not None:
            gain_sum += gain
        else:
            cost = p.costs[s][t]
            if not cost:
                raise DataError(f"assignment ({s}, {t}) has zero cost")
            off_frontier += cost
        seen_sources.add(s)
        seen_cands.add(t)
    # candidates are sorted by (start, end), so one that overlaps any later
    # chosen candidate overlaps the next one
    chosen = sorted(seen_cands)
    for a, b in zip(chosen, chosen[1:]):
        if spans_overlap(spans[a], spans[b]):
            raise DataError(f"chosen candidates {a} and {b} overlap")
    objective = Fraction(gain_sum, p.scale) + off_frontier
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
