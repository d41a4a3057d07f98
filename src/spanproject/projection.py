"""Sentence-level projection: turn alignments and matching decisions into labels.

Two projection methods are implemented. The heuristic baseline copies each
source entity onto the hull of its aligned target words, shrinking to the
longest contiguous run when the alignment looks scattered. The matching
method generates candidate spans, prices every source-candidate pair, and
lets a solver pick the assignment.

Back-translated input (the same-language direction) first gets its labels
from bracket markers (``roundtrip``); after that the projected sentence flows
through exactly the same code path, with the marker-labeled sentence as the
labeled side.

``candidates`` and ``matching`` are imported by the matching functions on
first use, never here, so a heuristic run loads neither.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import (
    AlignmentSet,
    EntitySpan,
    LabeledSentence,
    MatchMode,
    Sentence,
    SourceKind,
    _entity_links,
    _Value,
)
from .errors import DataError

if TYPE_CHECKING:
    from .matching import MatchingProblem, MatchingSolution

DEFAULT_RATIO_THRESHOLD = Fraction(4, 5)
DEFAULT_MAX_NGRAM = 8


class Method(Enum):
    HEURISTIC = "heuristic"
    CANDIDATE_MATCHING = "matching"


class Solver(Enum):
    """Greedy approximation, exact interval DP, or the assignment reduction."""

    GREEDY = "greedy"
    EXACT = "exact"
    ASSIGNMENT = "assignment"


class ProjectionConfig(_Value):
    """Resolved knobs for a projection run.

    candidate_source and solver only matter for CANDIDATE_MATCHING;
    ratio_threshold only for HEURISTIC. The ASSIGNMENT solver insists on
    external candidates because n-gram candidates always overlap. GREEDY
    refuses REQUIRE_ALL: it cannot guarantee to cover every source. EXACT
    works on any candidates but is guarded by its source count.
    """

    __slots__ = (
        "method", "candidate_source", "solver", "ratio_threshold", "max_ngram_len", "mode"
    )
    method: Method
    candidate_source: SourceKind
    solver: Solver
    ratio_threshold: Fraction
    max_ngram_len: int | None
    mode: MatchMode

    def __init__(
        self,
        method: Method = Method.CANDIDATE_MATCHING,
        candidate_source: SourceKind = SourceKind.NGRAM,
        solver: Solver = Solver.GREEDY,
        ratio_threshold: Fraction = DEFAULT_RATIO_THRESHOLD,
        max_ngram_len: int | None = DEFAULT_MAX_NGRAM,
        mode: MatchMode = MatchMode.AT_MOST_ONE,
    ):
        set_method, set_candidate_source, set_solver, set_ratio, set_max_ngram, set_mode = (
            self._setters
        )
        set_method(self, method)
        set_candidate_source(self, candidate_source)
        set_solver(self, solver)
        set_ratio(self, ratio_threshold)
        set_max_ngram(self, max_ngram_len)
        set_mode(self, mode)
        if not 0 < ratio_threshold <= 1:
            raise DataError(f"ratio threshold must be in (0, 1], got {ratio_threshold}")
        if max_ngram_len is not None and max_ngram_len < 1:
            raise DataError(f"max n-gram length must be >= 1, got {max_ngram_len}")
        if (
            method is Method.CANDIDATE_MATCHING
            and solver is Solver.ASSIGNMENT
            and candidate_source is not SourceKind.EXTERNAL_NER
        ):
            raise DataError("the assignment solver requires external (disjoint) candidates")
        if (
            method is Method.CANDIDATE_MATCHING
            and solver is Solver.GREEDY
            and mode is MatchMode.REQUIRE_ALL
        ):
            raise DataError("greedy solving cannot guarantee REQUIRE_ALL coverage")


def _longest_run(indices: list[int]) -> tuple[int, int]:
    """Longest run of consecutive integers, leftmost on ties; returns (start, end)."""
    best_start = run_start = indices[0]
    best_len = run_len = 1
    for prev, cur in zip(indices, indices[1:]):
        if cur == prev + 1:
            run_len += 1
        else:
            run_start, run_len = cur, 1
        if run_len > best_len:
            best_start, best_len = run_start, run_len
    return best_start, best_start + best_len


def project_heuristic(
    labeled: LabeledSentence,
    target: Sentence,
    align: AlignmentSet,
    threshold: Fraction = DEFAULT_RATIO_THRESHOLD,
) -> LabeledSentence:
    """Project each entity onto the hull of its aligned target words.

    When the aligned indices cover less than `threshold` of the hull, the
    span shrinks to the longest contiguous run of aligned indices, which
    cuts off stray long-distance alignments. Projected spans that collide
    keep the earlier entity.

    The pairs are grouped per entity by ``core._entity_links``, the one pass
    that ``matching.build_problem`` shares, and an entity's aligned words are
    its sorted target indices. The coverage test ``len / hull < threshold``
    is cross-multiplied (both denominators are positive), so no ``Fraction``
    is built per entity, and a span is built only once it is kept.
    """
    align.check_bounds(len(labeled.sentence), len(target))
    num, den = threshold.numerator, threshold.denominator
    projected: list[EntitySpan] = []
    for entity, counts in zip(labeled.entities, _entity_links(labeled, align)):
        if not counts:
            continue
        aligned = sorted(counts)
        start, end = aligned[0], aligned[-1] + 1
        if len(aligned) * den < num * (end - start):
            start, end = _longest_run(aligned)
        if any(start < prior.end and prior.start < end for prior in projected):
            continue
        projected.append(EntitySpan(start, end, entity.label))
    return LabeledSentence(target, tuple(projected))


def matching_problem(
    labeled: LabeledSentence,
    target: Sentence,
    align: AlignmentSet,
    cfg: ProjectionConfig,
    external_spans: list[EntitySpan] | None = None,
) -> MatchingProblem:
    """Check the alignment against both sentences, pick candidates as cfg says, price them."""
    from .candidates import external_candidates, ngram_candidates
    from .matching import build_problem

    align.check_bounds(len(labeled.sentence), len(target))
    if cfg.candidate_source is SourceKind.EXTERNAL_NER:
        if external_spans is None:
            raise DataError(
                f"external candidate spans required for sentence {target.id} "
                "but none were supplied"
            )
        cands = external_candidates(target, external_spans)
    elif external_spans is not None:
        raise DataError("external spans supplied but candidate source is n-gram")
    else:
        cands = ngram_candidates(target, cfg.max_ngram_len)
    return build_problem(labeled, cands, align, cfg.mode)


def solve(problem: MatchingProblem, solver: Solver) -> MatchingSolution:
    """Run the chosen solver and check its result; an invalid one raises DataError."""
    from .matching import solve_assignment_exact, solve_exact, solve_greedy, validate_solution

    solve_with = {
        Solver.GREEDY: solve_greedy,
        Solver.EXACT: solve_exact,
        Solver.ASSIGNMENT: solve_assignment_exact,
    }[solver]
    solution = solve_with(problem)
    validate_solution(problem, solution)
    return solution


def project_matching(
    labeled: LabeledSentence,
    target: Sentence,
    align: AlignmentSet,
    cfg: ProjectionConfig,
    external_spans: list[EntitySpan] | None = None,
) -> LabeledSentence:
    """Candidate-matching projection for one sentence pair.

    Every assignment the solver returns emits the candidate's span carrying
    the source entity's label; unassigned sources vanish. The solver's
    non-overlap constraint is what makes the output a valid flat labeling.
    """
    problem = matching_problem(labeled, target, align, cfg, external_spans)
    solution = solve(problem, cfg.solver)
    entities = tuple(
        problem.candidates.spans[t].with_label(problem.sources[s].label)
        for s, t in solution.assignments
    )
    return LabeledSentence(target, entities)
