"""Sentence-level projection: turn alignments and matching decisions into labels.

Two projection methods are implemented. The heuristic baseline copies each
source entity onto the hull of its aligned target words, shrinking to the
longest contiguous run when the alignment looks scattered. The matching
method generates candidate spans, prices every source-candidate pair, and
lets a solver pick the assignment.

For back-translated input (the same-language direction), labels first have
to be recovered from bracket markers via fuzzy string matching; after that
the projected sentence flows through exactly the same code path, with the
marker-labeled sentence as the labeled side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .candidates import SourceKind, external_candidates, ngram_candidates
from .core import AlignmentSet, EntitySpan, LabeledSentence, Sentence, spans_overlap
from .errors import DataError
from .formats import MarkedSentence
from .matching import (
    MatchingProblem,
    MatchingSolution,
    MatchMode,
    build_problem,
    solve_assignment_exact,
    solve_bruteforce,
    solve_greedy,
    solve_relaxed_mwis,
)

DEFAULT_RATIO_THRESHOLD = Fraction(4, 5)
DEFAULT_MIN_SIMILARITY = Fraction(1, 2)
DEFAULT_MAX_NGRAM = 8


class Method(Enum):
    HEURISTIC = "heuristic"
    CANDIDATE_MATCHING = "matching"


class Solver(Enum):
    GREEDY = "greedy"
    BRUTE_FORCE = "brute"
    ASSIGNMENT = "assignment"
    RELAXED_MWIS = "mwis"


_SOLVER_FUNCS = {
    Solver.GREEDY: solve_greedy,
    Solver.BRUTE_FORCE: solve_bruteforce,
    Solver.ASSIGNMENT: solve_assignment_exact,
    Solver.RELAXED_MWIS: solve_relaxed_mwis,
}


@dataclass(frozen=True, slots=True)
class ProjectionConfig:
    """Resolved knobs for a projection run.

    candidate_source and solver only matter for CANDIDATE_MATCHING;
    ratio_threshold only for HEURISTIC. The ASSIGNMENT solver insists on
    external candidates because n-gram candidates always overlap.
    """

    method: Method = Method.CANDIDATE_MATCHING
    candidate_source: SourceKind = SourceKind.NGRAM
    solver: Solver = Solver.GREEDY
    ratio_threshold: Fraction = DEFAULT_RATIO_THRESHOLD
    max_ngram_len: int | None = DEFAULT_MAX_NGRAM
    mode: MatchMode = MatchMode.AT_MOST_ONE

    def __post_init__(self):
        if not 0 < self.ratio_threshold <= 1:
            raise DataError(
                f"ratio threshold must be in (0, 1], got {self.ratio_threshold}"
            )
        if self.max_ngram_len is not None and self.max_ngram_len < 1:
            raise DataError(f"max n-gram length must be >= 1, got {self.max_ngram_len}")
        if (
            self.method is Method.CANDIDATE_MATCHING
            and self.solver is Solver.ASSIGNMENT
            and self.candidate_source is not SourceKind.EXTERNAL_NER
        ):
            raise DataError("the assignment solver requires external (disjoint) candidates")
        if self.method is Method.CANDIDATE_MATCHING and self.solver is Solver.GREEDY:
            if self.mode is MatchMode.REQUIRE_ALL:
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
    """
    align.check_bounds(len(labeled.sentence), len(target))
    projected: list[EntitySpan] = []
    for entity in labeled.entities:
        aligned = sorted(align.targets_of(entity))
        if not aligned:
            continue
        start, end = aligned[0], aligned[-1] + 1
        if Fraction(len(aligned), end - start) < threshold:
            start, end = _longest_run(aligned)
        span = EntitySpan(start, end, entity.label)
        if any(spans_overlap(span, prior) for prior in projected):
            continue
        projected.append(span)
    return LabeledSentence(target, tuple(projected))


def matching_problem(
    labeled: LabeledSentence,
    target: Sentence,
    align: AlignmentSet,
    cfg: ProjectionConfig,
    external_spans: list[EntitySpan] | None = None,
) -> MatchingProblem:
    """Check the alignment against both sentences, pick candidates as cfg says, price them."""
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
    return _SOLVER_FUNCS[solver](problem)


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


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, two-row DP."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ch_a != ch_b),
                )
            )
        previous = current
    return previous[-1]


def fuzzy_similarity(a: str, b: str) -> Fraction:
    """Normalized case-folded edit similarity: 1 - dist / max(len).

    Equals 1 exactly when the case-folded strings match; two empty strings
    count as identical.
    """
    fa, fb = a.casefold(), b.casefold()
    longest = max(len(fa), len(fb))
    if longest == 0:
        return Fraction(1)
    return 1 - Fraction(edit_distance(fa, fb), longest)


def assign_marker_labels(
    marked: MarkedSentence,
    min_similarity: Fraction = DEFAULT_MIN_SIMILARITY,
    sentence_id: int = 0,
) -> LabeledSentence:
    """Label bracket spans by fuzzy-matching their text against translations.

    Pairs are consumed greedily by descending similarity, each translation
    and each bracket used at most once; anything scoring below
    min_similarity stays unlabeled and is dropped.
    """
    scored = []
    for b, span in enumerate(marked.bracket_spans):
        text = marked.bracket_text(span)
        for k, (translation, _) in enumerate(marked.entity_translations):
            similarity = fuzzy_similarity(text, translation)
            if similarity >= min_similarity:
                scored.append((-similarity, b, k))
    scored.sort()
    used_brackets: set[int] = set()
    used_translations: set[int] = set()
    entities = []
    for neg_similarity, b, k in scored:
        if b in used_brackets or k in used_translations:
            continue
        used_brackets.add(b)
        used_translations.add(k)
        label = marked.entity_translations[k][1]
        entities.append(marked.bracket_spans[b].with_label(label))
    sentence = Sentence(marked.tokens, id=sentence_id)
    return LabeledSentence(sentence, tuple(entities))
