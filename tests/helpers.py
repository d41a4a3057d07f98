"""Shared test utilities: random instance generators and independent oracles.

The oracles here deliberately re-derive results from first principles
(plain recursion, full-matrix DP, set arithmetic) so that agreement with
the library is meaningful rather than circular.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from random import Random

from spanproject import (
    AlignmentSet,
    CandidateSet,
    DataError,
    EntitySpan,
    LabeledSentence,
    MatchingProblem,
    MatchingSolution,
    MatchMode,
    Sentence,
    SourceKind,
    build_problem,
    spans_overlap,
)

FIXTURES = Path(__file__).parent / "fixtures"

LABELS = ("PER", "LOC", "ORG")


def words(n: int) -> tuple[str, ...]:
    return tuple(f"w{i}" for i in range(n))


def random_nonoverlapping_spans(
    rng: Random, n_words: int, max_spans: int, labeled: bool = True
) -> tuple[EntitySpan, ...]:
    spans = []
    pos = 0
    while pos < n_words and len(spans) < max_spans:
        if rng.random() < 0.5:
            length = rng.randint(1, min(3, n_words - pos))
            label = rng.choice(LABELS) if labeled else None
            spans.append(EntitySpan(pos, pos + length, label))
            pos += length
        else:
            pos += 1
    return tuple(spans)


def random_intervals(rng: Random, n_words: int, count: int) -> tuple[EntitySpan, ...]:
    """Up to `count` distinct intervals, overlaps allowed."""
    seen = set()
    for _ in range(count):
        start = rng.randrange(n_words)
        end = start + rng.randint(1, min(4, n_words - start))
        seen.add((start, end))
    return tuple(EntitySpan(s, e) for s, e in sorted(seen))


def random_one_to_one_alignment(rng: Random, n_src: int, n_tgt: int) -> AlignmentSet:
    """Partial injection: every word index on each side used at most once."""
    targets = list(range(n_tgt))
    rng.shuffle(targets)
    pairs = set()
    next_target = 0
    for i in range(n_src):
        if next_target < len(targets) and rng.random() < 0.7:
            pairs.add((i, targets[next_target]))
            next_target += 1
    return AlignmentSet(frozenset(pairs))


def random_alignment(rng: Random, n_src: int, n_tgt: int, density: float = 0.25) -> AlignmentSet:
    pairs = frozenset(
        (i, j)
        for i in range(n_src)
        for j in range(n_tgt)
        if rng.random() < density
    )
    return AlignmentSet(pairs)


def random_problem(
    rng: Random,
    max_sources: int = 4,
    max_candidates: int = 8,
    disjoint: bool = False,
    one_to_one: bool = True,
    mode: MatchMode = MatchMode.AT_MOST_ONE,
) -> MatchingProblem:
    n_src_words = rng.randint(2, 10)
    n_tgt_words = rng.randint(2, 12)
    sources = random_nonoverlapping_spans(rng, n_src_words, max_sources)
    labeled = LabeledSentence(Sentence(words(n_src_words), id=0), sources)
    if disjoint:
        cand_spans = random_nonoverlapping_spans(rng, n_tgt_words, max_candidates, labeled=False)
        kind = SourceKind.EXTERNAL_NER
    else:
        cand_spans = random_intervals(rng, n_tgt_words, rng.randint(1, max_candidates))
        kind = SourceKind.NGRAM
    cands = CandidateSet(0, cand_spans, kind)
    if one_to_one:
        align = random_one_to_one_alignment(rng, n_src_words, n_tgt_words)
    else:
        align = random_alignment(rng, n_src_words, n_tgt_words)
    return build_problem(labeled, cands, align, mode)


def overlap(a: EntitySpan, b: EntitySpan) -> bool:
    return not (a.end <= b.start or b.end <= a.start)


def matching_oracle(
    problem: MatchingProblem, require_all: bool = False
) -> tuple[Fraction, tuple[tuple[int, int], ...]] | None:
    """Plain exhaustive recursion over per-source choices, no memoization.

    Returns the best (objective, assignments) or None when REQUIRE_ALL is
    infeasible. Tie-break: lexicographically smallest assignment tuple.
    """
    spans = problem.candidates.spans
    n_src = len(problem.sources)

    def recurse(s: int, chosen: tuple[int, ...]):
        if s == n_src:
            return (Fraction(0), ())
        options = []
        if not require_all:
            skip = recurse(s + 1, chosen)
            if skip is not None:
                options.append(skip)
        for t in range(len(spans)):
            cost = problem.costs[s][t]
            if cost <= 0 or t in chosen:
                continue
            if any(overlap(spans[t], spans[u]) for u in chosen):
                continue
            rest = recurse(s + 1, chosen + (t,))
            if rest is not None:
                options.append((cost + rest[0], ((s, t),) + rest[1]))
        if not options:
            return None
        return min(options, key=lambda opt: (-opt[0], opt[1]))

    return recurse(0, ())


def greedy_oracle(p: MatchingProblem) -> MatchingSolution:
    """The Fraction-keyed greedy solver, kept as written before the integer key.

    ``solve_greedy`` must return the same assignments and objective.
    """
    if p.mode is MatchMode.REQUIRE_ALL:
        raise DataError("greedy solving cannot guarantee REQUIRE_ALL; use an exact solver")
    spans = p.candidates.spans
    order = sorted(
        (
            (s, t)
            for s in range(len(p.sources))
            for t in range(len(spans))
            if p.costs[s][t] > 0
        ),
        key=lambda st: (
            -p.costs[st[0]][st[1]],
            p.sources[st[0]].start,
            spans[st[1]].start,
            spans[st[1]].end,
        ),
    )
    used_sources: set[int] = set()
    chosen_spans: list[EntitySpan] = []
    assignments: list[tuple[int, int]] = []
    objective = Fraction(0)
    for s, t in order:
        if s in used_sources:
            continue
        span = spans[t]
        if any(spans_overlap(span, prior) for prior in chosen_spans):
            continue
        assignments.append((s, t))
        used_sources.add(s)
        chosen_spans.append(span)
        objective += p.costs[s][t]
    return MatchingSolution(tuple(assignments), objective, exact=False)


def mwis_oracle(spans: list[EntitySpan], weights: list[Fraction]) -> Fraction:
    """Best total weight over every independent subset, by full enumeration."""
    k = len(spans)
    best = Fraction(0)
    for mask in range(1 << k):
        members = [t for t in range(k) if mask >> t & 1]
        ok = all(
            not overlap(spans[a], spans[b])
            for pos, a in enumerate(members)
            for b in members[pos + 1 :]
        )
        if not ok:
            continue
        total = sum((weights[t] for t in members), Fraction(0))
        if total > best:
            best = total
    return best


def mwis_mask_oracle(spans: list[EntitySpan], weights: list[Fraction]) -> Fraction:
    """Same enumeration as mwis_oracle, but with incremental feasibility per
    bitmask so candidate counts up to ~15 stay affordable."""
    k = len(spans)
    conflict = [0] * k
    for a in range(k):
        for b in range(k):
            if a != b and overlap(spans[a], spans[b]):
                conflict[a] |= 1 << b
    feasible = bytearray(1 << k)
    feasible[0] = 1
    total = [Fraction(0)] * (1 << k)
    best = Fraction(0)
    for mask in range(1, 1 << k):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        total[mask] = total[rest] + weights[low]
        if feasible[rest] and not conflict[low] & rest:
            feasible[mask] = 1
            if total[mask] > best:
                best = total[mask]
    return best


def eval_oracle(
    sentence_pairs: list[tuple[set[EntitySpan], set[EntitySpan]]],
) -> tuple[Fraction, Fraction, Fraction]:
    """Micro P/R/F1 over (pred, gold) span sets via direct set arithmetic."""
    tp = fp = fn = 0
    for pred, gold in sentence_pairs:
        tp += len(pred & gold)
        fp += len(pred - gold)
        fn += len(gold - pred)
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    if precision + recall:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = Fraction(0)
    return precision, recall, f1


def edit_distance_oracle(a: str, b: str) -> int:
    """Full-matrix Levenshtein DP."""
    rows, cols = len(a) + 1, len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            substitution = dist[i - 1][j - 1] + (a[i - 1] != b[j - 1])
            dist[i][j] = min(dist[i - 1][j] + 1, dist[i][j - 1] + 1, substitution)
    return dist[-1][-1]


def longest_run_oracle(indices: list[int]) -> tuple[int, int]:
    """Longest contiguous run by trying every member as a run start."""
    index_set = set(indices)
    best_start, best_len = None, 0
    for start in sorted(index_set):
        if start - 1 in index_set:
            continue
        end = start
        while end + 1 in index_set:
            end += 1
        length = end - start + 1
        if length > best_len:
            best_start, best_len = start, length
    return best_start, best_start + best_len
