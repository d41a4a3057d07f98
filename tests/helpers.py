"""Shared test utilities: random instance generators and independent oracles.

The oracles here deliberately re-derive results from first principles
(plain recursion, full-matrix DP, set arithmetic) so that agreement with
the library is meaningful rather than circular.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from random import Random

import spanproject
from spanproject import (
    AlignmentSet,
    CandidateSet,
    CorpusDocument,
    DataError,
    EntitySpan,
    GuardError,
    InfeasibleError,
    LabeledSentence,
    MatchingProblem,
    MatchingSolution,
    MatchMode,
    Sentence,
    build_problem,
    serialize_conll,
    serialize_pharaoh,
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
    else:
        cand_spans = random_intervals(rng, n_tgt_words, rng.randint(1, max_candidates))
    cands = CandidateSet(cand_spans)
    if one_to_one:
        align = random_one_to_one_alignment(rng, n_src_words, n_tgt_words)
    else:
        align = random_alignment(rng, n_src_words, n_tgt_words)
    return build_problem(labeled, cands, align, mode)


def _marker_word(rng: Random) -> str:
    return "".join(rng.choice("abcdefghij") for _ in range(rng.randint(2, 6)))


def write_round_trip_corpus(root: Path, seed: int, n_sentences: int) -> dict[str, Path]:
    """A seeded tgt2tgt corpus under root; returns its paths by role.

    Each sentence has a marked line with disjoint bracket spans, a
    translations line with one entry per bracket (its text kept, lightly
    edited or replaced, so some labels are lost to the similarity cut), a
    target sentence, disjoint labeled NER spans on the target, and a partial
    one-to-one alignment plus noise pairs from marked words to target words.
    """
    rng = Random(seed)
    marked, translations, target, records, align = [], [], [], [], []
    for i in range(n_sentences):
        n_src, n_tgt = rng.randint(8, 20), rng.randint(8, 20)
        tokens = [_marker_word(rng) for _ in range(n_src)]
        brackets = random_nonoverlapping_spans(rng, n_src, rng.randint(0, 4))
        entries = []
        for span in brackets:
            text = tokens[span.start : span.end]
            roll = rng.random()
            if roll < 0.2:
                text = [_marker_word(rng)]
            elif roll < 0.5:
                text[-1] = text[-1][:-1] + "z"
            entries.append(f"{span.label}\t{' '.join(text)}")
            tokens[span.start] = "[" + tokens[span.start]
            tokens[span.end - 1] += "]"
        rng.shuffle(entries)
        marked.append(" ".join(tokens))
        translations.append("|||".join(entries))
        target.append(LabeledSentence(Sentence(words(n_tgt), id=i)))
        ner = random_nonoverlapping_spans(rng, n_tgt, rng.randint(0, 5))
        spans = [{"start": s.start, "end": s.end, "label": s.label} for s in ner]
        records.append(json.dumps({"sentence_id": i, "spans": spans}))
        pairs = random_one_to_one_alignment(rng, n_src, n_tgt).pairs
        noise = random_alignment(rng, n_src, n_tgt, density=0.03).pairs
        align.append(serialize_pharaoh(AlignmentSet(pairs | noise)))
    files = {
        "marked": "".join(line + "\n" for line in marked),
        "translations": "".join(line + "\n" for line in translations),
        "target": serialize_conll(CorpusDocument(tuple(target))),
        "spans": "".join(line + "\n" for line in records),
        "align": "".join(line + "\n" for line in align),
    }
    paths = {}
    for role, text in files.items():
        paths[role] = root / f"{role}.txt"
        paths[role].write_text(text, encoding="utf-8")
    return paths


def overlap(a: EntitySpan, b: EntitySpan) -> bool:
    return not (a.end <= b.start or b.end <= a.start)


def targets_of(align: AlignmentSet, span: EntitySpan) -> set[int]:
    """Target indices aligned to any word inside `span` on the labeled side."""
    return {j for i, j in align.pairs if span.start <= i < span.end}


def count_within(align: AlignmentSet, src: EntitySpan, tgt: EntitySpan) -> int:
    """Number of alignment pairs falling inside src x tgt."""
    return sum(
        1 for i, j in align.pairs if src.start <= i < src.end and tgt.start <= j < tgt.end
    )


def matching_cost(src: EntitySpan, tgt: EntitySpan, align: AlignmentSet) -> Fraction:
    """One cell by definition: pairs inside src x tgt over the summed span lengths.

    ``build_problem`` must give this value on every cell.
    """
    return Fraction(count_within(align, src, tgt), len(src) + len(tgt))


BRUTE_FORCE_MAX_SOURCES = 6
BRUTE_FORCE_MAX_CANDIDATES = 12


def solve_bruteforce(p: MatchingProblem, unsafe: bool = False) -> MatchingSolution:
    """Exhaustive optimum over every feasible assignment subset.

    Guarded to 6 sources and 12 candidates unless ``unsafe=True``; the
    search memoizes on (next source, set of already-chosen candidates), which
    enumerates the same space as filtering all subsets but revisits nothing.
    Ties between optima break toward the lexicographically smallest
    assignment tuple. An infeasible REQUIRE_ALL instance raises
    InfeasibleError listing the sources with no positive cell.
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
            if u != t and overlap(span, other):
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
        uncoverable = tuple(s for s, row in enumerate(p.costs) if not any(c > 0 for c in row))
        raise InfeasibleError("no assignment covers every source", uncoverable=uncoverable)
    objective, assignments = result
    return MatchingSolution(assignments, objective)


def solve_relaxed_mwis(p: MatchingProblem) -> MatchingSolution:
    """Optimum of the relaxation that drops the per-source cap.

    Without that cap each candidate independently earns its best source's
    cost, so the problem is maximum-weight independent set over interval
    spans: ``solve_exact``'s DP over target positions without its source
    mask, one state per position. A source may back several chosen
    candidates; the result is exact for the relaxed objective and an upper
    bound for the capped one. Ties break as in ``solve_exact``, toward the
    smallest sorted assignment tuple.
    """
    spans = p.candidates.spans
    width = max((span.end for span in spans), default=0)
    moves = [[] for _ in range(width)]
    for num, den, s, t in p.positive:
        moves[spans[t].start].append((spans[t].end, Fraction(num, den), (s, t)))
    # best[j] = (value, assignments in target order) of the best way to reach j
    best: list = [None] * (width + 1)
    best[0] = (Fraction(0), ())

    def offer(j, value, chosen):
        held = best[j]
        if held is None or value > held[0] or value == held[0] and sorted(chosen) < sorted(held[1]):
            best[j] = (value, chosen)

    for j in range(width):
        value, chosen = best[j]  # set: position j - 1 always moves on
        offer(j + 1, value, chosen)
        for end, gain, cell in moves[j]:
            offer(end, value + gain, chosen + (cell,))
    value, chosen = best[width]
    return MatchingSolution(chosen, value)


def validate_solution(p: MatchingProblem, sol: MatchingSolution, relaxed: bool = False) -> None:
    """``spanproject.validate_solution``, or with ``relaxed=True`` its relaxed form.

    The relaxed check waives the per-source cap and the REQUIRE_ALL coverage
    check, matching ``solve_relaxed_mwis``: candidates stay in range, used
    once, positive and pairwise disjoint, and the objective is their sum.
    """
    if not relaxed:
        spanproject.validate_solution(p, sol)
        return
    n_src, n_cand = p.shape
    spans = p.candidates.spans
    chosen: list[int] = []
    for s, t in sol.assignments:
        if not (0 <= s < n_src and 0 <= t < n_cand):
            raise DataError(f"assignment ({s}, {t}) out of range for shape {p.shape}")
        if t in chosen:
            raise DataError(f"candidate {t} assigned twice")
        if p.costs[s][t] <= 0:
            raise DataError(f"assignment ({s}, {t}) has zero cost")
        chosen.append(t)
    for pos, a in enumerate(chosen):
        for b in chosen[pos + 1 :]:
            if overlap(spans[a], spans[b]):
                raise DataError(f"chosen candidates {a} and {b} overlap")
    objective = sum((p.costs[s][t] for s, t in sol.assignments), Fraction(0))
    if objective != sol.objective:
        raise DataError(f"objective {sol.objective} != recomputed {objective}")


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
    return MatchingSolution(tuple(assignments), objective)


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


def random_stray_alignment(rng: Random, n_src: int, n_tgt: int) -> AlignmentSet:
    """Links near a shifted diagonal, plus stray links to random far target words."""
    shift = rng.randint(-2, 2)
    pairs = set()
    for i in range(n_src):
        j = i * n_tgt // n_src + shift
        if 0 <= j < n_tgt and rng.random() < 0.8:
            pairs.add((i, j))
        while rng.random() < 0.25:
            pairs.add((i, rng.randrange(n_tgt)))
    return AlignmentSet(frozenset(pairs))


def heuristic_reference(
    labeled: LabeledSentence, target: Sentence, align: AlignmentSet, threshold: Fraction
) -> LabeledSentence:
    """The hull heuristic from targets_of and a Fraction per entity."""
    align.check_bounds(len(labeled.sentence), len(target))
    projected: list[EntitySpan] = []
    for entity in labeled.entities:
        aligned = sorted(targets_of(align, entity))
        if not aligned:
            continue
        start, end = aligned[0], aligned[-1] + 1
        if Fraction(len(aligned), end - start) < threshold:
            start, end = longest_run_oracle(aligned)
        span = EntitySpan(start, end, entity.label)
        if not any(spans_overlap(span, prior) for prior in projected):
            projected.append(span)
    return LabeledSentence(target, tuple(projected))
