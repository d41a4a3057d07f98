"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with -s; pytest -v shows
the same verdict per test name). All comparisons are exact rational or byte
equality; nothing here tolerates drift.
"""

import functools
import json
import time
from fractions import Fraction
from random import Random

from spanproject import (
    AlignmentSet,
    CandidateSet,
    CorpusDocument,
    EntitySpan,
    LabeledSentence,
    MatchingProblem,
    MatchMode,
    ProjectionConfig,
    Sentence,
    Solver,
    SourceKind,
    bio_decode,
    bio_encode,
    build_problem,
    evaluate,
    external_candidates,
    fuzzy_similarity,
    parse_conll,
    parse_pharaoh,
    project_matching,
    serialize_conll,
    serialize_pharaoh,
    solve_assignment_exact,
    solve_greedy,
)
from spanproject.cli import main
from helpers import (
    FIXTURES,
    edit_distance_oracle,
    eval_oracle,
    matching_cost,
    mwis_mask_oracle,
    random_alignment,
    random_intervals,
    random_nonoverlapping_spans,
    random_one_to_one_alignment,
    random_problem,
    solve_bruteforce,
    solve_relaxed_mwis,
    validate_solution,
    words,
)


def criterion(number: int, title: str):
    def mark(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}", flush=True)
                raise
            print(f"PASS criterion {number}: {title}", flush=True)

        return wrapper

    return mark


def worked_pair():
    labeled = LabeledSentence(
        Sentence(("Mark", "Twain", "was", "born", "in", "Florida")),
        (EntitySpan(0, 2, "PER"), EntitySpan(5, 6, "LOC")),
    )
    target = Sentence(("Mark", "Twain", "wurde", "in", "Florida", "geboren"))
    align = AlignmentSet(frozenset({(0, 0), (1, 1), (5, 4)}))
    return labeled, target, align


@criterion(1, "worked sentence pair reproduced by greedy and exact solvers in under a second")
def test_criterion_01_worked_pair_reproduction():
    labeled, target, align = worked_pair()
    external = [EntitySpan(0, 2), EntitySpan(4, 5)]
    expected = (EntitySpan(0, 2, "PER"), EntitySpan(4, 5, "LOC"))
    started = time.perf_counter()
    for solver in (Solver.GREEDY, Solver.ASSIGNMENT, Solver.EXACT):
        cfg = ProjectionConfig(candidate_source=SourceKind.EXTERNAL_NER, solver=solver)
        out = project_matching(labeled, target, align, cfg, external)
        assert out.entities == expected, solver
    problem = build_problem(labeled, external_candidates(target, external), align)
    oracle = solve_bruteforce(problem)
    assert tuple(
        problem.candidates.spans[t].with_label(problem.sources[s].label)
        for s, t in oracle.assignments
    ) == expected
    assert time.perf_counter() - started < 1.0


@criterion(2, "greedy is always feasible and never beats brute force over 1000 instances")
def test_criterion_02_greedy_dominated_by_exhaustive_search():
    rng = Random(2025)
    for _ in range(1000):
        p = random_problem(rng, max_sources=4, max_candidates=8, one_to_one=True)
        greedy = solve_greedy(p)
        validate_solution(p, greedy)
        exact = solve_bruteforce(p)
        assert greedy.objective <= exact.objective

    # documented instance where the inequality is strict: greedy grabs the
    # 6/10 cell, blocking both 5/10 cells, and finishes at 7/10 against 1
    cands = CandidateSet((EntitySpan(0, 5), EntitySpan(5, 10)))
    p = MatchingProblem(
        (EntitySpan(0, 5, "A"), EntitySpan(5, 10, "B")),
        cands,
        ((Fraction(6, 10), Fraction(5, 10)), (Fraction(5, 10), Fraction(1, 10))),
    )
    assert solve_greedy(p).objective == Fraction(7, 10)
    assert solve_bruteforce(p).objective == 1
    assert solve_greedy(p).objective < solve_bruteforce(p).objective


@criterion(3, "assignment reduction matches brute force on 1000 disjoint-candidate instances")
def test_criterion_03_assignment_equals_bruteforce():
    rng = Random(3407)
    for _ in range(1000):
        p = random_problem(rng, max_sources=4, max_candidates=8, disjoint=True)
        assert solve_assignment_exact(p).objective == solve_bruteforce(p).objective
    rng = Random(3408)
    for _ in range(200):
        p = random_problem(
            rng, max_sources=4, max_candidates=8, disjoint=True, mode=MatchMode.REQUIRE_ALL
        )
        try:
            by_assignment = solve_assignment_exact(p).objective
        except Exception:
            by_assignment = None
        try:
            by_brute = solve_bruteforce(p).objective
        except Exception:
            by_brute = None
        assert by_assignment == by_brute


@criterion(4, "interval-DP relaxation matches subset enumeration and bounds the capped optimum")
def test_criterion_04_mwis_exact_and_upper_bound():
    rng = Random(41)
    for _ in range(1000):
        n_src_words = rng.randint(2, 8)
        n_tgt_words = rng.randint(2, 12)
        sources = random_nonoverlapping_spans(rng, n_src_words, rng.randint(0, 4))
        labeled = LabeledSentence(Sentence(words(n_src_words), id=0), sources)
        cand_spans = random_intervals(rng, n_tgt_words, rng.randint(1, 15))
        cands = CandidateSet(cand_spans)
        align = random_alignment(rng, n_src_words, n_tgt_words)
        p = build_problem(labeled, cands, align)
        relaxed = solve_relaxed_mwis(p)
        validate_solution(p, relaxed, relaxed=True)

        spans = list(p.candidates.spans)
        weights = [max(p.costs[s][t] for s in range(len(sources))) if sources else Fraction(0)
                   for t in range(len(spans))]
        assert relaxed.objective == mwis_mask_oracle(spans, weights)
        capped = solve_bruteforce(p, unsafe=True)
        assert relaxed.objective >= capped.objective


@criterion(5, "matching cost stays in [0, 1/2], hitting 1/2 only for fully aligned twins")
def test_criterion_05_cost_bounds():
    rng = Random(55)
    half_hits = 0
    for round_no in range(10000):
        n_src = rng.randint(1, 10)
        n_tgt = rng.randint(1, 10)
        align = random_one_to_one_alignment(rng, n_src, n_tgt)
        if round_no % 100 == 0:
            # force the boundary case: equal spans under an identity alignment
            n = min(n_src, n_tgt)
            align = AlignmentSet(frozenset((i, i) for i in range(n)))
            src = tgt = EntitySpan(0, n)
        else:
            s0 = rng.randrange(n_src)
            src = EntitySpan(s0, rng.randint(s0 + 1, n_src))
            t0 = rng.randrange(n_tgt)
            tgt = EntitySpan(t0, rng.randint(t0 + 1, n_tgt))
        cost = matching_cost(src, tgt, align)
        assert 0 <= cost <= Fraction(1, 2)
        inside = [
            (i, j)
            for i, j in align.pairs
            if src.start <= i < src.end and tgt.start <= j < tgt.end
        ]
        fully_aligned_twins = len(src) == len(tgt) == len(inside)
        assert (cost == Fraction(1, 2)) == fully_aligned_twins
        half_hits += cost == Fraction(1, 2)
    assert half_hits >= 100


def run_cli(capsys, *argv: str) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def project_fixture(capsys, stem: str, method: str, out_path, jobs: int = 1) -> None:
    run_cli(
        capsys,
        "project",
        "--labeled", str(FIXTURES / f"{stem}_source.conll"),
        "--target", str(FIXTURES / f"{stem}_target.conll"),
        "--align", str(FIXTURES / f"{stem}.align"),
        "--out", str(out_path),
        "--method", method,
        "--jobs", str(jobs),
    )


def fixture_f1(capsys, pred_path, stem: str) -> Fraction:
    out = run_cli(capsys, "evaluate", str(pred_path), str(FIXTURES / f"{stem}_gold.conll"))
    return Fraction(json.loads(out.splitlines()[-1])["total"]["f1"])


@criterion(6, "clean fixture projects to F1=1 both ways; matcher beats heuristic on noise")
def test_criterion_06_end_to_end_fixtures(tmp_path, capsys):
    scores: dict[tuple[str, str], Fraction] = {}
    for stem in ("clean", "noisy"):
        for method in ("heuristic", "matching"):
            out = tmp_path / f"{stem}_{method}.conll"
            project_fixture(capsys, stem, method, out)
            scores[stem, method] = fixture_f1(capsys, out, stem)
    assert scores["clean", "heuristic"] == 1
    assert scores["clean", "matching"] == 1
    assert scores["noisy", "heuristic"] < 1
    assert scores["noisy", "matching"] < 1
    assert scores["noisy", "matching"] >= scores["noisy", "heuristic"]
    assert scores["noisy", "heuristic"] == Fraction(2, 5)
    assert scores["noisy", "matching"] == Fraction(4, 5)


@criterion(7, "CoNLL, alignment, and BIO round trips are lossless over 1000 random inputs")
def test_criterion_07_round_trips():
    tagged = (
        "clean_source.conll", "clean_gold.conll",
        "noisy_source.conll", "noisy_gold.conll", "backtrans_gold.conll",
    )
    untagged = ("clean_target.conll", "noisy_target.conll", "backtrans_target.conll")
    for name in tagged:
        text = (FIXTURES / name).read_text(encoding="utf-8")
        assert serialize_conll(parse_conll(text)) == text
    for name in tagged + untagged:
        # untagged corpora canonicalize to explicit O tags but keep content
        doc = parse_conll((FIXTURES / name).read_text(encoding="utf-8"))
        assert parse_conll(serialize_conll(doc)) == doc

    rng = Random(77)
    for _ in range(1000):
        sentences = []
        for sid in range(rng.randint(1, 4)):
            n = rng.randint(1, 9)
            tokens = tuple(f"tok{rng.randrange(50)}_{i}" for i in range(n))
            spans = random_nonoverlapping_spans(rng, n, rng.randint(0, 3))
            sentences.append(LabeledSentence(Sentence(tokens, id=sid), spans))
        doc = CorpusDocument(tuple(sentences))
        assert parse_conll(serialize_conll(doc)) == doc

    for _ in range(1000):
        align = random_alignment(rng, rng.randint(1, 12), rng.randint(1, 12))
        assert parse_pharaoh(serialize_pharaoh(align)) == align

    for _ in range(1000):
        n = rng.randint(1, 12)
        spans = random_nonoverlapping_spans(rng, n, rng.randint(0, 4))
        assert tuple(bio_decode(bio_encode(spans, n))) == spans


@criterion(8, "span F1 agrees with a set-intersection oracle on the half-credit example")
def test_criterion_08_evaluator_against_oracle():
    gold = CorpusDocument((
        LabeledSentence(
            Sentence(words(7), id=0), (EntitySpan(0, 2, "PER"), EntitySpan(5, 6, "LOC"))
        ),
    ))
    pred = CorpusDocument((
        LabeledSentence(
            Sentence(words(7), id=0), (EntitySpan(0, 2, "PER"), EntitySpan(4, 6, "LOC"))
        ),
    ))
    report = evaluate(pred, gold)
    assert report.total.precision == Fraction(1, 2)
    assert report.total.recall == Fraction(1, 2)
    assert report.total.f1 == Fraction(1, 2)

    rng = Random(88)
    for _ in range(1000):
        pred_sentences, gold_sentences, pairs = [], [], []
        for sid in range(rng.randint(1, 3)):
            n = rng.randint(1, 10)
            p_spans = random_nonoverlapping_spans(rng, n, rng.randint(0, 3))
            g_spans = random_nonoverlapping_spans(rng, n, rng.randint(0, 3))
            pred_sentences.append(LabeledSentence(Sentence(words(n), id=sid), p_spans))
            gold_sentences.append(LabeledSentence(Sentence(words(n), id=sid), g_spans))
            pairs.append((set(p_spans), set(g_spans)))
        report = evaluate(
            CorpusDocument(tuple(pred_sentences)), CorpusDocument(tuple(gold_sentences))
        )
        precision, recall, f1 = eval_oracle(pairs)
        assert (report.total.precision, report.total.recall, report.total.f1) == (
            precision, recall, f1,
        )


@criterion(9, "fuzzy similarity is a symmetric [0,1] score that is 1 only up to case")
def test_criterion_09_fuzzy_similarity():
    assert fuzzy_similarity("Vereinigten Staaten", "Vereinigte Staaten") == Fraction(18, 19)
    d = edit_distance_oracle("vereinigten staaten", "vereinigte staaten")
    assert 1 - Fraction(d, len("vereinigten staaten")) == Fraction(18, 19)

    rng = Random(99)
    alphabet = "abAB "
    for _ in range(2000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        if rng.random() < 0.3:
            b = "".join(ch.swapcase() if rng.random() < 0.5 else ch for ch in a)
        else:
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        sim = fuzzy_similarity(a, b)
        assert 0 <= sim <= 1
        assert sim == fuzzy_similarity(b, a)
        assert (sim == 1) == (a.casefold() == b.casefold())
        if max(len(a), len(b)):
            d = edit_distance_oracle(a.casefold(), b.casefold())
            assert sim == 1 - Fraction(d, max(len(a), len(b)))


@criterion(10, "projection output is byte-identical across worker counts")
def test_criterion_10_parallel_determinism(tmp_path, capsys):
    for stem in ("clean", "noisy"):
        for method in ("heuristic", "matching"):
            serial = tmp_path / f"{stem}_{method}_j1.conll"
            parallel = tmp_path / f"{stem}_{method}_j8.conll"
            project_fixture(capsys, stem, method, serial, jobs=1)
            project_fixture(capsys, stem, method, parallel, jobs=8)
            assert serial.read_bytes() == parallel.read_bytes()
            assert serial.read_bytes().endswith(b"\n")
