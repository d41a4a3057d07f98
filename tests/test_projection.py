from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spanproject import (
    AlignmentSet,
    DataError,
    EntitySpan,
    InfeasibleError,
    LabeledSentence,
    MatchMode,
    Method,
    ProjectionConfig,
    Sentence,
    Solver,
    SourceKind,
    assign_marker_labels,
    edit_distance,
    fuzzy_similarity,
    parse_marked_sentence,
    project_heuristic,
    project_matching,
    projection,
    render_problem,
)
from helpers import (
    edit_distance_oracle,
    heuristic_reference,
    longest_run_oracle,
    random_alignment,
    random_nonoverlapping_spans,
    random_stray_alignment,
    targets_of,
    words,
)


def english_german_pair():
    labeled = LabeledSentence(
        Sentence(("Washington", "is", "the", "capital", "of", "the", "United", "States")),
        (EntitySpan(0, 1, "LOC"), EntitySpan(6, 8, "LOC")),
    )
    target = Sentence(("Die", "Bundeshauptstadt", "der", "Vereinigten", "Staaten", "ist", "Washington"))
    align = AlignmentSet(frozenset({(0, 6), (6, 3), (7, 4)}))
    return labeled, target, align


def test_heuristic_projects_contiguous_alignment():
    labeled, target, align = english_german_pair()
    out = project_heuristic(labeled, target, align)
    assert out.entities == (EntitySpan(3, 5, "LOC"), EntitySpan(6, 7, "LOC"))
    assert out.sentence is target


def test_heuristic_shrinks_scattered_alignment_to_longest_run():
    labeled = LabeledSentence(Sentence(words(8)), (EntitySpan(0, 8, "X"),))
    target = Sentence(words(9))
    align = AlignmentSet(frozenset({(0, 2), (1, 3), (2, 7)}))
    out = project_heuristic(labeled, target, align)
    # hull (2, 8) has ratio 3/6 < 4/5, longest run is {2, 3}
    assert out.entities == (EntitySpan(2, 4, "X"),)


def test_heuristic_keeps_hull_at_threshold_boundary():
    # 4 aligned indices over a 5-wide hull: exactly 4/5, not below it
    labeled = LabeledSentence(Sentence(words(4)), (EntitySpan(0, 4, "X"),))
    target = Sentence(words(6))
    align = AlignmentSet(frozenset({(0, 0), (1, 1), (2, 2), (3, 4)}))
    out = project_heuristic(labeled, target, align)
    assert out.entities == (EntitySpan(0, 5, "X"),)


def test_heuristic_drops_unaligned_entity():
    labeled = LabeledSentence(Sentence(words(4)), (EntitySpan(0, 2, "X"),))
    out = project_heuristic(labeled, Sentence(words(4)), AlignmentSet())
    assert out.entities == ()


def test_heuristic_leftmost_run_wins_ties():
    labeled = LabeledSentence(Sentence(words(4)), (EntitySpan(0, 4, "X"),))
    target = Sentence(words(10))
    align = AlignmentSet(frozenset({(0, 0), (1, 5), (2, 9)}))
    out = project_heuristic(labeled, target, align)
    assert out.entities == (EntitySpan(0, 1, "X"),)


def test_heuristic_collision_keeps_earlier_entity():
    labeled = LabeledSentence(
        Sentence(words(6)), (EntitySpan(0, 2, "A"), EntitySpan(3, 5, "B"))
    )
    target = Sentence(words(4))
    align = AlignmentSet(frozenset({(0, 0), (1, 1), (3, 1), (4, 2)}))
    out = project_heuristic(labeled, target, align)
    assert out.entities == (EntitySpan(0, 2, "A"),)


def test_heuristic_longest_run_matches_oracle():
    rng = Random(53)
    for _ in range(300):
        n_src, n_tgt = rng.randint(1, 8), rng.randint(2, 12)
        spans = random_nonoverlapping_spans(rng, n_src, 2)
        labeled = LabeledSentence(Sentence(words(n_src)), spans)
        align = random_alignment(rng, n_src, n_tgt, density=0.3)
        out = project_heuristic(labeled, Sentence(words(n_tgt)), align)
        taken: list[EntitySpan] = []
        for entity in labeled.entities:
            aligned = sorted({j for i, j in align.pairs if entity.start <= i < entity.end})
            if not aligned:
                continue
            start, end = aligned[0], aligned[-1] + 1
            if Fraction(len(aligned), end - start) < Fraction(4, 5):
                start, end = longest_run_oracle(aligned)
            span = EntitySpan(start, end, entity.label)
            if all(span.end <= t.start or t.end <= span.start for t in taken):
                taken.append(span)
        assert out.entities == tuple(sorted(taken, key=lambda e: (e.start, e.end)))


def test_heuristic_equals_the_targets_of_reference():
    """2,000 random pairs with stray links, at thresholds 1/2, 4/5 and 1."""
    rng = Random(61)
    thresholds = (Fraction(1, 2), Fraction(4, 5), Fraction(1))
    shrunk = {threshold: 0 for threshold in thresholds}
    for _ in range(2000):
        n_src, n_tgt = rng.randint(1, 20), rng.randint(1, 25)
        spans = random_nonoverlapping_spans(rng, n_src, rng.randint(0, 5))
        labeled = LabeledSentence(Sentence(words(n_src)), spans)
        target = Sentence(words(n_tgt))
        if rng.random() < 0.75:
            align = random_stray_alignment(rng, n_src, n_tgt)
        else:
            align = random_alignment(rng, n_src, n_tgt, density=rng.choice((0.1, 0.3, 0.6)))
        for threshold in thresholds:
            expected = heuristic_reference(labeled, target, align, threshold)
            assert project_heuristic(labeled, target, align, threshold) == expected
            hulls = {
                (min(js), max(js) + 1)
                for js in (targets_of(align, entity) for entity in labeled.entities)
                if js
            }
            shrunk[threshold] += any(
                (e.start, e.end) not in hulls for e in expected.entities
            )
    # every threshold really exercised the shrink-to-run branch
    assert all(count > 50 for count in shrunk.values()), shrunk


def worked_matching_inputs():
    labeled = LabeledSentence(
        Sentence(("Mark", "Twain", "was", "born", "in", "Florida")),
        (EntitySpan(0, 2, "PER"), EntitySpan(5, 6, "LOC")),
    )
    target = Sentence(("Mark", "Twain", "wurde", "in", "Florida", "geboren"))
    align = AlignmentSet(frozenset({(0, 0), (1, 1), (5, 4)}))
    return labeled, target, align


def test_project_matching_external_candidates():
    labeled, target, align = worked_matching_inputs()
    cfg = ProjectionConfig(candidate_source=SourceKind.EXTERNAL_NER, solver=Solver.ASSIGNMENT)
    out = project_matching(labeled, target, align, cfg, [EntitySpan(0, 2), EntitySpan(4, 5)])
    assert out.entities == (EntitySpan(0, 2, "PER"), EntitySpan(4, 5, "LOC"))


def test_project_matching_ngram_candidates_same_answer():
    labeled, target, align = worked_matching_inputs()
    out = project_matching(labeled, target, align, ProjectionConfig(solver=Solver.GREEDY))
    assert out.entities == (EntitySpan(0, 2, "PER"), EntitySpan(4, 5, "LOC"))
    # exhaustive search over the full n-gram candidate set agrees with greedy here
    from spanproject import build_problem, ngram_candidates
    from helpers import solve_bruteforce

    problem = build_problem(labeled, ngram_candidates(target, 8), align)
    oracle = solve_bruteforce(problem, unsafe=True)
    assert oracle.objective == 1
    chosen = {problem.candidates.spans[t] for _, t in oracle.assignments}
    assert chosen == {EntitySpan(0, 2), EntitySpan(4, 5)}


def test_matching_path_never_builds_the_dense_matrix(monkeypatch):
    from spanproject import matching

    built = []
    dense_costs = matching._dense_costs
    monkeypatch.setattr(matching, "_dense_costs", lambda p: built.append(p) or dense_costs(p))
    rng = Random(13)
    problems = []
    for trial in range(240):
        n_src, n_tgt = rng.randint(1, 12), rng.randint(1, 24)
        entities = random_nonoverlapping_spans(rng, n_src, rng.randint(0, 4))
        labeled = LabeledSentence(Sentence(words(n_src)), entities)
        target = Sentence(words(n_tgt))
        align = random_alignment(rng, n_src, n_tgt, density=rng.choice((0.1, 0.3)))
        ner = list(random_nonoverlapping_spans(rng, n_tgt, rng.randint(0, 4), labeled=False))
        mode = (MatchMode.AT_MOST_ONE, MatchMode.REQUIRE_ALL)[trial % 2]
        runs = (
            (ProjectionConfig(solver=Solver.GREEDY), None),
            (ProjectionConfig(solver=Solver.EXACT, max_ngram_len=None, mode=mode), None),
            (
                ProjectionConfig(
                    candidate_source=SourceKind.EXTERNAL_NER, solver=Solver.ASSIGNMENT, mode=mode
                ),
                ner,
            ),
        )
        for cfg, spans in runs:
            problem = projection.matching_problem(labeled, target, align, cfg, spans)
            try:
                projection.solve(problem, cfg.solver)
            except InfeasibleError:
                pass
            problems.append(problem)
    assert built == []
    # printing the matrix, as the `solve` command does, builds the view once and keeps it
    problem = max(problems, key=lambda p: len(p.frontier))
    text = render_problem(problem)
    assert render_problem(problem) == text
    assert built == [problem]
    assert problem.costs is problem.costs


def test_project_matching_empty_sources():
    target = Sentence(words(4))
    out = project_matching(
        LabeledSentence(Sentence(words(3))), target, AlignmentSet(), ProjectionConfig()
    )
    assert out.entities == ()
    assert out.sentence is target


def test_project_matching_requires_external_spans_consistency():
    labeled, target, align = worked_matching_inputs()
    ner_cfg = ProjectionConfig(candidate_source=SourceKind.EXTERNAL_NER)
    with pytest.raises(DataError):
        project_matching(labeled, target, align, ner_cfg, None)
    with pytest.raises(DataError):
        project_matching(labeled, target, align, ProjectionConfig(), [EntitySpan(0, 1)])


def test_projection_config_validation():
    with pytest.raises(DataError):
        ProjectionConfig(ratio_threshold=Fraction(0))
    with pytest.raises(DataError):
        ProjectionConfig(ratio_threshold=Fraction(6, 5))
    with pytest.raises(DataError):
        ProjectionConfig(max_ngram_len=0)
    with pytest.raises(DataError):
        ProjectionConfig(solver=Solver.ASSIGNMENT, candidate_source=SourceKind.NGRAM)
    with pytest.raises(DataError):
        ProjectionConfig(solver=Solver.GREEDY, mode=MatchMode.REQUIRE_ALL)
    # assignment + external is the allowed pairing
    ProjectionConfig(solver=Solver.ASSIGNMENT, candidate_source=SourceKind.EXTERNAL_NER)
    # an enum field takes only a member of its enum: its bare value would
    # miss every identity test on the field
    for field, value in (
        ("method", "heuristic"),
        ("candidate_source", "ner"),
        ("solver", "exact"),
        ("mode", "all"),
        ("mode", Method.HEURISTIC),
    ):
        with pytest.raises(DataError, match=f"^{field} must be a "):
            ProjectionConfig(**{field: value})
    # the threshold is rational and not a bool; max_ngram_len is None or an int
    for value in (0.5, True, "1/2", None):
        with pytest.raises(DataError, match="is not a rational number$"):
            ProjectionConfig(ratio_threshold=value)
    for value in (True, 2.5, "3"):
        with pytest.raises(DataError, match="^max n-gram length must be an integer or None"):
            ProjectionConfig(max_ngram_len=value)
    ProjectionConfig(ratio_threshold=1, max_ngram_len=None)


def test_projection_output_stays_in_bounds_randomized():
    rng = Random(59)
    cfg = ProjectionConfig(solver=Solver.GREEDY, max_ngram_len=3)
    for _ in range(150):
        n_src, n_tgt = rng.randint(2, 8), rng.randint(2, 8)
        labeled = LabeledSentence(
            Sentence(words(n_src)), random_nonoverlapping_spans(rng, n_src, 3)
        )
        target = Sentence(words(n_tgt))
        align = random_alignment(rng, n_src, n_tgt, density=0.3)
        for method_out in (
            project_heuristic(labeled, target, align),
            project_matching(labeled, target, align, cfg),
        ):
            source_labels = {e.label for e in labeled.entities}
            for prev, cur in zip(method_out.entities, method_out.entities[1:]):
                assert prev.end <= cur.start or cur.end <= prev.start
            for e in method_out.entities:
                assert e.end <= n_tgt
                assert e.label in source_labels


def test_edit_distance_basics():
    assert edit_distance("", "") == 0
    assert edit_distance("abc", "") == 3
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("flaw", "lawn") == 2


@given(st.text(max_size=12), st.text(max_size=12))
def test_edit_distance_matches_full_matrix_oracle(a, b):
    assert edit_distance(a, b) == edit_distance_oracle(a, b)


def test_fuzzy_similarity_examples():
    assert fuzzy_similarity("Washington", "Washington") == 1
    assert fuzzy_similarity("Vereinigten Staaten", "Vereinigte Staaten") == Fraction(18, 19)
    assert fuzzy_similarity("", "abc") == 0
    assert fuzzy_similarity("", "") == 1
    assert fuzzy_similarity("WASHINGTON", "washington") == 1


@given(st.text(max_size=10), st.text(max_size=10))
def test_fuzzy_similarity_properties(a, b):
    sim = fuzzy_similarity(a, b)
    assert 0 <= sim <= 1
    assert sim == fuzzy_similarity(b, a)
    assert (sim == 1) == (a.casefold() == b.casefold())


def test_assign_marker_labels_worked_example():
    marked = parse_marked_sentence(
        "Die Bundeshauptstadt der [Vereinigten Staaten] ist [Washington]",
        (("Vereinigte Staaten", "LOC"), ("Washington", "LOC")),
    )
    out = assign_marker_labels(marked, sentence_id=4)
    assert out.sentence.id == 4
    assert out.entities == (EntitySpan(3, 5, "LOC"), EntitySpan(6, 7, "LOC"))


def test_assign_marker_labels_exact_match_scores_one():
    marked = parse_marked_sentence("[Washington] calling", (("washington", "GPE"),))
    out = assign_marker_labels(marked)
    assert out.entities == (EntitySpan(0, 1, "GPE"),)


def test_assign_marker_labels_threshold_drops_poor_match():
    marked = parse_marked_sentence("[zzzz] words here", (("Washington", "LOC"),))
    assert assign_marker_labels(marked).entities == ()
    # a permissive threshold admits the same pair
    out = assign_marker_labels(marked, min_similarity=Fraction(0))
    assert out.entities == (EntitySpan(0, 1, "LOC"),)


def test_assign_marker_labels_translation_used_once():
    marked = parse_marked_sentence("[Paris] or [Paris]", (("Paris", "LOC"),))
    out = assign_marker_labels(marked)
    assert out.entities == (EntitySpan(0, 1, "LOC"),)


def test_assign_marker_labels_best_translation_wins():
    marked = parse_marked_sentence(
        "[Vereinigten Staaten] only",
        (("Frankreich", "GPE"), ("Vereinigte Staaten", "LOC")),
    )
    out = assign_marker_labels(marked)
    assert out.entities == (EntitySpan(0, 2, "LOC"),)


def test_assign_marker_labels_no_translations():
    marked = parse_marked_sentence("[Paris] stands")
    assert assign_marker_labels(marked).entities == ()
