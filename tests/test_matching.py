import re
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from math import lcm
from random import Random

import pytest

from spanproject import (
    AlignmentSet,
    CandidateSet,
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
    external_candidates,
    ngram_candidates,
    project_heuristic,
    render_problem,
    solve_assignment_exact,
    solve_exact,
    solve_greedy,
    validate_solution,
)
from spanproject.matching import _hungarian_min
import helpers
from helpers import (
    assignment_oracle,
    greedy_oracle,
    hungarian_min_fraction,
    matching_cost,
    matching_oracle,
    mwis_oracle,
    random_alignment,
    random_intervals,
    random_nonoverlapping_spans,
    random_one_to_one_alignment,
    random_problem,
    solve_bruteforce,
    solve_relaxed_mwis,
    words,
)


def worked_pair_problem(mode=MatchMode.AT_MOST_ONE):
    """Two-entity sentence pair with two disjoint external candidates."""
    labeled = LabeledSentence(
        Sentence(("Mark", "Twain", "was", "born", "in", "Florida")),
        (EntitySpan(0, 2, "PER"), EntitySpan(5, 6, "LOC")),
    )
    target = Sentence(("Mark", "Twain", "wurde", "in", "Florida", "geboren"))
    align = AlignmentSet(frozenset({(0, 0), (1, 1), (5, 4)}))
    cands = external_candidates(target, [EntitySpan(0, 2), EntitySpan(4, 5)])
    return build_problem(labeled, cands, align, mode)


def crossed_problem(mode=MatchMode.AT_MOST_ONE):
    """Greedy takes the 6/10 cell and ends at 7/10; the optimum is 1."""
    cands = CandidateSet((EntitySpan(0, 5), EntitySpan(5, 10)))
    costs = (
        (Fraction(6, 10), Fraction(5, 10)),
        (Fraction(5, 10), Fraction(1, 10)),
    )
    return MatchingProblem(
        (EntitySpan(0, 5, "A"), EntitySpan(5, 10, "B")), cands, costs, mode
    )


def test_matching_cost_examples():
    assert matching_cost(
        EntitySpan(0, 2), EntitySpan(0, 2), AlignmentSet(frozenset({(0, 0), (1, 1)}))
    ) == Fraction(1, 2)
    assert matching_cost(EntitySpan(5, 6), EntitySpan(4, 5), AlignmentSet()) == 0
    assert matching_cost(
        EntitySpan(5, 6), EntitySpan(4, 5), AlignmentSet(frozenset({(5, 4)}))
    ) == Fraction(1, 2)


def test_matching_cost_counts_only_pairs_inside_both_spans():
    align = AlignmentSet(frozenset({(0, 0), (1, 5), (9, 1)}))
    assert matching_cost(EntitySpan(0, 2), EntitySpan(0, 2), align) == Fraction(1, 4)


def test_build_problem_cost_matrix():
    p = worked_pair_problem()
    assert p.costs == (
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
    )
    assert p.shape == (2, 2)


def test_build_problem_degenerate_shapes():
    labeled = LabeledSentence(
        Sentence(words(4)), (EntitySpan(0, 1, "A"), EntitySpan(2, 3, "B"))
    )
    empty_cands = CandidateSet(())
    p = build_problem(labeled, empty_cands, AlignmentSet())
    assert p.shape == (2, 0)
    assert solve_greedy(p).assignments == ()
    with pytest.raises(InfeasibleError):
        solve_bruteforce(build_problem(labeled, empty_cands, AlignmentSet(), MatchMode.REQUIRE_ALL))

    no_entities = LabeledSentence(Sentence(words(4)))
    cands = CandidateSet((EntitySpan(0, 2),))
    p2 = build_problem(no_entities, cands, AlignmentSet())
    assert p2.shape == (0, 1)
    assert solve_bruteforce(p2).objective == 0


def test_build_problem_checks_labeled_bounds():
    labeled = LabeledSentence(Sentence(words(3), id=5), (EntitySpan(0, 1, "A"),))
    cands = CandidateSet((EntitySpan(0, 1),))
    align = AlignmentSet(frozenset({(3, 0)}))
    with pytest.raises(DataError) as info:
        build_problem(labeled, cands, align)
    assert str(info.value) == "alignment index 3 out of bounds for labeled sentence 5 of length 3"
    # the heuristic groups pairs with the same helper, but checks both sides first
    with pytest.raises(DataError) as info:
        project_heuristic(labeled, Sentence(words(2), id=5), align)
    assert str(info.value) == (
        "alignment pair (3, 0) out of bounds for sentence pair of lengths (3, 2)"
    )


def test_matching_problem_validates_dimensions():
    cands = CandidateSet((EntitySpan(0, 1),))
    with pytest.raises(DataError):
        MatchingProblem((EntitySpan(0, 1, "A"),), cands, ())
    with pytest.raises(DataError):
        MatchingProblem((EntitySpan(0, 1, "A"),), cands, ((Fraction(1), Fraction(1)),))
    negative_rows = [
        (cands, (Fraction(-1),)),
        (CandidateSet((EntitySpan(0, 1), EntitySpan(1, 2))),
         (Fraction(1, 2), Fraction(-1, 3))),
        (cands, (-1,)),
    ]
    for row_cands, row in negative_rows:
        with pytest.raises(DataError, match=f"negative matching cost {row[-1]}$"):
            MatchingProblem((EntitySpan(0, 1, "A"),), row_cands, (row,))
    two = CandidateSet((EntitySpan(0, 1), EntitySpan(1, 2)))
    sources = (EntitySpan(0, 1, "A"), EntitySpan(1, 2, "B"))
    for cell, shown in ((0.5, "0.5"), (Decimal("0.25"), "Decimal('0.25')"), ("1/2", "'1/2'")):
        costs = ((Fraction(1, 2), Fraction(0)), (Fraction(1, 3), cell))
        with pytest.raises(DataError, match=re.escape(f"matching cost {shown} at (1, 1) ")):
            MatchingProblem(sources, two, costs)


def validation_outcome(p, sol):
    """validate_solution's verdict on sol: None when it passes, else the message."""
    try:
        validate_solution(p, sol)
    except DataError as err:
        return str(err)
    return None


def probe_solutions(rng, p):
    """Greedy's solution and a few that validate_solution must judge, some of them wrong."""
    sol = solve_greedy(p)
    probes = [sol, MatchingSolution(sol.assignments, sol.objective + 1)]
    n_src, n_cand = p.shape
    if n_src and n_cand:
        cells = [(rng.randrange(n_src), rng.randrange(n_cand)) for _ in range(3)]
        probes += [MatchingSolution((cell,), Fraction(rng.randint(0, 2), 4)) for cell in cells]
        probes.append(MatchingSolution(tuple(sorted(set(cells))), Fraction(1)))
    probes.append(MatchingSolution(((n_src, 0),), Fraction(0)))
    return probes


def test_build_problem_equals_matching_cost_on_every_cell():
    rng = Random(17)
    for trial in range(1400):
        kind = trial % 4
        n_src, n_tgt = rng.randint(1, 12), rng.randint(1, 14)
        if kind == 3:
            # long targets with unbounded n-grams: runs far wider than the default cap of 8
            n_tgt = rng.randint(9, 26)
        entities = random_nonoverlapping_spans(rng, n_src, rng.randint(0, 4))
        labeled = LabeledSentence(Sentence(words(n_src)), entities)
        target = Sentence(words(n_tgt))
        if kind == 0:
            cands = ngram_candidates(target, rng.randint(1, 5))
        elif kind == 1:
            # gapped disjoint spans, as an external NER model gives them; may be empty
            ner = random_nonoverlapping_spans(rng, n_tgt, rng.randint(0, 4), labeled=False)
            cands = external_candidates(target, list(ner))
        elif kind == 2:
            cands = CandidateSet(())
        else:
            cands = ngram_candidates(target, None)
        # build_problem leaves the target side unchecked: some pairs point
        # past every candidate's end, even past the target sentence
        reach = n_tgt + rng.randint(0, 3)
        if rng.random() < 0.5:
            align = random_one_to_one_alignment(rng, n_src, reach)
        else:
            align = random_alignment(rng, n_src, reach, density=rng.choice((0.1, 0.3, 0.6)))
        p = build_problem(labeled, cands, align)
        # judged on the problem as build_problem left it, then on the rebuilt one
        probes = probe_solutions(rng, p)
        sparse_outcomes = [validation_outcome(p, sol) for sol in probes]
        assert p.shape == (len(entities), len(cands.spans))
        for s, src in enumerate(entities):
            for t, tgt in enumerate(cands.spans):
                assert p.costs[s][t] == matching_cost(src, tgt, align), (trial, s, t)
        assert all(type(c) is Fraction for row in p.costs for c in row), trial
        # the constructor's frontier is the row-major positive cells, and so is
        # build_problem's over a set not closed under sub-spans
        want = helpers.positive_cells(p)
        rebuilt = MatchingProblem(p.sources, p.candidates, p.costs, p.mode)
        assert list(rebuilt.frontier) == want, trial
        if cands.closed is None:
            assert list(p.frontier) == want, trial
        assert rebuilt == p
        assert (hash(rebuilt), repr(rebuilt)) == (hash(p), repr(p)), trial
        assert solve_greedy(p) == solve_greedy(rebuilt), trial
        assert [validation_outcome(rebuilt, sol) for sol in probes] == sparse_outcomes, trial


def solver_outcome(solver, p):
    """A solver's solution, or the type, message and uncoverable sources of its error."""
    try:
        return solver(p)
    except (DataError, GuardError, InfeasibleError) as exc:
        return type(exc), str(exc), getattr(exc, "uncoverable", None)


def test_solvers_read_a_frontier_that_changes_no_solution():
    rng = Random(29)
    for trial in range(1500):
        kind = ("ngram", "ner", "nested", "blocks")[trial % 4]
        n_src, n_tgt = rng.randint(1, 8), rng.randint(1, 7)
        entities = random_nonoverlapping_spans(rng, n_src, rng.randint(0, 4))
        labeled = LabeledSentence(Sentence(words(n_src)), entities)
        target = Sentence(words(n_tgt))
        if kind == "ngram":
            cands = ngram_candidates(target, rng.choice((*range(1, n_tgt + 1), None)))
            # a set wrongly marked as not closed would lose the pruning and
            # still pass every check below
            assert cands.closed is not None, trial
        elif kind == "blocks":
            # n-gram blocks with gaps between them: closed under sub-spans,
            # yet no n-gram set
            block_spans = []
            start = rng.randint(0, 1)
            while start < n_tgt:
                end = rng.randint(start + 1, n_tgt)
                cap = rng.randint(1, end - start)
                block_spans += [
                    EntitySpan(a, b)
                    for a in range(start, end)
                    for b in range(a + 1, min(a + cap, end) + 1)
                ]
                start = end + rng.randint(1, 2)
            cands = CandidateSet(tuple(block_spans))
            assert cands.closed is not None, trial
        elif kind == "ner":
            ner = random_nonoverlapping_spans(rng, n_tgt, rng.randint(0, 4), labeled=False)
            cands = external_candidates(target, list(ner))
        else:
            cands = CandidateSet(random_intervals(rng, n_tgt, rng.randint(0, 9)))
        reach = n_tgt + rng.randint(0, 2)
        if rng.random() < 0.3:
            align = random_one_to_one_alignment(rng, n_src, reach)
        else:
            align = random_alignment(rng, n_src, reach, density=rng.choice((0.2, 0.4, 0.7)))
        mode = MatchMode.REQUIRE_ALL if rng.random() < 0.3 else MatchMode.AT_MOST_ONE
        p = build_problem(labeled, cands, align, mode)
        frontier = p.frontier  # read before the dense view exists
        positive = helpers.positive_cells(p)
        spans = cands.spans

        # a row-major subset of the positive cells
        assert set(frontier) <= set(positive), trial
        cells = [(s, t) for _, _, s, t in frontier]
        assert cells == sorted(set(cells)), trial
        if cands.closed is None:
            assert list(frontier) == positive, trial
        else:
            # the cells whose first and last target words are aligned to the source
            want = {
                (s, t)
                for s, src in enumerate(entities)
                for t, span in enumerate(spans)
                if {span.start, span.end - 1} <= helpers.targets_of(align, src)
            }
            assert set(cells) == want, trial
        # a left-out cell has a nested candidate of strictly higher cost in its row
        for num, den, s, t in set(positive) - set(frontier):
            cost, outer = Fraction(num, den), spans[t]
            assert any(
                outer.start <= span.start and span.end <= outer.end and p.costs[s][u] > cost
                for u, span in enumerate(spans)
            ), (trial, s, t)
            if mode is MatchMode.AT_MOST_ONE:
                # still a valid choice, though no solver makes it
                validate_solution(p, MatchingSolution(((s, t),), cost))

        dense = MatchingProblem(p.sources, cands, p.costs, mode)
        assert list(dense.frontier) == positive, trial
        solvers = [solve_exact]
        if mode is MatchMode.AT_MOST_ONE:
            solvers.append(solve_greedy)
            assert solve_greedy(p) == greedy_oracle(dense), trial
        if cands.is_disjoint():
            solvers.append(solve_assignment_exact)
        for solver in solvers:
            got = solver_outcome(solver, p)
            assert got == solver_outcome(solver, dense), (trial, solver.__name__)
            if isinstance(got, MatchingSolution):
                validate_solution(p, got)
        brute = solver_outcome(lambda q: solve_bruteforce(q, unsafe=True), dense)
        assert solver_outcome(solve_exact, p) == brute, trial
        if cands.is_disjoint():
            assignment = solver_outcome(solve_assignment_exact, p)
            if isinstance(brute, MatchingSolution):
                # ties between optima may break another way in the Hungarian method
                assert assignment.objective == brute.objective, trial
            else:
                assert type(assignment) is tuple and assignment[0] is brute[0], trial


# every positive value ties with others; some differ only far past the decimal point
COST_POOL = (
    0, 0, 0, Fraction(0), 1, Fraction(1), Fraction(1, 2), Fraction(2, 4), Fraction(1, 3),
    Fraction(2, 3), Fraction(3, 4), Fraction(2, 5), Fraction(3, 7), Fraction(5, 12),
    Fraction(10**12, 10**12 + 1), Fraction(10**12 - 1, 10**12),
)


def test_greedy_matches_the_fraction_keyed_reference():
    rng = Random(23)
    for trial in range(1500):
        n_tgt = rng.randint(1, 12)
        # overlapping sources can share a start, so ties reach the stable order
        sources = tuple(
            EntitySpan(span.start, span.end, "A")
            for span in random_intervals(rng, rng.randint(1, 10), rng.randint(0, 5))
        )
        cands = CandidateSet(random_intervals(rng, n_tgt, rng.randint(0, 8)))
        pool = rng.sample(COST_POOL, rng.randint(3, len(COST_POOL)))
        costs = tuple(
            tuple(rng.choice(pool) for _ in cands.spans) for _ in sources
        )
        mode = MatchMode.REQUIRE_ALL if trial % 10 == 0 else MatchMode.AT_MOST_ONE
        p = MatchingProblem(sources, cands, costs, mode)
        if mode is MatchMode.REQUIRE_ALL:
            with pytest.raises(DataError, match="REQUIRE_ALL"):
                solve_greedy(p)
            continue
        want, got = greedy_oracle(p), solve_greedy(p)
        assert (got.assignments, got.objective) == (want.assignments, want.objective), trial
        assert type(got.objective) is Fraction


def test_greedy_solves_worked_pair():
    sol = solve_greedy(worked_pair_problem())
    assert sol.assignments == ((0, 0), (1, 1))
    assert sol.objective == 1


def test_greedy_never_assigns_zero_cost():
    cands = CandidateSet((EntitySpan(0, 1),))
    p = MatchingProblem((EntitySpan(0, 1, "A"),), cands, ((Fraction(0),),))
    assert solve_greedy(p).assignments == ()


def test_greedy_rejects_require_all():
    with pytest.raises(DataError):
        solve_greedy(worked_pair_problem(MatchMode.REQUIRE_ALL))


def test_greedy_suboptimal_on_crossed_instance():
    g = solve_greedy(crossed_problem())
    assert g.assignments == ((0, 0), (1, 1))
    assert g.objective == Fraction(7, 10)
    for exact in (solve_bruteforce, solve_exact):
        b = exact(crossed_problem())
        assert b.assignments == ((0, 1), (1, 0))
        assert b.objective == 1


def test_greedy_tie_break_order():
    # all four cells equal: lowest source start wins, then lowest candidate start
    cands = CandidateSet((EntitySpan(0, 2), EntitySpan(3, 5)))
    half = Fraction(1, 2)
    p = MatchingProblem(
        (EntitySpan(0, 2, "A"), EntitySpan(3, 5, "B")),
        cands,
        ((half, half), (half, half)),
    )
    assert solve_greedy(p).assignments == ((0, 0), (1, 1))


def test_greedy_tie_break_prefers_shorter_candidate():
    # same source, same start, same cost: the shorter candidate wins
    cands = CandidateSet((EntitySpan(0, 1), EntitySpan(0, 3)))
    p = MatchingProblem(
        (EntitySpan(0, 1, "A"),),
        cands,
        ((Fraction(1, 2), Fraction(1, 2)),),
    )
    assert solve_greedy(p).assignments == ((0, 0),)


def test_greedy_excludes_overlapping_candidates():
    cands = CandidateSet((EntitySpan(0, 3), EntitySpan(2, 4)))
    p = MatchingProblem(
        (EntitySpan(0, 1, "A"), EntitySpan(2, 3, "B")),
        cands,
        ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3))),
    )
    sol = solve_greedy(p)
    assert sol.assignments == ((0, 0),)


def test_bruteforce_guard_and_override():
    labeled = LabeledSentence(Sentence(words(14)), (EntitySpan(0, 1, "A"),))
    cands = CandidateSet(tuple(EntitySpan(i, i + 1) for i in range(13)))
    p = build_problem(labeled, cands, AlignmentSet(frozenset({(0, 0)})))
    with pytest.raises(GuardError):
        solve_bruteforce(p)
    sol = solve_bruteforce(p, unsafe=True)
    assert sol.assignments == ((0, 0),)

    many_sources = LabeledSentence(
        Sentence(words(14)), tuple(EntitySpan(i, i + 1, "A") for i in range(7))
    )
    p2 = build_problem(many_sources, CandidateSet(()), AlignmentSet())
    with pytest.raises(GuardError):
        solve_bruteforce(p2)


def test_bruteforce_require_all_infeasible_lists_uncoverable():
    cands = CandidateSet((EntitySpan(0, 2),))
    p = MatchingProblem(
        (EntitySpan(0, 1, "A"), EntitySpan(2, 3, "B")),
        cands,
        ((Fraction(1, 2),), (Fraction(0),)),
        MatchMode.REQUIRE_ALL,
    )
    with pytest.raises(InfeasibleError) as err:
        solve_bruteforce(p)
    assert err.value.uncoverable == (1,)


def test_bruteforce_require_all_overlap_contradiction():
    # both sources have positive cost only against mutually overlapping candidates
    cands = CandidateSet((EntitySpan(0, 3), EntitySpan(1, 4)))
    p = MatchingProblem(
        (EntitySpan(0, 1, "A"), EntitySpan(2, 3, "B")),
        cands,
        ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))),
        MatchMode.REQUIRE_ALL,
    )
    with pytest.raises(InfeasibleError):
        solve_bruteforce(p)
    # the same instance is fine when sources may go unassigned
    relaxed = MatchingProblem(p.sources, cands, p.costs, MatchMode.AT_MOST_ONE)
    assert solve_bruteforce(relaxed).objective == Fraction(1, 2)


def test_bruteforce_matches_plain_recursion_oracle():
    rng = Random(23)
    for _ in range(150):
        p = random_problem(rng, max_sources=3, max_candidates=6, one_to_one=False)
        expected = matching_oracle(p)
        for solver in (solve_bruteforce, solve_exact):
            got = solver(p)
            assert got.objective == expected[0]
            assert got.assignments == expected[1]


def test_bruteforce_require_all_matches_oracle():
    rng = Random(29)
    checked_feasible = 0
    for _ in range(200):
        p = random_problem(rng, max_sources=3, max_candidates=6, mode=MatchMode.REQUIRE_ALL)
        expected = matching_oracle(p, require_all=True)
        for solver in (solve_bruteforce, solve_exact):
            if expected is None:
                with pytest.raises(InfeasibleError):
                    solver(p)
            else:
                got = solver(p)
                assert (got.objective, got.assignments) == expected
        checked_feasible += expected is not None
    assert checked_feasible > 10


def tied_problem(rng: Random, mode: MatchMode) -> MatchingProblem:
    """Overlapping candidates whose costs come from three values, so optima often tie."""
    n_src = rng.randint(0, 4)
    sources = tuple(EntitySpan(i, i + 1, "A") for i in range(n_src))
    cands = CandidateSet(random_intervals(rng, 8, rng.randint(1, 8)))
    values = (Fraction(0), Fraction(1, 3), Fraction(1, 2))
    costs = tuple(tuple(rng.choice(values) for _ in cands.spans) for _ in sources)
    return MatchingProblem(sources, cands, costs, mode)


@pytest.mark.parametrize("mode", list(MatchMode), ids=lambda mode: mode.value)
def test_exact_equals_bruteforce_on_random_instances(mode):
    rng = Random(59)
    outcomes = {"feasible": 0, "infeasible": 0}
    for i in range(1200):
        if i % 4 == 3:
            p = tied_problem(rng, mode)
        else:
            p = random_problem(
                rng, max_sources=4, max_candidates=8, disjoint=i % 4 == 2,
                one_to_one=i % 4 == 0, mode=mode,
            )
        try:
            want = solve_bruteforce(p)
        except InfeasibleError as err:
            with pytest.raises(InfeasibleError) as got:
                solve_exact(p)
            assert got.value.uncoverable == err.uncoverable
            outcomes["infeasible"] += 1
            continue
        got = solve_exact(p)
        assert (got.objective, got.assignments) == (want.objective, want.assignments)
        validate_solution(p, got)
        outcomes["feasible"] += 1
    assert outcomes["feasible"] > 100
    assert (outcomes["infeasible"] > 100) == (mode is MatchMode.REQUIRE_ALL)


def test_exact_guard_counts_sources():
    def problem(n_src: int) -> MatchingProblem:
        labeled = LabeledSentence(
            Sentence(words(n_src)), tuple(EntitySpan(i, i + 1, "A") for i in range(n_src))
        )
        cands = CandidateSet(tuple(EntitySpan(i, i + 1) for i in range(20)))
        return build_problem(labeled, cands, AlignmentSet(frozenset((i, i) for i in range(n_src))))

    assert solve_exact(problem(10)).objective == 5
    with pytest.raises(GuardError, match="11 sources"):
        solve_exact(problem(11))


def test_assignment_rejects_overlapping_candidates():
    cands = CandidateSet((EntitySpan(0, 3), EntitySpan(2, 4)))
    p = MatchingProblem((EntitySpan(0, 1, "A"),), cands, ((Fraction(1, 2), Fraction(1, 3)),))
    with pytest.raises(DataError, match="disjoint"):
        solve_assignment_exact(p)


def test_assignment_identity_on_positive_diagonal():
    cands = CandidateSet((EntitySpan(0, 1), EntitySpan(2, 3), EntitySpan(4, 5)))
    diag = tuple(
        tuple(Fraction(1, 2) if s == t else Fraction(0) for t in range(3)) for s in range(3)
    )
    sources = tuple(EntitySpan(2 * s, 2 * s + 1, "A") for s in range(3))
    sol = solve_assignment_exact(MatchingProblem(sources, cands, diag))
    assert sol.assignments == ((0, 0), (1, 1), (2, 2))
    assert sol.objective == Fraction(3, 2)


def test_assignment_all_zero_costs_gives_empty_solution():
    cands = CandidateSet((EntitySpan(0, 1), EntitySpan(2, 3)))
    zero = Fraction(0)
    p = MatchingProblem(
        (EntitySpan(0, 1, "A"), EntitySpan(2, 3, "B")), cands, ((zero, zero), (zero, zero))
    )
    sol = solve_assignment_exact(p)
    assert sol.assignments == ()
    assert sol.objective == 0


def test_assignment_beats_greedy_on_crossed_instance():
    sol = solve_assignment_exact(crossed_problem())
    assert sol.objective == 1
    assert sol.assignments == ((0, 1), (1, 0))


def test_assignment_require_all_infeasible():
    cands = CandidateSet((EntitySpan(0, 1),))
    p = MatchingProblem(
        (EntitySpan(0, 1, "A"), EntitySpan(2, 3, "B")),
        cands,
        ((Fraction(1, 2),), (Fraction(1, 3),)),
        MatchMode.REQUIRE_ALL,
    )
    with pytest.raises(InfeasibleError):
        solve_assignment_exact(p)
    with pytest.raises(InfeasibleError):
        solve_assignment_exact(
            MatchingProblem(p.sources, CandidateSet(()),
                            ((), ()), MatchMode.REQUIRE_ALL)
        )


def test_assignment_require_all_matches_bruteforce_when_feasible():
    rng = Random(31)
    feasible = 0
    for _ in range(150):
        p = random_problem(
            rng, max_sources=3, max_candidates=6, disjoint=True, mode=MatchMode.REQUIRE_ALL
        )
        try:
            expected = solve_bruteforce(p)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_assignment_exact(p)
            continue
        got = solve_assignment_exact(p)
        assert got.objective == expected.objective
        feasible += 1
    assert feasible > 10


def test_assignment_matches_bruteforce_randomized():
    rng = Random(37)
    for _ in range(200):
        p = random_problem(rng, max_sources=4, max_candidates=8, disjoint=True)
        assert solve_assignment_exact(p).objective == solve_bruteforce(p).objective


def scaled(matrix: list[list[Fraction]]) -> list[list[int]]:
    """The matrix times the lcm of its denominators, as integers."""
    scale = lcm(*(cell.denominator for row in matrix for cell in row))
    return [[int(cell * scale) for cell in row] for row in matrix]


def test_integer_hungarian_matches_the_fraction_reference():
    rng = Random(53)
    values = [Fraction(n, d) for d in range(1, 7) for n in range(-2 * d, 2 * d + 1)]
    for _ in range(1000):
        k = rng.randint(1, 8)
        pool = rng.sample(values, rng.randint(1, 6))  # few distinct values: many ties
        matrix = [[rng.choice(pool) for _ in range(k)] for _ in range(k)]
        assert _hungarian_min(scaled(matrix)) == hungarian_min_fraction(matrix)


# Primes of five digits: a product of 100 of them has over 400 digits.
PRIMES = [n for n in range(10_000, 20_000) if all(n % d for d in range(2, 142))]


def prime_fractions(rng: Random, rows: int, cols: int, low: int) -> list[list[Fraction]]:
    """Fractions between low and 1, each over its own prime denominator."""
    denominators = iter(rng.sample(PRIMES, rows * cols))
    return [
        [Fraction(rng.randint(low * d, d), d) for d in islice(denominators, cols)]
        for _ in range(rows)
    ]


def test_integer_hungarian_past_the_float_range():
    rng = Random(59)
    for _ in range(3):
        matrix = prime_fractions(rng, 12, 12, low=-1)
        integers = scaled(matrix)
        assert max(abs(cell) for row in integers for cell in row) > 10**308
        assert _hungarian_min(integers) == hungarian_min_fraction(matrix)


def disjoint_problem(rng: Random, n_src: int, n_cand: int, mode: MatchMode) -> MatchingProblem:
    """Arbitrary rational costs, most of them zero, over disjoint one-word candidates."""
    values = [Fraction(0)] * 4 + [Fraction(n, d) for d in (1, 2, 3, 4) for n in range(1, d + 1)]
    sources = tuple(EntitySpan(2 * s, 2 * s + 1, "A") for s in range(n_src))
    cands = CandidateSet(tuple(EntitySpan(t, t + 1) for t in range(n_cand)))
    costs = [[rng.choice(values) for _ in range(n_cand)] for _ in range(n_src)]
    return MatchingProblem(sources, cands, costs, mode)


def test_assignment_solver_matches_the_fraction_reference():
    rng = Random(61)
    for k in range(1200):
        mode = (MatchMode.AT_MOST_ONE, MatchMode.REQUIRE_ALL)[k % 2]
        if k < 600:
            p = random_problem(rng, max_sources=5, max_candidates=8, disjoint=True, mode=mode)
        else:
            p = disjoint_problem(rng, rng.randint(0, 6), rng.randint(0, 8), mode)
        expected = assignment_oracle(p)
        if expected is None:
            with pytest.raises(InfeasibleError):
                solve_assignment_exact(p)
        else:
            assert solve_assignment_exact(p) == expected


def test_assignment_solver_past_the_float_range():
    """A hundred distinct prime denominators: the lcm scale has over 400 digits."""
    rng = Random(67)
    sources = tuple(EntitySpan(2 * s, 2 * s + 1, "A") for s in range(10))
    cands = CandidateSet(tuple(EntitySpan(t, t + 1) for t in range(10)))
    for mode in MatchMode:
        p = MatchingProblem(sources, cands, prime_fractions(rng, 10, 10, low=0), mode)
        assert lcm(*(den for _, den, _, _ in helpers.positive_cells(p))) > 10**400
        assert solve_assignment_exact(p) == assignment_oracle(p)


def test_mwis_interval_chain():
    spans = (EntitySpan(0, 2), EntitySpan(1, 3), EntitySpan(2, 4))
    cands = CandidateSet(spans)
    one = Fraction(1)
    p = MatchingProblem((EntitySpan(0, 1, "A"),), cands, ((one, one, one),))
    sol = solve_relaxed_mwis(p)
    assert sol.objective == 2
    chosen = {cands.spans[t] for _, t in sol.assignments}
    assert chosen == {EntitySpan(0, 2), EntitySpan(2, 4)}


def test_mwis_single_candidate():
    cands = CandidateSet((EntitySpan(0, 1),))
    p = MatchingProblem((EntitySpan(0, 1, "A"),), cands, ((Fraction(1, 2),),))
    sol = solve_relaxed_mwis(p)
    assert sol.objective == Fraction(1, 2)
    assert sol.assignments == ((0, 0),)


def test_mwis_clique_takes_best_weight():
    spans = (EntitySpan(0, 3), EntitySpan(1, 4), EntitySpan(2, 5))
    cands = CandidateSet(spans)
    p = MatchingProblem(
        (EntitySpan(0, 1, "A"),),
        cands,
        ((Fraction(3, 10), Fraction(7, 10), Fraction(5, 10)),),
    )
    sol = solve_relaxed_mwis(p)
    assert sol.objective == Fraction(7, 10)
    assert sol.assignments == ((0, 1),)


def test_mwis_reuses_a_source_across_candidates():
    spans = (EntitySpan(0, 1), EntitySpan(2, 3))
    cands = CandidateSet(spans)
    p = MatchingProblem(
        (EntitySpan(0, 1, "A"),),
        cands,
        ((Fraction(1, 2), Fraction(1, 3)),),
    )
    sol = solve_relaxed_mwis(p)
    assert sol.assignments == ((0, 0), (0, 1))
    assert sol.objective == Fraction(5, 6)


def test_mwis_matches_enumeration_oracle():
    rng = Random(41)
    for _ in range(200):
        p = random_problem(rng, max_sources=3, max_candidates=8, one_to_one=False)
        weights = [
            max((p.costs[s][t] for s in range(len(p.sources))), default=Fraction(0))
            for t in range(len(p.candidates.spans))
        ]
        expected = mwis_oracle(list(p.candidates.spans), weights)
        assert solve_relaxed_mwis(p).objective == expected


def test_mwis_dominates_capped_bruteforce():
    rng = Random(43)
    for _ in range(100):
        p = random_problem(rng, max_sources=4, max_candidates=8)
        assert solve_relaxed_mwis(p).objective >= solve_bruteforce(p).objective


def test_validate_solution_accepts_solver_output():
    p = worked_pair_problem()
    validate_solution(p, solve_greedy(p))
    validate_solution(p, solve_bruteforce(p))
    validate_solution(p, solve_exact(p))
    validate_solution(p, solve_assignment_exact(p))
    helpers.validate_solution(p, solve_relaxed_mwis(p), relaxed=True)


def test_validate_solution_catches_violations():
    p = worked_pair_problem()
    with pytest.raises(DataError, match="zero cost"):
        validate_solution(p, MatchingSolution(((0, 1),), Fraction(0)))
    with pytest.raises(DataError, match="twice"):
        validate_solution(p, MatchingSolution(((0, 0), (0, 1)), Fraction(1)))
    with pytest.raises(DataError, match="objective"):
        validate_solution(p, MatchingSolution(((0, 0),), Fraction(1)))
    with pytest.raises(DataError, match="out of range"):
        validate_solution(p, MatchingSolution(((5, 0),), Fraction(1, 2)))

    overlapping = CandidateSet((EntitySpan(0, 3), EntitySpan(2, 4)))
    half = Fraction(1, 2)
    p2 = MatchingProblem(
        (EntitySpan(0, 1, "A"), EntitySpan(2, 3, "B")),
        overlapping,
        ((half, half), (half, half)),
    )
    with pytest.raises(DataError, match="overlap"):
        validate_solution(p2, MatchingSolution(((0, 0), (1, 1)), Fraction(1)))

    req = worked_pair_problem(MatchMode.REQUIRE_ALL)
    with pytest.raises(DataError, match="unassigned"):
        validate_solution(req, MatchingSolution(((0, 0),), Fraction(1, 2)))


def test_every_solver_output_validates_on_random_instances():
    rng = Random(47)
    for _ in range(100):
        p = random_problem(rng, max_sources=4, max_candidates=7, one_to_one=False)
        validate_solution(p, solve_greedy(p))
        validate_solution(p, solve_bruteforce(p))
        validate_solution(p, solve_exact(p))
        helpers.validate_solution(p, solve_relaxed_mwis(p), relaxed=True)
        if p.candidates.is_disjoint():
            validate_solution(p, solve_assignment_exact(p))


def test_render_problem_shows_fractions():
    text = render_problem(worked_pair_problem())
    assert "1/2" in text
    assert "mode=atmost shape=2x2" in text
    assert "s0=[0,2):PER" in text
    assert "t1=[4,5)" in text
