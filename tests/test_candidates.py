import copy
import pickle
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spanproject import (
    CandidateSet,
    DataError,
    EntitySpan,
    Sentence,
    external_candidates,
    ngram_candidates,
)
from helpers import random_intervals, random_nonoverlapping_spans, words


def test_ngram_candidates_small_enumeration():
    cands = ngram_candidates(Sentence(words(3)), max_len=2)
    assert {(c.start, c.end) for c in cands.spans} == {
        (0, 1), (1, 2), (2, 3), (0, 2), (1, 3),
    }
    assert len(cands) == 5
    # one checked set per (length, cap), equal to a closed-form enumeration
    for n in range(1, 41):
        first, second = Sentence(words(n), id=n), Sentence(tuple("x" * n), id=n + 1)
        for max_len in (*range(1, 10), None):
            cap = n if max_len is None else max_len
            want = [(s, e) for s in range(n) for e in range(n + 1) if 0 < e - s <= cap]
            cands = ngram_candidates(first, max_len)
            assert [(c.start, c.end) for c in cands.spans] == want, (n, max_len)
            assert all(c.label is None for c in cands.spans)
            assert ngram_candidates(second, max_len) is cands


def test_ngram_candidates_single_word():
    cands = ngram_candidates(Sentence(words(1)), max_len=99)
    assert [(c.start, c.end) for c in cands.spans] == [(0, 1)]


def test_ngram_candidates_unbounded_count():
    cands = ngram_candidates(Sentence(words(6)), max_len=None)
    assert len(cands) == 21  # 6 * 7 / 2


def test_ngram_candidates_rejects_bad_max_len():
    with pytest.raises(DataError):
        ngram_candidates(Sentence(words(3)), max_len=0)


@given(n=st.integers(1, 20), max_len=st.integers(1, 25))
def test_ngram_candidate_count_closed_form(n, max_len):
    cands = ngram_candidates(Sentence(words(n)), max_len)
    cap = min(max_len, n)
    assert len(cands) == sum(n - length + 1 for length in range(1, cap + 1))
    assert len(set(cands.spans)) == len(cands.spans)
    assert all(c.label is None and c.end <= n for c in cands.spans)


@given(n=st.integers(1, 15), start=st.integers(0, 14), length=st.integers(1, 15))
def test_unbounded_ngrams_contain_every_span(n, start, length):
    if start + length > n:
        return
    cands = ngram_candidates(Sentence(words(n)), max_len=None)
    assert EntitySpan(start, start + length) in cands.spans


def test_external_candidates_strip_labels_and_dedupe():
    sent = Sentence(words(6))
    cands = external_candidates(
        sent, [EntitySpan(4, 5, "LOC"), EntitySpan(0, 2, "PER"), EntitySpan(0, 2, "ORG")]
    )
    assert cands.spans == (EntitySpan(0, 2), EntitySpan(4, 5))
    assert cands.is_disjoint()


def test_external_candidates_empty_is_fine():
    assert len(external_candidates(Sentence(words(4)), [])) == 0


def test_external_candidates_reject_out_of_bounds():
    with pytest.raises(DataError, match="sentence 7"):
        external_candidates(Sentence(words(3), id=7), [EntitySpan(2, 4)])


def test_external_candidates_reject_overlap():
    with pytest.raises(
        DataError,
        match="^external candidates for sentence 7 overlap; "
        "NER-predicted spans are expected to be disjoint$",
    ):
        external_candidates(Sentence(words(5), id=7), [EntitySpan(0, 2), EntitySpan(1, 3)])


def test_candidate_set_rejects_labeled_spans():
    with pytest.raises(DataError, match="must not carry a label"):
        CandidateSet((EntitySpan(0, 1, "PER"),))


def test_candidate_set_sorts_and_dedupes():
    cs = CandidateSet((EntitySpan(3, 4), EntitySpan(0, 2), EntitySpan(3, 4), EntitySpan(0, 3)))
    assert cs.spans == (EntitySpan(0, 2), EntitySpan(0, 3), EntitySpan(3, 4))
    assert not cs.is_disjoint()


def test_candidate_set_in_order_spans_build_the_set_the_sort_builds():
    """Spans strictly increasing by (start, end) skip the sort; all others take it."""
    rng = Random(11)

    def same(cs, want):
        assert cs == want and cs.spans == want.spans and cs.closed == want.closed

    for _ in range(300):
        n = rng.randint(1, 12)
        spans = random_intervals(rng, n, rng.randint(1, 12))  # sorted and distinct
        shuffled = list(spans)
        rng.shuffle(shuffled)
        doubled = sorted([*spans, *rng.choices(spans, k=rng.randint(1, 4))], key=EntitySpan.sort_key)
        falling = sorted(spans, key=lambda span: (span.start, -span.end))
        want = CandidateSet(spans)
        assert want.spans == spans
        for other in (shuffled, doubled, falling):
            same(CandidateSet(tuple(other)), want)
    # sorted by start with falling ends: not in order, so sorted
    falling = CandidateSet((EntitySpan(0, 3), EntitySpan(0, 2), EntitySpan(0, 1), EntitySpan(1, 2)))
    assert [(c.start, c.end) for c in falling.spans] == [(0, 1), (0, 2), (0, 3), (1, 2)]
    assert falling.closed is None
    # every cached n-gram set equals one built from freshly made spans, shuffled
    for n in range(1, 41):
        sentence = Sentence(words(n))
        for max_len in (*range(1, 9), None):
            cap = n if max_len is None else min(max_len, n)
            fresh = [EntitySpan(s, e) for s in range(n) for e in range(s + 1, min(s + cap, n) + 1)]
            rng.shuffle(fresh)
            same(ngram_candidates(sentence, max_len), CandidateSet(tuple(fresh)))


def test_is_disjoint_catches_nonadjacent_overlap():
    rng = Random(3)
    for _ in range(200):
        n = rng.randint(2, 10)
        k = rng.randint(1, 6)
        raw = set()
        for _ in range(k):
            s = rng.randrange(n)
            raw.add((s, s + rng.randint(1, n - s)))
        spans = tuple(EntitySpan(s, e) for s, e in raw)
        cs = CandidateSet(spans)
        expected = all(
            a.end <= b.start or b.end <= a.start
            for i, a in enumerate(cs.spans)
            for b in cs.spans[i + 1 :]
        )
        assert cs.is_disjoint() == expected


def recomputed_runs(spans):
    """One (start, first, past) per distinct start of sorted spans, by a plain scan over them."""
    runs = []
    for t, span in enumerate(spans):
        if runs and runs[-1][0] == span.start:
            runs[-1][2] = t + 1
        else:
            runs.append([span.start, t, t + 1])
    return tuple(map(tuple, runs))


def test_candidate_layout_is_derived_from_the_spans():
    rng = Random(5)
    sets = [CandidateSet(()), external_candidates(Sentence(words(3)), [])]
    for n in (1, 2, 9, 17, 30):
        for cap in (1, 3, 8, None):
            sets.append(ngram_candidates(Sentence(words(n)), cap))
    for _ in range(100):
        n = rng.randint(1, 14)
        sets.append(CandidateSet(random_intervals(rng, n, rng.randint(0, 8))))
        ner = random_nonoverlapping_spans(rng, n, rng.randint(0, 4), labeled=False)
        sets.append(external_candidates(Sentence(words(n)), list(ner)))
    # closed under sub-spans or one span short of it, with gaps between words
    for pairs in (
        [(0, 1), (0, 2), (1, 2), (4, 5)],
        [(0, 2), (1, 2)],
        [(0, 1), (0, 2)],
        [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)],
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
        [(2, 3), (2, 4), (3, 4), (6, 7)],
    ):
        sets.append(CandidateSet(tuple(EntitySpan(a, b) for a, b in pairs)))
    for cs in sets:
        runs = recomputed_runs(cs.spans)
        spans = {(span.start, span.end) for span in cs.spans}
        closed = all(
            (a, b) in spans for start, end in spans
            for a in range(start, end) for b in range(a + 1, end + 1)
        )
        if closed:
            assert cs.closed == {start: (first, past) for start, first, past in runs}
        else:
            assert cs.closed is None
        # the closed map is left out of repr, == and hash
        assert repr(cs) == f"CandidateSet(spans={cs.spans!r})"
        assert hash(cs) == hash((cs.spans,))
        for clone in (copy.copy(cs), copy.deepcopy(cs), pickle.loads(pickle.dumps(cs))):
            assert clone == cs
            assert clone.closed == cs.closed
