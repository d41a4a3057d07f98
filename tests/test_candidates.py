from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spanproject import (
    CandidateSet,
    DataError,
    EntitySpan,
    Sentence,
    SourceKind,
    external_candidates,
    ngram_candidates,
)
from helpers import words


def test_ngram_candidates_small_enumeration():
    cands = ngram_candidates(Sentence(words(3)), max_len=2)
    assert {(c.start, c.end) for c in cands.spans} == {
        (0, 1), (1, 2), (2, 3), (0, 2), (1, 3),
    }
    assert len(cands) == 5
    assert cands.source_kind is SourceKind.NGRAM
    # the cached enumeration gives what the checked constructor makes of it
    for n in range(1, 41):
        sentence = Sentence(words(n), id=n)
        for max_len in (*range(1, 10), None):
            cands = ngram_candidates(sentence, max_len)
            checked = CandidateSet(sentence.id, cands.spans, SourceKind.NGRAM)
            assert cands.spans == checked.spans, (n, max_len)
            assert cands.sentence_id == n and cands.source_kind is SourceKind.NGRAM


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
    assert cands.source_kind is SourceKind.EXTERNAL_NER
    assert cands.is_disjoint()


def test_external_candidates_empty_is_fine():
    assert len(external_candidates(Sentence(words(4)), [])) == 0


def test_external_candidates_reject_out_of_bounds():
    with pytest.raises(DataError, match="sentence 7"):
        external_candidates(Sentence(words(3), id=7), [EntitySpan(2, 4)])


def test_external_candidates_reject_overlap():
    with pytest.raises(DataError, match="overlap"):
        external_candidates(Sentence(words(5)), [EntitySpan(0, 2), EntitySpan(1, 3)])


def test_candidate_set_rejects_labeled_spans():
    with pytest.raises(DataError):
        CandidateSet(0, (EntitySpan(0, 1, "PER"),), SourceKind.NGRAM)


def test_candidate_set_sorts_and_dedupes():
    cs = CandidateSet(
        0,
        (EntitySpan(3, 4), EntitySpan(0, 2), EntitySpan(3, 4), EntitySpan(0, 3)),
        SourceKind.NGRAM,
    )
    assert cs.spans == (EntitySpan(0, 2), EntitySpan(0, 3), EntitySpan(3, 4))
    assert not cs.is_disjoint()


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
        cs = CandidateSet(0, spans, SourceKind.NGRAM)
        expected = all(
            a.end <= b.start or b.end <= a.start
            for i, a in enumerate(cs.spans)
            for b in cs.spans[i + 1 :]
        )
        assert cs.is_disjoint() == expected
