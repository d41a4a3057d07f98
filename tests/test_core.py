from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spanproject import (
    AlignmentSet,
    DataError,
    EntitySpan,
    FormatError,
    LabeledSentence,
    Sentence,
    bio_decode,
    bio_encode,
    spans_overlap,
)
from helpers import count_within, random_nonoverlapping_spans, targets_of, words


def test_sentence_basics():
    s = Sentence(("a", "b", "c"), id=3)
    assert len(s) == 3
    assert s.tokens == ("a", "b", "c")


def test_sentence_rejects_empty_and_whitespace_tokens():
    with pytest.raises(DataError):
        Sentence(())
    with pytest.raises(DataError):
        Sentence(("ok", ""))
    with pytest.raises(DataError):
        Sentence(("ok", "two words"))
    with pytest.raises(DataError):
        Sentence(("a",), id=-1)
    # every code point: a token holding it is rejected exactly when str.isspace() says so
    chars = [chr(code) for code in range(0x110000)]
    spaces = [ch for ch in chars if ch.isspace()]
    assert len(spaces) > 20
    for ch in spaces:
        with pytest.raises(DataError, match="whitespace"):
            Sentence(("a" + ch + "b",))
    Sentence(tuple("a" + ch + "b" for ch in chars if not ch.isspace()))


def test_entity_span_validation():
    span = EntitySpan(2, 5, "LOC")
    assert len(span) == 3
    assert span.with_label(None).label is None
    with pytest.raises(DataError):
        EntitySpan(3, 3)
    with pytest.raises(DataError):
        EntitySpan(-1, 2)
    with pytest.raises(DataError):
        EntitySpan(4, 2)


def test_spans_overlap_touching_is_disjoint():
    assert spans_overlap(EntitySpan(0, 3), EntitySpan(2, 4))
    assert not spans_overlap(EntitySpan(0, 2), EntitySpan(2, 4))
    assert not spans_overlap(EntitySpan(5, 6), EntitySpan(0, 2))


@given(
    a_start=st.integers(0, 20),
    a_len=st.integers(1, 5),
    b_start=st.integers(0, 20),
    b_len=st.integers(1, 5),
)
def test_spans_overlap_symmetric_and_matches_set_intersection(a_start, a_len, b_start, b_len):
    a = EntitySpan(a_start, a_start + a_len)
    b = EntitySpan(b_start, b_start + b_len)
    expected = bool(set(range(a.start, a.end)) & set(range(b.start, b.end)))
    assert spans_overlap(a, b) == expected
    assert spans_overlap(a, b) == spans_overlap(b, a)


def test_alignment_set_helpers():
    align = AlignmentSet(frozenset({(0, 1), (2, 3), (5, 0)}))
    assert len(align) == 3
    assert targets_of(align, EntitySpan(0, 3)) == {1, 3}
    assert targets_of(align, EntitySpan(3, 5)) == set()
    assert count_within(align, EntitySpan(0, 3), EntitySpan(0, 4)) == 2
    assert count_within(align, EntitySpan(0, 6), EntitySpan(0, 1)) == 1
    with pytest.raises(DataError):
        AlignmentSet(frozenset({(-1, 0)}))
    with pytest.raises(DataError):
        align.check_bounds(5, 4)
    align.check_bounds(6, 4)


def test_labeled_sentence_normalizes_and_validates():
    sent = Sentence(words(6))
    labeled = LabeledSentence(sent, (EntitySpan(3, 5, "LOC"), EntitySpan(0, 2, "PER")))
    assert [e.start for e in labeled.entities] == [0, 3]
    with pytest.raises(DataError):
        LabeledSentence(sent, (EntitySpan(0, 2),))  # unlabeled
    with pytest.raises(DataError):
        LabeledSentence(sent, (EntitySpan(4, 7, "LOC"),))  # out of bounds
    with pytest.raises(DataError):
        LabeledSentence(sent, (EntitySpan(0, 3, "A"), EntitySpan(2, 4, "B")))


def test_bio_encode_basic():
    tags = bio_encode([EntitySpan(1, 3, "PER"), EntitySpan(4, 5, "LOC")], 6)
    assert tags == ["O", "B-PER", "I-PER", "O", "B-LOC", "O"]


def test_bio_encode_adjacent_same_label():
    tags = bio_encode([EntitySpan(0, 1, "LOC"), EntitySpan(1, 3, "LOC")], 3)
    assert tags == ["B-LOC", "B-LOC", "I-LOC"]
    assert bio_decode(tags) == [EntitySpan(0, 1, "LOC"), EntitySpan(1, 3, "LOC")]


def test_bio_encode_rejects_bad_input():
    with pytest.raises(DataError):
        bio_encode([EntitySpan(0, 2, "A"), EntitySpan(1, 3, "B")], 5)
    with pytest.raises(DataError):
        bio_encode([EntitySpan(0, 2)], 5)
    with pytest.raises(DataError):
        bio_encode([EntitySpan(0, 9, "A")], 5)


def test_bio_decode_lenient_orphan_i_opens_span():
    assert bio_decode(["O", "I-PER", "I-PER", "O"]) == [EntitySpan(1, 3, "PER")]
    assert bio_decode(["I-LOC", "I-PER"]) == [
        EntitySpan(0, 1, "LOC"),
        EntitySpan(1, 2, "PER"),
    ]


def test_bio_decode_rejects_malformed_tags():
    for bad in ("B", "X-PER", "B-", "b-PER", "I"):
        with pytest.raises(FormatError):
            bio_decode([bad])


def test_bio_round_trip_randomized():
    rng = Random(7)
    for _ in range(300):
        length = rng.randint(1, 12)
        spans = random_nonoverlapping_spans(rng, length, rng.randint(0, 4))
        tags = bio_encode(list(spans), length)
        assert tuple(bio_decode(tags)) == spans
