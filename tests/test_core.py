import copy
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spanproject import (
    AlignmentSet,
    CandidateSet,
    CorpusDocument,
    DataError,
    EntitySpan,
    FormatError,
    LabeledSentence,
    MarkedSentence,
    MatchingProblem,
    MatchingSolution,
    MatchMode,
    Method,
    ProjectionConfig,
    Sentence,
    Solver,
    SourceKind,
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
    # every code point: a token holding it is rejected exactly when str.isspace()
    # says so, and the error names the first bad token wherever it stands
    chars = [chr(code) for code in range(0x110000)]
    spaces = [ch for ch in chars if ch.isspace()]
    assert len(spaces) > 20
    bad_tokens = [""] + [
        bad for ch in spaces for bad in (ch, "a" + ch, ch + "b", "a" + ch + "b", ch + ch)
    ]
    good = ["w0", "w1", "w2", "w3", "w4"]
    for k, bad in enumerate(bad_tokens):
        later = bad_tokens[(k + 1) % len(bad_tokens)]  # bad too, but not the first
        for pos in (0, 2, 5):
            tokens = good[:pos] + [bad] + good[pos:]
            for sentence_tokens in ([bad], tokens, tokens + [later]):
                with pytest.raises(DataError) as info:
                    Sentence(tuple(sentence_tokens))
                assert str(info.value) == f"invalid token {bad!r}: empty or contains whitespace"
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
    with pytest.raises(DataError) as info:
        LabeledSentence(sent, (EntitySpan(1, 3, "B"), EntitySpan(0, 2, "A")))
    assert str(info.value) == (
        "entities EntitySpan(start=0, end=2, label='A') and "
        "EntitySpan(start=1, end=3, label='B') overlap"
    )


# (class, every field by keyword in field order, repr, one field changed)
VALUE_TYPES = [
    (
        EntitySpan,
        {"start": 0, "end": 2, "label": "PER"},
        "EntitySpan(start=0, end=2, label='PER')",
        ("label", "LOC"),
    ),
    (
        Sentence,
        {"tokens": ("Paris", "is"), "id": 1},
        "Sentence(tokens=('Paris', 'is'), id=1)",
        ("id", 2),
    ),
    (
        LabeledSentence,
        {"sentence": Sentence(("New", "York", "!")), "entities": (EntitySpan(0, 2, "LOC"),)},
        "LabeledSentence(sentence=Sentence(tokens=('New', 'York', '!'), id=0), "
        "entities=(EntitySpan(start=0, end=2, label='LOC'),))",
        ("entities", ()),
    ),
    (
        AlignmentSet,
        {"pairs": frozenset({(0, 1)})},
        "AlignmentSet(pairs=frozenset({(0, 1)}))",
        ("pairs", frozenset()),
    ),
    (
        CandidateSet,
        {"spans": (EntitySpan(0, 1), EntitySpan(1, 2))},
        "CandidateSet(spans=(EntitySpan(start=0, end=1, label=None), "
        "EntitySpan(start=1, end=2, label=None)))",
        ("spans", (EntitySpan(0, 1),)),
    ),
    (
        CorpusDocument,
        {"sentences": (LabeledSentence(Sentence(("a",))),)},
        "CorpusDocument(sentences=(LabeledSentence(sentence=Sentence(tokens=('a',), id=0), "
        "entities=()),))",
        ("sentences", ()),
    ),
    (
        ProjectionConfig,
        {
            "method": Method.HEURISTIC,
            "candidate_source": SourceKind.NGRAM,
            "solver": Solver.GREEDY,
            "ratio_threshold": Fraction(1, 2),
            "max_ngram_len": 8,
            "mode": MatchMode.AT_MOST_ONE,
        },
        "ProjectionConfig(method=<Method.HEURISTIC: 'heuristic'>, "
        "candidate_source=<SourceKind.NGRAM: 'ngram'>, solver=<Solver.GREEDY: 'greedy'>, "
        "ratio_threshold=Fraction(1, 2), max_ngram_len=8, "
        "mode=<MatchMode.AT_MOST_ONE: 'atmost'>)",
        ("max_ngram_len", None),
    ),
    (
        MatchingProblem,
        {
            "sources": (EntitySpan(0, 1, "PER"),),
            "candidates": CandidateSet((EntitySpan(0, 1),)),
            "costs": ((Fraction(1, 2),),),
            "mode": MatchMode.AT_MOST_ONE,
        },
        "MatchingProblem(sources=(EntitySpan(start=0, end=1, label='PER'),), "
        "candidates=CandidateSet(spans=(EntitySpan(start=0, end=1, label=None),)), "
        "costs=((Fraction(1, 2),),), mode=<MatchMode.AT_MOST_ONE: 'atmost'>)",
        ("costs", ((Fraction(0),),)),
    ),
    (
        MatchingSolution,
        {"assignments": ((0, 0),), "objective": Fraction(1, 2)},
        "MatchingSolution(assignments=((0, 0),), objective=Fraction(1, 2))",
        ("objective", Fraction(1)),
    ),
    (
        MarkedSentence,
        {
            "tokens": ("a", "b"),
            "bracket_spans": (EntitySpan(0, 1),),
            "entity_translations": (("PER", "a"),),
        },
        "MarkedSentence(tokens=('a', 'b'), "
        "bracket_spans=(EntitySpan(start=0, end=1, label=None),), "
        "entity_translations=(('PER', 'a'),))",
        ("entity_translations", ()),
    ),
]


@pytest.mark.parametrize(
    ("cls", "fields", "text", "change"), VALUE_TYPES, ids=[case[0].__name__ for case in VALUE_TYPES]
)
def test_value_type_semantics(cls, fields, text, change):
    value = cls(**fields)
    values = tuple(getattr(value, name) for name in fields)
    assert repr(value) == text
    assert value == cls(**fields) and not value != cls(**fields)
    other = cls(**{**fields, change[0]: change[1]})
    assert value != other and not value == other
    assert value != values and (value == values) is False
    assert hash(value) == hash(values) == hash(cls(**fields))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == values
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value and repr(clone) == text
        # derived slots (a problem's positive cells, a candidate set's layout) are rebuilt
        for name in cls.__slots__:
            assert getattr(clone, name) == getattr(value, name), name


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


def test_bio_decode_equals_a_run_scan_on_random_tags():
    def runs(tags):
        spans, i = [], 0
        while i < len(tags):
            if tags[i] == "O":
                i += 1
                continue
            label, end = tags[i][2:], i + 1
            while end < len(tags) and tags[end] == "I-" + label:
                end += 1
            spans.append(EntitySpan(i, end, label))
            i = end
        return spans

    rng = Random(8)
    for _ in range(3_000):
        length = rng.randint(0, 10)
        tags = [rng.choice(("O", "B-PER", "I-PER", "B-LOC", "I-LOC")) for _ in range(length)]
        assert bio_decode(tags) == runs(tags), tags


def test_bio_round_trip_randomized():
    rng = Random(7)
    for _ in range(300):
        length = rng.randint(1, 12)
        spans = random_nonoverlapping_spans(rng, length, rng.randint(0, 4))
        tags = bio_encode(list(spans), length)
        assert tuple(bio_decode(tags)) == spans
