import copy
import gc
import pickle
import re
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
from spanproject.core import _Value
from helpers import (
    count_within,
    labeled_sentence_reference,
    positive_cells,
    random_nonoverlapping_spans,
    targets_of,
    words,
)


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
    # a token that is not a str fails in str.join, before any whitespace check
    for tokens, message in [
        (("a", 0), "sequence item 1: expected str instance, int found"),
        ((b"a",), "sequence item 0: expected str instance, bytes found"),
        (("a", "b c", None), "sequence item 2: expected str instance, NoneType found"),
    ]:
        with pytest.raises(TypeError) as info:
            Sentence(tokens)
        assert str(info.value) == message
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


@pytest.mark.parametrize("label", [5, ["A"], b"A"], ids=["int", "list", "bytes"])
def test_a_span_label_must_be_a_string(label):
    # refused where the span is built, so a labeled sentence, a BIO encoding
    # or a CoNLL tag never meets it
    message = f"span label {label!r} is not a string"
    for build in (
        lambda: EntitySpan(0, 1, label),
        lambda: EntitySpan(0, 1).with_label(label),
        lambda: LabeledSentence(Sentence(("a", "b")), (EntitySpan(0, 1, label),)),
        lambda: bio_encode([EntitySpan(0, 1, label)], 2),
    ):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build()


@pytest.mark.parametrize(
    ("start", "end"),
    [(0.5, 2), (0, 2.0), (False, True), ("0", 2), (None, 2)],
    ids=["float-start", "float-end", "bool", "str", "none"],
)
def test_span_bounds_must_be_ints(start, end):
    # refused before the range test, so a float never reaches a BIO tag
    # list, a bool never encodes as B-A, and a str or None never meets a
    # comparison's TypeError
    message = (
        "invalid span: start and end must be integers, got "
        f"{type(start).__name__} and {type(end).__name__}"
    )
    for build in (
        lambda: EntitySpan(start, end, "A"),
        lambda: LabeledSentence(Sentence(("a", "b", "c")), (EntitySpan(start, end, "A"),)),
        lambda: bio_encode([EntitySpan(start, end, "A")], 3),
    ):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build()


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
        # derived slots (a problem's frontier, a candidate set's closed map) are rebuilt
        for name in cls.__slots__:
            assert getattr(clone, name) == getattr(value, name), name


def _value_subclasses(cls=_Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_subclasses(sub)


def test_every_value_type_is_covered_and_its_setters_are_its_slots():
    assert set(_value_subclasses()) == {case[0] for case in VALUE_TYPES}
    for cls, fields, _, _ in VALUE_TYPES:
        assert len(cls._setters) == len(cls.__slots__), cls
        for setter, name in zip(cls._setters, cls.__slots__):
            assert setter.__self__ is cls.__dict__[name], (cls, name)
        # construction stores every slot, derived ones too
        value = cls(**fields)
        for name in cls.__slots__:
            getattr(value, name)


def test_a_sparse_problem_stores_its_costs_on_first_read():
    from spanproject import build_problem, ngram_candidates

    labeled = LabeledSentence(Sentence(("a",)), (EntitySpan(0, 1, "PER"),))
    cands = ngram_candidates(Sentence(("x", "y")), None)  # [0,1) [0,2) [1,2)
    sparse = build_problem(labeled, cands, AlignmentSet(frozenset({(0, 0)})))
    problem = MatchingProblem(
        labeled.entities, cands, ((Fraction(1, 2), Fraction(1, 3), Fraction(0)),)
    )
    # [0,2) is dominated by its aligned hull [0,1), so only the dense problem lists it
    assert sparse.frontier == ((1, 2, 0, 0),)
    assert problem.frontier == ((1, 2, 0, 0), (1, 3, 0, 1))
    for name in ("no_such_field", "positive"):
        with pytest.raises(AttributeError):
            getattr(sparse, name)
    costs = sparse.costs
    assert costs == problem.costs and sparse.costs is costs and sparse == problem
    assert positive_cells(sparse) == list(problem.frontier)
    for name, value in (("costs", costs), ("frontier", sparse.frontier)):
        with pytest.raises(AttributeError):
            setattr(sparse, name, value)


@pytest.mark.parametrize(
    "body", [{}, {"__slots__": ()}, {"__slots__": ("extra",)}], ids=["no-slots", "empty", "one-slot"]
)
@pytest.mark.parametrize("parent", [case[0] for case in VALUE_TYPES], ids=lambda c: c.__name__)
def test_a_subclass_of_a_class_with_fields_cannot_declare_slots(parent, body):
    # value types are final, with or without slots of their own
    message = f"value class {parent.__name__} cannot be subclassed"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        type("Extended", (parent,), body)
    # the refused class is a cycle that its parent lists as a subclass until it
    # is collected, and the coverage test above walks that list
    gc.collect()
    assert "Extended" not in {sub.__name__ for sub in parent.__subclasses__()}


_S = Sentence(("a", "b", "c"), id=4)

# (constructor call, its exact DataError message); where several checks fail
# at once, the message names the one that runs first
CONSTRUCTOR_ERRORS = [
    (lambda: Sentence(()), "sentence must contain at least one token"),
    (lambda: Sentence(("a", "")), "invalid token '': empty or contains whitespace"),
    (lambda: Sentence(("a b", "\t")), "invalid token 'a b': empty or contains whitespace"),
    (lambda: Sentence(("a",), id=-1), "sentence id must be non-negative, got -1"),
    # refused before the sign test: a str or None never meets a comparison's
    # TypeError, and a float or bool is never taken for an id
    (lambda: Sentence(("a",), id="0"), "sentence id must be an integer, got str"),
    (lambda: Sentence(("a",), id=None), "sentence id must be an integer, got NoneType"),
    (lambda: Sentence(("a",), id=1.5), "sentence id must be an integer, got float"),
    (lambda: Sentence(("a",), id=True), "sentence id must be an integer, got bool"),
    (lambda: Sentence((" ",), id=-1), "invalid token ' ': empty or contains whitespace"),
    (lambda: EntitySpan(2, 2), "invalid span (2, 2): need 0 <= start < end"),
    (lambda: EntitySpan(-1, 2, "PER"), "invalid span (-1, 2): need 0 <= start < end"),
    (lambda: AlignmentSet({(0, -1)}), "alignment pair (0, -1) has a negative index"),
    (
        lambda: LabeledSentence(_S, (EntitySpan(0, 2),)),
        "entity EntitySpan(start=0, end=2, label=None) in a labeled sentence must carry a label",
    ),
    (
        lambda: LabeledSentence(_S, (EntitySpan(1, 5, "X"),)),
        "entity (1, 5) exceeds sentence length 3 (sentence id 4)",
    ),
    (
        lambda: LabeledSentence(_S, (EntitySpan(1, 3, "B"), EntitySpan(0, 2, "A"))),
        "entities EntitySpan(start=0, end=2, label='A') and "
        "EntitySpan(start=1, end=3, label='B') overlap",
    ),
    (
        lambda: LabeledSentence(_S, (EntitySpan(1, 3, "B"), EntitySpan(0, 2))),
        "entity EntitySpan(start=0, end=2, label=None) in a labeled sentence must carry a label",
    ),
    (
        lambda: LabeledSentence(_S, (EntitySpan(2, 9, "B"), EntitySpan(0, 3, "A"))),
        "entity (2, 9) exceeds sentence length 3 (sentence id 4)",
    ),
    (
        lambda: CorpusDocument((LabeledSentence(Sentence(("a",), id=1)),)),
        "sentence at position 0 carries id 1; corpus ids must be consecutive from 0",
    ),
    (
        lambda: CandidateSet((EntitySpan(0, 1), EntitySpan(1, 2, "X"))),
        "candidate EntitySpan(start=1, end=2, label='X') must not carry a label",
    ),
    (
        lambda: MatchingProblem((EntitySpan(0, 1, "A"),), CandidateSet(()), ()),
        "cost matrix has 0 rows for 1 sources",
    ),
    (
        lambda: MatchingProblem(
            (EntitySpan(0, 1, "A"),), CandidateSet((EntitySpan(0, 1),)), ((1, 0),)
        ),
        "cost row has 2 entries for 1 candidates",
    ),
    (
        lambda: MatchingProblem(
            (EntitySpan(0, 1, "A"),), CandidateSet((EntitySpan(0, 1),)), ((0.5,),)
        ),
        "matching cost 0.5 at (0, 0) is not a rational number",
    ),
    (
        lambda: MatchingProblem(
            (EntitySpan(0, 1, "A"),), CandidateSet((EntitySpan(0, 1),)), ((True,),)
        ),
        "matching cost True at (0, 0) is not a rational number",
    ),
    (
        lambda: MatchingProblem(
            (EntitySpan(0, 1, "A"),), CandidateSet((EntitySpan(0, 1),)), ((Fraction(-1, 2),),)
        ),
        "negative matching cost -1/2",
    ),
    (
        lambda: ProjectionConfig(ratio_threshold=Fraction(0), max_ngram_len=0),
        "ratio threshold must be in (0, 1], got 0",
    ),
    (
        lambda: ProjectionConfig(ratio_threshold=Fraction(3, 2)),
        "ratio threshold must be in (0, 1], got 3/2",
    ),
    (lambda: ProjectionConfig(max_ngram_len=0), "max n-gram length must be >= 1, got 0"),
    (
        lambda: ProjectionConfig(solver=Solver.ASSIGNMENT),
        "the assignment solver requires external (disjoint) candidates",
    ),
    (
        lambda: ProjectionConfig(mode=MatchMode.REQUIRE_ALL),
        "greedy solving cannot guarantee REQUIRE_ALL coverage",
    ),
    (
        lambda: MarkedSentence(("a", "b", "c"), (EntitySpan(1, 3), EntitySpan(0, 2))),
        "bracket spans EntitySpan(start=0, end=2, label=None) and "
        "EntitySpan(start=1, end=3, label=None) overlap",
    ),
    (
        lambda: MarkedSentence(("a", "b", "c"), (EntitySpan(2, 4),)),
        "bracket span EntitySpan(start=2, end=4, label=None) exceeds sentence length 3",
    ),
]


@pytest.mark.parametrize(("build", "message"), CONSTRUCTOR_ERRORS)
def test_constructor_error_messages_are_pinned(build, message):
    with pytest.raises(DataError) as info:
        build()
    assert str(info.value) == message


def test_labeled_sentence_equals_sort_then_check_on_random_entities():
    rng = Random(44)
    kinds = {"ok": 0, "must carry a label": 0, "invalid label": 0, "exceeds": 0, "overlap": 0}
    # the label check is memoised: a bad label must raise its exact message
    # every time it is met, so failures are never cached
    bad_labels = ("", "A B", "A\u00a0", "A ")
    for _ in range(10_000):
        n = rng.randint(1, 8)
        sentence = Sentence(words(n), id=rng.randrange(3))
        entities = []
        for _ in range(rng.randint(0, 4)):
            start = rng.randrange(n)
            draw = rng.random()
            if draw < 0.03:
                label = None
            elif draw < 0.06:
                label = rng.choice(bad_labels)
            else:
                label = rng.choice(("A", "B"))
            entities.append(EntitySpan(start, start + rng.randint(1, 3), label))
        if rng.random() < 0.5:
            entities.sort(key=EntitySpan.sort_key)
        try:
            expected = labeled_sentence_reference(sentence, tuple(entities))
        except DataError as exc:
            with pytest.raises(DataError) as info:
                LabeledSentence(sentence, tuple(entities))
            assert str(info.value) == str(exc)
            kinds[next(kind for kind in kinds if kind in str(exc))] += 1
        else:
            assert LabeledSentence(sentence, tuple(entities)).entities == expected
            kinds["ok"] += 1
    assert min(kinds.values()) > 500, kinds


def test_bio_encode_basic():
    tags = bio_encode([EntitySpan(1, 3, "PER"), EntitySpan(4, 5, "LOC")], 6)
    assert tags == ["O", "B-PER", "I-PER", "O", "B-LOC", "O"]


def test_bio_encode_adjacent_same_label():
    tags = bio_encode([EntitySpan(0, 1, "LOC"), EntitySpan(1, 3, "LOC")], 3)
    assert tags == ["B-LOC", "B-LOC", "I-LOC"]
    assert bio_decode(tags) == [EntitySpan(0, 1, "LOC"), EntitySpan(1, 3, "LOC")]


def test_bio_encode_rejects_bad_input():
    cases = [
        (
            [EntitySpan(1, 3, "B"), EntitySpan(0, 2, "A")],
            "cannot BIO-encode overlapping entities EntitySpan(start=0, end=2, label='A') "
            "and EntitySpan(start=1, end=3, label='B')",
        ),
        ([EntitySpan(0, 2)], "cannot BIO-encode unlabeled span EntitySpan(start=0, end=2, label=None)"),
        ([EntitySpan(0, 9, "A")], "entity (0, 9) exceeds tag length 5"),
        # overlap is checked before labels, labels before bounds, entity by entity
        ([EntitySpan(0, 9), EntitySpan(1, 2, "A")], "cannot BIO-encode overlapping entities "
         "EntitySpan(start=0, end=9, label=None) and EntitySpan(start=1, end=2, label='A')"),
        ([EntitySpan(3, 9, "A"), EntitySpan(0, 1)],
         "cannot BIO-encode unlabeled span EntitySpan(start=0, end=1, label=None)"),
    ]
    for entities, message in cases:
        with pytest.raises(DataError) as info:
            bio_encode(entities, 5)
        assert str(info.value) == message


@pytest.mark.parametrize("label", ["", " ", "X Y", "X\tY", "X\n", " X", "X "])
def test_bio_encode_refuses_labels_a_tag_cannot_hold(label):
    # the same rule and message as a LabeledSentence, checked before bounds
    message = f"invalid label {label!r}: empty or contains whitespace"
    bad = EntitySpan(1, 9, label)  # past the tags too: the label is checked first
    for entities in ([EntitySpan(0, 1, label)], [EntitySpan(0, 1, "A"), bad]):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            bio_encode(entities, 2)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        LabeledSentence(Sentence(("a", "b")), (EntitySpan(0, 1, label),))
    assert bio_encode([EntitySpan(0, 1, "X-Y.z")], 2) == ["B-X-Y.z", "O"]


def test_bio_decode_lenient_orphan_i_opens_span():
    assert bio_decode(["O", "I-PER", "I-PER", "O"]) == [EntitySpan(1, 3, "PER")]
    assert bio_decode(["I-LOC", "I-PER"]) == [
        EntitySpan(0, 1, "LOC"),
        EntitySpan(1, 2, "PER"),
    ]


def test_bio_decode_rejects_malformed_tags():
    # a label holding whitespace could never be encoded or serialized back
    for bad in ("B", "X-PER", "B-", "b-PER", "I", "B-X Y", "I-\t"):
        with pytest.raises(FormatError, match="does not match the BIO grammar"):
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
