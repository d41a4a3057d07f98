import hashlib
import json
from itertools import product
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spanproject import (
    AlignmentSet,
    CorpusDocument,
    DataError,
    EntitySpan,
    FormatError,
    LabeledSentence,
    Sentence,
    SpanProjectError,
    bio_encode,
    parse_conll,
    parse_marked_sentence,
    parse_pharaoh,
    parse_span_records,
    parse_translations_line,
    serialize_conll,
    serialize_pharaoh,
    serialize_span_records,
)
from spanproject import formats
from spanproject.formats import _pharaoh_pair, conll_block
from helpers import (
    FIXTURES,
    parse_conll_reference,
    parse_pharaoh_reference,
    random_nonoverlapping_spans,
    words,
)


CONLL_SAMPLE = """Mark B-PER
Twain I-PER
was O
born O
in O
Florida B-LOC

die
alte
bruecke
"""


def test_parse_conll_tags_and_tagless_lines():
    doc = parse_conll(CONLL_SAMPLE)
    assert len(doc) == 2
    first, second = doc.sentences
    assert first.sentence.tokens == ("Mark", "Twain", "was", "born", "in", "Florida")
    assert first.entities == (EntitySpan(0, 2, "PER"), EntitySpan(5, 6, "LOC"))
    assert second.sentence.tokens == ("die", "alte", "bruecke")
    assert second.entities == ()
    assert second.sentence.id == 1


def test_parse_conll_empty_input():
    assert len(parse_conll("")) == 0
    assert len(parse_conll("\n\n\n")) == 0


def test_parse_conll_rejects_bad_lines():
    with pytest.raises(FormatError, match="line 1"):
        parse_conll("one two three\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_conll("ok O\nword Q-PER\n")


def test_parse_conll_whitespace_only_line_ends_a_sentence():
    doc = parse_conll("a B-PER\n \t\u3000\x0b\nb\n\x1c\r\nc I-LOC\n")
    assert [s.sentence.tokens for s in doc] == [("a",), ("b",), ("c",)]
    assert [s.entities for s in doc] == [
        (EntitySpan(0, 1, "PER"),),
        (),
        (EntitySpan(0, 1, "LOC"),),
    ]
    # a one-field line reads as tag O, inside a tagged sentence too
    doc = parse_conll("x B-ORG\ny\nz I-ORG\n")
    assert doc.sentences[0].entities == (EntitySpan(0, 1, "ORG"), EntitySpan(2, 3, "ORG"))


_SEPARATORS = (" ", "  ", "\t", "\x0b", "\x1c", "\u3000", " \t")
_BLANKS = ("", " ", "\t", "\x0b", "\x1c", "\u3000", "\r", " \x0c ")
_TOKENS = ("a", "bc", "O", "B-PER", "Zürich", "\u00ad", "7", "-")
_GOOD_TAGS = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC", "I-ORG")
_BAD_TAGS = ("Q-X", "B-", "I", "o", "B_PER")


def _random_conll_text(rng: Random) -> str:
    """A text of sentence blocks and blank lines, now and then with a bad line."""
    tagged = rng.random() < 0.7
    lines = []
    for _ in range(rng.randint(0, 30)):
        roll = rng.random()
        if roll < 0.15:
            lines.append(rng.choice(_BLANKS))
            continue
        fields = [rng.choice(_TOKENS)]
        if tagged and roll < 0.9:
            bad = rng.random() < 0.01
            fields.append(rng.choice(_BAD_TAGS if bad else _GOOD_TAGS))
        if rng.random() < 0.01:
            fields.append(rng.choice(_GOOD_TAGS))
        line = rng.choice(_SEPARATORS).join(fields)
        if rng.random() < 0.1:
            line = rng.choice(_BLANKS) + line + rng.choice(_BLANKS)
        lines.append(line)
    return "\n".join(lines) + rng.choice(("", "\n", "\n\n"))


def _parse_outcome(parse, text: str):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def test_parse_conll_equals_the_line_parser_on_random_texts():
    rng = Random(20)
    kinds = {"ok": 0, "fields": 0, "tag": 0}
    for _ in range(20_000):
        text = _random_conll_text(rng)
        got = _parse_outcome(parse_conll, text)
        assert got == _parse_outcome(parse_conll_reference, text), repr(text)
        if isinstance(got, CorpusDocument):
            kinds["ok"] += 1
        else:
            assert issubclass(got[0], SpanProjectError)
            kinds["fields" if "fields" in got[1] else "tag"] += 1
    assert min(kinds.values()) > 1_000, kinds


def _random_plain_conll_text(rng: Random) -> str:
    """Single-space ``token tag`` lines and single blank lines, now and then a bad line.

    I- tags come after O and after another label as well as after their own.
    """
    lines = []
    for _ in range(rng.randint(1, 6)):
        if lines:
            lines.append("")
        for _ in range(rng.randint(1, 8)):
            roll = rng.random()
            tag = rng.choice(_GOOD_TAGS)
            if roll < 0.005:
                tag = rng.choice(_BAD_TAGS)
            elif roll < 0.01:
                tag += " " + rng.choice(_GOOD_TAGS)  # a third field
            lines.append(f"{rng.choice(_TOKENS)} {tag}")
    return "\n".join(lines) + rng.choice(("", "\n"))


def test_parse_conll_equals_the_line_parser_on_random_plain_texts(monkeypatch):
    plain_block = formats._plain_block
    took = []

    def counting(*args):
        result = plain_block(*args)
        took.append(result is not None)
        return result

    monkeypatch.setattr(formats, "_plain_block", counting)
    rng = Random(34)
    kinds = {"ok": 0, "fields": 0, "tag": 0}
    for _ in range(5_000):
        text = _random_plain_conll_text(rng)
        got = _parse_outcome(parse_conll, text)
        assert got == _parse_outcome(parse_conll_reference, text), repr(text)
        if isinstance(got, CorpusDocument):
            kinds["ok"] += 1
        else:
            kinds["fields" if "fields" in got[1] else "tag"] += 1
    assert min(kinds.values()) > 100, kinds
    # the blocks that took the loop-free path, and the ones that fell back to rows
    assert took.count(True) > 10_000 and took.count(False) > 100, took.count(True)


def test_conll_round_trip_fixture():
    text = (FIXTURES / "clean_gold.conll").read_text(encoding="utf-8")
    doc = parse_conll(text)
    assert serialize_conll(doc) == text
    assert parse_conll(serialize_conll(doc)) == doc


def test_conll_round_trip_randomized():
    rng = Random(11)
    for _ in range(200):
        sentences = []
        for sid in range(rng.randint(1, 5)):
            n = rng.randint(1, 10)
            ents = random_nonoverlapping_spans(rng, n, rng.randint(0, 3))
            sentences.append(LabeledSentence(Sentence(words(n), id=sid), ents))
        doc = CorpusDocument(tuple(sentences))
        assert parse_conll(serialize_conll(doc)) == doc


@given(st.text(max_size=6))
@example("")
@example("X Y")
@example("PER\u2028")
def test_an_entity_label_is_refused_or_round_trips_through_conll(label):
    try:
        labeled = LabeledSentence(Sentence(("a", "b")), (EntitySpan(0, 1, label),))
    except DataError as exc:
        assert label.split() != [label]
        assert str(exc) == f"invalid label {label!r}: empty or contains whitespace"
        return
    doc = CorpusDocument((labeled,))
    assert parse_conll(serialize_conll(doc)) == doc


def test_corpus_document_requires_consecutive_ids():
    sent = LabeledSentence(Sentence(("a",), id=1))
    with pytest.raises(DataError):
        CorpusDocument((sent,))
    # every element must be a LabeledSentence, checked before its id is read
    first = LabeledSentence(Sentence(("a",)))
    message = "^corpus element at position 1 must be a LabeledSentence, got "
    for bad in (Sentence(("b",), id=1), ("b",), None):
        with pytest.raises(DataError, match=message):
            CorpusDocument((first, bad))


def test_parse_pharaoh():
    align = parse_pharaoh("0-0 3-5 3-5 10-2")
    assert align.pairs == frozenset({(0, 0), (3, 5), (10, 2)})
    assert parse_pharaoh("").pairs == frozenset()
    assert parse_pharaoh("  \t ").pairs == frozenset()


def test_parse_pharaoh_rejects_malformed_tokens():
    # the last has more digits than int() converts from a string
    for bad in ("1:2", "a-2", "1-", "-2", "1-2-3", "1--2", "1-²", "１-２", "1-" + "9" * 5000):
        with pytest.raises(FormatError):
            parse_pharaoh(bad)


_PHARAOH_SEPARATORS = (" ", "  ", "\t", "\x0b", "\x1c", "\xa0", "\u3000", "\u2028", " \t ")
_BAD_PHARAOH = ("1-²", "１-2", "3-１", "-1", "1-", "--", "-", "1--2", "1-2-3", "1:2", "a-2", "1-2x")


def _random_pharaoh_line(rng: Random) -> str:
    """A line of mostly small (so often repeated) pairs, now and then a bad token."""
    tokens = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.015:
            tokens.append(rng.choice(_BAD_PHARAOH))
        elif roll < 0.05:
            huge = rng.randrange(10 ** rng.randint(19, 60))
            tokens.append(f"{huge}-{rng.randrange(40)}")
        elif roll < 0.08:
            tokens.append(f"{rng.randrange(3):0{rng.randint(1, 4)}d}-{rng.randrange(3)}")
        else:
            tokens.append(f"{rng.randrange(12)}-{rng.randrange(12)}")
    line = "".join(rng.choice(_PHARAOH_SEPARATORS) + token for token in tokens)
    return line + rng.choice(("", " ", "\t", "\u3000"))


def test_parse_pharaoh_equals_the_token_loop_on_random_lines():
    rng = Random(16)
    kinds = {"pairs": 0, "empty": 0, "error": 0}
    for _ in range(20_000):
        line = _random_pharaoh_line(rng)
        got = _parse_outcome(parse_pharaoh, line)
        assert got == _parse_outcome(parse_pharaoh_reference, line), repr(line)
        kind = "error" if isinstance(got, tuple) else "pairs" if got.pairs else "empty"
        kinds[kind] += 1
    assert min(kinds.values()) > 1_000, kinds


def test_parse_pharaoh_first_bad_token_in_line_order_raises_every_time():
    line = "0-0 1-² 2-2 --"
    for _ in range(3):
        with pytest.raises(FormatError) as info:
            parse_pharaoh(line)
        assert str(info.value) == (
            "alignment token '1-²' is not of the form <digits>-<digits>"
        )
    # the good tokens before the bad one were cached; the bad one never is
    assert _pharaoh_pair("0-0") == (0, 0)
    for _ in range(2):
        with pytest.raises(FormatError):
            _pharaoh_pair("1-²")


def test_parse_pharaoh_with_more_distinct_tokens_than_the_cache_holds():
    size = _pharaoh_pair.cache_info().maxsize
    tokens = [f"{i}-{i * 7 + 3}" for i in range(size + size // 2)]
    lines = [" ".join(tokens[k : k + 10]) for k in range(0, len(tokens), 10)]
    lines.append("7-0 " + tokens[0] + " ８-1")
    for _ in range(2):
        for line in lines:
            assert _parse_outcome(parse_pharaoh, line) == _parse_outcome(
                parse_pharaoh_reference, line
            ), line
        assert _pharaoh_pair.cache_info().currsize <= size
    assert _parse_outcome(parse_pharaoh, lines[-1]) == (
        FormatError, "alignment token '８-1' is not of the form <digits>-<digits>", None
    )


def _bio_encode_block(labeled: LabeledSentence) -> str:
    tags = bio_encode(list(labeled.entities), len(labeled.sentence))
    return "\n".join(map(" ".join, zip(labeled.sentence.tokens, tags))) + "\n"


def test_conll_block_equals_the_bio_encode_rendering():
    rng = Random(61)
    adjacent = at_end = 0
    for _ in range(3_000):
        n = rng.randint(1, 12)
        entities, pos = [], 0
        while pos < n:
            if rng.random() < 0.6:
                end = rng.randint(pos + 1, min(n, pos + 4))
                entities.append(EntitySpan(pos, end, rng.choice(("PER", "LOC"))))
                pos = end
            else:
                pos += 1
        rng.shuffle(entities)
        labeled = LabeledSentence(Sentence(words(n)), tuple(entities))
        assert conll_block(labeled) == _bio_encode_block(labeled), labeled
        ents = labeled.entities
        adjacent += any(
            a.end == b.start and a.label == b.label for a, b in zip(ents, ents[1:])
        )
        at_end += bool(ents) and ents[-1].end == n
    assert adjacent > 300 and at_end > 300, (adjacent, at_end)
    # adjacent entities of one label start a new B- run each
    labeled = LabeledSentence(
        Sentence(("a", "b", "c", "d")),
        (EntitySpan(2, 4, "LOC"), EntitySpan(0, 1, "LOC"), EntitySpan(1, 2, "LOC")),
    )
    assert conll_block(labeled) == "a B-LOC\nb B-LOC\nc B-LOC\nd I-LOC\n"


def test_pharaoh_round_trip():
    align = AlignmentSet(frozenset({(2, 1), (0, 0), (2, 0)}))
    assert serialize_pharaoh(align) == "0-0 2-0 2-1"
    assert parse_pharaoh(serialize_pharaoh(align)) == align


def test_span_records_round_trip_and_merge():
    text = (
        '{"sentence_id": 0, "spans": [{"start": 0, "end": 2}, {"start": 4, "end": 5, "label": "LOC"}]}\n'
        '{"sentence_id": 2, "spans": []}\n'
        '{"sentence_id": 0, "spans": [{"start": 0, "end": 2}]}\n'
    )
    # many duplicates of a few spans keep first-seen order, across records too
    many = [{"start": k % 7, "end": k % 7 + 1 + k % 3} for k in range(5_000)]
    text += json.dumps({"sentence_id": 3, "spans": many}) + "\n"
    text += json.dumps({"sentence_id": 3, "spans": [{"start": 9, "end": 10}] + many}) + "\n"
    first_seen = list(dict.fromkeys((s["start"], s["end"]) for s in many)) + [(9, 10)]
    records = parse_span_records(text)
    assert records == {
        0: [EntitySpan(0, 2), EntitySpan(4, 5, "LOC")],
        2: [],
        3: [EntitySpan(start, end) for start, end in first_seen],
    }
    assert len(first_seen) == 22
    serialized = serialize_span_records(records)
    assert parse_span_records(serialized) == records


def test_span_records_reject_bad_records():
    cases = [
        "not json",
        "[1, 2]",
        '{"spans": []}',
        '{"sentence_id": -1, "spans": []}',
        '{"sentence_id": true, "spans": []}',
        '{"sentence_id": 0, "spans": 3}',
        '{"sentence_id": 0, "spans": [[0, 2]]}',
        '{"sentence_id": 0, "spans": [{"start": "0", "end": 2}]}',
        '{"sentence_id": 0, "spans": [{"start": false, "end": true}]}',
        '{"sentence_id": 0, "spans": [{"start": 0, "end": 2, "label": 7}]}',
        '{"sentence_id": 0, "spans": [{"start": 3, "end": 3}]}',
        "[" * 100_000,  # nested deeper than json.loads recurses
        '{"sentence_id": ' + "1" * 5000 + ', "spans": []}',  # more digits than int() reads
    ]
    for line in cases:
        with pytest.raises(FormatError, match="line 1"):
            parse_span_records(line + "\n")


def test_a_span_record_error_does_not_echo_a_huge_value():
    spans = [{"start": 0, "end": 1, "label": list(range(20_000))}]
    with pytest.raises(FormatError) as info:
        parse_span_records(json.dumps({"sentence_id": 0, "spans": spans}) + "\n")
    assert str(info.value) == "line 1: span label [0, 1, 2, 3, 4, 5, ...] is not a string"


def test_parse_marked_sentence_worked_example():
    marked = parse_marked_sentence(
        "Die Bundeshauptstadt der [Vereinigten Staaten] ist [Washington]"
    )
    assert marked.tokens == (
        "Die", "Bundeshauptstadt", "der", "Vereinigten", "Staaten", "ist", "Washington",
    )
    assert marked.bracket_spans == (EntitySpan(3, 5), EntitySpan(6, 7))
    assert marked.bracket_text(marked.bracket_spans[0]) == "Vereinigten Staaten"


def test_parse_marked_sentence_detached_brackets():
    marked = parse_marked_sentence("der [ Vereinigten Staaten ] ist")
    assert marked.tokens == ("der", "Vereinigten", "Staaten", "ist")
    assert marked.bracket_spans == (EntitySpan(1, 3),)


def test_parse_marked_sentence_no_markers():
    marked = parse_marked_sentence("plain old sentence")
    assert marked.bracket_spans == ()
    assert marked.tokens == ("plain", "old", "sentence")


def test_parse_marked_sentence_rejects_damage():
    with pytest.raises(FormatError):
        parse_marked_sentence("a [b [c] d]")  # nested
    with pytest.raises(FormatError):
        parse_marked_sentence("a ]b")  # close before open
    with pytest.raises(FormatError):
        parse_marked_sentence("a [b c")  # never closed
    with pytest.raises(FormatError):
        parse_marked_sentence("a [] b")  # encloses nothing


def test_parse_marked_sentence_outcomes_are_pinned():
    """Tokens, spans or error of every string of up to 6 characters over 'ab[] '."""
    digest = hashlib.sha256()
    for length in range(7):
        for chars in product("ab[] ", repeat=length):
            try:
                marked = parse_marked_sentence("".join(chars))
                outcome = (marked.tokens, tuple((s.start, s.end) for s in marked.bracket_spans))
            except (FormatError, DataError) as exc:
                outcome = (type(exc).__name__, str(exc))
            digest.update(repr(outcome).encode() + b"\n")
    assert digest.hexdigest() == (
        "72ca0f299d8df9dcbe6c1ce958733978582038bfcec408ff18e4550c09d4422b"
    )


def test_parse_translations_line():
    pairs = parse_translations_line("LOC\tVereinigte Staaten|||LOC\tWashington\n")
    assert pairs == (("Vereinigte Staaten", "LOC"), ("Washington", "LOC"))
    assert parse_translations_line("") == ()
    assert parse_translations_line("   \n") == ()


def test_parse_translations_line_rejects_bad_entries():
    for bad in ("LOC Washington", "\tWashington", "LOC\t", "LOC\tx|||broken", "MY LAB\ta"):
        with pytest.raises(FormatError):
            parse_translations_line(bad)
