from random import Random

import pytest

from spanproject import (
    AlignmentSet,
    CorpusDocument,
    DataError,
    EntitySpan,
    FormatError,
    LabeledSentence,
    Sentence,
    parse_conll,
    parse_marked_sentence,
    parse_pharaoh,
    parse_span_records,
    parse_translations_line,
    serialize_conll,
    serialize_pharaoh,
    serialize_span_records,
)
from helpers import FIXTURES, random_nonoverlapping_spans, words


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


def test_corpus_document_requires_consecutive_ids():
    sent = LabeledSentence(Sentence(("a",), id=1))
    with pytest.raises(DataError):
        CorpusDocument((sent,))


def test_parse_pharaoh():
    align = parse_pharaoh("0-0 3-5 3-5 10-2")
    assert align.pairs == frozenset({(0, 0), (3, 5), (10, 2)})
    assert parse_pharaoh("").pairs == frozenset()
    assert parse_pharaoh("  \t ").pairs == frozenset()


def test_parse_pharaoh_rejects_malformed_tokens():
    for bad in ("1:2", "a-2", "1-", "-2", "1-2-3", "1--2", "1-²", "１-２"):
        with pytest.raises(FormatError):
            parse_pharaoh(bad)


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
    records = parse_span_records(text)
    assert records == {
        0: [EntitySpan(0, 2), EntitySpan(4, 5, "LOC")],
        2: [],
    }
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
    ]
    for line in cases:
        with pytest.raises(FormatError, match="line 1"):
            parse_span_records(line + "\n")


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


def test_parse_translations_line():
    pairs = parse_translations_line("LOC\tVereinigte Staaten|||LOC\tWashington\n")
    assert pairs == (("Vereinigte Staaten", "LOC"), ("Washington", "LOC"))
    assert parse_translations_line("") == ()
    assert parse_translations_line("   \n") == ()


def test_parse_translations_line_rejects_bad_entries():
    for bad in ("LOC Washington", "\tWashington", "LOC\t", "LOC\tx|||broken", "MY LAB\ta"):
        with pytest.raises(FormatError):
            parse_translations_line(bad)
