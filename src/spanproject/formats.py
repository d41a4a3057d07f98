"""Parsers and serializers for the corpus, alignment and span-record files.

Formats handled here:

* CoNLL sentence files: one ``token tag`` pair per line (tag optional,
  separated by a tab or spaces), blank line between sentences, UTF-8.
* Pharaoh word alignments: one line of ``i-j`` pairs per sentence.
* Span-record files: JSON Lines with ``sentence_id`` and ``spans``; used for
  externally predicted candidate spans, which may overlap between records
  and therefore cannot ride on BIO tags. ``json`` is imported only when one
  is read or written.

The marker-bracketed sentences and translation lines of the back-translation
round trip are parsed in ``roundtrip``.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .core import (
    AlignmentSet,
    EntitySpan,
    LabeledSentence,
    Sentence,
    _bio_tags,
    _elements,
    _Value,
    bio_decode_parsed,
    parse_bio_tag,
)
from .errors import DataError, FormatError


class CorpusDocument(_Value):
    """An ordered corpus of (optionally labeled) sentences with ids 0..n-1."""

    __slots__ = ("sentences",)
    sentences: tuple[LabeledSentence, ...]

    def __init__(self, sentences: tuple[LabeledSentence, ...] = ()):
        (set_sentences,) = self._setters
        sentences = _elements(sentences, LabeledSentence, "corpus element")
        set_sentences(self, sentences)
        for pos, labeled in enumerate(sentences):
            if labeled.sentence.id != pos:
                raise DataError(
                    f"sentence at position {pos} carries id {labeled.sentence.id}; "
                    "corpus ids must be consecutive from 0"
                )

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


# One sentence block: a maximal run of lines that each hold a non-whitespace
# character. Only "\n" ends a line, and re's \S is exactly "not str.isspace()",
# so a line outside every block is one whose split() is empty.
_FIELDS = r"[^\S\n]*\S[^\n]*"
_BLOCK = re.compile(rf"^{_FIELDS}(?:\n{_FIELDS})*", re.MULTILINE)


def parse_conll(text: str) -> CorpusDocument:
    """Parse a CoNLL file: ``token [tag]`` lines with blank-line sentence breaks.

    A line of whitespace only ends a sentence, and a line with one field reads
    as tag ``O``. Each distinct tag goes through ``parse_bio_tag`` once, at
    the first line that holds it.
    """
    return CorpusDocument(tuple(_conll_sentences(text, _BLOCK.finditer(text))))


def _conll_sentences(text: str, blocks, first_id: int = 0) -> list[LabeledSentence]:
    """The sentences of ``blocks``, matches of ``_BLOCK`` in ``text`` in text order.

    Their ids count up from ``first_id``, so a run of a file's blocks parses
    on its own as the sentences it is in the whole file. A format error names
    its line of ``text``; lines are counted only then.
    """
    sentences: list[LabeledSentence] = []
    bio_tags: dict[str, tuple[str, str | None]] = {}
    for sentence_id, match in enumerate(blocks, start=first_id):
        block = match.group()
        fields = block.split()
        if len(fields) == block.count("\n") + 1:
            # each line of a block holds a field, so here each holds just one: no tags
            sentences.append(LabeledSentence(Sentence(tuple(fields), id=sentence_id)))
            continue
        tokens, parsed = [], []
        for row_index, row in enumerate(block.split("\n")):
            cells = row.split()
            if len(cells) > 2:
                raise FormatError(
                    f"expected 'token' or 'token tag', got {len(cells)} fields",
                    line=_line_of(text, match, row_index),
                )
            tag = cells[1] if len(cells) == 2 else "O"
            bio = bio_tags.get(tag)
            if bio is None:
                try:
                    bio = bio_tags[tag] = parse_bio_tag(tag)
                except FormatError as exc:
                    raise FormatError(str(exc), line=_line_of(text, match, row_index)) from None
            tokens.append(cells[0])
            parsed.append(bio)
        sentence = Sentence(tuple(tokens), id=sentence_id)
        sentences.append(LabeledSentence(sentence, tuple(bio_decode_parsed(parsed))))
    return sentences


def _line_of(text: str, block: re.Match, row_index: int) -> int:
    """The line number in ``text`` of row ``row_index`` of a ``_BLOCK`` match."""
    return text.count("\n", 0, block.start()) + 1 + row_index


def conll_block(labeled: LabeledSentence) -> str:
    """One sentence's CoNLL block: a ``token tag`` line per token.

    The entities were sorted and checked when ``labeled`` was built, so they
    go straight to the tag writer that ``bio_encode`` uses after its checks.
    """
    tags = _bio_tags(labeled.entities, len(labeled.sentence))
    return "\n".join(map(" ".join, zip(labeled.sentence.tokens, tags))) + "\n"


def serialize_conll(doc: CorpusDocument) -> str:
    """Inverse of parse_conll: one block per sentence, blank lines between blocks.

    Untagged input comes back with explicit O tags; everything else round
    trips byte for byte.
    """
    return "\n".join(conll_block(labeled) for labeled in doc.sentences)


def parse_pharaoh(line: str) -> AlignmentSet:
    """Parse one Pharaoh alignment line of whitespace-separated ``i-j`` pairs.

    Tokens are parsed in line order, so the first bad one raises.
    """
    return AlignmentSet(frozenset(map(_pharaoh_pair, line.split())))


@lru_cache(maxsize=4096)  # about 0.8 MB when full of short tokens
def _pharaoh_pair(token: str) -> tuple[int, int]:
    """One ``i-j`` token as an ``(i, j)`` pair.

    A corpus repeats few distinct tokens, so the 4,096 most recent stay
    cached. A raised FormatError is never cached: a bad token raises on
    every call.
    """
    left, sep, right = token.partition("-")
    # isascii: str.isdigit alone accepts '²' (int() rejects it) and '１' (read as 1)
    if not sep or not token.isascii() or not left.isdigit() or not right.isdigit():
        raise FormatError(f"alignment token {token!r} is not of the form <digits>-<digits>")
    try:
        return int(left), int(right)
    except ValueError:  # more digits than int() converts from a string
        digits = max(len(left), len(right))
        raise FormatError(f"alignment index of {digits} digits is too long to read") from None


def serialize_pharaoh(align: AlignmentSet) -> str:
    """Render an alignment set as ``i-j`` pairs in ascending (i, j) order."""
    return " ".join(f"{i}-{j}" for i, j in sorted(align.pairs))


def parse_span_records(text: str) -> dict[int, list[EntitySpan]]:
    """Parse a JSON Lines span-record file into sentence_id -> spans.

    Records for the same sentence are concatenated with exact duplicates
    removed; labels are kept as parsed but downstream candidate handling
    discards them.
    """
    import json

    # one insertion-ordered dict per sentence: first-seen order, exact duplicates dropped
    result: dict[int, dict[EntitySpan, None]] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON record: {exc.msg}", line=lineno) from exc
        except (ValueError, RecursionError) as exc:  # an over-long integer, too deep nesting
            raise FormatError(f"invalid JSON record: {exc}", line=lineno) from exc
        if not isinstance(record, dict):
            raise FormatError("span record must be a JSON object", line=lineno)
        sentence_id = record.get("sentence_id")
        raw_spans = record.get("spans")
        if not isinstance(sentence_id, int) or isinstance(sentence_id, bool) or sentence_id < 0:
            raise FormatError("'sentence_id' must be a non-negative integer", line=lineno)
        if not isinstance(raw_spans, list):
            raise FormatError("'spans' must be an array", line=lineno)
        spans = result.setdefault(sentence_id, {})
        for raw in raw_spans:
            if not isinstance(raw, dict):
                raise FormatError("each span must be an object", line=lineno)
            try:
                span = EntitySpan(raw.get("start"), raw.get("end"), raw.get("label"))
            except DataError as exc:
                raise FormatError(str(exc), line=lineno) from exc
            spans[span] = None
    return {sentence_id: list(spans) for sentence_id, spans in result.items()}


def serialize_span_records(spans_by_id: dict[int, list[EntitySpan]]) -> str:
    """Render sentence_id -> spans as JSON Lines, one record per sentence id."""
    import json

    lines = []
    for sentence_id in sorted(spans_by_id):
        spans = []
        for span in spans_by_id[sentence_id]:
            item: dict = {"start": span.start, "end": span.end}
            if span.label is not None:
                item["label"] = span.label
            spans.append(item)
        lines.append(json.dumps({"sentence_id": sentence_id, "spans": spans}))
    return "".join(line + "\n" for line in lines)


def render_table(rows: list[list[str]]) -> str:
    """Plain-text table: left-aligned columns two spaces apart, one line per row."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n"
        for row in rows
    )
