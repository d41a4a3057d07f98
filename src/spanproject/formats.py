"""Parsers and serializers for every on-disk format.

Formats handled here:

* CoNLL sentence files: one ``token tag`` pair per line (tag optional,
  separated by a tab or spaces), blank line between sentences, UTF-8.
* Pharaoh word alignments: one line of ``i-j`` pairs per sentence.
* Span-record files: JSON Lines with ``sentence_id`` and ``spans``; used for
  externally predicted candidate spans, which may overlap between records
  and therefore cannot ride on BIO tags.
* Marker-bracketed sentences: square brackets around entity word ranges,
  with a companion per-line translations file (``label<TAB>text`` entries
  joined by ``|||``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import (
    AlignmentSet,
    EntitySpan,
    LabeledSentence,
    Sentence,
    bio_decode,
    bio_encode,
    parse_bio_tag,
    spans_overlap,
)
from .errors import DataError, FormatError


@dataclass(frozen=True, slots=True)
class CorpusDocument:
    """An ordered corpus of (optionally labeled) sentences with ids 0..n-1."""

    sentences: tuple[LabeledSentence, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        for pos, labeled in enumerate(self.sentences):
            if labeled.sentence.id != pos:
                raise DataError(
                    f"sentence at position {pos} carries id {labeled.sentence.id}; "
                    "corpus ids must be consecutive from 0"
                )

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


@dataclass(frozen=True, slots=True)
class MarkedSentence:
    """A bracket-marked sentence with markers stripped.

    ``bracket_spans`` are the word ranges that were enclosed in square
    brackets, unlabeled until translations are matched against them.
    """

    tokens: tuple[str, ...]
    bracket_spans: tuple[EntitySpan, ...] = ()
    entity_translations: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "bracket_spans", tuple(self.bracket_spans))
        object.__setattr__(self, "entity_translations", tuple(self.entity_translations))
        ordered = sorted(self.bracket_spans, key=EntitySpan.sort_key)
        for prev, cur in zip(ordered, ordered[1:]):
            if spans_overlap(prev, cur):
                raise DataError(f"bracket spans {prev} and {cur} overlap")
        for span in self.bracket_spans:
            if span.end > len(self.tokens):
                raise DataError(f"bracket span {span} exceeds sentence length {len(self.tokens)}")

    def bracket_text(self, span: EntitySpan) -> str:
        return " ".join(self.tokens[span.start : span.end])


def parse_conll(text: str) -> CorpusDocument:
    """Parse a CoNLL file: ``token [tag]`` lines with blank-line sentence breaks."""
    sentences: list[LabeledSentence] = []
    tokens: list[str] = []
    tags: list[str] = []

    def flush() -> None:
        if not tokens:
            return
        sentence = Sentence(tuple(tokens), id=len(sentences))
        entities = tuple(bio_decode(tags))
        sentences.append(LabeledSentence(sentence, entities))
        tokens.clear()
        tags.clear()

    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            flush()
            continue
        fields = line.split()
        if len(fields) > 2:
            raise FormatError(
                f"expected 'token' or 'token tag', got {len(fields)} fields", line=lineno
            )
        token = fields[0]
        tag = fields[1] if len(fields) == 2 else "O"
        parse_bio_tag(tag, line=lineno)
        tokens.append(token)
        tags.append(tag)
    flush()
    return CorpusDocument(tuple(sentences))


def serialize_conll(doc: CorpusDocument) -> str:
    """Inverse of parse_conll: one block per sentence, blank lines between blocks.

    Untagged input comes back with explicit O tags; everything else round
    trips byte for byte.
    """
    blocks = []
    for labeled in doc.sentences:
        tags = bio_encode(labeled.entities, len(labeled.sentence))
        blocks.append(
            "".join(f"{token} {tag}\n" for token, tag in zip(labeled.sentence.tokens, tags))
        )
    return "\n".join(blocks)


def parse_pharaoh(line: str) -> AlignmentSet:
    """Parse one Pharaoh alignment line of whitespace-separated ``i-j`` pairs."""
    pairs: set[tuple[int, int]] = set()
    for token in line.split():
        left, sep, right = token.partition("-")
        if not sep or not left.isdigit() or not right.isdigit():
            raise FormatError(f"alignment token {token!r} is not of the form <digits>-<digits>")
        pairs.add((int(left), int(right)))
    return AlignmentSet(frozenset(pairs))


def serialize_pharaoh(align: AlignmentSet) -> str:
    """Render an alignment set as ``i-j`` pairs in ascending (i, j) order."""
    return " ".join(f"{i}-{j}" for i, j in sorted(align.pairs))


def parse_span_records(text: str) -> dict[int, list[EntitySpan]]:
    """Parse a JSON Lines span-record file into sentence_id -> spans.

    Records for the same sentence are concatenated with exact duplicates
    removed; labels are kept as parsed but downstream candidate handling
    discards them.
    """
    result: dict[int, list[EntitySpan]] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON record: {exc.msg}", line=lineno) from exc
        if not isinstance(record, dict):
            raise FormatError("span record must be a JSON object", line=lineno)
        sentence_id = record.get("sentence_id")
        raw_spans = record.get("spans")
        if not isinstance(sentence_id, int) or isinstance(sentence_id, bool) or sentence_id < 0:
            raise FormatError("'sentence_id' must be a non-negative integer", line=lineno)
        if not isinstance(raw_spans, list):
            raise FormatError("'spans' must be an array", line=lineno)
        spans = result.setdefault(sentence_id, [])
        for raw in raw_spans:
            if not isinstance(raw, dict):
                raise FormatError("each span must be an object", line=lineno)
            start, end = raw.get("start"), raw.get("end")
            label = raw.get("label")
            if any(not isinstance(v, int) or isinstance(v, bool) for v in (start, end)):
                raise FormatError("span 'start' and 'end' must be integers", line=lineno)
            if label is not None and not isinstance(label, str):
                raise FormatError("span 'label' must be a string when present", line=lineno)
            try:
                span = EntitySpan(start, end, label)
            except DataError as exc:
                raise FormatError(str(exc), line=lineno) from exc
            if span not in spans:
                spans.append(span)
    return result


def serialize_span_records(spans_by_id: dict[int, list[EntitySpan]]) -> str:
    """Render sentence_id -> spans as JSON Lines, one record per sentence id."""
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


def parse_marked_sentence(
    raw: str, entity_translations: tuple[tuple[str, str], ...] = ()
) -> MarkedSentence:
    """Strip square-bracket markers from a sentence and record the marked ranges.

    Tokens are the whitespace tokenization of the input with all bracket
    characters removed; a bracket attached to a word binds to that word.
    Brackets must be balanced and not nested.
    """
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []
    depth = 0
    open_start = -1

    for raw_token in raw.split():
        core_before = 0  # non-bracket chars seen so far in this raw token
        core_after = sum(1 for ch in raw_token if ch not in "[]")
        for ch in raw_token:
            if ch == "[":
                if depth:
                    raise FormatError(f"nested '[' in {raw!r}")
                depth = 1
                # span starts at this token if it still has word chars, else at the next
                if core_after > 0:
                    open_start = len(tokens)
                else:
                    open_start = len(tokens) + (1 if core_before else 0)
            elif ch == "]":
                if not depth:
                    raise FormatError(f"unbalanced ']' in {raw!r}")
                depth = 0
                end = len(tokens) + (1 if core_before else 0)
                if end <= open_start:
                    raise FormatError(f"marker pair encloses no words in {raw!r}")
                spans.append((open_start, end))
            else:
                core_before += 1
                core_after -= 1
        word = raw_token.replace("[", "").replace("]", "")
        if word:
            tokens.append(word)
    if depth:
        raise FormatError(f"unbalanced '[' in {raw!r}")
    bracket_spans = tuple(EntitySpan(s, e) for s, e in spans)
    return MarkedSentence(tuple(tokens), bracket_spans, tuple(entity_translations))


def parse_translations_line(line: str) -> tuple[tuple[str, str], ...]:
    """Parse one companion-translations line into (text, label) pairs.

    Entries are ``label<TAB>text`` joined by ``|||``; an empty line means
    the sentence carries no entity translations.
    """
    line = line.rstrip("\n")
    if not line.strip():
        return ()
    pairs: list[tuple[str, str]] = []
    for entry in line.split("|||"):
        label, sep, text = entry.partition("\t")
        label, text = label.strip(), text.strip()
        if not sep or not label or not text:
            raise FormatError(f"translation entry {entry!r} is not 'label<TAB>text'")
        if any(ch.isspace() for ch in label):
            raise FormatError(f"label {label!r} contains whitespace, which BIO tags cannot hold")
        pairs.append((text, label))
    return tuple(pairs)


def render_table(rows: list[list[str]]) -> str:
    """Plain-text table: left-aligned columns two spaces apart, one line per row."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n"
        for row in rows
    )
