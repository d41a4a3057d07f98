"""Value types for word-indexed sentences, entity spans, and word alignments.

All spans are half-open word-index intervals [start, end) over a single
sentence's token list, so ``end - start`` is the span's word count and two
spans that merely touch do not overlap. Every type here is immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import DataError, FormatError


class MatchMode(Enum):
    """How often each source entity may be matched: at most once, or exactly once.

    It lives here, not in ``matching``, so that reading a run's options never
    imports the matcher.
    """

    AT_MOST_ONE = "atmost"
    REQUIRE_ALL = "all"


@dataclass(frozen=True, slots=True)
class Sentence:
    """An ordered, non-empty list of word tokens plus a stable id."""

    tokens: tuple[str, ...]
    id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise DataError("sentence must contain at least one token")
        for tok in self.tokens:
            # one C-level split per token: it differs from [tok] exactly when
            # tok is empty or holds a character for which str.isspace() holds
            if tok.split() != [tok]:
                raise DataError(f"invalid token {tok!r}: empty or contains whitespace")
        if self.id < 0:
            raise DataError(f"sentence id must be non-negative, got {self.id}")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, slots=True)
class EntitySpan:
    """A labeled half-open word interval; ``label=None`` marks an unlabeled candidate."""

    start: int
    end: int
    label: str | None = None

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise DataError(f"invalid span ({self.start}, {self.end}): need 0 <= start < end")

    def __len__(self) -> int:
        return self.end - self.start

    def with_label(self, label: str | None) -> "EntitySpan":
        return EntitySpan(self.start, self.end, label)

    def sort_key(self) -> tuple[int, int, str]:
        return (self.start, self.end, self.label or "")


def spans_overlap(a: EntitySpan, b: EntitySpan) -> bool:
    """True iff the half-open intervals intersect (touching spans are disjoint)."""
    return a.start < b.end and b.start < a.end


@dataclass(frozen=True, slots=True)
class AlignmentSet:
    """A set of (labeled-side index, target index) word alignment pairs."""

    pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        for i, j in self.pairs:
            if i < 0 or j < 0:
                raise DataError(f"alignment pair ({i}, {j}) has a negative index")

    def __len__(self) -> int:
        return len(self.pairs)

    def check_bounds(self, labeled_len: int, target_len: int) -> None:
        """Raise unless every pair indexes into both sentences."""
        for i, j in self.pairs:
            if i >= labeled_len or j >= target_len:
                raise DataError(
                    f"alignment pair ({i}, {j}) out of bounds for sentence pair "
                    f"of lengths ({labeled_len}, {target_len})"
                )


@dataclass(frozen=True, slots=True)
class LabeledSentence:
    """A sentence together with its flat (non-overlapping) labeled entities.

    Entities are normalized to start-index order on construction.
    """

    sentence: Sentence
    entities: tuple[EntitySpan, ...] = ()

    def __post_init__(self):
        ents = tuple(sorted(self.entities, key=EntitySpan.sort_key))
        object.__setattr__(self, "entities", ents)
        for ent in ents:
            if ent.label is None:
                raise DataError(f"entity {ent} in a labeled sentence must carry a label")
            if ent.end > len(self.sentence):
                raise DataError(
                    f"entity ({ent.start}, {ent.end}) exceeds sentence length "
                    f"{len(self.sentence)} (sentence id {self.sentence.id})"
                )
        for prev, cur in zip(ents, ents[1:]):
            if spans_overlap(prev, cur):
                raise DataError(f"entities {prev} and {cur} overlap")


def bio_encode(entities: list[EntitySpan] | tuple[EntitySpan, ...], length: int) -> list[str]:
    """Render non-overlapping entities as a BIO tag list of exactly `length` tags."""
    tags = ["O"] * length
    seen = sorted(entities, key=EntitySpan.sort_key)
    for prev, cur in zip(seen, seen[1:]):
        if spans_overlap(prev, cur):
            raise DataError(f"cannot BIO-encode overlapping entities {prev} and {cur}")
    for ent in seen:
        if ent.label is None:
            raise DataError(f"cannot BIO-encode unlabeled span {ent}")
        if ent.end > length:
            raise DataError(f"entity ({ent.start}, {ent.end}) exceeds tag length {length}")
        tags[ent.start] = f"B-{ent.label}"
        for i in range(ent.start + 1, ent.end):
            tags[i] = f"I-{ent.label}"
    return tags


def parse_bio_tag(tag: str, line: int | None = None) -> tuple[str, str | None]:
    """Split a BIO tag into (prefix, label); raises FormatError (at `line`) otherwise."""
    if tag == "O":
        return "O", None
    if len(tag) > 2 and tag[1] == "-" and tag[0] in ("B", "I"):
        return tag[0], tag[2:]
    raise FormatError(f"tag {tag!r} does not match the BIO grammar", line=line)


def bio_decode(tags: list[str] | tuple[str, ...]) -> list[EntitySpan]:
    """Decode a BIO tag list to entity spans.

    Decoding is lenient: an I- tag without a matching open span starts a new
    one, which is the common CoNLL evaluator behaviour.
    """
    return bio_decode_parsed([parse_bio_tag(tag) for tag in tags])


def bio_decode_parsed(parsed: list[tuple[str, str | None]]) -> list[EntitySpan]:
    """``bio_decode`` on tags already split by ``parse_bio_tag``."""
    spans: list[EntitySpan] = []
    open_start: int | None = None
    open_label: str | None = None

    def close(upto: int) -> None:
        nonlocal open_start, open_label
        if open_start is not None:
            spans.append(EntitySpan(open_start, upto, open_label))
            open_start, open_label = None, None

    for i, (prefix, label) in enumerate(parsed):
        if prefix == "O":
            close(i)
        elif prefix == "B":
            close(i)
            open_start, open_label = i, label
        else:  # "I"
            if open_start is None or open_label != label:
                close(i)
                open_start, open_label = i, label
    close(len(parsed))
    return spans
