"""Back-translation round trip: recover entity labels from bracket markers.

A labeled sentence translated back into the target language arrives with
square brackets around its entities, plus a companion line of per-entity
translations (``label<TAB>text`` entries joined by ``|||``). Each bracket
span gets the label of the translation its text matches best under a
case-folded normalized edit similarity; the resulting labeled sentence then
projects like any other (``--direction tgt2tgt``).

Only round-trip runs import this module.
"""

from __future__ import annotations

from fractions import Fraction

from .core import EntitySpan, LabeledSentence, Sentence, _Value, spans_overlap
from .errors import DataError, FormatError

DEFAULT_MIN_SIMILARITY = Fraction(1, 2)


class MarkedSentence(_Value):
    """A bracket-marked sentence with markers stripped.

    ``bracket_spans`` are the word ranges that were enclosed in square
    brackets, unlabeled until translations are matched against them.
    """

    __slots__ = ("tokens", "bracket_spans", "entity_translations")
    tokens: tuple[str, ...]
    bracket_spans: tuple[EntitySpan, ...]
    entity_translations: tuple[tuple[str, str], ...]

    def __init__(
        self,
        tokens: tuple[str, ...],
        bracket_spans: tuple[EntitySpan, ...] = (),
        entity_translations: tuple[tuple[str, str], ...] = (),
    ):
        object.__setattr__(self, "tokens", tuple(tokens))
        object.__setattr__(self, "bracket_spans", tuple(bracket_spans))
        object.__setattr__(self, "entity_translations", tuple(entity_translations))
        ordered = sorted(self.bracket_spans, key=EntitySpan.sort_key)
        for prev, cur in zip(ordered, ordered[1:]):
            if spans_overlap(prev, cur):
                raise DataError(f"bracket spans {prev} and {cur} overlap")
        for span in self.bracket_spans:
            if span.end > len(self.tokens):
                raise DataError(f"bracket span {span} exceeds sentence length {len(self.tokens)}")

    def bracket_text(self, span: EntitySpan) -> str:
        return " ".join(self.tokens[span.start : span.end])


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


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, two-row DP."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ch_a != ch_b),
                )
            )
        previous = current
    return previous[-1]


def fuzzy_similarity(a: str, b: str) -> Fraction:
    """Normalized case-folded edit similarity: 1 - dist / max(len).

    Equals 1 exactly when the case-folded strings match; two empty strings
    count as identical.
    """
    fa, fb = a.casefold(), b.casefold()
    longest = max(len(fa), len(fb))
    if longest == 0:
        return Fraction(1)
    return 1 - Fraction(edit_distance(fa, fb), longest)


def assign_marker_labels(
    marked: MarkedSentence,
    min_similarity: Fraction = DEFAULT_MIN_SIMILARITY,
    sentence_id: int = 0,
) -> LabeledSentence:
    """Label bracket spans by fuzzy-matching their text against translations.

    Pairs are consumed greedily by descending similarity, each translation
    and each bracket used at most once; anything scoring below
    min_similarity stays unlabeled and is dropped.
    """
    scored = []
    for b, span in enumerate(marked.bracket_spans):
        text = marked.bracket_text(span)
        for k, (translation, _) in enumerate(marked.entity_translations):
            similarity = fuzzy_similarity(text, translation)
            if similarity >= min_similarity:
                scored.append((-similarity, b, k))
    scored.sort()
    used_brackets: set[int] = set()
    used_translations: set[int] = set()
    entities = []
    for neg_similarity, b, k in scored:
        if b in used_brackets or k in used_translations:
            continue
        used_brackets.add(b)
        used_translations.add(k)
        label = marked.entity_translations[k][1]
        entities.append(marked.bracket_spans[b].with_label(label))
    sentence = Sentence(marked.tokens, id=sentence_id)
    return LabeledSentence(sentence, tuple(entities))
