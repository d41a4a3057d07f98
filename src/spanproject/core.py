"""Value types for word-indexed sentences, entity spans, and word alignments.

All spans are half-open word-index intervals [start, end) over a single
sentence's token list, so ``end - start`` is the span's word count and two
spans that merely touch do not overlap.

The value types of the package (here and in the other modules) share one
contract, kept by the private base class ``_Value``:

* **Fields** are the class's ``__slots__``, in order, less any it names as
  derived. ``__init__`` takes them by position or by name, runs the class's
  checks on its arguments and stores each slot through the class's
  ``_setters``: the slots' own ``__set__``, one per ``__slots__`` name in
  order, which skip the ``__setattr__`` that refuses every assignment.
* **repr** is ``Name(field=value, ...)`` over the fields, e.g.
  ``EntitySpan(start=0, end=2, label='PER')``.
* **== and hash**: two values are equal only when they are of the same class
  and their field tuples are equal; ``hash`` is the hash of the field tuple.
* **Immutability**: assigning or deleting any attribute raises
  ``AttributeError``, and no slot holds a ``dict``, ``list`` or ``set``: a
  derived table (a matching problem's ``frontier`` and ``links``, a
  candidate set's ``closed`` map) is a read-only ``types.MappingProxyType``
  view, stored through one function per class. So a value is safe to share
  across threads and caches.
* **Copying and pickling** rebuild a value from its field tuple through
  ``__init__``.
* **Final**: a value type cannot be subclassed; defining a subclass raises
  ``TypeError``.
* **Inputs**: every sequence field whose elements share one type (a labeled
  sentence's entities, a candidate set's spans, a corpus's sentences, ...)
  goes through one helper, ``_elements``, which makes it a tuple and refuses
  an argument that is not iterable, or an element whose type is not exactly
  the field's, with a ``DataError``. ``Sentence`` tokens, ``AlignmentSet``
  pairs and a matching problem's ``costs`` are checked by their own
  constructors, and the scalar fields one by one; no constructor lets a
  ``TypeError`` or ``AttributeError`` out for a bad argument.
* **Sharing**: values are immutable, so one object can stand for every equal
  value. The parsers and projectors may return one shared ``EntitySpan``
  for equal spans: they build spans through ``_span``, a cached
  constructor that builds and checks each distinct (start, end, label)
  once while it stays cached. ``EntitySpan(...)`` itself always builds a
  new span and checks it.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import attrgetter

from .errors import DataError, FormatError


class MatchMode(Enum):
    """How often each source entity may be matched: at most once, or exactly once.

    It lives here, not in ``matching``, so that reading a run's options never
    imports the matcher.
    """

    AT_MOST_ONE = "atmost"
    REQUIRE_ALL = "all"


class SourceKind(Enum):
    """Where candidate spans come from: n-gram enumeration or an external NER model.

    It lives here, not in ``candidates``, so that reading a run's options never
    imports the candidate generators.
    """

    NGRAM = "ngram"
    EXTERNAL_NER = "ner"


class _Value:
    """Base of the immutable value types; see the module docstring.

    A subclass lists its fields as ``__slots__``. Slots named in the class
    keyword ``derived`` are set by ``__init__`` but left out of repr, == and
    hash.
    """

    __slots__ = ()

    def __init_subclass__(cls, derived: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__bases__ != (_Value,):
            raise TypeError(f"value class {cls.__base__.__qualname__} cannot be subclassed")
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        fields = tuple(name for name in cls.__slots__ if name not in derived)
        get = attrgetter(*fields)  # for a single name it returns the bare value, not a 1-tuple
        cls._fields = fields
        cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

    def __repr__(self) -> str:
        values = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in values)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


def _not_iterable(values, what: str) -> DataError:
    """The error for a sequence field given ``values``, which is not iterable."""
    return DataError(f"{what} sequence must be iterable, got {type(values).__name__}")


def _elements(values, kind: type, what: str) -> tuple:
    """``values`` as a tuple; a ``DataError`` unless each element's type is exactly ``kind``.

    ``what`` names one element in the messages: ``entity at position 2 must
    be an EntitySpan, got tuple``.
    """
    try:
        values = tuple(values)
    except TypeError:
        raise _not_iterable(values, what) from None
    for pos, value in enumerate(values):
        if type(value) is not kind:
            name = kind.__name__
            raise DataError(
                f"{what} at position {pos} must be {'an' if name[0] in 'AEIOU' else 'a'} "
                f"{name}, got {type(value).__name__}"
            )
    return values


class Sentence(_Value):
    """An ordered, non-empty list of word tokens plus a stable id."""

    __slots__ = ("tokens", "id")
    tokens: tuple[str, ...]
    id: int

    def __init__(self, tokens: tuple[str, ...], id: int = 0):
        set_tokens, set_id = self._setters
        try:
            tokens = tuple(tokens)
        except TypeError:
            raise _not_iterable(tokens, "token") from None
        set_tokens(self, tokens)
        set_id(self, id)
        if not tokens:
            raise DataError("sentence must contain at least one token")
        # the join fails only for a token that is not a str, and only then is
        # each token's type looked at, to name the first such token
        try:
            joined = "".join(tokens)
        except TypeError:
            _elements(tokens, str, "token")  # raises: some token is not a str
            raise
        # the tokens are good exactly when none is empty and their
        # concatenation holds no character for which str.isspace() holds;
        # only otherwise is each token split on its own, to name the first bad one
        if not all(tokens) or joined.split() != [joined]:
            for tok in tokens:
                if tok.split() != [tok]:
                    raise DataError(f"invalid token {tok!r}: empty or contains whitespace")
        if type(id) is not int:
            raise DataError(f"sentence id must be an integer, got {type(id).__name__}")
        if id < 0:
            raise DataError(f"sentence id must be non-negative, got {id}")

    def __len__(self) -> int:
        return len(self.tokens)


class EntitySpan(_Value):
    """A labeled half-open word interval; ``label=None`` marks an unlabeled candidate."""

    __slots__ = ("start", "end", "label")
    start: int
    end: int
    label: str | None

    def __init__(self, start: int, end: int, label: str | None = None):
        set_start, set_end, set_label = self._setters
        set_start(self, start)
        set_end(self, end)
        set_label(self, label)
        if type(start) is not int or type(end) is not int:
            raise DataError(
                "invalid span: start and end must be integers, got "
                f"{type(start).__name__} and {type(end).__name__}"
            )
        if not 0 <= start < end:
            raise DataError(f"invalid span ({start}, {end}): need 0 <= start < end")
        if label is not None and not isinstance(label, str):
            from reprlib import repr as short_repr  # a span record's label may be huge

            raise DataError(f"span label {short_repr(label)} is not a string")

    # Candidate sets, span records and evaluation hash spans in bulk, so ==
    # and hash spell out the field tuple: a slot read is cheaper than attrgetter.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.start, self.end, self.label) == (other.start, other.end, other.label)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.start, self.end, self.label))

    def __len__(self) -> int:
        return self.end - self.start

    def with_label(self, label: str | None) -> "EntitySpan":
        if label is None or type(label) is str:
            return _span(self.start, self.end, label)
        return EntitySpan(self.start, self.end, label)  # checks, and may refuse, the label

    def sort_key(self) -> tuple[int, int, str]:
        return (self.start, self.end, self.label or "")


@lru_cache(maxsize=4096, typed=True)  # about 1 MB when full
def _span(start: int, end: int, label: str | None) -> EntitySpan:
    """``EntitySpan(start, end, label)``, built and checked once while it stays cached.

    A corpus repeats few distinct spans (a seed-7 ``heuristic`` bench run
    builds 12,480, of which 364 are distinct), so equal spans share one
    object. ``typed``: keys of equal value but different type (``True`` and
    ``1``) never share an entry. A raised ``DataError`` is never cached, so
    a bad span raises on every call. Callers pass int indices and a ``str``
    or ``None`` label, so the key is hashable.
    """
    return EntitySpan(start, end, label)


def spans_overlap(a: EntitySpan, b: EntitySpan) -> bool:
    """True iff the half-open intervals intersect (touching spans are disjoint)."""
    return a.start < b.end and b.start < a.end


class AlignmentSet(_Value, derived=("_largest",)):
    """A set of (labeled-side index, target index) word alignment pairs.

    ``_largest``, derived from the pairs and left out of repr, == and hash,
    is the largest labeled-side and the largest target index (-1 for no
    pairs), so ``check_bounds`` compares two numbers.
    """

    __slots__ = ("pairs", "_largest")
    pairs: frozenset[tuple[int, int]]
    _largest: tuple[int, int]

    def __init__(self, pairs: frozenset[tuple[int, int]] = frozenset()):
        set_pairs, set_largest = self._setters
        # an element that is not a hashable tuple of two fails the frozenset,
        # the type test or the unpacking; only then is each element looked
        # at on its own
        try:
            pairs = frozenset(pairs)
        except TypeError as err:
            raise _misshapen_pair(pairs, err) from None
        set_pairs(self, pairs)
        largest_i = largest_j = -1
        try:
            for pair in pairs:
                if type(pair) is not tuple:
                    raise ValueError  # caught below: a frozenset, say, unpacks in no fixed order
                i, j = pair
                if type(i) is not int or type(j) is not int:
                    raise DataError(
                        "invalid alignment pair: indices must be integers, got "
                        f"{type(i).__name__} and {type(j).__name__}"
                    )
                if i < 0 or j < 0:
                    raise DataError(f"alignment pair ({i}, {j}) has a negative index")
                if i > largest_i:
                    largest_i = i
                if j > largest_j:
                    largest_j = j
        except ValueError as err:
            raise _misshapen_pair(pairs, err) from None
        set_largest(self, (largest_i, largest_j))

    def __len__(self) -> int:
        return len(self.pairs)

    def check_bounds(self, labeled_len: int, target_len: int) -> None:
        """Raise unless every pair indexes into both sentences.

        The pairs are walked, in set order, only to name the first bad one.
        """
        largest_i, largest_j = self._largest
        if largest_i < labeled_len and largest_j < target_len:
            return
        for i, j in self.pairs:
            if i >= labeled_len or j >= target_len:
                raise DataError(
                    f"alignment pair ({i}, {j}) out of bounds for sentence pair "
                    f"of lengths ({labeled_len}, {target_len})"
                )


def _misshapen_pair(pairs, err: Exception) -> DataError:
    """The error naming the first element of ``pairs`` that is not a hashable 2-tuple.

    An iterator that the failed ``frozenset`` call consumed may no longer
    hold that element; then the error quotes ``err``.
    """
    from reprlib import repr as short_repr  # an element may be huge

    try:
        elements = iter(pairs)
    except TypeError:
        return _not_iterable(pairs, "alignment pair")
    for pair in elements:
        try:
            hash(pair)
        except TypeError:
            break
        if type(pair) is not tuple or len(pair) != 2:
            break
    else:
        return DataError(f"invalid alignment pair: {err}")
    return DataError(
        f"invalid alignment pair {short_repr(pair)}: need a tuple of two integer indices"
    )


@lru_cache(maxsize=1024)
def _check_label(label: str) -> None:
    """Raise unless ``label`` is non-empty and free of whitespace, so a BIO tag can hold it.

    Memoised, as a corpus has few distinct labels: a label that passed is
    not split again, and a raised error is never cached, so a bad label
    raises the same message every time.
    """
    if label.split() != [label]:
        raise DataError(f"invalid label {label!r}: empty or contains whitespace")


class LabeledSentence(_Value):
    """A sentence together with its flat (non-overlapping) labeled entities.

    Entities are normalized to start-index order on construction. A label is
    a non-empty string without whitespace, so that a CoNLL tag can hold it.
    """

    __slots__ = ("sentence", "entities")
    sentence: Sentence
    entities: tuple[EntitySpan, ...]

    def __init__(self, sentence: Sentence, entities: tuple[EntitySpan, ...] = ()):
        set_sentence, set_entities = self._setters
        set_sentence(self, sentence)
        if type(sentence) is not Sentence:
            raise DataError(f"a labeled sentence needs a Sentence, got {type(sentence).__name__}")
        ents = _elements(entities, EntitySpan, "entity")
        # entities that each end at or before the next one's start are in
        # sorted order already and cannot overlap, so they skip the sort and
        # the overlap scan; the parsers yield entities this way
        disjoint_in_order = True
        prev_end = 0
        for ent in ents:
            if ent.start < prev_end:
                disjoint_in_order = False
            prev_end = ent.end
        if not disjoint_in_order:
            ents = tuple(sorted(ents, key=EntitySpan.sort_key))
        set_entities(self, ents)
        length = len(sentence) if ents else 0
        for ent in ents:
            if ent.label is None:
                raise DataError(f"entity {ent} in a labeled sentence must carry a label")
            _check_label(ent.label)
            if ent.end > length:
                raise DataError(
                    f"entity ({ent.start}, {ent.end}) exceeds sentence length "
                    f"{length} (sentence id {sentence.id})"
                )
        if not disjoint_in_order:
            for prev, cur in zip(ents, ents[1:]):
                if spans_overlap(prev, cur):
                    raise DataError(f"entities {prev} and {cur} overlap")


def _entity_links(labeled: LabeledSentence, align: AlignmentSet) -> list[dict[int, int]]:
    """Each entity's alignment pairs counted by target index, in entity order.

    The entities of a labeled sentence are disjoint, so each word has at
    most one owning entity, and one pass over the pairs groups them all.
    Only the labeled side is checked: a labeled-side index past the sentence
    raises a located ``DataError``.
    """
    n = len(labeled.sentence)
    entities = labeled.entities
    links: list[dict[int, int]] = [{} for _ in entities]
    owner: list[dict[int, int] | None] = [None] * n
    for ent, counts in zip(entities, links):
        owner[ent.start : ent.end] = [counts] * (ent.end - ent.start)
    for i, j in align.pairs:
        if i >= n:
            raise DataError(
                f"alignment index {i} out of bounds for labeled sentence "
                f"{labeled.sentence.id} of length {n}"
            )
        counts = owner[i]
        if counts is not None:
            counts[j] = counts.get(j, 0) + 1
    return links


def bio_encode(entities: list[EntitySpan] | tuple[EntitySpan, ...], length: int) -> list[str]:
    """Render non-overlapping entities as a BIO tag list of exactly `length` tags."""
    seen = sorted(entities, key=EntitySpan.sort_key)
    for prev, cur in zip(seen, seen[1:]):
        if spans_overlap(prev, cur):
            raise DataError(f"cannot BIO-encode overlapping entities {prev} and {cur}")
    for ent in seen:
        if ent.label is None:
            raise DataError(f"cannot BIO-encode unlabeled span {ent}")
        _check_label(ent.label)
        if ent.end > length:
            raise DataError(f"entity ({ent.start}, {ent.end}) exceeds tag length {length}")
    return _bio_tags(seen, length)


def _bio_tags(entities: list[EntitySpan] | tuple[EntitySpan, ...], length: int) -> list[str]:
    """BIO tags of labeled, disjoint, in-range entities; nothing is checked here.

    ``bio_encode`` checks its arguments first; a ``LabeledSentence``'s
    entities already passed the same checks in its constructor.
    """
    tags = ["O"] * length
    for ent in entities:
        start, end, label = ent.start, ent.end, ent.label
        tags[start] = f"B-{label}"
        tags[start + 1 : end] = [f"I-{label}"] * (end - start - 1)
    return tags


def parse_bio_tag(tag: str, line: int | None = None) -> tuple[str, str | None]:
    """Split a BIO tag into (prefix, label); raises FormatError (at `line`) otherwise."""
    if tag == "O":
        return "O", None
    # the label is what _check_label accepts: non-empty and free of whitespace
    if len(tag) > 2 and tag[1] == "-" and tag[0] in ("B", "I") and tag.split() == [tag]:
        return tag[0], tag[2:]
    raise FormatError(f"tag {tag!r} does not match the BIO grammar", line=line)


def bio_decode(tags: list[str] | tuple[str, ...]) -> list[EntitySpan]:
    """Decode a BIO tag list to entity spans.

    Decoding is lenient: an I- tag without a matching open span starts a new
    one, which is the common CoNLL evaluator behaviour. The first tag that
    breaks the BIO grammar raises.
    """
    return _bio_spans(tags, parse_bio_tag)


def bio_decode_parsed(parsed: list[tuple[str, str | None]]) -> list[EntitySpan]:
    """``bio_decode`` on tags already split by ``parse_bio_tag``."""
    return _bio_spans(
        ["O" if prefix == "O" else (prefix, label) for prefix, label in parsed], tuple
    )


def _bio_spans(tags, split) -> list[EntitySpan]:
    """The spans of BIO ``tags``: the one decode loop of every BIO caller.

    An ``"O"`` tag is skipped with one comparison, and ``split`` turns each
    other tag into its (prefix, label) pair, in order, so the first bad tag
    raises first. An I- tag continues the open span when it comes right
    after it with the same label; any other tag closes it and opens its own,
    and an O tag closes it by the gap it leaves.
    """
    spans: list[EntitySpan] = []
    start = end = -1  # the open span is [start, end); none while end is -1
    label = None
    for i, tag in enumerate(tags):
        if tag == "O":
            continue
        prefix, tag_label = split(tag)
        if i == end and prefix == "I" and tag_label == label:
            end += 1
            continue
        if end >= 0:
            spans.append(_span(start, end, label))
        start, end, label = i, i + 1, tag_label
    if end >= 0:
        spans.append(_span(start, end, label))
    return spans
