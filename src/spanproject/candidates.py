"""Target-side candidate span generation.

Candidates come from one of two sources: exhaustive n-gram enumeration over
the target sentence, or spans predicted by an external NER model and read
from a span-record file. Either way the candidate spans are unlabeled; the
matching step assigns labels by pairing them with source entities.
"""

from __future__ import annotations

from functools import lru_cache
from operator import lt
from types import MappingProxyType

from .core import EntitySpan, Sentence, _elements, _Value, spans_overlap
from .core import SourceKind  # noqa: F401  (re-exported; core defines it for option parsing)
from .errors import DataError


class CandidateSet(_Value, derived=("closed",)):
    """Unlabeled candidate spans, deduplicated and sorted by (start, end).

    The set depends only on its spans, so one set can serve every sentence
    it fits. ``closed``, derived from the spans and left out of repr, == and
    hash, is None unless the set is closed under sub-spans (every sub-span
    of a candidate is a candidate, as in every n-gram set); then it maps
    each start to the run of spans sharing it, ``first <= t < past``, and
    the span ``[start, start + k)`` is candidate ``first + k - 1``;
    ``build_problem`` prices the frontier through that map. The map is a
    read-only view (``types.MappingProxyType``), so the cached set that
    every n-gram target of one length shares cannot be changed. The set is
    closed exactly when, for each start with a run of k spans, those spans
    end at ``start + 1`` up to ``start + k`` (dropping a candidate's last
    word leaves a candidate) and the run at ``start + 1`` has at least
    k - 1 spans (dropping its first word does too); every sub-span then
    follows by induction.
    """

    __slots__ = ("spans", "closed")
    spans: tuple[EntitySpan, ...]
    closed: MappingProxyType[int, tuple[int, int]] | None

    def __init__(self, spans: tuple[EntitySpan, ...]):
        set_spans, set_closed = self._setters
        spans = _elements(spans, EntitySpan, "candidate")
        # spans strictly increasing by (start, end) are sorted and distinct
        # already, so they skip the hashing and the sort, as n-gram sets do
        keys = [(span.start, span.end) for span in spans]
        if not all(map(lt, keys, keys[1:])):
            spans = tuple(sorted(set(spans), key=EntitySpan.sort_key))
        set_spans(self, spans)
        runs: dict[int, tuple[int, int]] = {}
        start = first = -1
        for t, span in enumerate(spans):
            if span.label is not None:
                raise DataError(f"candidate {span} must not carry a label")
            if span.start != start:
                start, first = span.start, t
            runs[start] = (first, t + 1)
        # the closure rule of the docstring, per start of a run of k spans:
        # its ends rise, so they are start + 1 .. start + k when the last
        # one is; a start with no run after it may hold one span
        for start, (first, past) in runs.items():
            after_first, after_past = runs.get(start + 1, (0, 0))
            if (
                spans[past - 1].end - start != past - first
                or after_past - after_first < past - first - 1
            ):
                set_closed(self, None)
                return
        set_closed(self, MappingProxyType(runs))

    def __len__(self) -> int:
        return len(self.spans)

    def is_disjoint(self) -> bool:
        """True when no two candidate spans overlap.

        Spans are sorted by start, so checking neighbours suffices: if each
        span ends before the next begins, no later span can reach back.
        """
        return all(
            not spans_overlap(a, b) for a, b in zip(self.spans, self.spans[1:])
        )


def ngram_candidates(sentence: Sentence, max_len: int | None = 8) -> CandidateSet:
    """Enumerate every contiguous word span of length 1..max_len.

    ``max_len=None`` means unbounded, which yields all n(n+1)/2 spans of an
    n-word sentence. Sentences of one length share one cached set.
    """
    if max_len is not None and max_len < 1:
        raise DataError(f"max_len must be at least 1, got {max_len}")
    n = len(sentence)
    return _ngram_set(n, n if max_len is None else min(max_len, n))


@lru_cache(maxsize=128)
def _ngram_set(n: int, cap: int) -> CandidateSet:
    """Every span of 1..cap words over n words; the 128 most recent shapes stay cached."""
    return CandidateSet(
        tuple(
            _ngram_span(start, end)
            for start in range(n)
            for end in range(start + 1, min(start + cap, n) + 1)
        )
    )


@lru_cache(maxsize=4096)  # about 1 MB when full
def _ngram_span(start: int, end: int) -> EntitySpan:
    """The unlabeled span [start, end), built and checked once while it stays cached.

    Each n-gram set holds the spans of every shorter sentence's set, so
    sets of many lengths share the 4,096 most recently used spans.
    """
    return EntitySpan(start, end)


def external_candidates(sentence: Sentence, spans: list[EntitySpan]) -> CandidateSet:
    """Ingest externally predicted spans as candidates, discarding their labels.

    The spans must be pairwise disjoint; that premise is what lets the
    matcher take the exact assignment fast path.
    """
    for span in spans:
        if span.end > len(sentence):
            raise DataError(
                f"candidate ({span.start}, {span.end}) exceeds sentence {sentence.id} "
                f"of length {len(sentence)}"
            )
    cands = CandidateSet(tuple(span.with_label(None) for span in spans))
    if not cands.is_disjoint():
        raise DataError(
            f"external candidates for sentence {sentence.id} overlap; "
            "NER-predicted spans are expected to be disjoint"
        )
    return cands
