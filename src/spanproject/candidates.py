"""Target-side candidate span generation.

Candidates come from one of two sources: exhaustive n-gram enumeration over
the target sentence, or spans predicted by an external NER model and read
from a span-record file. Either way the candidate spans are unlabeled; the
matching step assigns labels by pairing them with source entities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .core import EntitySpan, Sentence, spans_overlap
from .errors import DataError


class SourceKind(Enum):
    NGRAM = "ngram"
    EXTERNAL_NER = "ner"


@dataclass(frozen=True, slots=True)
class CandidateSet:
    """Unlabeled candidate spans for one target sentence.

    Spans are deduplicated and kept sorted by (start, end). External NER
    candidates must be pairwise non-overlapping; that premise is what lets
    the matcher take the exact assignment fast path.
    """

    sentence_id: int
    spans: tuple[EntitySpan, ...]
    source_kind: SourceKind

    def __post_init__(self):
        spans = tuple(sorted(set(self.spans), key=EntitySpan.sort_key))
        object.__setattr__(self, "spans", spans)
        if self.sentence_id < 0:
            raise DataError(f"sentence id must be non-negative, got {self.sentence_id}")
        for span in spans:
            if span.label is not None:
                raise DataError(f"candidate {span} must not carry a label")
        if self.source_kind is SourceKind.EXTERNAL_NER and not self.is_disjoint():
            raise DataError(
                f"external candidates for sentence {self.sentence_id} overlap; "
                "NER-predicted spans are expected to be disjoint"
            )

    @classmethod
    def _trusted(
        cls, sentence_id: int, spans: tuple[EntitySpan, ...], source_kind: SourceKind
    ) -> "CandidateSet":
        """Wrap spans already distinct, unlabeled and in (start, end) order.

        Skips ``__post_init__``; only callers that produce such spans
        themselves, with a sentence id a ``Sentence`` has checked, use it.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "sentence_id", sentence_id)
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "source_kind", source_kind)
        return self

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
    n-word sentence. Sentences of one length share one cached, immutable
    span tuple, wrapped without re-checking.
    """
    if max_len is not None and max_len < 1:
        raise DataError(f"max_len must be at least 1, got {max_len}")
    n = len(sentence)
    cap = n if max_len is None else min(max_len, n)
    return CandidateSet._trusted(sentence.id, _ngram_spans(n, cap), SourceKind.NGRAM)


@lru_cache(maxsize=128)
def _ngram_spans(n: int, cap: int) -> tuple[EntitySpan, ...]:
    """Every span of 1..cap words over n words, distinct and in (start, end) order.

    The spans depend only on (n, cap), so sentences of one length share one
    immutable tuple; the cache keeps the 128 most recent shapes.
    """
    return tuple(
        EntitySpan(start, end)
        for start in range(n)
        for end in range(start + 1, min(start + cap, n) + 1)
    )


def external_candidates(sentence: Sentence, spans: list[EntitySpan]) -> CandidateSet:
    """Ingest externally predicted spans as candidates, discarding their labels."""
    stripped = []
    for span in spans:
        if span.end > len(sentence):
            raise DataError(
                f"candidate ({span.start}, {span.end}) exceeds sentence {sentence.id} "
                f"of length {len(sentence)}"
            )
        stripped.append(span.with_label(None))
    return CandidateSet(sentence.id, tuple(stripped), SourceKind.EXTERNAL_NER)
