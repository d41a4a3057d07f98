"""Target-side candidate span generation.

Candidates come from one of two sources: exhaustive n-gram enumeration over
the target sentence, or spans predicted by an external NER model and read
from a span-record file. Either way the candidate spans are unlabeled; the
matching step assigns labels by pairing them with source entities.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache

from .core import EntitySpan, Sentence, _Value, spans_overlap
from .core import SourceKind  # noqa: F401  (re-exported; core defines it for option parsing)
from .errors import DataError


class CandidateSet(_Value, derived=("ends", "runs", "closed")):
    """Unlabeled candidate spans, deduplicated and sorted by (start, end).

    The set depends only on its spans, so one set can serve every sentence
    it fits. ``ends``, ``runs`` and ``closed`` are the layout the cost
    kernel walks, derived from the spans and left out of repr, == and hash:
    ``ends[t]`` is span t's end, and ``runs`` holds one ``(start, first,
    past)`` per distinct start, the spans ``first <= t < past`` sharing it,
    their ends rising. ``closed`` is None unless the set is closed under
    sub-spans (every sub-span of a candidate is a candidate, as in every
    n-gram set); then it maps each start to its run's ``(first, past)``,
    and the span ``[start, start + k)`` is candidate ``first + k - 1``.
    """

    __slots__ = ("spans", "ends", "runs", "closed")
    spans: tuple[EntitySpan, ...]
    ends: tuple[int, ...]
    runs: tuple[tuple[int, int, int], ...]
    closed: dict[int, tuple[int, int]] | None

    def __init__(self, spans: tuple[EntitySpan, ...]):
        set_spans, set_ends, set_runs, set_closed = self._setters
        spans = tuple(sorted(set(spans), key=EntitySpan.sort_key))
        set_spans(self, spans)
        for span in spans:
            if span.label is not None:
                raise DataError(f"candidate {span} must not carry a label")
        starts = [span.start for span in spans]
        ends = tuple(span.end for span in spans)
        runs = tuple(
            (start, bisect_left(starts, start), bisect_right(starts, start))
            for start in dict.fromkeys(starts)
        )
        set_ends(self, ends)
        set_runs(self, runs)
        set_closed(self, _closed_runs(ends, runs))

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


def _closed_runs(
    ends: tuple[int, ...], runs: tuple[tuple[int, int, int], ...]
) -> dict[int, tuple[int, int]] | None:
    """``CandidateSet.closed`` from the set's layout, in one pass over its runs.

    The set is closed under sub-spans exactly when each run's ends are
    contiguous, ``start + 1`` up to ``start + (past - first)``, and a run of
    k >= 2 spans is followed by a run at ``start + 1`` of at least k - 1
    spans: then dropping the last word of a candidate stays in its run, and
    dropping the first lands in the next run, so every sub-span follows by
    induction.
    """
    for k, (start, first, past) in enumerate(runs):
        length = past - first
        if ends[past - 1] - start != length:
            return None
        if length > 1:
            if k + 1 == len(runs):
                return None
            after, after_first, after_past = runs[k + 1]
            if after != start + 1 or after_past - after_first < length - 1:
                return None
    return {start: (first, past) for start, first, past in runs}


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
            EntitySpan(start, end)
            for start in range(n)
            for end in range(start + 1, min(start + cap, n) + 1)
        )
    )


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
