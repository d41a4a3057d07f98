"""Span-level micro precision/recall/F1 with exact-match semantics.

A predicted span counts only if its (start, end, label) triple appears in
the gold sentence verbatim; there is no partial credit. All three ratios
define 0/0 as 0. Scores are exact rationals so a perfect run is exactly 1,
not 0.9999....
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DataError
from .formats import CorpusDocument, render_table


class LabelScores:
    """Counts and derived metrics for one label (or the micro total)."""

    __slots__ = ("tp", "fp", "fn")

    def __init__(self, tp: int = 0, fp: int = 0, fn: int = 0):
        self.tp = tp
        self.fp = fp
        self.fn = fn

    @property
    def precision(self) -> Fraction:
        return Fraction(self.tp, self.tp + self.fp) if self.tp + self.fp else Fraction(0)

    @property
    def recall(self) -> Fraction:
        return Fraction(self.tp, self.tp + self.fn) if self.tp + self.fn else Fraction(0)

    @property
    def f1(self) -> Fraction:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else Fraction(0)


class EvalReport:
    """Micro-total and per-label counts, accumulated by ``evaluate``.

    ``evaluate`` inserts ``per_label`` in sorted label order.
    """

    __slots__ = ("total", "per_label")

    def __init__(
        self, total: LabelScores | None = None, per_label: dict[str, LabelScores] | None = None
    ):
        self.total = LabelScores() if total is None else total
        self.per_label = {} if per_label is None else per_label


def evaluate(pred: CorpusDocument, gold: CorpusDocument) -> EvalReport:
    """Micro-aggregated exact span match between two token-identical corpora."""
    if len(pred) != len(gold):
        raise DataError(
            f"corpus size mismatch: {len(pred)} predicted vs {len(gold)} gold sentences "
            f"(first divergence at sentence {min(len(pred), len(gold))})"
        )
    per_label: dict[str, LabelScores] = {}
    for pred_sent, gold_sent in zip(pred, gold):
        if pred_sent.sentence.tokens != gold_sent.sentence.tokens:
            raise DataError(
                f"tokenization mismatch at sentence {gold_sent.sentence.id}: "
                f"{len(pred_sent.sentence)} vs {len(gold_sent.sentence)} tokens or differing text"
            )
        pred_set = set(pred_sent.entities)
        gold_set = set(gold_sent.entities)
        for e in pred_set | gold_set:
            if e.label is None:
                continue
            scores = per_label.setdefault(e.label, LabelScores())
            if e not in gold_set:
                scores.fp += 1
            elif e in pred_set:
                scores.tp += 1
            else:
                scores.fn += 1
    # labels in sorted order: set iteration order would follow the hash seed
    report = EvalReport(per_label=dict(sorted(per_label.items())))
    for scores in report.per_label.values():
        report.total.tp += scores.tp
        report.total.fp += scores.fp
        report.total.fn += scores.fn
    return report


def _metric_cell(value: Fraction) -> str:
    return f"{value!s} ({float(value):.4f})"


def render_report(report: EvalReport) -> str:
    """Aligned text table: one row per label plus the micro total."""
    header = ["label", "tp", "fp", "fn", "precision", "recall", "f1"]
    rows = [header]
    for label in sorted(report.per_label):
        s = report.per_label[label]
        rows.append(
            [label, str(s.tp), str(s.fp), str(s.fn)]
            + [_metric_cell(m) for m in (s.precision, s.recall, s.f1)]
        )
    t = report.total
    rows.append(
        ["ALL", str(t.tp), str(t.fp), str(t.fn)]
        + [_metric_cell(m) for m in (t.precision, t.recall, t.f1)]
    )
    return render_table(rows)


def report_record(report: EvalReport) -> dict:
    """Machine-readable mirror of the report; fractions rendered as strings."""

    def block(s: LabelScores) -> dict:
        return {
            "tp": s.tp,
            "fp": s.fp,
            "fn": s.fn,
            "precision": str(s.precision),
            "recall": str(s.recall),
            "f1": str(s.f1),
        }

    return {
        "total": block(report.total),
        "per_label": {label: block(s) for label, s in sorted(report.per_label.items())},
    }
