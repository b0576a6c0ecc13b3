"""Binary presentation-attack metrics over a 2x2 confusion table.

Class 1 (morphed) is the positive/attack class. Any metric whose denominator
is zero is flagged undefined (None) rather than coerced to 0 or NaN, and
undefined inputs propagate: no attacks in the evaluation set means no attack
error rate and therefore no half-total error rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .config import format_pairs, parse_pairs
from .errors import FormatError, MetricsError

_COUNT_KEYS = ("tp", "tn", "fp", "fn")
_METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "apcer", "bpcer", "hter")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in _COUNT_KEYS:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise MetricsError(f"{name} must be a non-negative integer, got {value!r}")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    counts: ConfusionCounts
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    apcer: float | None
    bpcer: float | None
    hter: float | None


def confusion(predictions: Sequence[int], labels: Sequence[int]) -> ConfusionCounts:
    """Tally a 2x2 table; positives are label/prediction 1 (morphed)."""
    if len(predictions) != len(labels):
        raise MetricsError(f"{len(predictions)} predictions but {len(labels)} labels")
    if len(predictions) == 0:
        raise MetricsError("cannot tally an empty prediction list")
    tp = tn = fp = fn = 0
    for pred, label in zip(predictions, labels):
        if pred not in (0, 1) or label not in (0, 1):
            raise MetricsError(f"predictions and labels must be 0 or 1, got ({pred!r}, {label!r})")
        if label == 1:
            if pred == 1:
                tp += 1
            else:
                fn += 1
        else:
            if pred == 1:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _ratio(numerator: int, denominator: int) -> float | None:
    return None if denominator == 0 else numerator / denominator


def hter_from_rates(apcer: float, bpcer: float) -> float:
    """Half-total error rate from the two per-class error rates."""
    return (apcer + bpcer) / 2.0


def compute_metrics(counts: ConfusionCounts) -> MetricsReport:
    """All classification and attack-detection rates; an undefined rate is None."""
    if counts.total == 0:
        raise MetricsError("confusion counts are all zero")
    accuracy = (counts.tp + counts.tn) / counts.total
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    recall = _ratio(counts.tp, counts.tp + counts.fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    apcer = _ratio(counts.fn, counts.fn + counts.tp)  # attacks called bona fide
    bpcer = _ratio(counts.fp, counts.tn + counts.fp)  # bona fide called attacks
    hter = None if apcer is None or bpcer is None else hter_from_rates(apcer, bpcer)
    return MetricsReport(
        counts=counts,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        apcer=apcer,
        bpcer=bpcer,
        hter=hter,
    )


def format_report(report: MetricsReport) -> str:
    """Flat metric=value text; undefined metrics print the word undefined."""
    values = {key: str(getattr(report.counts, key)) for key in _COUNT_KEYS}
    for key in _METRIC_KEYS:
        value = getattr(report, key)
        values[key] = "undefined" if value is None else repr(value)
    return format_pairs(values)


def parse_report(text: str) -> dict[str, float | int | None]:
    """Inverse of format_report, for tooling and tests."""
    values: dict[str, float | int | None] = {}
    for key, raw in parse_pairs(text, "report").items():
        try:
            values[key] = None if raw == "undefined" else int(raw) if key in _COUNT_KEYS else float(raw)
        except ValueError:
            raise FormatError(f"bad value for {key} in report: {raw!r}") from None
    return values
