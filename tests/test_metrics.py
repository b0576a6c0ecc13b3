"""Confusion tallies, PAD rates, identity checks, report text round-trips."""

import numpy as np
import pytest

from morphlens.errors import FormatError, MetricsError
from morphlens.metrics import (
    ConfusionCounts,
    MetricsReport,
    compute_metrics,
    confusion,
    format_report,
    hter_from_rates,
    parse_report,
)


def random_counts(rng, high=50):
    while True:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, high, size=4))
        if tp + tn + fp + fn > 0:
            return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


# confusion


def test_confusion_perfect_split():
    counts = confusion([1, 1, 0, 0], [1, 1, 0, 0])
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == (2, 2, 0, 0)
    assert counts.total == 4


def test_confusion_both_error_kinds():
    counts = confusion([1, 0], [0, 1])
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == (0, 0, 1, 1)


def test_confusion_matches_hand_tally():
    rng = np.random.default_rng(17)
    for _ in range(10):
        preds = [int(v) for v in rng.integers(0, 2, size=25)]
        labels = [int(v) for v in rng.integers(0, 2, size=25)]
        counts = confusion(preds, labels)
        tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
        for p, y in zip(preds, labels):
            key = ("fn" if p == 0 else "tp") if y == 1 else ("tn" if p == 0 else "fp")
            tally[key] += 1
        assert counts == ConfusionCounts(**tally)


def test_confusion_input_validation():
    with pytest.raises(MetricsError):
        confusion([1, 0], [1])
    with pytest.raises(MetricsError):
        confusion([], [])
    with pytest.raises(MetricsError):
        confusion([2, 0], [1, 0])
    with pytest.raises(MetricsError):
        confusion([1, 0], [1, 3])


def test_counts_reject_negative_and_fractional():
    with pytest.raises(MetricsError):
        ConfusionCounts(tp=-1, tn=0, fp=0, fn=0)
    with pytest.raises(MetricsError):
        ConfusionCounts(tp=1.5, tn=0, fp=0, fn=0)


# compute_metrics


def test_metrics_hand_enumerated_table():
    report = compute_metrics(ConfusionCounts(tp=3, tn=4, fp=1, fn=2))
    assert report.accuracy == 0.7
    assert report.precision == 0.75
    assert report.recall == 0.6
    assert report.f1 == pytest.approx(2 / 3, abs=1e-15)
    assert report.apcer == 0.4
    assert report.bpcer == 0.2
    assert report.hter == pytest.approx(0.3, abs=1e-15)
    assert report.undefined == frozenset()


def test_metrics_all_zero_counts_rejected():
    with pytest.raises(MetricsError):
        compute_metrics(ConfusionCounts(tp=0, tn=0, fp=0, fn=0))


def test_hter_published_row_frll():
    # The 0.12095 average sits exactly on the rounding boundary of the
    # published 0.1209, so agreement means within half a unit in the fourth
    # decimal place (plus float slack), not round-then-compare.
    value = hter_from_rates(0.0, 0.2419)
    assert value == pytest.approx(0.12095, abs=1e-15)
    assert abs(value - 0.1209) <= 5.05e-5


def test_hter_published_row_mifs():
    value = hter_from_rates(0.6842, 0.0)
    assert value == pytest.approx(0.3421, abs=1e-15)
    assert abs(value - 0.3421) <= 5.05e-5


def test_hter_published_row_wmca():
    value = hter_from_rates(0.0098, 0.0)
    assert value == pytest.approx(0.0049, abs=1e-15)
    assert abs(value - 0.0049) <= 5.05e-5


def test_perfect_recall_forces_zero_apcer():
    report = compute_metrics(ConfusionCounts(tp=12, tn=30, fp=9, fn=0))
    assert report.recall == 1.0
    assert report.apcer == 0.0


def test_symmetric_counts_equalize_rates():
    report = compute_metrics(ConfusionCounts(tp=6, tn=6, fp=2, fn=2))
    assert report.apcer == report.bpcer == report.hter


def test_metrics_are_scale_free():
    rng = np.random.default_rng(3)
    for _ in range(20):
        counts = random_counts(rng)
        base = compute_metrics(counts)
        for k in (2, 7, 30):
            scaled = compute_metrics(
                ConfusionCounts(tp=counts.tp * k, tn=counts.tn * k, fp=counts.fp * k, fn=counts.fn * k)
            )
            for key in ("accuracy", "precision", "recall", "f1", "apcer", "bpcer", "hter"):
                assert getattr(base, key) == getattr(scaled, key)


def test_defined_metrics_stay_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(200):
        report = compute_metrics(random_counts(rng))
        for key in ("accuracy", "precision", "recall", "f1", "apcer", "bpcer", "hter"):
            value = getattr(report, key)
            if value is not None:
                assert 0.0 <= value <= 1.0


def test_recall_apcer_complement_and_hter_mean():
    rng = np.random.default_rng(5)
    for _ in range(200):
        report = compute_metrics(random_counts(rng))
        if report.recall is not None and report.apcer is not None:
            assert abs(report.recall + report.apcer - 1.0) <= 1e-12
        if report.hter is not None:
            assert report.hter == hter_from_rates(report.apcer, report.bpcer)


# undefined flags


def test_no_attacks_leaves_attack_rates_undefined():
    report = compute_metrics(ConfusionCounts(tp=0, tn=5, fp=3, fn=0))
    assert report.recall is None
    assert report.apcer is None
    assert report.hter is None
    assert report.f1 is None
    assert report.bpcer == 3 / 8
    assert report.undefined == frozenset({"recall", "apcer", "hter", "f1"})


def test_no_bona_fide_leaves_bpcer_undefined():
    report = compute_metrics(ConfusionCounts(tp=4, tn=0, fp=0, fn=1))
    assert report.bpcer is None
    assert report.hter is None
    assert report.apcer == 0.2
    assert "bpcer" in report.undefined


def test_no_positive_predictions_leaves_precision_undefined():
    report = compute_metrics(ConfusionCounts(tp=0, tn=5, fp=0, fn=2))
    assert report.precision is None
    assert report.f1 is None
    assert report.recall == 0.0


def test_zero_precision_and_recall_leave_f1_undefined():
    # p == r == 0 makes the f1 denominator vanish even with both defined.
    report = compute_metrics(ConfusionCounts(tp=0, tn=1, fp=2, fn=3))
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 is None


def test_undefined_is_never_reported_as_zero():
    report = compute_metrics(ConfusionCounts(tp=0, tn=9, fp=1, fn=0))
    assert report.apcer is None
    assert report.apcer != 0.0
    text = format_report(report)
    assert "apcer=undefined" in text
    assert "apcer=0" not in text


# identity_check


def identity_check(report: MetricsReport, tolerance: float = 1e-12) -> bool:
    """Cross-check the report's internal identities where defined:

    recall + apcer == 1, hter == (apcer + bpcer) / 2, f1 == 2pr / (p + r).
    """
    if report.recall is not None and report.apcer is not None:
        if abs(report.recall + report.apcer - 1.0) > tolerance:
            return False
    if report.hter is not None:
        if abs(report.hter - hter_from_rates(report.apcer, report.bpcer)) > tolerance:
            return False
    if report.f1 is not None:
        p, r = report.precision, report.recall
        if abs(report.f1 - 2.0 * p * r / (p + r)) > tolerance:
            return False
    return True


def test_identity_check_accepts_computed_reports():
    rng = np.random.default_rng(6)
    for _ in range(200):
        assert identity_check(compute_metrics(random_counts(rng)))


def test_identity_check_flags_tampered_hter():
    report = compute_metrics(ConfusionCounts(tp=3, tn=4, fp=1, fn=2))
    broken = MetricsReport(
        counts=report.counts,
        accuracy=report.accuracy,
        precision=report.precision,
        recall=report.recall,
        f1=report.f1,
        apcer=report.apcer,
        bpcer=report.bpcer,
        hter=report.hter + 1e-6,
    )
    assert identity_check(report)
    assert not identity_check(broken)
    assert identity_check(broken, tolerance=1e-3)


def test_identity_check_flags_tampered_f1_and_recall():
    report = compute_metrics(ConfusionCounts(tp=3, tn=4, fp=1, fn=2))
    bad_f1 = MetricsReport(**{**report.__dict__, "f1": report.f1 + 1e-6})
    bad_recall = MetricsReport(**{**report.__dict__, "recall": report.recall - 1e-6})
    assert not identity_check(bad_f1)
    assert not identity_check(bad_recall)


# report text


def test_format_parse_round_trip():
    report = compute_metrics(ConfusionCounts(tp=3, tn=4, fp=1, fn=2))
    values = parse_report(format_report(report))
    assert values["tp"] == 3 and values["fn"] == 2
    for key in ("accuracy", "precision", "recall", "f1", "apcer", "bpcer", "hter"):
        assert values[key] == getattr(report, key)


def test_format_parse_round_trip_with_undefined():
    report = compute_metrics(ConfusionCounts(tp=0, tn=5, fp=3, fn=0))
    values = parse_report(format_report(report))
    assert values["apcer"] is None
    assert values["hter"] is None
    assert values["bpcer"] == 0.375


def test_report_is_one_metric_per_line():
    text = format_report(compute_metrics(ConfusionCounts(tp=1, tn=1, fp=0, fn=0)))
    lines = text.strip().split("\n")
    assert lines[0] == "tp=1"
    assert len(lines) == 11
    assert all("=" in line for line in lines)


def test_parse_report_rejects_bad_lines():
    with pytest.raises(FormatError):
        parse_report("accuracy 0.5\n")
    assert parse_report("\naccuracy=0.5\n\n") == {"accuracy": 0.5}
