import numpy as np
import pytest

import oracles
from stampseg import metrics


def _rand_pair(rng, max_frames=80, num_classes=5):
    num_frames = int(rng.integers(2, max_frames))
    pred = oracles.random_labels(rng, num_frames, num_classes)
    gt = oracles.random_labels(rng, num_frames, num_classes)
    return pred, gt


# ---------------------------------------------------------------------------
# frame accuracy

def test_accuracy_identical():
    labels = np.array([0, 1, 1, 2])
    assert metrics.frame_accuracy(labels, labels) == 100.0


def test_accuracy_half():
    assert metrics.frame_accuracy(np.array([0, 0, 1, 1]), np.array([0, 0, 0, 0])) == 50.0


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        metrics.frame_accuracy(np.array([0]), np.array([0, 1]))


def test_accuracy_symmetric_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pred, gt = _rand_pair(rng)
        assert metrics.frame_accuracy(pred, gt) == metrics.frame_accuracy(gt, pred)


# ---------------------------------------------------------------------------
# edit score

def test_edit_identical():
    labels = np.array([0, 0, 1, 2, 2])
    assert metrics.edit_score(labels, labels) == 100.0


def test_edit_missing_segment():
    pred = np.array([0, 0, 0, 0])
    gt = np.array([0, 0, 1, 1])
    assert metrics.edit_score(pred, gt) == 50.0


def test_edit_ignores_durations():
    pred = np.array([0] * 9 + [1])
    gt = np.array([0] + [1] * 9)
    assert metrics.edit_score(pred, gt) == 100.0


def test_edit_matches_oracle_random():
    rng = np.random.default_rng(2)
    for _ in range(60):
        pred, gt = _rand_pair(rng)
        assert metrics.edit_score(pred, gt) == pytest.approx(oracles.edit(pred, gt), abs=1e-12)


# ---------------------------------------------------------------------------
# F1@k

def test_f1_identical():
    labels = np.array([0, 0, 1, 1, 2])
    for k in (10, 25, 50):
        assert metrics.f1_at(labels, labels, k) == 100.0


def test_f1_disjoint_classes():
    pred = np.array([0, 0, 0])
    gt = np.array([1, 1, 1])
    assert metrics.f1_at(pred, gt, 10) == 0.0


def test_f1_partial_overlap_thresholds():
    # prediction covers the whole video; truth splits 4 / 6 frames
    pred = np.zeros(10, dtype=int)
    gt = np.array([0] * 4 + [1] * 6)
    assert metrics.f1_at(pred, gt, 10) == pytest.approx(200.0 / 3.0, abs=1e-9)
    assert metrics.f1_at(pred, gt, 25) == pytest.approx(200.0 / 3.0, abs=1e-9)
    assert metrics.f1_at(pred, gt, 50) == 0.0


def test_f1_k_validation():
    labels = np.array([0, 1])
    with pytest.raises(ValueError, match="k must"):
        metrics.f1_at(labels, labels, 0)
    with pytest.raises(ValueError, match="k must"):
        metrics.f1_at(labels, labels, 100)


def test_f1_matches_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(60):
        pred, gt = _rand_pair(rng)
        for k in (10, 25, 50):
            assert metrics.f1_at(pred, gt, k) == pytest.approx(oracles.f1(pred, gt, k), abs=1e-12)


def test_f1_nonincreasing_in_k():
    rng = np.random.default_rng(4)
    for _ in range(30):
        pred, gt = _rand_pair(rng)
        values = [metrics.f1_at(pred, gt, k) for k in (10, 25, 50, 75)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_f1_is_order_sensitive_witness():
    # swapping roles changes precision and recall composition
    pred = np.array([0, 0, 0, 0, 1, 0, 0, 0])
    gt = np.array([0] * 8)
    forward = metrics.f1_at(pred, gt, 10)
    backward = metrics.f1_at(gt, pred, 10)
    assert forward == backward  # same counts here, swapped fp/fn
    tp, fp, fn = metrics.f1_counts(
        metrics.segments_from_labels(pred), metrics.segments_from_labels(gt), 10
    )
    assert (tp, fp, fn) == (1, 2, 0)


def test_label_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pred, gt = _rand_pair(rng, num_classes=4)
        perm = rng.permutation(4)
        assert metrics.frame_accuracy(perm[pred], perm[gt]) == metrics.frame_accuracy(pred, gt)
        assert metrics.edit_score(perm[pred], perm[gt]) == metrics.edit_score(pred, gt)
        for k in (10, 50):
            assert metrics.f1_at(perm[pred], perm[gt], k) == metrics.f1_at(pred, gt, k)


# ---------------------------------------------------------------------------
# report

def test_report_perfect_single_video():
    labels = np.array([0, 0, 1, 1, 2, 2])
    rep = metrics.report([labels], [labels])
    assert rep.line() == "100.0\t100.0\t100.0\t100.0\t100.0"
    # a bare pair of arrays is a corpus of 0-d labels, not one video
    with pytest.raises(ValueError, match="1-D"):
        metrics.report(labels, labels)


def test_report_pools_accuracy_over_frames():
    a_pred = np.array([0, 0, 0, 0])          # 4 correct frames
    a_gt = np.array([0, 0, 0, 0])
    b_pred = np.array([1, 1])                # 0 correct frames
    b_gt = np.array([0, 0])
    rep = metrics.report([a_pred, b_pred], [a_gt, b_gt])
    assert rep.acc == pytest.approx(100.0 * 4 / 6)
    # edit averages per video: 100 and 0
    assert rep.edit == pytest.approx(50.0)


def test_report_pools_f1_counts_corpus_wide():
    rng = np.random.default_rng(6)
    preds, gts = [], []
    for _ in range(6):
        p, g = _rand_pair(rng)
        preds.append(p)
        gts.append(g)
    rep = metrics.report(preds, gts)
    for k, got in ((10, rep.f1_10), (25, rep.f1_25), (50, rep.f1_50)):
        tp = fp = fn = 0
        for p, g in zip(preds, gts):
            a, b, c = oracles.f1_counts(p, g, k)
            tp += a
            fp += b
            fn += c
        if tp == 0:
            want = 0.0
        else:
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            want = 200.0 * precision * recall / (precision + recall)
        assert got == pytest.approx(want, abs=1e-12)
    total = sum(len(g) for g in gts)
    correct = sum(int(np.sum(p == g)) for p, g in zip(preds, gts))
    assert rep.acc == pytest.approx(100.0 * correct / total)
    assert rep.edit == pytest.approx(np.mean([oracles.edit(p, g) for p, g in zip(preds, gts)]))


def test_report_line_format():
    rep = metrics.MetricsReport(acc=91.27, edit=80.04, f1_10=75.55, f1_25=70.0, f1_50=59.99)
    assert rep.line() == "91.3\t80.0\t75.5\t70.0\t60.0"
    assert metrics.MetricsReport.header() == "acc\tedit\tf1_10\tf1_25\tf1_50"


def test_report_rejects_mismatched_lists():
    with pytest.raises(ValueError):
        metrics.report([np.array([0])], [])
    with pytest.raises(ValueError, match="^empty corpus$"):
        metrics.report([], [])
