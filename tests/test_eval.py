"""Metrics, bipartite matching, and evaluation reports."""

import itertools

import numpy as np
import pytest

from endnet import (AbundanceMap, SpectraMatrix, evaluate, match_endmembers,
                    rmse_metric, sad_metric)


# --- metrics ----------------------------------------------------------------

def test_sad_metric_examples():
    assert sad_metric([1, 0], [1, 0]) == 0.0
    assert abs(sad_metric([1, 0], [0, 1]) - np.pi / 2) < 1e-12
    assert abs(sad_metric([1, 0], [-1, 0]) - np.pi) < 1e-12
    # scale invariance
    assert sad_metric([1, 2, 3], [10, 20, 30]) < 1e-7


def test_sad_metric_zero_norm():
    with pytest.raises(ValueError):
        sad_metric([0, 0], [1, 0])


def test_rmse_metric_examples():
    assert rmse_metric([1, 2, 3], [1, 2, 3]) == 0.0
    assert abs(rmse_metric([0, 0], [1, 1]) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        rmse_metric([1, 2], [1, 2, 3])


# --- matching ---------------------------------------------------------------

def _spectra(seed, k, d=16):
    rng = np.random.default_rng(seed)
    return SpectraMatrix(rng.uniform(0.05, 1.0, (k, d)))


def test_match_recovers_permutation():
    truth = _spectra(0, 5)
    perm = [3, 0, 4, 1, 2]
    estimated = SpectraMatrix(truth.rows[perm])
    for greedy in (False, True):
        match = match_endmembers(estimated, truth, greedy=greedy)
        assert match == {i: perm[i] for i in range(5)}


def test_match_stable_under_noise():
    rng = np.random.default_rng(1)
    truth = _spectra(2, 4)
    perm = [2, 3, 1, 0]
    estimated = SpectraMatrix(
        np.clip(truth.rows[perm] + 0.01 * rng.normal(size=(4, 16)), 1e-3, None))
    match = match_endmembers(estimated, truth)
    assert match == {i: perm[i] for i in range(4)}


def test_optimal_no_worse_than_greedy():
    rng = np.random.default_rng(3)
    for trial in range(30):
        truth = _spectra(100 + trial, 4, d=6)
        estimated = SpectraMatrix(rng.uniform(0.05, 1.0, (4, 6)))
        def total(match):
            return sum(sad_metric(estimated.rows[i], truth.rows[j])
                       for i, j in match.items())
        assert total(match_endmembers(estimated, truth)) <= \
            total(match_endmembers(estimated, truth, greedy=True)) + 1e-12


def test_optimal_matches_bruteforce():
    rng = np.random.default_rng(4)
    for trial in range(20):
        k = int(rng.integers(2, 6))
        truth = _spectra(200 + trial, k, d=8)
        estimated = SpectraMatrix(rng.uniform(0.05, 1.0, (k, 8)))
        cost = np.array([[sad_metric(estimated.rows[i], truth.rows[j])
                          for j in range(k)] for i in range(k)])
        best = min(np.sum(cost[range(k), p])
                   for p in itertools.permutations(range(k)))
        match = match_endmembers(estimated, truth)
        got = sum(cost[i, j] for i, j in match.items())
        assert abs(got - best) < 1e-12


def test_match_requires_enough_estimates():
    with pytest.raises(ValueError):
        match_endmembers(_spectra(5, 2), _spectra(6, 3))


# --- evaluate / report ------------------------------------------------------

def test_evaluate_consistency():
    truth = _spectra(7, 3)
    perm = [1, 2, 0]
    estimated = SpectraMatrix(truth.rows[perm])
    rng = np.random.default_rng(8)
    gt_ab = AbundanceMap(2, 5, rng.dirichlet(np.ones(3), size=10))
    est_ab = AbundanceMap(2, 5, gt_ab.values[:, perm])
    report = evaluate(estimated, truth, est_ab, gt_ab)
    assert report.avg_sad < 1e-7
    assert report.avg_rmse < 1e-12
    assert report.unmatched_estimates == []
    assert len(report.per_endmember_sad) == 3


def test_evaluate_permutation_invariant_averages():
    rng = np.random.default_rng(9)
    truth = _spectra(10, 4)
    est_rows = np.clip(truth.rows + 0.05 * rng.normal(size=(4, 16)), 1e-3, None)
    a = evaluate(SpectraMatrix(est_rows), truth)
    b = evaluate(SpectraMatrix(est_rows[::-1].copy()), truth)
    assert abs(a.avg_sad - b.avg_sad) < 1e-12


def test_evaluate_extra_estimates_excluded():
    truth = _spectra(11, 3)
    rng = np.random.default_rng(12)
    extra = rng.uniform(0.05, 1.0, (1, 16))
    estimated = SpectraMatrix(np.vstack([truth.rows, extra]))
    report = evaluate(estimated, truth)
    assert len(report.per_endmember_sad) == 3
    assert report.avg_sad < 1e-7
    assert report.unmatched_estimates == [3]
    assert report.to_text().splitlines()[-1] == (
        "unmatched estimates (excluded from averages): [4]")


def test_evaluate_rejects_abundance_maps_of_other_pixel_counts():
    truth = _spectra(7, 3)
    gt_ab = AbundanceMap(2, 5, np.full((10, 3), 1.0 / 3))
    est_ab = AbundanceMap(2, 4, np.full((8, 3), 1.0 / 3))
    with pytest.raises(ValueError, match="^the ground-truth abundance map covers 10 pixels, "
                                         "the estimates 8$"):
        evaluate(truth, truth, est_ab, gt_ab)


def test_evaluate_rejects_an_abundance_map_of_other_estimate_count():
    truth = _spectra(7, 3)
    gt_ab = AbundanceMap(2, 5, np.full((10, 3), 1.0 / 3))
    est_ab = AbundanceMap(2, 5, np.full((10, 2), 0.5))
    with pytest.raises(ValueError, match="^the estimated abundance map has 2 columns "
                                         "for 3 estimates$"):
        evaluate(truth, truth, est_ab, gt_ab)


def test_evaluate_band_mismatch():
    with pytest.raises(ValueError):
        evaluate(_spectra(13, 3, d=10), _spectra(14, 3, d=12))


def test_report_to_text_scaling():
    truth = _spectra(15, 2)
    rng = np.random.default_rng(16)
    est = SpectraMatrix(
        np.clip(truth.rows + 0.1 * rng.normal(size=(2, 16)), 1e-3, None))
    report = evaluate(est, truth)
    text = report.to_text()
    assert "x1e-2" in text
    assert f"{report.avg_sad * 100.0:.2f}" in text


def test_report_write_csv(tmp_path):
    truth = _spectra(17, 3)
    report = evaluate(SpectraMatrix(truth.rows[[2, 0, 1]]), truth)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "estimated,truth,sad,rmse"
    assert len(lines) == 5  # 3 endmembers + header + avg row
    assert lines[-1].startswith("avg,")
