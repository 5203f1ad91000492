"""Acceptance suite: six gated criteria, one printed pass/fail line each.

The synthetic acceptance scene is frozen in conftest.ACCEPT_SPEC; the
criterion-3 thresholds were pre-validated against the convex (fcls) and
grid-search oracles before freezing.
"""

import time

import numpy as np
import pytest

from endnet import (EndNetModel, HyperParams, SpectraMatrix, TrainConfig,
                    dmaxd, evaluate, fcls, forward, forward_batch,
                    spu_abundances, spu_sad, train, vca)
from endnet.gradcheck import run_all
from endnet.net import angle

from conftest import TRAIN_SEED

N_PROPERTY_CASES = 1000


@pytest.fixture
def announce(capsys):
    """Print a criterion verdict that survives pytest's output capture."""
    def _announce(name, ok, detail):
        with capsys.disabled():
            print(f"CRITERION {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return _announce


@pytest.fixture(scope="module")
def trained(noisy_scene):
    """Criterion-3 training run, shared with the sparsity check (criterion 6)."""
    cube, _, _ = noisy_scene
    init = dmaxd(cube, 4)
    t0 = time.perf_counter()
    model, _ = train(cube, init, TrainConfig(iters=20000, seed=TRAIN_SEED))
    return model, init, time.perf_counter() - t0


def test_criterion_1_gradient_fidelity(announce):
    t0 = time.perf_counter()
    results, ok = run_all(trials=50, seed=0, tol=1e-4)
    elapsed = time.perf_counter() - t0
    worst = max(results.values())
    ok = ok and elapsed < 30.0
    announce("1 gradient fidelity", ok,
             f"max rel err {worst:.2e} over {len(results)} layers, {elapsed:.1f}s")
    assert ok


def test_criterion_2_pure_pixel_exactness(noiseless_scene, announce):
    cube, gt_endm, _ = noiseless_scene
    t0 = time.perf_counter()
    worst = 0.0
    for res in (vca(cube, 4, seed=0), dmaxd(cube, 4)):
        report = evaluate(res.endmembers, gt_endm)
        worst = max(worst, max(report.per_endmember_sad))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    announce("2 pure-pixel exactness", ok,
             f"worst matched SAD {worst:.2e} rad, {elapsed:.2f}s")
    assert ok


@pytest.mark.slow
def test_criterion_3_end_to_end_recovery(noisy_scene, trained, announce):
    cube, gt_endm, gt_abund = noisy_scene
    model, _, train_time = trained
    est = SpectraMatrix(model.endmembers())
    amap = spu_abundances(est, cube)
    report = evaluate(est, gt_endm, amap, gt_abund)
    ok = report.avg_sad < 0.05 and report.avg_rmse < 0.08 and train_time < 300.0
    announce("3 end-to-end recovery", ok,
             f"mean SAD {report.avg_sad:.4f} rad, SPU RMSE "
             f"{report.avg_rmse:.4f}, train {train_time:.0f}s")
    assert ok


def _simplex_grid(k, step):
    """All points of the step-resolution lattice on the (k-1)-simplex."""
    m = round(1.0 / step)
    if k == 3:
        i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        keep = (i + j) <= m
        out = np.stack([i[keep], j[keep], m - i[keep] - j[keep]], axis=1)
        return out / m
    raise NotImplementedError


def test_criterion_4_oracle_agreement(announce):
    rng = np.random.default_rng(0)
    # part A: l2-kernel spu vs the convex active-set solution
    worst_l2 = 0.0
    n_per_k = (334, 333, 333)
    for k, reps in zip((3, 4, 5), n_per_k):
        E = rng.uniform(0.05, 1.0, (k, 40))
        for a_true in rng.dirichlet(np.ones(k), size=reps):
            x = a_true @ E
            diff = np.abs(spu_sad(x, E, kernel="l2") - fcls(x, E)).max()
            worst_l2 = max(worst_l2, diff)

    # part B: sad-kernel spu vs exhaustive 1e-3 grid search on K=3
    grid = _simplex_grid(3, 1e-3)
    worst_sad = 0.0
    for _ in range(100):
        E = rng.uniform(0.05, 1.0, (3, 25))
        x = rng.dirichlet(np.ones(3)) @ E + rng.normal(0, 0.01, 25)
        x = np.clip(x, 1e-4, None)
        a = spu_sad(x, E, kernel="sad")
        K_ee = angle(E, E, 1e-7).similarity
        k_ex = angle(E, x[None, :], 1e-7).similarity[:, 0]
        obj = np.einsum("ij,jk,ik->i", grid, K_ee, grid) - 2.0 * grid @ k_ex
        best = grid[int(np.argmin(obj))]
        worst_sad = max(worst_sad, np.abs(a - best).max())

    ok = worst_l2 < 1e-6 and worst_sad < 2e-3
    announce("4 oracle agreement", ok,
             f"l2-vs-fcls {worst_l2:.2e}, sad-vs-grid {worst_sad:.2e}")
    assert ok


def _random_model(rng):
    d = int(rng.integers(5, 21))
    k = int(rng.integers(2, 7))
    model = EndNetModel(
        w_enc=rng.uniform(0.05, 1.0, (k, d)),
        rho=rng.normal(0, 0.5, k),
        w_dec=rng.uniform(0.0, 1.0, (d, k)),
        run_mean=rng.normal(0, 0.5, k),
        run_var=rng.uniform(0.5, 2.0, k))
    return model, d, k


def test_criterion_5_structural_invariants(small_scene, small_init, tmp_path,
                                           announce):
    rng = np.random.default_rng(42)
    failures = []

    # activation-vector invariants on random models and pixels
    for _ in range(N_PROPERTY_CASES):
        model, d, k = _random_model(rng)
        hyper = HyperParams(top_n=min(2, k))
        y = forward(model, rng.uniform(0.0, 1.0, d), hyper).y[0]
        s = y.sum()
        if y.min() < 0.0 or not (s == 0.0 or abs(s - 1.0) <= 1e-6):
            failures.append("y simplex")
            break
        if np.count_nonzero(y) > hyper.top_n:
            failures.append("nnz")
            break

    # similarity range
    for _ in range(N_PROPERTY_CASES):
        x = rng.uniform(0.01, 1.0, int(rng.integers(3, 30)))
        w = rng.uniform(0.01, 1.0, x.size)
        c = angle(x[None, :], w[None, :], 1e-7).similarity[0, 0]
        if not 0.0 <= c <= 1.0:
            failures.append("C range")
            break

    # infer-mode scale invariance
    for _ in range(N_PROPERTY_CASES):
        model, d, k = _random_model(rng)
        hyper = HyperParams(top_n=min(2, k))
        x = rng.uniform(0.01, 1.0, d)
        base = forward(model, x, hyper).y[0]
        if any(np.abs(forward(model, a * x, hyper).y[0] - base).max() > 1e-9
               for a in (0.1, 10.0)):
            failures.append("scale invariance")
            break

    # checkpoint byte-determinism across repeated seeded runs
    cube, _, _ = small_scene
    for seed in (0, 1, 2):
        blobs = []
        for run in range(2):
            model, _ = train(cube, small_init,
                             TrainConfig(iters=200, seed=seed))
            p = tmp_path / f"det_{seed}_{run}.endn"
            model.save(p)
            blobs.append(p.read_bytes())
        if blobs[0] != blobs[1]:
            failures.append("checkpoint determinism")
            break

    ok = not failures
    announce("5 structural invariants", ok,
             f"{N_PROPERTY_CASES} cases per property"
             + ("" if ok else f"; failed: {', '.join(failures)}"))
    assert ok, failures


@pytest.mark.slow
def test_criterion_6_sparsity_pressure(noisy_scene, trained, announce):
    cube, _, _ = noisy_scene
    model_sparse, init, _ = trained

    cfg_dense = TrainConfig(iters=20000, seed=TRAIN_SEED,
                            hyper=HyperParams(lambda2=0.0))
    model_dense, _ = train(cube, init, cfg_dense)

    def mean_z_l1(model, hyper):
        trace = forward_batch(model, cube.data, hyper, mode="infer")
        return float(np.abs(trace.z).sum(axis=1).mean())

    sparse = mean_z_l1(model_sparse, HyperParams())
    dense = mean_z_l1(model_dense, HyperParams(lambda2=0.0))
    ok = sparse <= dense
    announce("6 sparsity pressure", ok,
             f"mean ||z||_1 {sparse:.4f} (lambda2=0.1) vs {dense:.4f} (lambda2=0)")
    assert ok
