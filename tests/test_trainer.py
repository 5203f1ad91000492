"""Corruption, Adam, and the deterministic training loop."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from endnet import (EndNetModel, HyperParams, TrainConfig, adam_step, corrupt, net,
                    train, trainer)
from endnet.errors import NumericalDivergence
from endnet.trainer import AdamState


# --- corruption -------------------------------------------------------------

def _assert_noop_draws_nothing(mask_frac, sigma, seed):
    # one spectrum and a batch: an unchanged copy, and no draw from the rng
    rng = np.random.default_rng(seed)
    for shape in [(50,), (5, 50)]:
        x = rng.random(shape)
        state = rng.bit_generator.state
        out = corrupt(x, mask_frac, sigma, rng)
        assert rng.bit_generator.state == state
        assert out.shape == shape and out is not x
        np.testing.assert_array_equal(out, x)


def test_corrupt_noop_when_frac_zero():
    _assert_noop_draws_nothing(0.0, 0.3, 0)
    _assert_noop_draws_nothing(0.9 / 50, 0.3, 0)  # floor(mask_frac * D) = 0


def test_corrupt_noop_when_sigma_zero():
    _assert_noop_draws_nothing(0.4, 0.0, 1)


def test_corrupt_bounded_band_count():
    rng = np.random.default_rng(2)
    x = rng.random(100)
    ref = x.copy()
    for _ in range(200):
        x_tilde = corrupt(x, 0.4, 0.5, rng)
        assert (x_tilde != ref).sum() <= 40
    # the input itself is untouched
    np.testing.assert_array_equal(x, ref)


def test_corrupt_leaves_input_alone():
    rng = np.random.default_rng(3)
    x = rng.random(30)
    ref = x.copy()
    corrupt(x, 1.0, 1.0, rng)
    np.testing.assert_array_equal(x, ref)


# The statistical tests below are seeded, so each gives one fixed verdict; a
# fair draw would fail the chi-square test at P_MIN once in a thousand seeds.
P_MIN = 1e-3
N_ROWS, N_BANDS, MASK_FRAC, SIGMA = 21000, 50, 0.4, 0.5
MAX_M = int(np.floor(MASK_FRAC * N_BANDS))


def _corrupted_batch(seed):
    X = np.random.default_rng(100 + seed).uniform(0.1, 1.0, (N_ROWS, N_BANDS))
    ref = X.copy()
    out = corrupt(X, MASK_FRAC, SIGMA, np.random.default_rng(seed))
    np.testing.assert_array_equal(X, ref)
    return X, out


def test_corrupt_batch_band_count_uniform():
    X, out = _corrupted_batch(0)
    counts = np.bincount((out != X).sum(axis=1), minlength=MAX_M + 1)
    assert counts.size == MAX_M + 1
    assert chisquare(counts).pvalue > P_MIN


def test_corrupt_batch_hits_exactly_its_m_distinct_bands():
    seed = 1
    X, out = _corrupted_batch(seed)
    # each row's band count is the first draw of the stream
    m = np.random.default_rng(seed).integers(0, MAX_M + 1, size=N_ROWS)
    changed = out != X
    np.testing.assert_array_equal(changed.sum(axis=1), m)
    assert chisquare(changed.sum(axis=0)).pvalue > P_MIN
    noise = (out - X)[changed]
    assert abs(noise.mean()) < 0.01 and abs(noise.std() / SIGMA - 1.0) < 0.01


def test_corrupt_keeps_the_input_shape():
    rng = np.random.default_rng(4)
    assert corrupt(np.ones(N_BANDS), 1.0, 1.0, rng).shape == (N_BANDS,)
    assert corrupt(np.ones((3, N_BANDS)), 1.0, 1.0, rng).shape == (3, N_BANDS)
    # mask_frac = 1 may take every band of a row
    out = corrupt(np.zeros((2000, 4)), 1.0, 1.0, rng)
    assert (out != 0.0).all(axis=1).any()


# --- noise scale ------------------------------------------------------------

LEAF = trainer._STD_LEAF


@pytest.mark.parametrize("shape", [
    (1, 1), (3, 5), (7, 13), (LEAF - 1, 1), (LEAF, 1), (LEAF + 1, 1), (LEAF // 8 + 1, 8),
    (2 * LEAF + 3, 1), (257, 511), (LEAF + 7, 3), (20000, 50)])
def test_noise_scale_equals_numpy_std(shape):
    # values spread over decades, so a different summation order shows
    X = np.random.default_rng(sum(shape)).lognormal(0.0, 3.0, shape)
    assert trainer._noise_scale(X) == float(X.std())


def test_noise_scale_holds_no_copy_of_the_cube():
    X = np.random.default_rng(20).random((20000, 50))
    tracemalloc.start()
    try:
        trainer._noise_scale(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 2


# --- Adam -------------------------------------------------------------------

def test_adam_zero_gradient_fixed_point():
    params = np.array([1.0, -2.0])
    state = AdamState(params)
    adam_step(params, np.zeros(2), state, lr=0.1)
    np.testing.assert_array_equal(params, [1.0, -2.0])


def test_adam_unit_step_property():
    # under a constant gradient the bias-corrected step tends to lr
    params = np.array([0.0])
    state = AdamState(params)
    g = np.array([3.7])
    prev = params.copy()
    for _ in range(200):
        prev = params.copy()
        adam_step(params, g, state, lr=0.01)
    assert abs(abs(params[0] - prev[0]) - 0.01) < 1e-4


def test_adam_scalar_quadratic_converges():
    params = np.array([1.0])
    state = AdamState(params)
    for _ in range(200):
        adam_step(params, 2.0 * params, state, lr=0.1)
    assert abs(params[0]) < 0.01


def test_adam_nonfinite_gradient():
    params = np.array([1.0])
    state = AdamState(params)
    with pytest.raises(NumericalDivergence):
        adam_step(params, np.array([np.nan]), state, lr=0.1)


# --- training loop ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(corrupt_mask_frac=1.5)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(iters=0)


def test_train_deterministic_checkpoints(small_scene, small_init, tmp_path, monkeypatch):
    cube, _, _ = small_scene
    monkeypatch.setattr(trainer, "LOG_EVERY", 100)
    cfg = TrainConfig(iters=300, seed=9)
    paths = []
    for run in range(2):
        model, _ = train(cube, small_init, cfg)
        p = tmp_path / f"run{run}.endn"
        model.save(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_loss_decreases(small_scene, small_init, monkeypatch):
    cube, _, _ = small_scene
    monkeypatch.setattr(trainer, "LOG_EVERY", 100)
    cfg = TrainConfig(iters=800, seed=2)
    _, log = train(cube, small_init, cfg)
    iters = [row[0] for row in log.rows]
    assert log.rows[-1][1] < log.rows[0][1]
    assert iters == sorted(iters)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_reports_iteration(small_scene, small_init, monkeypatch):
    cube, _, _ = small_scene
    monkeypatch.setattr(trainer, "LOG_EVERY", 100)
    # large enough that the first step overflows the squared-norm penalties
    cfg = TrainConfig(iters=200, lr=1e200, seed=0)
    with pytest.raises(NumericalDivergence, match="iteration"):
        train(cube, small_init, cfg)


def test_train_no_corruption_equals_disabled(small_scene, small_init, tmp_path):
    cube, _, _ = small_scene
    a_cfg = TrainConfig(iters=200, seed=4, corrupt_mask_frac=0.0,
                        corrupt_sigma=0.7)
    b_cfg = TrainConfig(iters=200, seed=4, corrupt_mask_frac=0.4,
                        corrupt_sigma=0.0)
    model_a, _ = train(cube, small_init, a_cfg)
    model_b, _ = train(cube, small_init, b_cfg)
    pa, pb = tmp_path / "a.endn", tmp_path / "b.endn"
    model_a.save(pa)
    model_b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_train_parameter_shapes_fixed(small_scene, small_init):
    cube, _, _ = small_scene
    model, _ = train(cube, small_init, TrainConfig(iters=50, seed=1))
    assert model.w_enc.shape == (3, 30)
    assert model.w_dec.shape == (30, 3)
    assert model.rho.shape == (3,)
    assert sum(p.size for p in model.params().values()) == 3 * 30 + 3 + 30 * 3


def test_train_log_csv(small_scene, small_init, tmp_path, monkeypatch):
    cube, _, _ = small_scene
    monkeypatch.setattr(trainer, "LOG_EVERY", 50)
    _, log = train(cube, small_init, TrainConfig(iters=120, seed=3))
    path = tmp_path / "log.csv"
    log.write_csv(path)
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,loss,z_l1,recon_sad"
    assert len(lines) == len(log.rows) + 1


def test_train_log_recon_sad_against_clean_batch(small_scene, small_init, monkeypatch):
    cube, _, _ = small_scene
    seen = []
    real_forward, real_loss = trainer.forward_batch, trainer.loss

    def forward_spy(model, X, *args, **kwargs):
        seen.append(np.array(X))
        return real_forward(model, X, *args, **kwargs)

    def loss_spy(trace, model, hyper, target):
        parts, grads = real_loss(trace, model, hyper, target)
        seen.append((parts, np.array(target)))
        return parts, grads

    monkeypatch.setattr(trainer, "forward_batch", forward_spy)
    monkeypatch.setattr(trainer, "loss", loss_spy)
    _, log = train(cube, small_init, TrainConfig(iters=1, seed=0, corrupt_sigma=0.5))
    noisy, (parts, clean) = seen
    assert not np.array_equal(noisy, clean)

    live = np.linalg.norm(parts.x_hat, axis=1) > 0.0

    def mean_angle(X):
        # a dead (all-zero) reconstruction has similarity 0, i.e. angle pi
        x, x_hat = X[live], parts.x_hat[live]
        cos = np.einsum("ij,ij->i", x, x_hat) / (
            np.linalg.norm(x, axis=1) * np.linalg.norm(x_hat, axis=1))
        s = np.arccos(np.clip(cos, -1.0 + 1e-7, 1.0 - 1e-7))
        return float((s.sum() + np.pi * (~live).sum()) / live.size)

    assert [row[3] for row in log.rows] == [pytest.approx(mean_angle(clean), rel=0, abs=1e-12)]
    assert abs(mean_angle(noisy) - mean_angle(clean)) > 1e-6


def test_train_keeps_the_first_batch_statistics_then_their_momentum_average(
        small_scene, small_init, monkeypatch):
    # kills dropping iteration 1's copy, which would average the batch
    # statistics into a new model's zeros and ones, and swapping the weights
    cube, _, _ = small_scene
    traces = []
    real_forward = trainer.forward_batch

    def forward_spy(*args, **kwargs):
        traces.append(real_forward(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(trainer, "forward_batch", forward_spy)
    model, _ = train(cube, small_init, TrainConfig(iters=1, seed=0))
    (first,) = traces
    assert np.array_equal(model.run_mean, first.bn_mean)
    assert np.array_equal(model.run_var, first.bn_var)

    traces.clear()
    model, _ = train(cube, small_init, TrainConfig(iters=2, seed=0))
    first, second = traces
    m = trainer.BN_MOMENTUM
    assert np.array_equal(model.run_mean, m * first.bn_mean + (1.0 - m) * second.bn_mean)
    assert np.array_equal(model.run_var, m * first.bn_var + (1.0 - m) * second.bn_var)


# --- configuration ----------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("beta1", np.nan), ("lr", np.nan), ("lr", np.inf),
    ("corrupt_sigma", np.nan), ("corrupt_sigma", -0.1), ("corrupt_sigma", np.inf),
    ("seed", -1)])
def test_config_rejects_out_of_range_and_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        TrainConfig(**{field: value})


def test_config_validates_its_hyper_against_k():
    TrainConfig().hyper.check_k(2)
    with pytest.raises(ValueError, match="^lambda2 "):
        TrainConfig(hyper=HyperParams(lambda2=-1.0))
    with pytest.raises(ValueError, match="^top_n "):
        TrainConfig(hyper=HyperParams(top_n=3)).hyper.check_k(2)
    with pytest.raises(ValueError, match="^k "):
        TrainConfig().hyper.check_k(0)


def test_train_checks_top_n_against_its_k(small_scene, small_init):
    cube, _, _ = small_scene
    cfg = TrainConfig(iters=1, hyper=HyperParams(top_n=small_init.k + 1))
    with pytest.raises(ValueError, match="^top_n "):
        train(cube, small_init, cfg)


@pytest.mark.parametrize("settings, name", [(HyperParams(), "top_n"), (TrainConfig(), "seed")])
def test_settings_are_frozen(settings, name):
    # a variant is dataclasses.replace(settings, ...), which checks its fields again
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(settings, name, 1)
    with pytest.raises(ValueError, match=f"^{name} "):
        dataclasses.replace(settings, **{name: -1})


# --- bit identity against the plain NumPy step ------------------------------

def _ref_angle(A, B, theta_clip, paired=False):
    a_norm = np.sqrt(np.einsum("ij,ij->i", A, A))
    b_norm = np.sqrt(np.einsum("ij,ij->i", B, B))
    if paired:
        dot = np.einsum("ij,ij->i", A, B)
        cos = dot / np.where(b_norm > 0.0, a_norm * b_norm, 1.0)
    else:
        dot = np.einsum("nd,kd->nk", A, B)
        cos = dot / np.outer(a_norm, b_norm)
    theta = np.clip(cos, -1.0 + theta_clip, 1.0 - theta_clip)
    return net.Angle(A, B, a_norm, b_norm, dot, cos, theta,
                     np.abs(cos) >= 1.0 - theta_clip, np.arccos(theta), paired)


def _ref_corrupt(x, mask_frac, sigma, rng):
    d = x.shape[1]
    max_m = int(np.floor(mask_frac * d))
    out = x.copy()
    if max_m == 0 or sigma == 0.0:
        return out
    m = rng.integers(0, max_m + 1, size=(len(x), 1))
    keys = rng.random(x.shape)
    kth = np.take_along_axis(np.sort(keys, axis=1), np.maximum(m - 1, 0), axis=1)
    hit = np.flatnonzero((keys <= kth) & (m > 0))
    out.reshape(-1)[hit] += rng.normal(0.0, sigma, hit.size)
    return out


def _reference_step(params, noisy, clean, r, hp):
    """One forward, loss and backward of ``train``'s step on one model.

    ``r`` is the dropout mask, all ones without dropout.  Returns a dict:
    the batch statistics ``mean`` and ``var``, the gated activations ``z``,
    the loss ``total`` and its terms ``recon``, ``kl``, ``sparsity`` and
    ``reg``, the decoder output ``x_hat``, the per-sample similarity
    ``c_recon`` and the ``grads``.
    """
    w_enc, rho, w_dec = params["w_enc"], params["rho"], params["w_dec"]
    n = len(clean)
    # forward
    enc = _ref_angle(noisy, w_enc, net.THETA_CLIP)
    h = 1.0 - enc.s / np.pi
    mean, var = h.mean(axis=0), h.var(axis=0)
    centered = (h - mean) / np.sqrt(var + net.EPS)
    bn_out = centered + rho
    z = r * (bn_out * (bn_out > 0.0))
    mask = np.ones_like(z, dtype=bool)
    if hp.top_n < z.shape[1]:
        mask[:] = False
        order = np.argsort(-z, axis=1, kind="stable")
        np.put_along_axis(mask, order[:, :hp.top_n], True, axis=1)
    z_star = z * mask
    y = z_star / (z_star.sum(axis=1) + net.EPS)[:, None]
    # loss
    x_hat = y @ w_dec.T
    diff = x_hat - clean
    rec = _ref_angle(clean, x_hat, net.THETA_CLIP, paired=True)
    ok = rec.b_norm > 0.0
    c = np.where(ok, 1.0 - rec.s / np.pi, 0.0)
    recon = hp.lambda0 * 0.5 * np.sum(diff * diff) / n
    kl = hp.lambda1 * np.mean(-np.log(c + net.EPS))
    sparsity = hp.lambda2 * np.mean(z.sum(axis=1))
    reg = (hp.lambda3 * np.sum(w_enc ** 2) + hp.lambda4 * np.sum(w_dec ** 2)
           + hp.lambda5 * np.sum(rho ** 2))
    # backward
    dkl_dc = np.where(ok, -hp.lambda1 / (n * (c + net.EPS)), 0.0)
    d_xhat = hp.lambda0 * diff / n + net.angle_backward(rec, dkl_dc)
    d_y = d_xhat @ w_dec
    dz = net.l1norm_backward(d_y, z_star, y) + (hp.lambda2 / n) * (z > 0.0)
    d_bn = dz * r * (bn_out > 0.0)
    d_h, g_sum = net.batchnorm_backward(d_bn, var, centered)
    grads = {"w_enc": net.angle_backward(enc, d_h) + 2.0 * hp.lambda3 * w_enc,
             "rho": g_sum + 2.0 * hp.lambda5 * rho,
             "w_dec": d_xhat.T @ y + 2.0 * hp.lambda4 * w_dec}
    return {"mean": mean, "var": var, "z": z, "total": recon + kl + sparsity + reg,
            "recon": recon, "kl": kl, "sparsity": sparsity, "reg": reg,
            "x_hat": x_hat, "c_recon": c, "grads": grads}


def _reference_train(cube, init, cfg):
    """``train`` written with the plain NumPy forms of every step.

    ``np.linalg.norm``, ``np.clip``, ``H.mean``/``H.var``, the
    ``put_along_axis`` top-n, ``np.mean``, per-parameter Adam and
    ``pixels.std()``; returns (checkpoint model, log rows).
    """
    hp, pixels = cfg.hyper, cube.data
    e = init.endmembers.rows
    params = {"w_enc": e.copy(), "rho": np.zeros(len(e)), "w_dec": e.T.copy()}
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    run_mean = run_var = None
    rng = np.random.default_rng(cfg.seed)
    sigma = 0.1 * float(pixels.std()) if cfg.corrupt_sigma is None else cfg.corrupt_sigma
    rows = []
    for it in range(1, cfg.iters + 1):
        clean = pixels[rng.integers(0, len(pixels), size=cfg.batch_size)]
        noisy = _ref_corrupt(clean, cfg.corrupt_mask_frac, sigma, rng)
        if hp.dropout_p < 1.0:
            r = (rng.random((len(clean), len(e))) < hp.dropout_p) / hp.dropout_p
        else:
            r = np.ones((len(clean), len(e)))
        step = _reference_step(params, noisy, clean, r, hp)
        mean, var = step["mean"], step["var"]
        if run_mean is None:
            run_mean, run_var = mean.copy(), var.copy()
        else:
            run_mean = trainer.BN_MOMENTUM * run_mean + (1.0 - trainer.BN_MOMENTUM) * mean
            run_var = trainer.BN_MOMENTUM * run_var + (1.0 - trainer.BN_MOMENTUM) * var
        # Adam
        for name, p in params.items():
            g = step["grads"][name]
            adam_m[name] = cfg.beta1 * adam_m[name] + (1.0 - cfg.beta1) * g
            adam_v[name] = (trainer.ADAM_BETA2 * adam_v[name]
                            + (1.0 - trainer.ADAM_BETA2) * g * g)
            m_hat = adam_m[name] / (1.0 - cfg.beta1 ** it)
            v_hat = adam_v[name] / (1.0 - trainer.ADAM_BETA2 ** it)
            p -= cfg.lr * m_hat / (np.sqrt(v_hat) + trainer.ADAM_EPS)
        if it == 1 or it % trainer.LOG_EVERY == 0 or it == cfg.iters:
            rows.append((float(step["total"]), float(step["z"].sum(axis=1).mean()),
                         float(np.mean(np.pi * (1.0 - step["c_recon"])))))
    model = EndNetModel(params["w_enc"], params["rho"], params["w_dec"], run_mean, run_var)
    return model, rows


@pytest.mark.parametrize("seed, hyper", [
    (0, {}), (1, {}), (2, {}), (1, {"dropout_p": 0.5}), (2, {"top_n": 3})])
def test_train_bit_identical_to_the_reference_step(small_scene, small_init, tmp_path,
                                                   monkeypatch, seed, hyper):
    # kills e.g. squaring with einsum in the row norms, a mean taken as
    # sum * (1/n), or a noise-scale split that differs from NumPy's
    cube, _, _ = small_scene
    monkeypatch.setattr(trainer, "LOG_EVERY", 50)
    cfg = TrainConfig(iters=150, batch_size=40, seed=seed, hyper=HyperParams(**hyper))
    model, log = train(cube, small_init, cfg)
    ref, rows = _reference_train(cube, small_init, cfg)
    model.save(tmp_path / "train.endn")
    ref.save(tmp_path / "ref.endn")
    assert (tmp_path / "train.endn").read_bytes() == (tmp_path / "ref.endn").read_bytes()
    assert [row[1:] for row in log.rows] == rows


@pytest.mark.parametrize("replicas", [(), (3,)], ids=["single", "stacked"])
def test_loss_parts_are_the_reference_terms(small_scene, small_init, replicas):
    """Each LossParts field is the reference step's, bit for bit, per replica,
    and the total is exactly recon + kl + sparsity + reg."""
    cube, _, _ = small_scene
    rng = np.random.default_rng(23)
    hp = HyperParams(dropout_p=0.5)
    e = small_init.endmembers.rows
    k, d = e.shape
    clean = cube.data[rng.integers(0, cube.data.shape[0], size=40)]
    noisy = corrupt(clean, 0.4, 0.05, rng)
    r = net.dropout_mask(rng, (40, k), hp.dropout_p)
    params = {"w_enc": e + rng.normal(0.0, 0.01, replicas + (k, d)),
              "rho": rng.normal(0.0, 0.1, replicas + (k,)),
              "w_dec": e.T + rng.normal(0.0, 0.01, replicas + (d, k))}
    model = EndNetModel(**params)
    trace = net.forward_batch(model, noisy, hp, mode="train", dropout_mask=r)
    parts, _ = net.loss(trace, model, hp, clean)
    assert parts.total.shape == replicas
    assert np.array_equal(parts.total, parts.recon + parts.kl + parts.sparsity + parts.reg)
    for i in np.ndindex(replicas):
        ref = _reference_step({name: p[i] for name, p in params.items()}, noisy, clean, r, hp)
        for f in net.LossParts._fields:
            assert np.array_equal(getattr(parts, f)[i], ref[f]), (f, i)
