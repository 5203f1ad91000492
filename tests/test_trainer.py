"""Corruption, Adam, and the deterministic training loop."""

import numpy as np
import pytest

from endnet import TrainConfig, adam_step, corrupt, train, trainer
from endnet.errors import NumericalDivergence
from endnet.trainer import AdamState


# --- corruption -------------------------------------------------------------

def test_corrupt_noop_when_frac_zero():
    rng = np.random.default_rng(0)
    x = rng.random(50)
    np.testing.assert_array_equal(corrupt(x, 0.0, 0.3, rng), x)


def test_corrupt_noop_when_sigma_zero():
    rng = np.random.default_rng(1)
    x = rng.random(50)
    np.testing.assert_array_equal(corrupt(x, 0.4, 0.0, rng), x)


def test_corrupt_bounded_band_count():
    rng = np.random.default_rng(2)
    x = rng.random(100)
    for _ in range(200):
        x_tilde = corrupt(x, 0.4, 0.5, rng)
        assert (x_tilde != x).sum() <= 40
    # the input itself is untouched
    np.testing.assert_array_equal(x, x)


def test_corrupt_leaves_input_alone():
    rng = np.random.default_rng(3)
    x = rng.random(30)
    ref = x.copy()
    corrupt(x, 1.0, 1.0, rng)
    np.testing.assert_array_equal(x, ref)


# --- Adam -------------------------------------------------------------------

def test_adam_zero_gradient_fixed_point():
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState(params)
    adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])


def test_adam_unit_step_property():
    # under a constant gradient the bias-corrected step tends to lr
    params = {"w": np.array([0.0])}
    state = AdamState(params)
    g = {"w": np.array([3.7])}
    prev = params["w"].copy()
    for _ in range(200):
        prev = params["w"].copy()
        adam_step(params, g, state, lr=0.01)
    assert abs(abs(params["w"][0] - prev[0]) - 0.01) < 1e-4


def test_adam_scalar_quadratic_converges():
    params = {"w": np.array([1.0])}
    state = AdamState(params)
    for _ in range(200):
        adam_step(params, {"w": 2.0 * params["w"]}, state, lr=0.1)
    assert abs(params["w"][0]) < 0.01


def test_adam_nonfinite_gradient():
    params = {"w": np.array([1.0])}
    state = AdamState(params)
    with pytest.raises(NumericalDivergence):
        adam_step(params, {"w": np.array([np.nan])}, state, lr=0.1)


# --- training loop ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1).validate()
    with pytest.raises(ValueError):
        TrainConfig(corrupt_mask_frac=1.5).validate()
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(iters=0).validate()


def test_train_deterministic_checkpoints(small_scene, small_init, tmp_path):
    cube, _, _ = small_scene
    cfg = TrainConfig(iters=300, seed=9, log_every=100)
    paths = []
    for run in range(2):
        model, _ = train(cube, small_init, cfg)
        p = tmp_path / f"run{run}.endn"
        model.save(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_loss_decreases(small_scene, small_init):
    cube, _, _ = small_scene
    cfg = TrainConfig(iters=800, seed=2, log_every=100)
    _, log = train(cube, small_init, cfg)
    assert log.losses[-1] < log.losses[0]
    assert log.iterations == sorted(log.iterations)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_reports_iteration(small_scene, small_init):
    cube, _, _ = small_scene
    # large enough that the first step overflows the squared-norm penalties
    cfg = TrainConfig(iters=200, lr=1e200, seed=0, log_every=100)
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
    assert model.n_trainable == 3 * 30 + 3 + 30 * 3


def test_train_log_csv(small_scene, small_init, tmp_path):
    cube, _, _ = small_scene
    _, log = train(cube, small_init, TrainConfig(iters=120, seed=3, log_every=50))
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,loss,z_l1,recon_sad"
    assert len(lines) == len(log.iterations) + 1


def test_train_log_recon_sad_against_clean_batch(small_scene, small_init, monkeypatch):
    cube, _, _ = small_scene
    seen = []
    real_forward, real_loss = trainer.forward_batch, trainer.loss

    def forward_spy(model, X, *args, **kwargs):
        seen.append(np.array(X))
        return real_forward(model, X, *args, **kwargs)

    def loss_spy(trace, model, hyper, target):
        seen.append((trace, np.array(target)))
        return real_loss(trace, model, hyper, target)

    monkeypatch.setattr(trainer, "forward_batch", forward_spy)
    monkeypatch.setattr(trainer, "loss", loss_spy)
    _, log = train(cube, small_init, TrainConfig(iters=1, seed=0, corrupt_sigma=0.5))
    noisy, (trace, clean) = seen
    assert not np.array_equal(noisy, clean)

    live = np.linalg.norm(trace.x_hat, axis=1) > 0.0

    def mean_angle(X):
        # a dead (all-zero) reconstruction has similarity 0, i.e. angle pi
        x, x_hat = X[live], trace.x_hat[live]
        cos = np.einsum("ij,ij->i", x, x_hat) / (
            np.linalg.norm(x, axis=1) * np.linalg.norm(x_hat, axis=1))
        s = np.arccos(np.clip(cos, -1.0 + 1e-7, 1.0 - 1e-7))
        return float((s.sum() + np.pi * (~live).sum()) / live.size)

    assert log.recon_sad == [pytest.approx(mean_angle(clean), rel=0, abs=1e-12)]
    assert abs(mean_angle(noisy) - mean_angle(clean)) > 1e-6
