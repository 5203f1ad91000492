"""Forward pass, loss, analytic gradients, and the checkpoint format."""

import dataclasses

import numpy as np
import pytest

from endnet import EndNetModel, HyperParams, forward_batch, gradcheck, loss, net
from endnet.errors import CubeFormatError, NumericalDivergence
from endnet.gradcheck import (FD_STEP, check_batchnorm, check_full_loss, check_l1norm,
                              check_sad, rel_error)
from endnet.net import (THETA_CLIP, Angle, LossParts, angle, angle_backward,
                        batchnorm_backward, batchnorm_forward, l1norm_backward,
                        loss_value, relu_topn_l1)


# --- similarity layer -------------------------------------------------------

def _pair(x, w, paired=False):
    """The angle between two spectra, every-pair or row-paired."""
    return angle(np.atleast_2d(x), np.atleast_2d(w), THETA_CLIP, paired)


def test_sad_similarity_scaled_copy():
    x = np.array([0.2, 0.5, 0.9])
    for paired in (False, True):
        ang = _pair(x, 2.0 * x, paired)
        # the clamp keeps theta at 1 - theta_clip, leaving O(sqrt(clip)) angle
        assert ang.clipped.all()
        assert ang.similarity.min() > 1.0 - 1e-3 and ang.s.max() < 1e-3


def test_sad_similarity_orthogonal():
    for paired in (False, True):
        ang = _pair([1.0, 0.0], [0.0, 1.0], paired)
        assert np.abs(ang.s - np.pi / 2).max() < 1e-12
        assert np.abs(ang.similarity - 0.5).max() < 1e-12


def test_sad_similarity_antipodal():
    x = np.array([0.3, 0.7])
    for paired in (False, True):
        ang = _pair(x, -x, paired)
        assert ang.s.min() > np.pi - 1e-3 and ang.similarity.max() < 1e-3


def test_sad_similarity_zero_norm():
    # a zero-norm row of A or of B has no angle, in either mode and on any
    # replica; a dead reconstruction is the loss's to handle, not the kernel's
    ok = np.array([[0.2, 0.4], [0.5, 0.1]])
    for paired in (False, True):
        _pair(ok, ok[::-1], paired)
        for row in (0, 1):
            zero = ok.copy()
            zero[row] = 0.0
            for A, B in ((zero, ok), (ok, zero), (ok, np.stack([ok, zero])),
                         (np.stack([ok, zero]), ok)):
                with pytest.raises(ValueError, match="^a zero-norm spectrum has no angle$"):
                    _pair(A, B, paired)


def test_angle_paired_zero_reconstruction():
    # a dead (all-zero) reconstruction gets no cosine 0 from the kernel: the
    # paired angle rejects it, and no gradient is asked of it
    target = np.array([[0.2, 0.4], [0.5, 0.1]])
    recon = np.array([[0.0, 0.0], [0.3, 0.3]])
    with pytest.raises(ValueError, match="^a zero-norm spectrum has no angle$"):
        _pair(target, recon, paired=True)
    # the live row alone still has its angle and a finite gradient
    ang = _pair(target[1:], recon[1:], paired=True)
    assert np.isfinite(ang.s).all() and not ang.clipped.any()
    g = angle_backward(ang, np.array([1.0]))
    assert np.isfinite(g).all() and g.shape == (1, 2)


def test_angle_of_a_row_block_matches_those_rows_of_one_call():
    """A row's norm, product and angle do not depend on the other rows in the call."""
    A = np.random.default_rng(16).uniform(0.0, 1.0, (2 * 4096 + 3, 7))
    B = A[:2]
    whole = angle(A, B, THETA_CLIP)
    paired = angle(A, A[::-1], THETA_CLIP, paired=True)
    for size in (1, 7, 100, 4096):
        for i in range(0, len(A), size):
            rows = slice(i, i + size)
            ang = angle(A[rows], B, THETA_CLIP)
            assert np.array_equal(ang.a_norm, whole.a_norm[rows])
            assert np.array_equal(ang.dot, whole.dot[rows])
            assert np.array_equal(ang.s, whole.s[rows])
            ang = angle(A[rows], A[::-1][rows], THETA_CLIP, paired=True)
            assert np.array_equal(ang.b_norm, paired.b_norm[rows])
            assert np.array_equal(ang.s, paired.s[rows])
    np.testing.assert_allclose(whole.a_norm, np.linalg.norm(A, axis=1), rtol=1e-15, atol=0)
    assert angle(np.empty((0, 7)), B, THETA_CLIP).s.shape == (0, 2)
    # with replica axes, and values spread over decades
    rng = np.random.default_rng(17)
    for shape in [(2, 3, 4096 + 5, 7), (4, 1, 9), (3, 0, 2)]:
        A = rng.lognormal(0.0, 2.0, shape)
        B = rng.lognormal(0.0, 2.0, shape[:-2] + (3, shape[-1]))
        whole = angle(A, B, THETA_CLIP)
        np.testing.assert_allclose(whole.a_norm, np.linalg.norm(A, axis=-1), rtol=1e-15, atol=0)
        for i in range(0, shape[-2], 100):
            ang = angle(A[..., i:i + 100, :], B, THETA_CLIP)
            assert np.array_equal(ang.a_norm, whole.a_norm[..., i:i + 100])
            assert np.array_equal(ang.s, whole.s[..., i:i + 100, :])


def test_sad_grad_zero_at_clamp():
    x = np.array([0.2, 0.4])
    for paired in (False, True):
        ang = _pair(x, 3.0 * x, paired)
        np.testing.assert_array_equal(angle_backward(ang, np.ones_like(ang.s)), 0.0)


def test_sad_grad_orthogonal_to_w():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0.1, 1.0, 7)
        w = rng.uniform(0.1, 1.0, 7) + rng.normal(0, 0.3, 7)
        for paired in (False, True):
            ang = _pair(x, w, paired)
            g = angle_backward(ang, np.ones_like(ang.s))[0]
            # the angle is invariant to scaling w, so the gradient has no
            # component along w
            assert abs(np.dot(g, w)) < 1e-10 * np.linalg.norm(g) * np.linalg.norm(w) + 1e-15


def test_sad_grad_finite_difference():
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert check_sad(rng) < 1e-6


def test_check_sad_verifies_the_backward_loss_calls(monkeypatch):
    """gradcheck's per-layer angle check and the training loss share one backward."""
    calls = []
    real = net.angle_backward

    def spy(ang, d_c):
        calls.append("paired" if ang.dot.ndim == 1 else "every-pair")
        return real(ang, d_c)

    monkeypatch.setattr(net, "angle_backward", spy)
    check_sad(np.random.default_rng(0))
    assert calls == ["every-pair", "paired"]
    calls.clear()
    rng = np.random.default_rng(1)
    model = _toy_model(rng)
    X = rng.uniform(0.1, 1.0, (4, 12))
    trace = forward_batch(model, X, HyperParams(), mode="train")
    loss(trace, model, HyperParams(), X)
    # the reconstruction term first, then the encoder filters
    assert calls == ["paired", "every-pair"]


# --- batch normalization ----------------------------------------------------

def test_bn_constant_column_zeroed():
    H = np.full((5, 2), 5.0)
    out, _, _, _ = batchnorm_forward(H, np.zeros(2))
    assert np.abs(out).max() < 1e-6


def test_bn_mean_is_rho_var_is_one():
    rng = np.random.default_rng(2)
    H = rng.normal(0, 2.0, (64, 3))
    rho = np.array([-0.83, 0.0, 0.4])
    out, _, _, _ = batchnorm_forward(H, rho)
    np.testing.assert_allclose(out.mean(axis=0), rho, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-6)


def test_bn_infer_uses_run_stats():
    H = np.array([[1.0, 2.0], [3.0, 4.0]])
    mean, var = np.array([2.0, 3.0]), np.array([1.0, 1.0])
    out, _, _, _ = batchnorm_forward(H, np.zeros(2), run_stats=(mean, var))
    np.testing.assert_allclose(out, (H - mean) / np.sqrt(var + 1e-8))


def test_bn_train_needs_two_samples():
    with pytest.raises(ValueError):
        batchnorm_forward(np.ones((1, 3)), np.zeros(3))


def test_bn_statistics_equal_numpy_mean_and_var():
    rng = np.random.default_rng(18)
    for shape in [(3, 2, 64, 5), (7, 4), (2, 1000, 3)]:
        H = rng.lognormal(0.0, 1.0, shape)
        rho = rng.normal(size=shape[:-2] + shape[-1:])
        out, mean, var, centered = batchnorm_forward(H, rho)
        assert np.array_equal(mean, H.mean(axis=-2))
        assert np.array_equal(var, H.var(axis=-2))
        ref = (H - H.mean(axis=-2, keepdims=True)) / np.sqrt(H.var(axis=-2, keepdims=True) + 1e-8)
        assert np.array_equal(centered, ref)
        assert np.array_equal(out, ref + rho[..., None, :])


def test_bn_backward_finite_difference():
    rng = np.random.default_rng(3)
    assert check_batchnorm(rng, n=4, k=3) < 1e-5


def test_bn_backward_zero_and_constant():
    rng = np.random.default_rng(4)
    H = rng.normal(0, 1, (6, 3))
    _, _, var, centered = batchnorm_forward(H, np.zeros(3))
    dH, drho = batchnorm_backward(np.zeros((6, 3)), var, centered)
    assert np.abs(dH).max() == 0.0 and np.abs(drho).max() == 0.0
    # constant upstream gradient: mean removal kills the input gradient
    dH, _ = batchnorm_backward(np.ones((6, 3)), var, centered)
    assert np.abs(dH).max() < 1e-9


# --- relu / top-n / l1 ------------------------------------------------------

def test_relu_topn_l1_example():
    z, z_star, y = relu_topn_l1(np.array([[3.0, 1.0, 2.0]]), 1.0, top_n=2)
    np.testing.assert_array_equal(z[0], [3, 1, 2])
    np.testing.assert_array_equal(z_star[0], [3, 0, 2])
    np.testing.assert_allclose(y[0], [0.6, 0.0, 0.4], atol=1e-8)


def test_relu_all_negative():
    _, _, y = relu_topn_l1(np.array([[-1.0, -2.0, -0.5]]), 1.0, top_n=2)
    np.testing.assert_array_equal(y[0], 0.0)


def test_topn_tie_lower_index():
    _, z_star, y = relu_topn_l1(np.array([[1.0, 1.0, 0.0]]), 1.0, top_n=1)
    np.testing.assert_array_equal(z_star[0], [1, 0, 0])
    np.testing.assert_allclose(y[0], [1, 0, 0], atol=1e-8)


def _topn_mask_put_along_axis(z, top_n):
    mask = np.zeros_like(z, dtype=bool)
    order = np.argsort(-z, axis=-1, kind="stable")
    np.put_along_axis(mask, order[..., :top_n], True, axis=-1)
    return mask


def test_topn_mask_equals_put_along_axis_on_ties_and_signed_zeros():
    rng = np.random.default_rng(19)
    # few distinct values: many ties, and 0.0 mixed with -0.0
    z = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=(3, 2, 500, 5))
    for top_n in range(1, 5):
        assert np.array_equal(net._topn_mask(z, top_n), _topn_mask_put_along_axis(z, top_n))
    assert net._topn_mask(z, 5).all()
    # -0.0 and 0.0 tie, so the lower index wins either way
    assert np.array_equal(net._topn_mask(np.array([[-0.0, 0.0, -1.0]]), 1), [[True, False, False]])
    assert np.array_equal(net._topn_mask(np.array([[0.0, -0.0, -1.0]]), 1), [[True, False, False]])


def test_dropout_mask_applied():
    z, z_star, _ = relu_topn_l1(np.array([[3.0, 1.0, 2.0]]), np.array([0.0, 2.0, 2.0]),
                               top_n=2)
    np.testing.assert_array_equal(z[0], [0, 2, 4])
    np.testing.assert_array_equal(z_star[0], [0, 2, 4])


def test_l1norm_backward_finite_difference():
    rng = np.random.default_rng(5)
    for _ in range(10):
        assert check_l1norm(rng) < 1e-6


def test_l1norm_backward_one_hot_and_empty():
    z = np.array([[0.0, 2.0, 0.0]])
    y = z / (z.sum() + 1e-8)
    dz = l1norm_backward(np.array([[1.0, 1.0, 1.0]]), z, y)
    assert abs(dz[0, 1]) < 1e-8          # homogeneity: scaling the hot entry
    assert dz[0, 0] == 0.0 and dz[0, 2] == 0.0
    dz = l1norm_backward(np.ones((1, 3)), np.zeros((1, 3)), np.zeros((1, 3)))
    np.testing.assert_array_equal(dz, 0.0)


# --- forward pass -----------------------------------------------------------

def _toy_model(rng, d=12, k=3):
    w = rng.uniform(0.1, 1.0, (k, d))
    model = EndNetModel.from_endmembers(w)
    model.run_mean, model.run_var = np.full(k, 0.6), np.full(k, 0.01)
    return model


def test_forward_full_simplex_no_truncation():
    rng = np.random.default_rng(6)
    model = _toy_model(rng)
    hyper = HyperParams(top_n=3)
    X = rng.uniform(0.1, 1.0, (4, 12))
    trace = forward_batch(model, X, hyper, mode="train")
    alive = trace.z_star_sum > 0
    assert alive.any()
    nnz = (trace.y[alive] > 0).sum(axis=1)
    sums = trace.y[alive].sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-6
    assert (nnz <= 3).all()


def test_forward_infer_deterministic():
    rng = np.random.default_rng(7)
    model = _toy_model(rng)
    x = rng.uniform(0.1, 1.0, 12)
    hyper = HyperParams()
    a = forward_batch(model, x, hyper, mode="infer")
    b = forward_batch(model, x, hyper, mode="infer")
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(loss_value(a, model, hyper, x).x_hat,
                                  loss_value(b, model, hyper, x).x_hat)


def test_forward_matching_filter_wins():
    # near-orthogonal filters: the sample equal to row j lights up unit j
    w = np.eye(3, 12) + 0.01
    model = EndNetModel.from_endmembers(w)
    model.run_mean, model.run_var = np.full(3, 0.6), np.full(3, 0.05)
    trace = forward_batch(model, w[1], HyperParams(), mode="infer")
    assert int(np.argmax(trace.y[0])) == 1


def test_forward_scale_invariance_infer():
    rng = np.random.default_rng(8)
    model = _toy_model(rng)
    x = rng.uniform(0.1, 1.0, 12)
    hyper = HyperParams()
    base = forward_batch(model, x, hyper, mode="infer").y
    for alpha in (0.1, 10.0):
        np.testing.assert_allclose(forward_batch(model, alpha * x, hyper, mode="infer").y, base,
                                   atol=1e-12)


def test_forward_xhat_is_decoder_product():
    rng = np.random.default_rng(9)
    model = _toy_model(rng)
    X = rng.uniform(0.1, 1.0, (5, 12))
    trace = forward_batch(model, X, HyperParams(), mode="train")
    # the decoder runs in the loss, not in the forward, and the loss
    # returns its output: nothing writes into the trace
    assert not hasattr(trace, "x_hat")
    np.testing.assert_array_equal(loss_value(trace, model, HyperParams(), X).x_hat,
                                  trace.y @ model.w_dec.T)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.y = trace.y.copy()


def test_forward_rejects_zero_sample_and_train_single():
    rng = np.random.default_rng(10)
    model = _toy_model(rng)
    with pytest.raises(ValueError):
        forward_batch(model, np.zeros(12), HyperParams(), mode="infer")
    with pytest.raises(ValueError):
        forward_batch(model, np.ones((1, 12)), HyperParams(), mode="train")


def test_forward_batch_rejects_another_band_count():
    model = _toy_model(np.random.default_rng(10))
    with pytest.raises(ValueError, match="^band count mismatch between batch and model$"):
        forward_batch(model, np.ones((4, 11)), HyperParams(), mode="infer")


@pytest.mark.parametrize("mode", ["Train", "eval", "", None])
def test_forward_batch_rejects_an_unknown_mode(mode):
    model = _toy_model(np.random.default_rng(10))
    with pytest.raises(ValueError, match=f"^unknown forward mode {mode!r}$"):
        forward_batch(model, np.ones((4, 12)), HyperParams(), mode=mode)


def test_dropout_mask_scales_and_draws_nothing_at_p_one():
    rng = np.random.default_rng(11)
    for p in (0.5, 0.8):
        mask = net.dropout_mask(rng, (40, 5), p)
        assert mask.shape == (40, 5)
        assert set(np.unique(mask)) == {0.0, 1.0 / p}
    state = rng.bit_generator.state
    assert net.dropout_mask(rng, (40, 5), 1.0) is None
    assert rng.bit_generator.state == state


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(lambda2=-0.1)
    with pytest.raises(ValueError):
        HyperParams(dropout_p=0.0)
    with pytest.raises(ValueError):
        HyperParams(top_n=4).check_k(3)


@pytest.mark.parametrize("field, value", [
    ("lambda0", np.inf), ("lambda1", np.nan), ("lambda5", np.nan), ("dropout_p", np.nan)])
def test_hyperparams_reject_non_finite_and_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        HyperParams(**{field: value})


def test_hyperparams_reject_a_top_n_below_one_when_made():
    with pytest.raises(ValueError, match="^top_n "):
        HyperParams(top_n=0)


# --- loss -------------------------------------------------------------------

def test_loss_zero_at_perfect_reconstruction():
    # top_n = k and a sample already in the decoder's column space
    w = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    model = EndNetModel.from_endmembers(w)
    hyper = HyperParams(lambda0=0.01, lambda1=10.0, lambda2=0.0,
                        lambda3=0.0, lambda4=0.0, lambda5=0.0, top_n=2)
    X = np.array([[1.0, 1e-6, 0.0, 0.0], [1e-6, 1.0, 0.0, 0.0]])
    trace = forward_batch(model, X, hyper, mode="train")
    total = loss_value(trace, model, hyper, X).total
    # the cosine clamp leaves an O(sqrt(theta_clip)) slack in the KL term
    assert total < 5e-3


def test_loss_dead_sample_finite():
    rng = np.random.default_rng(12)
    model = _toy_model(rng)
    model.rho[:] = -50.0  # guarantees all-negative bn output at inference
    x = rng.uniform(0.1, 1.0, 12)
    hyper = HyperParams()
    trace = forward_batch(model, x, hyper, mode="infer")
    assert trace.z_star_sum[0] == 0.0
    total = loss_value(trace, model, hyper, np.atleast_2d(x)).total
    assert np.isfinite(total) and total > 0


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    assert check_full_loss(rng, d=5, k=3, n=4) < 1e-4


def test_loss_gradients_under_pinned_dropout(monkeypatch):
    """Every perturbed evaluation and the analytic trace see one drawn mask."""
    masks = []
    real = net.forward_batch

    def spy(model, X, hyper, mode="train", dropout_mask=None):
        masks.append(dropout_mask)
        return real(model, X, hyper, mode, dropout_mask)

    monkeypatch.setattr(net, "forward_batch", spy)
    rng = np.random.default_rng(17)
    for _ in range(5):
        masks.clear()
        assert check_full_loss(rng, d=6, k=4, n=4,
                               hyper=HyperParams(dropout_p=0.5)) < 1e-4
        # the analytic trace, then one stacked pass per trainable array
        pinned = masks[-4:]
        assert all(m is pinned[0] for m in pinned)
        assert set(np.unique(pinned[0])) == {0.0, 2.0}


@pytest.mark.parametrize("top_n", ["one", "all"])
def test_loss_gradients_at_the_top_n_extremes(top_n):
    # a one-hot code (y a unit vector) and no truncation at all
    rng = np.random.default_rng(18)
    for _ in range(5):
        k = int(rng.integers(2, 7))
        hyper = HyperParams(top_n=1 if top_n == "one" else k)
        assert check_full_loss(rng, k=k, hyper=hyper) < 1e-4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_loss_nonfinite_raises():
    rng = np.random.default_rng(14)
    model = _toy_model(rng)
    X = rng.uniform(0.1, 1.0, (3, 12))
    hyper = HyperParams()
    trace = forward_batch(model, X, hyper, mode="train")
    model.w_dec[0, 0] = np.inf
    with pytest.raises(NumericalDivergence):
        loss(trace, model, hyper, X)


def test_loss_gradients_need_a_train_trace():
    # the infer-mode trace has no batch statistics to differentiate through;
    # its loss value stays available
    rng = np.random.default_rng(15)
    model = _toy_model(rng)
    X = rng.uniform(0.1, 1.0, (3, 12))
    hyper = HyperParams()
    trace = forward_batch(model, X, hyper, mode="infer")
    with pytest.raises(ValueError, match="train-mode"):
        loss(trace, model, hyper, X)
    assert np.isfinite(loss_value(trace, model, hyper, X).total)


# --- replica axis and the stacked finite differences -------------------------

def _model_with(model, name, arr):
    return EndNetModel(**{**model.params(), name: arr},
                       run_mean=model.run_mean, run_var=model.run_var)


def _trace_arrays(trace):
    """Every array a ForwardTrace holds, its angle's included, by name."""
    arrays = {f"angle.{f}": getattr(trace.angle, f) for f in Angle._fields if f != "paired"}
    arrays.update((f.name, getattr(trace, f.name)) for f in dataclasses.fields(trace)
                  if f.name not in ("angle", "mode"))
    return arrays


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("r", [1, 3])
def test_stacked_forward_and_loss_match_solo_calls(mode, r):
    """One stacked call equals r solo calls bit for bit: the trace, every
    LossParts field and the gradients.

    The replica axis is on one parameter array, first with one shared batch,
    then with the batch, the target and the dropout mask stacked as
    (r, N, .) too: each replica's own corrupted batch against its own clean one.
    """
    rng = np.random.default_rng(19)
    model = _toy_model(rng)
    n, k = 5, model.k
    X = rng.uniform(0.1, 1.0, (n, 12))
    clean = X + rng.uniform(0.0, 0.1, (r, n, 12))
    batches = ((X, X, (rng.random((n, k)) < 0.5) / 0.5),
               (clean + rng.normal(0.0, 0.02, clean.shape), clean,
                (rng.random((r, n, k)) < 0.5) / 0.5))
    for hyper in (HyperParams(), HyperParams(top_n=k), HyperParams(dropout_p=0.5)):
        for batch, target, pinned in batches:
            mask = pinned if hyper.dropout_p < 1.0 else None
            for name, arr in model.params().items():
                stack = arr + rng.normal(0.0, 0.05, (r,) + arr.shape)
                stacked = _model_with(model, name, stack)
                trace = forward_batch(stacked, batch, hyper, mode=mode, dropout_mask=mask)
                parts = loss_value(trace, stacked, hyper, target)
                assert stacked.replicas == (r,) and parts.total.shape == (r,)
                if mode == "train":
                    grad_parts, grads = loss(trace, stacked, hyper, target)
                    for f in LossParts._fields:
                        np.testing.assert_array_equal(getattr(grad_parts, f), getattr(parts, f))
                for i in range(r):
                    solo = _model_with(model, name, stack[i])

                    def own(a):
                        return a if a is None or a.ndim == 2 else a[i]

                    t = forward_batch(solo, own(batch), hyper, mode=mode, dropout_mask=own(mask))
                    solo_parts = loss_value(t, solo, hyper, own(target))
                    stacked_trace, solo_trace = _trace_arrays(trace), _trace_arrays(t)
                    pairs = [(stacked_trace[f], solo_trace[f]) for f in solo_trace]
                    pairs += list(zip(parts, solo_parts))
                    for stacked_field, solo_field in pairs:
                        np.testing.assert_array_equal(
                            np.broadcast_to(stacked_field, (r,) + np.shape(solo_field))[i],
                            solo_field)
                    if mode == "train":
                        _, solo_grads = loss(t, solo, hyper, own(target))
                        for g, solo_grad in solo_grads.items():
                            assert grads[g].shape == (r,) + solo_grad.shape
                            assert np.array_equal(grads[g][i], solo_grad), (name, g, i)


def test_stacked_model_has_no_checkpoint_and_replica_axes_must_broadcast(tmp_path):
    rng = np.random.default_rng(20)
    model = _toy_model(rng)
    stacked = _model_with(model, "rho", np.stack([model.rho, model.rho + 0.1]))
    with pytest.raises(ValueError, match="stacked"):
        stacked.save(tmp_path / "m.endn")
    assert not (tmp_path / "m.endn").exists()
    # replica axes must broadcast; the trailing shapes must agree
    with pytest.raises(ValueError):
        EndNetModel(np.ones((2, 3, 12)), np.ones((3, 3)), model.w_dec)
    with pytest.raises(ValueError):
        EndNetModel(model.w_enc, np.ones((2, 4)), model.w_dec)


def test_check_full_loss_one_stacked_call_per_array(monkeypatch):
    calls = []
    real_forward, real_loss_value, real_loss = net.forward_batch, net.loss_value, net.loss

    def forward_spy(model, *args, **kwargs):
        calls.append(("forward_batch", model.replicas))
        return real_forward(model, *args, **kwargs)

    def loss_value_spy(trace, model, *args, **kwargs):
        calls.append(("loss_value", model.replicas))
        return real_loss_value(trace, model, *args, **kwargs)

    def loss_spy(trace, model, *args, **kwargs):
        calls.append(("loss", model.replicas))
        return real_loss(trace, model, *args, **kwargs)

    monkeypatch.setattr(net, "forward_batch", forward_spy)
    monkeypatch.setattr(net, "loss_value", loss_value_spy)
    monkeypatch.setattr(net, "loss", loss_spy)
    check_full_loss(np.random.default_rng(127))  # draws d=13, k=2, n=6
    assert gradcheck.SEARCH_BLOCK == 16
    assert calls == [
        # the search: no candidate of the first block clears the forward
        # screens, so only the second block reaches the loss
        ("forward_batch", (16,)),
        ("forward_batch", (16,)), ("loss_value", (16,)),
        # the analytic gradients of the instance
        ("forward_batch", ()), ("loss", ()),
        # 2P replicas: w_enc and w_dec hold 26 elements each, rho 2
        ("forward_batch", (52,)), ("loss_value", (52,)),
        ("forward_batch", (4,)), ("loss_value", (4,)),
        ("forward_batch", (52,)), ("loss_value", (52,))]


def _clears_every_screen(model, X, mask, hyper):
    """The search's screens, recomputed on one instance through its own forward pass."""
    trace = forward_batch(model, X, hyper, mode="train", dropout_mask=mask)
    c_recon = loss_value(trace, model, hyper, X).c_recon
    ok = (np.abs(trace.bn_out).min() >= gradcheck.KINK_MARGIN
          and np.abs(trace.angle.theta).max() <= 1.0 - 1e-3
          and trace.z_star_sum.min() >= 1e-3
          and 0.02 <= c_recon.min() and c_recon.max() <= 1.0 - 1e-3)
    if hyper.top_n < model.k:
        # a tie at the n-th place is a kink only among positive entries
        zs = -np.sort(-trace.z, axis=1)
        nth, next_ = zs[:, hyper.top_n - 1], zs[:, hyper.top_n]
        ok = ok and bool(((nth - next_ >= gradcheck.KINK_MARGIN) | (nth == 0.0)).all())
    return ok


@pytest.mark.parametrize("setting", ["default", "dropout", "top_n=1", "top_n=k"])
def test_instance_search_is_kink_free_deterministic_and_never_gives_up(setting):
    for seed in range(40):
        shape_rng = np.random.default_rng(1000 + seed)
        d, k, n = (int(shape_rng.integers(5, 21)), int(shape_rng.integers(2, 7)),
                   int(shape_rng.integers(2, 9)))
        hyper = {"default": HyperParams(),
                 "dropout": HyperParams(dropout_p=0.5),
                 "top_n=1": HyperParams(top_n=1),
                 "top_n=k": HyperParams(top_n=k)}[setting]
        rng, again = np.random.default_rng(seed), np.random.default_rng(seed)
        # a search that gives up raises here
        model, X, mask = gradcheck._random_instance(rng, d, k, n, hyper)
        assert X.shape == (n, d) and mask.shape == (n, k), seed
        assert set(np.unique(mask)) <= {0.0, 1.0 / hyper.dropout_p}, seed
        assert _clears_every_screen(model, X, mask, hyper), seed
        model2, X2, mask2 = gradcheck._random_instance(again, d, k, n, hyper)
        for name in ("w_enc", "rho", "w_dec"):
            assert np.array_equal(getattr(model, name), getattr(model2, name)), seed
        assert np.array_equal(X, X2) and np.array_equal(mask, mask2), seed
        assert rng.bit_generator.state == again.bit_generator.state, seed


# the generator state right before the draws of an n = 2 instance (d = 11, k = 6)
# whose w_enc gradient, 1.46e-4 in norm, lies far below its w_dec gradient (1.12)
_SMALL_W_ENC_STATE = {"state": 313865273937930689757538854605714479365,
                      "inc": 222003063171874261427395693950637096479}


def _small_w_enc_instance():
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": _SMALL_W_ENC_STATE,
                           "has_uint32": 0, "uinteger": 0}
    rng = np.random.Generator(bit_generator)
    X = rng.uniform(0.1, 1.0, (2, 11))
    model = EndNetModel(w_enc=rng.uniform(0.1, 1.0, (6, 11)), rho=rng.normal(0.2, 0.5, 6),
                        w_dec=rng.uniform(0.05, 1.0, (11, 6)))
    return model, X, None


def test_check_full_loss_floors_at_the_loss_scale(monkeypatch):
    """A tiny w_enc gradient is compared at the loss's scale, not at its own.

    Without a floor the differences' rounding noise reads as a 7.1e-4
    relative error on this instance; an error of half the w_enc weight
    decay must still fail.
    """
    instance = _small_w_enc_instance()
    monkeypatch.setattr(gradcheck, "_random_instance", lambda *args: instance)
    assert check_full_loss(np.random.default_rng(0), d=11, k=6, n=2) < gradcheck.DEFAULT_TOL
    real_loss = net.loss

    def half_the_w_enc_decay(trace, model, hyper, X):
        parts, grads = real_loss(trace, model, hyper, X)
        return parts, {**grads, "w_enc": grads["w_enc"] - hyper.lambda3 * model.w_enc}

    monkeypatch.setattr(net, "loss", half_the_w_enc_decay)
    assert check_full_loss(np.random.default_rng(0), d=11, k=6, n=2) > gradcheck.DEFAULT_TOL


def _central_diff_loop(f, arr):
    """The per-element oracle: f evaluated on arr itself, one element moved at a time."""
    arr = np.array(arr, dtype=np.float64)
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        h = FD_STEP * max(1.0, abs(orig))
        arr[idx] = orig + h
        fp = f(arr)
        arr[idx] = orig - h
        fm = f(arr)
        arr[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


@pytest.mark.parametrize("check", [check_sad, check_batchnorm, check_l1norm, check_full_loss])
def test_stacked_central_diff_matches_the_per_element_loop(check, monkeypatch):
    """Each stacked FD array equals the loop over unstacked evaluations, bit for bit."""
    seen = []
    real = gradcheck._central_diff

    def spy(f, arr):
        # f may close over loop variables of the check: take the oracle now;
        # hand back a copy, since check_l1norm edits its FD array in place
        seen.append((real(f, arr), _central_diff_loop(f, arr)))
        return seen[-1][0].copy()

    monkeypatch.setattr(gradcheck, "_central_diff", spy)
    rng = np.random.default_rng(22)
    for _ in range(10):
        check(rng)
    # sad: every-pair and paired; batchnorm: H and rho; l1norm: z*; full_loss: 3 arrays
    assert len(seen) == {check_sad: 20, check_batchnorm: 20, check_l1norm: 10,
                         check_full_loss: 30}[check]
    for stacked, oracle in seen:
        np.testing.assert_array_equal(stacked, oracle)


def test_rel_error_floor():
    assert rel_error(np.zeros(3), np.zeros(3)) == 0.0


# --- model structure and checkpoints ----------------------------------------

def test_no_bias_parameter_count():
    model = EndNetModel.from_endmembers(np.ones((3, 10)))
    assert sum(p.size for p in model.params().values()) == 3 * 10 + 3 + 10 * 3
    assert set(model.params()) == {"w_enc", "rho", "w_dec"}


def test_from_endmembers_seeds_both_sets():
    e = np.arange(12.0).reshape(3, 4) + 1.0
    model = EndNetModel.from_endmembers(e)
    np.testing.assert_array_equal(model.w_enc, e)
    np.testing.assert_array_equal(model.w_dec, e.T)
    np.testing.assert_array_equal(model.rho, 0.0)
    np.testing.assert_array_equal(model.endmembers(), e)


def test_from_endmembers_seeds_each_replica_from_its_own_estimate():
    e = np.arange(24.0).reshape(2, 3, 4) + 1.0
    model = EndNetModel.from_endmembers(e)
    assert model.replicas == (2,) and model.rho.shape == (2, 3)
    for r in range(2):
        np.testing.assert_array_equal(model.w_enc[r], e[r])
        np.testing.assert_array_equal(model.w_dec[r], e[r].T)
    np.testing.assert_array_equal(model.endmembers(), e)
    model.w_enc += 1.0
    np.testing.assert_array_equal(model.endmembers(), e)  # w_enc is a copy


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    model = _toy_model(rng)
    model.rho[:] = rng.normal(0, 1, 3)
    path = tmp_path / "m.endn"
    model.save(path)
    back = EndNetModel.load(path)
    for name in ("w_enc", "rho", "w_dec", "run_mean", "run_var"):
        np.testing.assert_array_equal(getattr(back, name), getattr(model, name))


def test_checkpoint_bad_files(tmp_path):
    path = tmp_path / "bad.endn"
    path.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(CubeFormatError):
        EndNetModel.load(path)
    rng = np.random.default_rng(16)
    model = _toy_model(rng)
    good = tmp_path / "good.endn"
    model.save(good)
    truncated = tmp_path / "trunc.endn"
    truncated.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(CubeFormatError):
        EndNetModel.load(truncated)
