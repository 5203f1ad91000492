"""Central finite-difference verification of every analytic gradient.

Random instances are resampled until they sit safely away from the ReLU,
top-n and cosine-clamp kinks, where the loss is not differentiable.  All
2P perturbed copies of a P-element array are stacked on a leading replica
axis and evaluated in one call of the layers that training runs.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import net

FD_STEP = 1e-6
KINK_MARGIN = 1e-4
DEFAULT_TOL = 1e-4


def rel_error(a, b, floor=1e-12):
    """Norm-relative error with a scale floor for near-zero true gradients."""
    na = np.linalg.norm(np.asarray(a).ravel())
    nb = np.linalg.norm(np.asarray(b).ravel())
    return np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()) / max(na, nb, floor)


def _central_diff(f, arr, step=FD_STEP):
    """Central differences of f at every element of the P-element ``arr``.

    f maps a (2P, *arr.shape) stack to its 2P values: row i holds arr with
    element i moved by +h_i, row P + i the same element moved by -h_i,
    where h_i = step * max(1, |arr_i|).
    """
    arr = np.asarray(arr, dtype=np.float64)
    flat = arr.ravel()
    p = flat.size
    h = step * np.maximum(1.0, np.abs(flat))
    stack = np.tile(flat, (2 * p, 1))
    i = np.arange(p)
    stack[i, i] = flat + h
    stack[p + i, i] = flat - h
    values = f(stack.reshape((2 * p,) + arr.shape))
    return ((values[:p] - values[p:]) / (2.0 * h)).reshape(arr.shape)


def _weighted_sum(G, out):
    """sum(G * out) over G's axes, once per leading replica of ``out``."""
    return np.sum(G * out, axis=tuple(range(-G.ndim, 0)))


def check_sad(rng, d=None):
    """FD check of the angle backward that both similarity terms of the loss use.

    Every-pair mode (samples against encoder filters) and paired mode
    (targets against reconstructions), each under a random upstream gradient.
    """
    d = d or int(rng.integers(5, 21))
    theta_clip = net.HyperParams().theta_clip
    worst = 0.0
    for paired in (False, True):
        n = int(rng.integers(2, 4))
        k = n if paired else int(rng.integers(2, 4))
        while True:
            A = rng.uniform(0.1, 1.0, (n, d))
            B = rng.uniform(0.1, 1.0, (k, d)) + rng.normal(0.0, 0.3, (k, d))
            if np.linalg.norm(B, axis=1).min() < 1e-3:
                continue
            ang = net.angle(A, B, theta_clip, paired)
            if np.abs(ang.theta).max() < 1.0 - 1e-3:
                break
        G = rng.normal(0.0, 1.0, ang.s.shape)

        def value(Bs):
            return _weighted_sum(G, net.angle(A, Bs, theta_clip, paired).similarity)

        analytic = net.angle_backward(ang, G)
        worst = max(worst, rel_error(analytic, _central_diff(value, B)))
    return worst


def check_batchnorm(rng, n=None, k=None):
    """FD check of train-mode batch-norm backward (inputs and shift)."""
    n = n or int(rng.integers(2, 9))
    k = k or int(rng.integers(2, 7))
    # near-zero column variance makes 1/sqrt(var+eps) huge and wrecks the
    # finite-difference conditioning; keep a healthy spread
    while True:
        H = rng.normal(0.0, 1.0, (n, k))
        if H.var(axis=0).min() > 0.05:
            break
    rho = rng.normal(0.0, 0.5, k)
    G = rng.normal(0.0, 1.0, (n, k))

    def value(Hs, rhos):
        out, _, _, _ = net.batchnorm_forward(Hs, rhos, mode="train")
        return _weighted_sum(G, out)

    _, _, var, centered = net.batchnorm_forward(H, rho, mode="train")
    dH, drho = net.batchnorm_backward(G, var, centered)
    # n=2 batches normalize to +-1 exactly, leaving an eps-scale input
    # gradient; compare against the layer's characteristic scale then
    floor = 1e-5 * np.linalg.norm(G)
    err_h = rel_error(dH, _central_diff(lambda Hs: value(Hs, rho), H), floor)
    err_rho = rel_error(drho, _central_diff(lambda rhos: value(H, rhos), rho), floor)
    return max(err_h, err_rho)


def check_l1norm(rng, k=None):
    """FD check of the l1-normalization backward on the active entries."""
    k = k or int(rng.integers(2, 7))
    z_star = rng.uniform(0.5, 3.0, k)
    z_star[rng.random(k) < 0.3] = 0.0
    # a one-hot row has a ~eps-scale gradient; need two active entries for
    # a meaningful relative comparison
    while (z_star > 0.0).sum() < 2:
        z_star[int(rng.integers(0, k))] = rng.uniform(0.5, 3.0)
    G = rng.normal(0.0, 1.0, k)
    eps = net.HyperParams.eps

    def value(zs):
        ys = zs / (zs.sum(axis=-1, keepdims=True) + eps)
        # np.dot per row: a matrix product rounds these sums differently
        return np.array([np.dot(G, y) for y in ys])

    y = z_star / (z_star.sum() + eps)
    analytic = net.l1norm_backward(G, z_star, y, eps)
    fd = _central_diff(value, z_star)
    fd[z_star == 0.0] = 0.0  # spec'd convention at the kink
    return rel_error(analytic, fd)


def _random_instance(rng, d, k, n, hyper):
    """Sample a model, batch and dropout mask whose forward sits away from every kink.

    With ``hyper.dropout_p < 1`` each attempt draws its own mask, the way
    training does; the instance is kink-free under the mask it returns.
    """
    for _ in range(5000):
        X = rng.uniform(0.1, 1.0, (n, d))
        model = net.EndNetModel(
            w_enc=rng.uniform(0.1, 1.0, (k, d)),
            rho=rng.normal(0.2, 0.5, k),
            w_dec=rng.uniform(0.05, 1.0, (d, k)))
        trace = net.forward_batch(model, X, hyper, mode="train", rng=rng)
        if np.abs(trace.bn_out).min() < KINK_MARGIN:
            continue
        if np.abs(trace.angle.theta).max() > 1.0 - 1e-3:
            continue
        if hyper.top_n < k:
            zs = -np.sort(-trace.z, axis=1)
            if (zs[:, hyper.top_n - 1] - zs[:, hyper.top_n]).min() < KINK_MARGIN:
                continue
        if trace.z_star_sum.min() < 1e-3:
            continue
        net.loss_value(trace, model, hyper, X)  # fills trace.c_recon
        if trace.c_recon.min() < 0.02 or trace.c_recon.max() > 1.0 - 1e-3:
            continue
        return model, X, trace.dropout_mask
    raise RuntimeError("could not sample a kink-free gradcheck instance")


def check_full_loss(rng, d=None, k=None, n=None, hyper=None):
    """FD check of the complete loss gradient for every trainable array.

    ``hyper`` defaults to the reference setup with top_n capped at k; with
    ``dropout_p < 1`` a dropout mask is drawn with the instance and pinned
    for every evaluation.
    """
    d = d or int(rng.integers(5, 21))
    k = k or int(rng.integers(2, 7))
    n = n or int(rng.integers(2, 9))
    hyper = hyper or net.HyperParams(top_n=min(net.HyperParams.top_n, k))
    model, X, mask = _random_instance(rng, d, k, n, hyper)
    params = model.params()

    def value(name, stack):
        # one stacked model whose `name` array carries the replica axis
        stacked = net.EndNetModel(**{**params, name: stack})
        trace = net.forward_batch(stacked, X, hyper, mode="train", dropout_mask=mask)
        return net.loss_value(trace, stacked, hyper, X)

    trace = net.forward_batch(model, X, hyper, mode="train", dropout_mask=mask)
    _, grads = net.loss(trace, model, hyper, X)
    worst = 0.0
    for name, arr in params.items():
        worst = max(worst, rel_error(grads[name], _central_diff(partial(value, name), arr)))
    return worst


LAYERS = {
    "sad": check_sad,
    "batchnorm": check_batchnorm,
    "l1norm": check_l1norm,
    "full_loss": check_full_loss,
}


def run_all(trials=50, seed=0, tol=DEFAULT_TOL):
    """Run every layer check ``trials`` times; returns {layer: worst error}."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    results = {}
    for name, fn in LAYERS.items():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            worst = max(worst, fn(rng))
        results[name] = worst
    return results, all(v < tol for v in results.values())
