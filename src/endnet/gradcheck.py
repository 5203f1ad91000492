"""Central finite-difference verification of every analytic gradient.

Random instances are resampled until they sit safely away from the ReLU,
top-n and cosine-clamp kinks, where the loss is not differentiable.  The
candidates are screened in blocks, and all 2P perturbed copies of a
P-element array are evaluated together: each stack takes a leading
replica axis through one call of the layers that training runs.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import net

FD_STEP = 1e-6
KINK_MARGIN = 1e-4
DEFAULT_TOL = 1e-4
# candidates per stacked forward pass of the instance search, by measurement:
# blocks of 8 to 16 searched within 4 ms of each other in run_all(50, 0), 24 and 32 slower
SEARCH_BLOCK = 16
MAX_CANDIDATES = 5000


def rel_error(a, b, floor=1e-12):
    """Norm-relative error with a scale floor for near-zero true gradients."""
    na = np.linalg.norm(np.asarray(a).ravel())
    nb = np.linalg.norm(np.asarray(b).ravel())
    return np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()) / max(na, nb, floor)


def _central_diff(f, arr):
    """Central differences of f at every element of the P-element ``arr``.

    f maps a (2P, *arr.shape) stack to its 2P values: row i holds arr with
    element i moved by +h_i, row P + i the same element moved by -h_i,
    where h_i = FD_STEP * max(1, |arr_i|).
    """
    flat = arr.ravel()
    p = flat.size
    h = FD_STEP * np.maximum(1.0, np.abs(flat))
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
    worst = 0.0
    for paired in (False, True):
        n = int(rng.integers(2, 4))
        k = n if paired else int(rng.integers(2, 4))
        while True:
            A = rng.uniform(0.1, 1.0, (n, d))
            B = rng.uniform(0.1, 1.0, (k, d)) + rng.normal(0.0, 0.3, (k, d))
            ang = net.angle(A, B, net.THETA_CLIP, paired)
            if np.abs(ang.theta).max() < 1.0 - 1e-3:
                break
        G = rng.normal(0.0, 1.0, ang.s.shape)

        def value(Bs):
            return _weighted_sum(G, net.angle(A, Bs, net.THETA_CLIP, paired).similarity)

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
        out, _, _, _ = net.batchnorm_forward(Hs, rhos)
        return _weighted_sum(G, out)

    _, _, var, centered = net.batchnorm_forward(H, rho)
    dH, drho = net.batchnorm_backward(G, var, centered)
    # n=2 batches normalize to +-1 exactly, leaving an eps-scale input
    # gradient; compare against the layer's characteristic scale then
    floor = 1e-5 * np.linalg.norm(G)
    err_h = rel_error(dH, _central_diff(lambda Hs: value(Hs, rho), H), floor)
    err_rho = rel_error(drho, _central_diff(lambda rhos: value(H, rhos), rho), floor)
    return max(err_h, err_rho)


def check_l1norm(rng, k=None):
    """FD check of ``net.l1norm_backward`` against ``net.l1norm`` on the active entries."""
    k = k or int(rng.integers(2, 7))
    z_star = rng.uniform(0.5, 3.0, k)
    z_star[rng.random(k) < 0.3] = 0.0
    # a one-hot row has a ~eps-scale gradient; need two active entries for
    # a meaningful relative comparison
    while (z_star > 0.0).sum() < 2:
        z_star[int(rng.integers(0, k))] = rng.uniform(0.5, 3.0)
    G = rng.normal(0.0, 1.0, k)

    def value(zs):
        return np.einsum("...k,k->...", net.l1norm(zs), G)

    analytic = net.l1norm_backward(G, z_star, net.l1norm(z_star))
    fd = _central_diff(value, z_star)
    fd[z_star == 0.0] = 0.0  # spec'd convention at the kink
    return rel_error(analytic, fd)


def _random_instance(rng, d, k, n, hyper):
    """Sample a model, batch and dropout mask whose forward sits away from every kink.

    Each block of ``SEARCH_BLOCK`` candidates is drawn as arrays with a
    leading replica axis: the batch, the three arrays and the mask that
    training would draw, with ``net.dropout_mask``.  A block is screened by
    one stacked forward pass, and one loss pass when a candidate clears the
    forward screens; the first candidate that clears every screen is
    returned.  The instance thus depends on the block size as well as on
    ``rng``.
    """
    for start in range(0, MAX_CANDIDATES, SEARCH_BLOCK):
        size = min(SEARCH_BLOCK, MAX_CANDIDATES - start)
        X = rng.uniform(0.1, 1.0, (size, n, d))
        model = net.EndNetModel(w_enc=rng.uniform(0.1, 1.0, (size, k, d)),
                                rho=rng.normal(0.2, 0.5, (size, k)),
                                w_dec=rng.uniform(0.05, 1.0, (size, d, k)))
        mask = net.dropout_mask(rng, (size, n, k), hyper.dropout_p)
        trace = net.forward_batch(model, X, hyper, mode="train", dropout_mask=mask)
        ok = ((np.abs(trace.bn_out).min(axis=(-2, -1)) >= KINK_MARGIN)
              & (np.abs(trace.angle.theta).max(axis=(-2, -1)) <= 1.0 - 1e-3)
              & (trace.z_star_sum.min(axis=-1) >= 1e-3))
        if hyper.top_n < k:
            # a tie at the n-th place is a kink only among positive entries
            zs = -np.sort(-trace.z, axis=-1)
            ok &= ((zs[..., hyper.top_n - 1] - zs[..., hyper.top_n] >= KINK_MARGIN)
                   | (zs[..., hyper.top_n - 1] == 0.0)).all(axis=-1)
        if ok.any():
            c_recon = net.loss_value(trace, model, hyper, X).c_recon
            ok &= (c_recon.min(axis=-1) >= 0.02) & (c_recon.max(axis=-1) <= 1.0 - 1e-3)
        if ok.any():
            j = int(ok.argmax())
            return (net.EndNetModel(w_enc=model.w_enc[j], rho=model.rho[j], w_dec=model.w_dec[j]),
                    X[j], trace.dropout_mask[j])
    raise RuntimeError("could not sample a kink-free gradcheck instance")


def check_full_loss(rng, d=None, k=None, n=None, hyper=None):
    """FD check of the complete loss gradient for every trainable array.

    ``hyper`` defaults to the reference setup; with ``dropout_p < 1`` a
    dropout mask is drawn with the instance and pinned for every evaluation.
    """
    d = d or int(rng.integers(5, 21))
    k = k or int(rng.integers(2, 7))
    n = n or int(rng.integers(2, 9))
    hyper = hyper or net.HyperParams()
    model, X, mask = _random_instance(rng, d, k, n, hyper)
    params = model.params()

    def value(name, stack):
        # one stacked model whose `name` array carries the replica axis
        stacked = net.EndNetModel(**{**params, name: stack})
        trace = net.forward_batch(stacked, X, hyper, mode="train", dropout_mask=mask)
        return net.loss_value(trace, stacked, hyper, X).total

    trace = net.forward_batch(model, X, hyper, mode="train", dropout_mask=mask)
    parts, grads = net.loss(trace, model, hyper, X)
    # n=2 batches normalize to +-1 exactly and can leave w_enc so small a
    # gradient that the differences' rounding noise, which grows with the
    # loss, reads as a large relative error; compare against 1% of the loss
    floor = 1e-2 * abs(parts.total)
    worst = 0.0
    for name, arr in params.items():
        worst = max(worst, rel_error(grads[name], _central_diff(partial(value, name), arr), floor))
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
