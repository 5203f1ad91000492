"""Stochastic training loop: denoising corruption, Adam, deterministic seeding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_io import _csv_text, write_file
from .datatypes import HyperCube
from .errors import NumericalDivergence
from .initializers import InitResult
from .net import EndNetModel, HyperParams, dropout_mask, forward_batch, loss

ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOG_EVERY = 1000
BN_MOMENTUM = 0.9


@dataclass(frozen=True)
class TrainConfig:
    iters: int = field(default=20000, metadata={"help": "training iterations"})
    lr: float = field(default=0.001, metadata={"help": "learning rate"})
    batch_size: int = field(default=64, metadata={"flag": "--batch", "help": "mini-batch size"})
    beta1: float = field(default=0.7, metadata={"help": "Adam first-moment decay"})
    hyper: HyperParams = field(default_factory=HyperParams)
    corrupt_mask_frac: float = field(default=0.4, metadata={
        "flag": "--mask-noise", "help": "max fraction of bands corrupted per sample"})
    corrupt_sigma: float | None = field(default=None, metadata={
        "help": "corruption noise std; %(default)s means 0.1 * cube std"})
    seed: int = field(default=0, metadata={"help": "RNG seed"})

    def __post_init__(self):
        """Raise ValueError, naming the field, on a bad value."""
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch normalization)")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0.0 <= self.corrupt_mask_frac <= 1.0:
            raise ValueError("corrupt_mask_frac must lie in [0, 1]")
        if self.corrupt_sigma is not None and not 0.0 <= self.corrupt_sigma < math.inf:
            raise ValueError("corrupt_sigma must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TrainLog:
    """The logged iterations of a run, one (iter, loss, z_l1, recon_sad) tuple each."""

    rows: list = field(default_factory=list)

    def write_csv(self, path):
        write_file(path, _csv_text([("iter", "loss", "z_l1", "recon_sad"), *self.rows]))


def corrupt(x, mask_frac, sigma, rng):
    """Denoising corruption: additive Gaussian noise on a random band subset.

    Takes one spectrum (D,) or a batch (N, D) and returns the same shape.
    Each row draws its band count m uniformly from 0..floor(mask_frac * D),
    so at most that fraction of its bands ever changes, and perturbs the m
    distinct bands that hold its m smallest keys in one block of uniform
    keys.  The input is untouched.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    max_m = int(np.floor(mask_frac * d))
    x_tilde = x.copy()  # C order, so its flat view below writes through
    if max_m == 0 or sigma == 0.0:
        # no band can change: return the copy and draw nothing from rng
        return x_tilde
    n = x_tilde.size // d
    m = rng.integers(0, max_m + 1, size=n)
    keys = rng.random((n, d))
    # a row's m smallest keys are the ones at or below its m-th smallest;
    # a row with m = 0 compares against -1, below every key
    kth = np.sort(keys, axis=1)[np.arange(n), m - 1]
    kth[m == 0] = -1.0
    hit = np.flatnonzero(keys <= kth[:, None])
    x_tilde.reshape(-1)[hit] += rng.normal(0.0, sigma, hit.size)
    return x_tilde


# leaves of the pairwise sum in _noise_scale; the size of its one buffer
_STD_LEAF = 1 << 16


def _noise_scale(X):
    """``float(X.std())`` of a C-contiguous float64 array, bit for bit,
    without the N x D temporary that ``std`` builds.

    NumPy sums a contiguous array pairwise over its whole length, halving a
    part of n elements at n2 = n//2 - (n//2) % 8.  The squared deviations
    follow the same splits down to leaves of at most ``_STD_LEAF`` elements,
    and the leaf sums add up in the same tree order.  Every leaf reuses one
    buffer, which stays in cache.
    """
    flat = X.reshape(-1)
    mean = np.add.reduce(flat) / flat.size
    buf = np.empty(min(flat.size, _STD_LEAF))
    return float(np.sqrt(_sum_sq_dev(flat, mean, buf) / flat.size))


def _sum_sq_dev(part, mean, buf):
    """Sum of (part - mean)**2 in NumPy's pairwise order, each leaf squared in buf."""
    n = part.size
    if n <= _STD_LEAF:
        d = np.subtract(part, mean, out=buf[:n])
        return np.add.reduce(np.multiply(d, d, out=d))
    n2 = n // 2 - (n // 2) % 8
    return _sum_sq_dev(part[:n2], mean, buf) + _sum_sq_dev(part[n2:], mean, buf)


class AdamState:
    """First/second moment accumulators for one flat parameter vector."""

    def __init__(self, params):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0


def adam_step(params, grads, state, lr, beta1=TrainConfig.beta1):
    """One bias-corrected Adam update of a parameter array, applied in place."""
    state.t += 1
    t = state.t
    if not np.isfinite(grads).all():
        raise NumericalDivergence("non-finite gradient")
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    params -= lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPS)


def _flat_params(model):
    """Rebind the model's trainable arrays as views of one flat vector; returns it."""
    params = model.params()
    flat = np.concatenate([p.reshape(-1) for p in params.values()])
    start = 0
    for name, p in params.items():
        setattr(model, name, flat[start:start + p.size].reshape(p.shape))
        start += p.size
    return flat


def train(cube: HyperCube, init: InitResult, cfg: TrainConfig):
    """Optimize a model on the cube's pixels; returns (model, TrainLog).

    Bit-deterministic given (cube, init, cfg.seed): a single seeded RNG
    drives batch sampling, corruption and dropout in a fixed order.  The
    model's running batch-norm statistics start as iteration 1's batch
    statistics and then move by ``BN_MOMENTUM``.  The log holds iteration
    1, every ``LOG_EVERY``-th iteration and the last.
    """
    cfg.hyper.check_k(init.k)
    pixels = cube.data
    n = pixels.shape[0]
    model = EndNetModel.from_endmembers(init.endmembers.rows)
    flat = _flat_params(model)
    names = list(model.params())
    state = AdamState(flat)
    rng = np.random.default_rng(cfg.seed)
    sigma = cfg.corrupt_sigma
    if sigma is None:
        sigma = 0.1 * _noise_scale(pixels)
    log = TrainLog()

    for it in range(1, cfg.iters + 1):
        idx = rng.integers(0, n, size=cfg.batch_size)
        clean = pixels[idx]
        noisy = corrupt(clean, cfg.corrupt_mask_frac, sigma, rng)
        mask = dropout_mask(rng, (cfg.batch_size, model.k), cfg.hyper.dropout_p)
        trace = forward_batch(model, noisy, cfg.hyper, mode="train", dropout_mask=mask)
        if it == 1:
            model.run_mean, model.run_var = trace.bn_mean, trace.bn_var
        else:
            model.run_mean = BN_MOMENTUM * model.run_mean + (1.0 - BN_MOMENTUM) * trace.bn_mean
            model.run_var = BN_MOMENTUM * model.run_var + (1.0 - BN_MOMENTUM) * trace.bn_var
        try:
            loss_val, grads = loss(trace, model, cfg.hyper, clean)
            adam_step(flat, np.concatenate([grads[k].reshape(-1) for k in names]),
                      state, cfg.lr, cfg.beta1)
        except NumericalDivergence as exc:
            raise NumericalDivergence(f"iteration {it}: {exc}") from exc

        if it == 1 or it % LOG_EVERY == 0 or it == cfg.iters:
            mean_z = float(trace.z.sum(axis=1).mean())
            mean_sad = float(np.mean(np.pi * (1.0 - trace.c_recon)))
            log.rows.append((it, float(loss_val), mean_z, mean_sad))

    return model, log
