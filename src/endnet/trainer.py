"""Stochastic training loop: denoising corruption, Adam, deterministic seeding."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .datatypes import HyperCube
from .errors import NumericalDivergence
from .initializers import InitResult
from .net import EndNetModel, HyperParams, forward_batch, loss


@dataclass
class TrainConfig:
    iters: int = 20000
    lr: float = 0.001
    batch_size: int = 64
    beta1: float = 0.7
    beta2: float = 0.999
    adam_eps: float = 1e-8
    hyper: HyperParams = field(default_factory=HyperParams)
    corrupt_mask_frac: float = 0.4
    corrupt_sigma: float | None = None  # None: 0.1 * global std of the cube
    seed: int = 0
    log_every: int = 1000

    def validate(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch normalization)")
        if not 0.0 <= self.corrupt_mask_frac <= 1.0:
            raise ValueError("corrupt_mask_frac must lie in [0, 1]")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta1 must lie in [0, 1)")
        if self.iters < 1 or self.lr <= 0:
            raise ValueError("iters and lr must be positive")


@dataclass
class TrainLog:
    iterations: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    z_l1: list = field(default_factory=list)
    recon_sad: list = field(default_factory=list)

    def append(self, it, loss_val, z_l1, recon_sad):
        self.iterations.append(it)
        self.losses.append(loss_val)
        self.z_l1.append(z_l1)
        self.recon_sad.append(recon_sad)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "loss", "z_l1", "recon_sad"])
            for row in zip(self.iterations, self.losses, self.z_l1, self.recon_sad):
                writer.writerow(row)


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
        # keep the rng stream identical whether or not noise lands
        return x_tilde
    n = x_tilde.size // d
    m = rng.integers(0, max_m + 1, size=(n, 1))
    keys = rng.random((n, d))
    # a row's m smallest keys are the ones at or below its m-th smallest
    kth = np.take_along_axis(np.sort(keys, axis=1), np.maximum(m - 1, 0), axis=1)
    hit = np.flatnonzero((keys <= kth) & (m > 0))
    x_tilde.reshape(-1)[hit] += rng.normal(0.0, sigma, hit.size)
    return x_tilde


class AdamState:
    """First/second moment accumulators for a dict of parameter arrays."""

    def __init__(self, params):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0


def adam_step(params, grads, state, lr, beta1=0.7, beta2=0.999, adam_eps=1e-8):
    """One bias-corrected Adam update, applied in place."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise NumericalDivergence(f"non-finite gradient for {name}")
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / (1.0 - beta1 ** t)
        v_hat = state.v[name] / (1.0 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + adam_eps)


def train(cube: HyperCube, init: InitResult, cfg: TrainConfig):
    """Optimize a model on the cube's pixels; returns (model, TrainLog).

    Bit-deterministic given (cube, init, cfg.seed): a single seeded RNG
    drives batch sampling, corruption and dropout in a fixed order.
    """
    cfg.validate()
    cfg.hyper.validate(init.k)
    pixels = cube.data
    n = pixels.shape[0]
    model = EndNetModel.from_endmembers(init.endmembers.rows)
    state = AdamState(model.params())
    rng = np.random.default_rng(cfg.seed)
    sigma = cfg.corrupt_sigma
    if sigma is None:
        sigma = 0.1 * float(pixels.std())
    log = TrainLog()

    for it in range(1, cfg.iters + 1):
        idx = rng.integers(0, n, size=cfg.batch_size)
        clean = pixels[idx]
        noisy = corrupt(clean, cfg.corrupt_mask_frac, sigma, rng)
        trace = forward_batch(model, noisy, cfg.hyper, mode="train", rng=rng)
        model.update_run_stats(trace.bn_mean, trace.bn_var)
        try:
            loss_val, grads = loss(trace, model, cfg.hyper, clean)
            adam_step(model.params(), grads, state, cfg.lr,
                      cfg.beta1, cfg.beta2, cfg.adam_eps)
        except NumericalDivergence as exc:
            raise NumericalDivergence(f"iteration {it}: {exc}") from exc

        if it == 1 or it % cfg.log_every == 0 or it == cfg.iters:
            mean_z = float(trace.z.sum(axis=1).mean())
            mean_sad = float(np.mean(np.pi * (1.0 - trace.c_recon)))
            log.append(it, float(loss_val), mean_z, mean_sad)

    return model, log
