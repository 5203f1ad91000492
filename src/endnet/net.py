"""Encoder/decoder forward pass, composite loss, and analytic gradients.

The encoder scores each pixel against every filter row with a normalized
spectral-angle similarity, applies shift-only batch normalization, ReLU,
dropout, hard top-n selection and l1 normalization; the decoder is a plain
bias-free linear map whose columns converge to the endmembers.  All
gradients are derived by hand and checked against finite differences in
the gradcheck module.  Nothing here draws at random: the dropout mask is an
input, drawn with ``dropout_mask`` by the training loop for each batch and
by the gradient check for each instance.

Every layer, forward and backward, and the loss take a leading replica
axis, ``(..., N, .)``: a model whose parameter arrays carry extra leading
axes (which broadcast against each other) is evaluated and differentiated
for every replica in one call; a single model has no replica axes.
Gradient checks use it to evaluate all perturbed parameter sets at once.
Only the checkpoint format (``save``, ``load``) takes one unstacked model.
The loss returns its terms and the decoder output as ``LossParts``; no
function writes into a ``ForwardTrace`` once ``forward_batch`` has made it.
``forward_batch`` (its batch) and the loss (its target) convert their
input; the layers below them take the float64 arrays they are handed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data_io import _check_angle_rows, write_file
from .errors import CubeFormatError, NumericalDivergence

CHECKPOINT_MAGIC = b"ENDN"
CHECKPOINT_VERSION = 1
# keeps the batch-norm variance, the l1 mass and the KL log's argument off zero
EPS = 1e-8
# training clamps cosines to +-(1 - THETA_CLIP), where the angle has a finite slope
THETA_CLIP = 1e-7


@dataclass(frozen=True)
class HyperParams:
    """Loss weights and layer knobs; defaults follow the reference setup."""

    lambda0: float = field(default=0.01, metadata={"help": "euclidean reconstruction weight"})
    lambda1: float = field(default=10.0, metadata={"help": "angular (KL) reconstruction weight"})
    lambda2: float = field(default=0.1, metadata={"help": "activation l1 sparsity weight"})
    lambda3: float = field(default=1e-5, metadata={"help": "encoder weight decay"})
    lambda4: float = field(default=1e-5, metadata={"help": "decoder weight decay"})
    lambda5: float = field(default=1e-3, metadata={"help": "shift-parameter weight decay"})
    dropout_p: float = field(default=1.0, metadata={
        "flag": "--dropout", "help": "dropout keep probability p"})
    top_n: int = field(default=2, metadata={"help": "hard-selected activation count"})

    def __post_init__(self):
        """Raise ValueError, naming the field, on an out-of-range or non-finite value."""
        for name in ("lambda0", "lambda1", "lambda2", "lambda3", "lambda4", "lambda5"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        if not 0.0 < self.dropout_p <= 1.0:
            raise ValueError("dropout_p must lie in (0, 1]")
        if self.top_n < 1:
            raise ValueError("top_n must lie in [1, k]")

    def check_k(self, k):
        """Raise ValueError unless these settings can train k endmembers."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.top_n > k:
            raise ValueError("top_n must lie in [1, k]")


class EndNetModel:
    """Trainable parameters plus running normalization statistics.

    No bias vectors exist anywhere; encoder and decoder use disjoint
    parameter sets (w_enc is K x D, w_dec is D x K).  A stacked model gives
    any of them leading replica axes: (..., K, D), (..., K), (..., D, K).
    """

    def __init__(self, w_enc, rho, w_dec, run_mean=None, run_var=None):
        self.w_enc = np.array(w_enc, dtype=np.float64)
        self.rho = np.array(rho, dtype=np.float64)
        self.w_dec = np.array(w_dec, dtype=np.float64)
        k, d = self.w_enc.shape[-2:]
        if self.w_dec.shape[-2:] != (d, k) or self.rho.shape[-1:] != (k,):
            raise ValueError("inconsistent parameter shapes")
        # raises ValueError unless the replica axes broadcast
        self.replicas = np.broadcast_shapes(
            self.w_enc.shape[:-2], self.rho.shape[:-1], self.w_dec.shape[:-2])
        self.run_mean = np.zeros(k) if run_mean is None else np.array(run_mean, dtype=np.float64)
        self.run_var = np.ones(k) if run_var is None else np.array(run_var, dtype=np.float64)

    @property
    def k(self):
        return self.w_enc.shape[-2]

    @property
    def d(self):
        return self.w_enc.shape[-1]

    @classmethod
    def from_endmembers(cls, endmembers):
        """Seed both filter sets from a (..., K, D) endmember estimate; rho = 0."""
        e = np.array(endmembers, dtype=np.float64)
        return cls(w_enc=e, rho=np.zeros(e.shape[:-1]), w_dec=e.swapaxes(-1, -2).copy())

    def endmembers(self):
        return self.w_dec.swapaxes(-1, -2).copy()

    def params(self):
        return {"w_enc": self.w_enc, "rho": self.rho, "w_dec": self.w_dec}

    def save(self, path):
        if self.replicas:
            raise ValueError("a stacked model has no checkpoint format")
        header = CHECKPOINT_MAGIC + struct.pack("<III", CHECKPOINT_VERSION, self.d, self.k)
        payload = b"".join(
            np.ascontiguousarray(a, dtype="<f8").tobytes()
            for a in (self.w_enc, self.rho, self.run_mean, self.run_var, self.w_dec))
        write_file(path, header + payload)

    @classmethod
    def load(cls, path):
        """The model saved in ``path``; a file that is not a sound checkpoint
        raises CubeFormatError naming it."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != CHECKPOINT_MAGIC:
            raise CubeFormatError(f"{path} is not a model checkpoint")
        if len(blob) < 16:
            raise CubeFormatError(f"checkpoint {path} ends inside its header")
        version, d, k = struct.unpack("<III", blob[4:16])
        if version != CHECKPOINT_VERSION:
            raise CubeFormatError(f"unsupported checkpoint version {version} in {path}")
        if k < 1 or d < 1:
            raise CubeFormatError(f"checkpoint {path} declares {k} endmembers and {d} bands")
        sizes = [k * d, k, k, k, d * k]
        if len(blob) != 16 + 8 * sum(sizes):
            raise CubeFormatError(f"checkpoint {path} holds {len(blob)} bytes, "
                                  f"its header declares {16 + 8 * sum(sizes)}")
        body = np.frombuffer(blob[16:], dtype="<f8")
        if not np.isfinite(body).all():
            raise CubeFormatError(f"non-finite values in checkpoint {path}")
        parts = np.split(body, np.cumsum(sizes)[:-1])
        if (parts[3] < 0.0).any():
            raise CubeFormatError(f"negative running variance in checkpoint {path}")
        w_enc, w_dec = parts[0].reshape(k, d), parts[4].reshape(d, k)
        for rows in (w_enc, w_dec.T):  # the filters and the endmembers
            _check_angle_rows(rows, f"checkpoint {path}")
        return cls(w_enc=w_enc, rho=parts[1], w_dec=w_dec, run_mean=parts[2], run_var=parts[3])


class Angle(NamedTuple):
    """Spectral angles between the rows of ``a`` and ``b``, kept for the backward."""

    a: np.ndarray
    b: np.ndarray
    a_norm: np.ndarray
    b_norm: np.ndarray
    dot: np.ndarray       # inner products
    cos: np.ndarray       # cosines
    theta: np.ndarray     # cosines clamped to +-(1 - theta_clip)
    clipped: np.ndarray   # bool mask where the clamp engaged
    s: np.ndarray         # angles in [0, pi]
    paired: bool          # row i of a with row i of b, else every pair

    @property
    def similarity(self):
        """The score C = 1 - s/pi in [0, 1] that the encoder and SPU use."""
        return 1.0 - self.s / np.pi


def angle(A, B, theta_clip, paired=False):
    """Spectral angles between the rows of A and the rows of B.

    Every row of A against every row of B (an N x K result) by default;
    ``paired=True`` takes row i of A with row i of B.  Leading replica axes
    of A and B broadcast: (..., N, D) against (..., K, D).  The cosine is
    clamped to +-(1 - theta_clip), where the angle still has a finite slope.
    A zero-norm row of A or of B has no angle and is rejected in both modes.
    Each product and norm is an ``einsum`` reduction over its own row, so a
    row's result does not depend on the other rows in the call.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    a_norm = np.sqrt(np.einsum("...ij,...ij->...i", A, A))
    b_norm = np.sqrt(np.einsum("...ij,...ij->...i", B, B))
    if not (a_norm.all() and b_norm.all()):
        raise ValueError("a zero-norm spectrum has no angle")
    if paired:
        dot = np.einsum("...ij,...ij->...i", A, B)
        cos = dot / (a_norm * b_norm)
    else:
        dot = np.einsum("...nd,...kd->...nk", A, B)
        cos = dot / (a_norm[..., :, None] * b_norm[..., None, :])
    clipped = np.abs(cos) >= 1.0 - theta_clip
    theta = np.minimum(np.maximum(cos, -1.0 + theta_clip), 1.0 - theta_clip)
    return Angle(A, B, a_norm, b_norm, dot, cos, theta, clipped, np.arccos(theta), paired)


def angle_backward(ang, d_c):
    """Gradient w.r.t. the rows of ``ang.b``, given d_c = d loss / d ``ang.similarity``.

    Nothing passes where the clamp engaged.  In every-pair mode each row of
    B sums the contributions of all rows of A.
    """
    # (dC/dS)(dS/dtheta) = (-1/pi)(-1/sqrt(1-theta^2))
    coef = np.where(ang.clipped, 0.0, d_c / (np.pi * np.sqrt(1.0 - ang.theta ** 2)))
    if ang.paired:
        an, bn = ang.a_norm, ang.b_norm
        return coef[..., None] * (ang.a / (bn * an)[..., None]
                                  - ang.b * (ang.dot / (bn ** 3 * an))[..., None])
    a = coef / (ang.a_norm[..., :, None] * ang.b_norm[..., None, :])
    b = coef * ang.dot / (ang.a_norm[..., :, None] * (ang.b_norm ** 3)[..., None, :])
    return a.swapaxes(-1, -2) @ ang.a - b.sum(axis=-2)[..., None] * ang.b


@dataclass(frozen=True)
class ForwardTrace:
    """Per-batch intermediates retained for the backward pass; read-only once made."""

    angle: Angle              # forward input (possibly corrupted) vs w_enc, N x K
    bn_mean: np.ndarray
    bn_var: np.ndarray
    bn_centered: np.ndarray   # (similarity - mean) / std, N x K
    bn_out: np.ndarray
    dropout_mask: np.ndarray  # r in {0, 1/p}, a broadcast 1.0 without dropout
    z: np.ndarray
    z_star: np.ndarray
    z_star_sum: np.ndarray    # l1 mass per sample
    y: np.ndarray
    mode: str = "train"


def batchnorm_forward(H, rho, run_stats=None):
    """Shift-only batch normalization: (h - mu)/sqrt(var + EPS) + rho.

    Without ``run_stats`` (train mode) the statistics are per column over
    the mini-batch (the row axis, -2), bit-identical to ``H.mean(-2)`` and
    ``H.var(-2)``; infer mode passes ``run_stats = (mean, var)``.  rho is
    (..., K).  Returns (out, mean, var, centered).
    """
    if run_stats is None:
        n = H.shape[-2]
        if n < 2:
            raise ValueError("train-mode batch norm needs at least two samples")
        mean = np.add.reduce(H, axis=-2) / n
        diff = H - mean[..., None, :]
        var = np.add.reduce(diff * diff, axis=-2) / n
    else:
        mean, var = run_stats
        diff = H - mean[..., None, :]
    centered = diff / np.sqrt(var + EPS)[..., None, :]
    return centered + rho[..., None, :], mean, var, centered


def batchnorm_backward(d_out, bn_var, bn_centered):
    """Full-batch backward through train-mode shift-only batch norm.

    Accounts for the dependence of the batch statistics on every sample
    (the row axis, -2).  Returns (dH, drho).
    """
    n = d_out.shape[-2]
    inv_std = 1.0 / np.sqrt(bn_var + EPS)[..., None, :]
    g_sum = d_out.sum(axis=-2, keepdims=True)
    gc_sum = (d_out * bn_centered).sum(axis=-2, keepdims=True)
    dH = (inv_std / n) * (n * d_out - g_sum - bn_centered * gc_sum)
    return dH, g_sum[..., 0, :]


def relu_topn_l1(z_pre, dropout_mask, top_n):
    """ReLU gate, dropout, hard top-n selection, then l1 normalization.

    Ties in the top-n selection resolve toward the lower index.  Returns
    (z, z_star, y); an all-zero z yields the zero vector for y.
    """
    z = dropout_mask * (z_pre * (z_pre > 0.0))
    z_star = z * _topn_mask(z, top_n)
    return z, z_star, l1norm(z_star)


def dropout_mask(rng, shape, p):
    """Inverted-dropout mask r in {0, 1/p}, keep probability p; None, no draw, at p == 1."""
    return None if p >= 1.0 else (rng.random(shape) < p) / p


def _topn_mask(z, top_n):
    """Boolean mask of the top_n largest entries per row, every entry if top_n >= k.

    Stable tie-break; the rows of any leading axes are set through one 2-D fancy index.
    """
    k = z.shape[-1]
    order = np.argsort(-z, axis=-1, kind="stable").reshape(-1, k)
    mask = np.zeros(order.shape, dtype=bool)
    mask[np.arange(len(order))[:, None], order[:, :top_n]] = True
    return mask.reshape(z.shape)


def l1norm(z_star):
    """l1 normalization y = z*/(||z*||_1 + EPS) of each row; a row with no mass gives 0."""
    return z_star / (z_star.sum(axis=-1) + EPS)[..., None]


def l1norm_backward(d_y, z_star, y):
    """Exact backward of ``l1norm``, y = z*/(||z*||_1 + EPS).

    Entries where z*_k = 0 (including rows with no mass) get zero gradient.
    """
    s = z_star.sum(axis=-1)
    inner = (d_y * y).sum(axis=-1)
    dz = (d_y - inner[..., None]) / (s + EPS)[..., None]
    return np.where(z_star > 0.0, dz, 0.0)


def forward_batch(model, X, hyper, mode="train", dropout_mask=None):
    """Run the encoder on an N x D batch; returns a ForwardTrace.

    The decoder runs in the loss, which is the only reader of its output.
    ``dropout_mask`` scales the gated activations, as the function of that
    name draws it; None, the default and the inference case, is no dropout.
    ``mode`` is "train" (batch statistics) or "infer" (running statistics).
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown forward mode {mode!r}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[-1] != model.d:
        raise ValueError("band count mismatch between batch and model")

    enc = angle(X, model.w_enc, THETA_CLIP)
    run_stats = None if mode == "train" else (model.run_mean, model.run_var)
    bn_out, mean, var, centered = batchnorm_forward(enc.similarity, model.rho, run_stats)

    r = np.broadcast_to(1.0 if dropout_mask is None else dropout_mask, bn_out.shape)
    z, z_star, y = relu_topn_l1(bn_out, r, hyper.top_n)

    return ForwardTrace(
        angle=enc, bn_mean=mean, bn_var=var, bn_centered=centered, bn_out=bn_out,
        dropout_mask=r, z=z, z_star=z_star, z_star_sum=z_star.sum(axis=-1), y=y,
        mode=mode)


class LossParts(NamedTuple):
    """The composite loss, its four weighted terms and the decoder output.

    ``total == recon + kl + sparsity + reg``; each term holds one value per
    replica, a float64 scalar for a single model.
    """

    total: np.ndarray
    recon: np.ndarray     # euclidean reconstruction term
    kl: np.ndarray        # KL term on the reconstruction similarity
    sparsity: np.ndarray  # l1 activation penalty
    reg: np.ndarray       # the three weight decays
    x_hat: np.ndarray     # decoder output, N x D
    c_recon: np.ndarray   # C(target, x_hat) per sample, 0 for a dead row (no l1 mass)


def loss_value(trace, model, hyper, target):
    """The loss's ``LossParts`` only (no gradients); target is the clean batch."""
    return _loss_impl(trace, model, hyper, target, want_grads=False)[0]


def loss(trace, model, hyper, target):
    """Composite loss and analytic gradients for w_enc, rho, w_dec: (LossParts, grads).

    ``target`` is the uncorrupted batch the reconstruction terms compare
    against (the forward pass may have seen a corrupted version).  Gradients
    need a train-mode trace.  A stacked model or trace gives one value of
    each term, and one gradient of each array, per replica.  A non-finite
    loss raises NumericalDivergence; the gradients are not scanned here,
    the optimizer step (``trainer.adam_step``) scans them once.
    """
    if trace.mode != "train":
        raise ValueError("loss gradients need a train-mode trace")
    return _loss_impl(trace, model, hyper, target, want_grads=True)


def _loss_impl(trace, model, hyper, target, want_grads):
    X_clean = np.atleast_2d(np.asarray(target, dtype=np.float64))
    n = X_clean.shape[-2]
    x_hat = trace.y @ model.w_dec.swapaxes(-1, -2)
    diff = x_hat - X_clean

    # the angular term compares against the clean target.  A dead row (no l1 mass) reconstructs
    # to zero, which has no angle: its target is compared with itself, where the clamp passes 0
    alive = trace.z_star_sum > 0.0
    recon_angle = angle(X_clean, np.where(alive[..., None], x_hat, X_clean), THETA_CLIP,
                        paired=True)
    c = np.where(alive, recon_angle.similarity, 0.0)

    recon = hyper.lambda0 * 0.5 * np.sum(diff * diff, axis=(-2, -1)) / n
    kl = hyper.lambda1 * (np.add.reduce(-np.log(c + EPS), axis=-1) / n)
    sparsity = hyper.lambda2 * (np.add.reduce(trace.z.sum(axis=-1), axis=-1) / n)
    reg = (hyper.lambda3 * np.sum(model.w_enc ** 2, axis=(-2, -1))
           + hyper.lambda4 * np.sum(model.w_dec ** 2, axis=(-2, -1))
           + hyper.lambda5 * np.sum(model.rho ** 2, axis=-1))
    total = recon + kl + sparsity + reg
    if not np.isfinite(total).all():
        raise NumericalDivergence("loss is non-finite")
    parts = LossParts(total, recon, kl, sparsity, reg, x_hat, c)
    if not want_grads:
        return parts, None

    # d total / d x_hat: euclidean term + KL term through the angle chain
    dkl_dc = np.where(alive, -hyper.lambda1 / (n * (c + EPS)), 0.0)
    d_xhat = hyper.lambda0 * diff / n + angle_backward(recon_angle, dkl_dc)

    d_wdec = d_xhat.swapaxes(-1, -2) @ trace.y + 2.0 * hyper.lambda4 * model.w_dec
    d_y = d_xhat @ model.w_dec

    # no ReLU mask: dz is exactly +0.0 wherever z is 0 (ReLU off, dropped
    # or off the top n), since l1norm_backward gives 0.0 off z* > 0 and the
    # sparsity term is gated by z > 0
    dz_star = l1norm_backward(d_y, trace.z_star, trace.y)
    dz = dz_star + (hyper.lambda2 / n) * (trace.z > 0.0)

    d_h, g_sum = batchnorm_backward(dz * trace.dropout_mask, trace.bn_var, trace.bn_centered)
    d_rho = g_sum + 2.0 * hyper.lambda5 * model.rho
    d_wenc = angle_backward(trace.angle, d_h) + 2.0 * hyper.lambda3 * model.w_enc

    return parts, {"w_enc": d_wenc, "rho": d_rho, "w_dec": d_wdec}
