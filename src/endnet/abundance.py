"""Per-pixel fractional abundance estimation.

Three routes: simplex projection in a similarity-induced feature space
(default, angle kernel), the encoder's hidden activations, and a fully
constrained least-squares solver used as an independent oracle.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .datatypes import AbundanceMap, HyperCube, SpectraMatrix
from .errors import DegenerateSimplex, NonFiniteValue
from .net import THETA_CLIP, HyperParams, angle, forward_batch

log = logging.getLogger(__name__)

_NEG_TOL = -1e-10


def _pairwise_d2(spectra, pixels, kernel):
    """Squared feature-space distances: K x K among endmembers, N x K to the pixels.

    Non-finite endmembers raise NonFiniteValue.  With ``kernel='sad'``,
    angularly coincident endmembers raise DegenerateSimplex: they collapse
    the feature-space simplex.
    """
    if not np.isfinite(spectra).all():
        raise NonFiniteValue("endmembers contain NaN/Inf values")
    if kernel == "sad":
        # SPU clamps cosines as training does
        ee = angle(spectra, spectra, THETA_CLIP)
        cos = ee.cos.copy()
        np.fill_diagonal(cos, 0.0)
        if cos.max() >= 1.0 - 1e-9:
            raise DegenerateSimplex("angularly coincident endmembers")
        d2_ee = 2.0 - 2.0 * ee.similarity
        np.fill_diagonal(d2_ee, 0.0)
        d2_ep = 2.0 - 2.0 * angle(pixels, spectra, THETA_CLIP).similarity
    elif kernel == "l2":
        diff = spectra[:, None, :] - spectra[None, :, :]
        d2_ee = np.einsum("ijk,ijk->ij", diff, diff)
        # one endmember at a time, so no N x K x D difference is built
        d2_ep = np.empty((pixels.shape[0], spectra.shape[0]))
        for j, e in enumerate(spectra):
            dp = pixels - e
            d2_ep[:, j] = np.einsum("ij,ij->i", dp, dp)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return d2_ee, d2_ep


def _bary_solve(d2_ee, d2_ep, active):
    """Affine barycentric coordinates (N x m) from mutual squared distances.

    Uses the last active vertex as reference: G_ij = <v_i - v_r, v_j - v_r>
    recovered from distances, then one linear solve call for all N pixels.
    The distances among the vertices are finite, so a non-finite solution
    comes from a non-finite pixel.
    """
    m = len(active)
    if m == 1:
        return np.ones((d2_ep.shape[0], 1))
    ref = active[-1]
    others = active[:-1]
    dr = d2_ee[others, ref]
    G = 0.5 * (dr[:, None] + dr[None, :] - d2_ee[np.ix_(others, others)])
    B = 0.5 * (dr + d2_ep[:, [ref]] - d2_ep[:, others])
    if np.linalg.cond(G) > 1e12:
        raise DegenerateSimplex("ill-conditioned simplex system")
    # G broadcast over one right-hand side per pixel: each pixel gets the
    # arithmetic of a one-pixel solve, where a multi-column solve would
    # differ in the last bits and move coordinates near 0 across the clamp
    sol = np.linalg.solve(G, B[:, :, None])[:, :, 0]
    if not np.isfinite(sol).all():
        raise NonFiniteValue("pixels contain NaN/Inf values")
    return np.column_stack([sol, 1.0 - sol.sum(axis=1)])


def simplex_project(d2_ee, d2_ep):
    """Project points onto the simplex of k vertices given mutual distances.

    ``d2_ee`` holds the k x k distances among the vertices, ``d2_ep`` one
    point's squared distances to them (k,) or N points' (N, k); the result
    has the same shape.  Solves the affine system; while any coordinate of
    a point is negative, drops the vertex with the most negative coordinate
    (ties: lower index) and re-solves on the facet.  Points that reach the
    same facet share one solve.  Dropped vertices get zero abundance.
    """
    d2_ep = np.asarray(d2_ep, dtype=np.float64)
    rows = np.atleast_2d(d2_ep)
    out = np.zeros(rows.shape)
    pending = {tuple(range(len(d2_ee))): [np.arange(rows.shape[0])]}
    while pending:
        # facets only shrink, so every point bound for a facet is in before it is solved
        active = max(pending, key=len)
        idx = np.concatenate(pending.pop(active))
        coords = _bary_solve(d2_ee, rows[idx], list(active))
        worst = np.argmin(coords, axis=1)
        drop = coords[np.arange(idx.size), worst] < _NEG_TOL
        keep = ~drop
        out[np.ix_(idx[keep], active)] = np.maximum(coords[keep], 0.0)
        for j in np.unique(worst[drop]):
            facet = active[:j] + active[j + 1:]
            pending.setdefault(facet, []).append(idx[drop & (worst == j)])
    out /= out.sum(axis=1, keepdims=True)
    return out.reshape(d2_ep.shape)


def spu_sad(pixels, endmembers: SpectraMatrix, kernel="sad"):
    """Simplex-projection abundances with the angle-similarity kernel.

    Takes one pixel (D,) or a block (N, D) and returns (K,) or (N, K).
    ``kernel='l2'`` switches to plain Euclidean feature space, which on
    in-simplex pixels coincides with the fully constrained l2 solution.
    """
    E = endmembers.rows if isinstance(endmembers, SpectraMatrix) else np.atleast_2d(endmembers)
    k = E.shape[0]
    if k < 2:
        raise ValueError("simplex projection needs at least two endmembers")
    pixels = np.asarray(pixels, dtype=np.float64)
    d2_ee, d2_ep = _pairwise_d2(E, np.atleast_2d(pixels), kernel)
    return simplex_project(d2_ee, d2_ep[0] if pixels.ndim == 1 else d2_ep)


class _EndmemberSet:
    """The pixel-independent part of ``fcls`` for one K x D endmember matrix.

    Holds the Gram matrix E E^T and, filled as the active-set iteration
    first reaches each free set, that set's KKT system.  Constructing one
    raises NonFiniteValue on non-finite endmembers and DegenerateSimplex on
    linearly dependent ones.
    """

    def __init__(self, E):
        if not np.isfinite(E).all():
            raise NonFiniteValue("endmembers contain NaN/Inf values")
        if np.linalg.matrix_rank(E) < E.shape[0]:
            raise DegenerateSimplex("endmembers are linearly dependent")
        self.k = E.shape[0]
        self.gram = E @ E.T
        self._systems = {}

    def system(self, free):
        """(idx, rhs_rows, kkt, clamped) of the free set given as a bit mask.

        ``idx`` and ``clamped`` are the free and clamped variables,
        ``rhs_rows`` picks the free rows and the sum-to-one row out of
        [2 E x, 1], and ``kkt`` is the bordered matrix [[2 G_ff, 1], [1, 0]].
        """
        found = self._systems.get(free)
        if found is None:
            mask = np.array([free >> j & 1 for j in range(self.k)], dtype=bool)
            idx = np.flatnonzero(mask)
            m = idx.size
            kkt = np.zeros((m + 1, m + 1))
            kkt[:m, :m] = 2.0 * self.gram[np.ix_(idx, idx)]
            kkt[:m, m] = 1.0
            kkt[m, :m] = 1.0
            found = (idx, np.append(idx, self.k), kkt, np.flatnonzero(~mask))
            self._systems[free] = found
        return found


_last_set = (None, None)  # (key, _EndmemberSet) of the last endmember matrix fcls saw


def _endmember_set(E):
    """The _EndmemberSet of E, rebuilt only when E's shape, dtype or bytes change."""
    global _last_set
    key = (E.shape, E.dtype, E.tobytes())
    last_key, found = _last_set
    if last_key != key:
        found = _EndmemberSet(E)
        _last_set = (key, found)
    return found


def fcls(pixel, endmembers):
    """Fully constrained least squares: min ||x - E^T a||^2, a >= 0, sum a = 1.

    Active-set iteration on the KKT system of the convex problem; returns
    the global optimum.  The rank check, the Gram matrix and the KKT
    matrix of each free set depend only on the endmembers: they are kept
    for the last endmember matrix seen, so a run of pixels unmixed against
    one matrix pays them once, and a pixel pays ``E @ x`` and its solves.
    """
    E = endmembers.rows if isinstance(endmembers, SpectraMatrix) else np.atleast_2d(endmembers)
    k, _ = E.shape
    x = np.asarray(pixel, dtype=np.float64)
    if k == 1:
        return np.array([1.0])
    es = _endmember_set(E)
    gram = es.gram
    ex = E @ x
    b = np.empty(k + 1)  # [2 E x, 1]: every free set's right-hand side is a pick of its rows
    np.multiply(ex, 2.0, out=b[:k])
    b[k] = 1.0

    free = (1 << k) - 1  # bit j set: variable j is free
    for _ in range(4 * k + 8):
        idx, rhs_rows, kkt, clamped = es.system(free)
        sol = np.linalg.solve(kkt, b[rhs_rows])
        a_free, lam = sol[:-1], sol[-1]
        j = int(a_free.argmin())
        if a_free[j] < -1e-12:
            free &= ~(1 << int(idx[j]))
            continue
        a = np.zeros(k)
        a[idx] = np.maximum(a_free, 0.0)
        if clamped.size:
            # KKT multipliers of the clamped variables must be nonnegative
            mu = 2.0 * (gram @ a - ex) + lam
            j = int(mu[clamped].argmin())
            if mu[clamped[j]] < -1e-9:
                free |= 1 << int(clamped[j])
                continue
        total = a.sum()
        if not math.isfinite(total):
            # with finite endmembers, only a non-finite pixel gets here
            raise NonFiniteValue("pixel contains NaN/Inf values")
        a /= total
        return a
    raise RuntimeError("fcls active-set iteration did not converge")


def hidden_abundances(model, cube: HyperCube):
    """Encoder activations as abundances (inference-mode forward per pixel).

    A checkpoint stores no HyperParams, so the default top_n is capped at K.
    All-zero activation vectors fall back to uniform 1/K; the occurrence
    count is logged.
    """
    hyper = HyperParams(top_n=min(HyperParams.top_n, model.k))
    trace = forward_batch(model, cube.data, hyper, mode="infer")
    y = trace.y.copy()
    dead = trace.z_star_sum <= 0.0
    n_dead = int(dead.sum())
    if n_dead:
        log.info("hidden_abundances: %d all-zero activation vectors set to uniform", n_dead)
        y[dead] = 1.0 / model.k
    # renormalize away the eps slack from the l1 layer
    y /= y.sum(axis=1, keepdims=True)
    return AbundanceMap(cube.height, cube.width, y)


def spu_abundances(endmembers, cube: HyperCube):
    """Angle-kernel simplex projection of every pixel of the cube (K x D endmembers)."""
    return AbundanceMap(cube.height, cube.width, spu_sad(cube.data, endmembers))


def estimate_abundances(model, cube: HyperCube, method="spu"):
    """Dispatch abundance estimation; 'spu' (default) uses the decoder columns."""
    if cube.bands != model.d:
        raise ValueError(f"band count mismatch: the cube has {cube.bands} bands, "
                         f"the model {model.d}")
    if method == "spu":
        return spu_abundances(model.endmembers(), cube)
    if method == "hidden":
        return hidden_abundances(model, cube)
    raise ValueError(f"unknown abundance method {method!r}")
