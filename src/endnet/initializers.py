"""Geometric pure-pixel endmember initializers (VCA and Distance-MaxD).

Both selectors return actual data pixels, used to seed the autoencoder's
encoder/decoder filters before optimization.  Neither holds a pixel-by-band
temporary of the whole cube: such work runs in row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datatypes import HyperCube, SpectraMatrix
from .errors import DegenerateData

_RANK_TOL = 1e-12
_BLOCK = 1024
# dmaxd's pair bound may fall short of a true squared distance by rounding
# and by Qhull's joggle of the projected points, so pixels up to this
# fraction of the squared scale below the lower bound are searched too
_PAIR_SLACK = 1e-6


@dataclass(frozen=True)
class InitResult:
    endmembers: SpectraMatrix
    pixel_indices: list

    @property
    def k(self):
        return self.endmembers.count


def _blocks(n, size=_BLOCK):
    return (slice(i, i + size) for i in range(0, n, size))


def vca(cube: HyperCube, k: int, seed: int = 0) -> InitResult:
    """Vertex-style endmember picking by repeated orthogonal projection.

    Data is projected onto its k-dim principal subspace; each round projects
    onto a random direction orthogonal to the span of the endmembers found
    so far and keeps the pixel with the largest absolute projection.

    The subspace is computed without mean removal: a simplex with k vertices
    spans a k-dim linear subspace but only k-1 dims once centered, so the
    centered variant would leave the final direction to numerical noise.
    It comes from the d x d correlation matrix X^T X (Nascimento &
    Bioucas-Dias, 2005), and each coordinate's sign is fixed so that it
    sums to >= 0, so the picks do not depend on the eigensolver's signs.
    """
    X = cube.data
    n, d = X.shape
    if k < 1 or k > min(d, n):
        raise ValueError(f"k={k} out of range for {n} pixels x {d} bands")

    # ||X - mean||^2 over row blocks, up to the first block that clears the limit
    mu = X.mean(axis=0)
    limit = (_RANK_TOL * max(1.0, np.linalg.norm(X))) ** 2
    spread = 0.0
    for b in _blocks(n):
        spread += np.sum((X[b] - mu) ** 2)
        if spread >= limit:
            break
    if spread < limit:
        raise DegenerateData("all pixels identical; cannot run vca")

    # k-dim principal subspace coordinates (n x k)
    _, V = np.linalg.eigh(X.T @ X)
    Y = X @ V[:, ::-1][:, :k]
    Y[:, Y.sum(axis=0) < 0.0] *= -1.0

    rng = np.random.default_rng(seed)
    A = np.zeros((k, k))
    indices = []
    for i in range(k):
        while True:
            w = rng.standard_normal(k)
            if i > 0:
                P = A[:, :i]
                w = w - P @ np.linalg.pinv(P) @ w
            nw = np.linalg.norm(w)
            if nw > 1e-12:
                break
        f = w / nw
        proj = np.abs(Y @ f)
        proj[indices] = -1.0  # never re-pick a chosen pixel
        idx = int(np.argmax(proj))
        A[:, i] = Y[idx]
        indices.append(idx)

    return InitResult(SpectraMatrix(X[indices].copy()), indices)


def _pair_search(X, sq):
    """Largest ``sq_i + sq_j - 2 x_i.x_j`` over i < j; the first (i, j) wins ties."""
    n = len(X)
    best = -1.0
    best_pair = (0, 0)
    rows = max(1, _BLOCK * 128 // n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (X[start:stop] @ X.T)
        block = np.where(np.arange(n)[None, :] > np.arange(start, stop)[:, None], d2, -np.inf)
        flat = int(np.argmax(block))
        val = block.flat[flat]
        if val > best:
            best = float(val)
            best_pair = (start + flat // n, flat % n)
    return best, best_pair


def _hull_vertices(Z):
    if Z.shape[1] == 1:
        return np.array([np.argmin(Z[:, 0]), np.argmax(Z[:, 0])])
    from scipy.spatial import ConvexHull
    # "QJ" joggles the input, so flat or repeated projections still give a hull
    return ConvexHull(Z, qhull_options="QJ").vertices


def _farthest_pair(X, sq):
    """``_pair_search`` over the pixels that a hull bound cannot rule out.

    With Z the coordinates on p <= 3 principal directions and q the norm of
    the residual off them, ||x_i - x_j||^2 <= ||Z_i - Z_j||^2 + (q_i + q_j)^2
    for any orthonormal directions.  The first term is largest at a hull
    vertex h of Z, so U_i = max_h ||Z_i - Z_h||^2 + (q_i + max q)^2 bounds
    every squared distance from pixel i.  A pixel of the farthest pair has
    U_i >= the squared distance of any pair, such as a double sweep's.
    """
    n, d = X.shape
    mu = X.mean(axis=0)
    _, V = np.linalg.eigh(X.T @ X - n * np.outer(mu, mu))
    P = V[:, -min(3, d, n - 1):]
    Z = np.empty((n, P.shape[1]))
    q = np.empty(n)
    for b in _blocks(n):
        C = X[b] - mu
        Z[b] = C @ P
        C -= Z[b] @ P.T
        q[b] = np.linalg.norm(C, axis=1)

    ZH = Z[_hull_vertices(Z)]
    U = np.empty(n)
    for b in _blocks(n, max(1, _BLOCK * 16 // len(ZH))):
        U[b] = ((Z[b, None, :] - ZH[None]) ** 2).sum(axis=2).max(axis=1)
    U += (q + q.max()) ** 2

    a = int(np.argmax(np.einsum("ij,ij->i", Z, Z) + q * q))
    lower = 0.0
    for _ in range(2):
        d2 = sq + sq[a] - 2.0 * (X @ X[a])
        a = int(np.argmax(d2))
        lower = max(lower, float(d2[a]))

    keep = np.flatnonzero(U >= lower - _PAIR_SLACK * (sq.max() + U.max()))
    best, (i, j) = _pair_search(X[keep], sq[keep])
    return best, (int(keep[i]), int(keep[j]))


def dmaxd(cube: HyperCube, k: int) -> InitResult:
    """Greedy maximum-distance simplex selection (deterministic).

    Starts from the two pixels at maximal Euclidean distance, then keeps
    adding the pixel farthest from the affine hull of the current picks
    (Gram-Schmidt residual norm). Ties break toward the lowest pixel index.
    The residual is rebuilt block by block from each pixel's stored
    coefficients, in the order a whole-cube update would apply them.
    """
    X = cube.data
    n, d = X.shape
    # a k-vertex simplex is affinely (k-1)-dimensional, so d >= k-1 suffices
    if k < 1 or k > min(d + 1, n):
        raise ValueError(f"k={k} out of range for {n} pixels x {d} bands")

    best = -1.0
    if n > 1:
        best, (i0, j0) = _farthest_pair(X, np.einsum("ij,ij->i", X, X))
    if best <= _RANK_TOL:
        raise DegenerateData("all pixels identical; cannot run dmaxd")

    indices = [i0, j0]
    v0 = X[i0]
    q = X[j0] - v0
    basis = [q / np.linalg.norm(q)]
    coef = []  # coef[m] = (residual before basis[m]) @ basis[m], per pixel

    def residual(rows):
        """Rows of X - v0 with every basis vector that has coefficients taken out."""
        R = X[rows] - v0
        for v, c in zip(basis, coef):
            R -= np.outer(c[rows], v)
        return R

    while len(indices) < k:
        c = np.empty(n)
        dist = np.empty(n)
        for b in _blocks(n):
            R = residual(b)
            c[b] = R @ basis[-1]
            R -= np.outer(c[b], basis[-1])
            dist[b] = np.linalg.norm(R, axis=1)
        coef.append(c)
        dist[indices] = -1.0
        idx = int(np.argmax(dist))
        if dist[idx] <= _RANK_TOL:
            raise DegenerateData("pixel cloud is rank-deficient for requested k")
        indices.append(idx)
        v = residual([idx])[0]
        v /= np.linalg.norm(v)
        basis.append(v)

    return InitResult(SpectraMatrix(X[indices[:k]].copy()), indices[:k])
