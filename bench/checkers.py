"""Independent checks of the program's outputs.

Nothing here imports the package under test: every reference (spectral
angles, matching, FCLS, file formats) is computed from first principles so
that a fault in the program cannot hide behind the same fault in its check.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment, nnls

# weight of the sum-to-one row appended to the FCLS least-squares system;
# large enough that the constraint holds to ~1e-10 on unit-scale spectra
SUM_TO_ONE_WEIGHT = 1e5


class Checker:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures = []

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    @property
    def correct(self):
        return not self.failures


def sad_matrix(estimated, truth):
    """Spectral angles (rad) between every estimated row and every truth row."""
    est = np.asarray(estimated, dtype=np.float64)
    tru = np.asarray(truth, dtype=np.float64)
    cos = (est @ tru.T) / np.outer(np.linalg.norm(est, axis=1),
                                   np.linalg.norm(tru, axis=1))
    return np.arccos(np.clip(cos, -1.0, 1.0))


def match_sad(estimated, truth):
    """Optimal one-to-one matching by angle.

    Returns (perm, sads): estimated row ``perm[j]`` is matched to truth row
    ``j`` with angle ``sads[j]``.
    """
    cost = sad_matrix(estimated, truth)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(cost.shape[1], dtype=int)
    perm[cols] = rows
    return perm, cost[perm, np.arange(cost.shape[1])]


def rmse_columns(values, truth, perm):
    """Per-truth-column RMSE of abundance column ``perm[j]`` against truth ``j``."""
    diff = np.asarray(values)[:, perm] - np.asarray(truth)
    return np.sqrt(np.mean(diff * diff, axis=0))


def fcls_reference(pixel, endmembers, weight=SUM_TO_ONE_WEIGHT):
    """Fully constrained least squares via NNLS on the sum-to-one-augmented system."""
    E = np.asarray(endmembers, dtype=np.float64)
    A = np.vstack([E.T, np.full((1, E.shape[0]), weight)])
    b = np.append(np.asarray(pixel, dtype=np.float64), weight)
    a, _ = nnls(A, b)
    return a


def simplex_rows_ok(values, tol=1e-9):
    """True when every row is nonnegative and sums to one."""
    v = np.asarray(values)
    return bool(np.isfinite(v).all() and (v >= -tol).all()
                and np.abs(v.sum(axis=1) - 1.0).max() <= tol)


def max_nonzeros(values):
    return int((np.asarray(values) != 0.0).sum(axis=1).max())


def read_checkpoint(path):
    """Parse an ENDN v1 checkpoint into its five arrays, by the file format alone."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"ENDN" or len(blob) < 16:
        raise ValueError("bad checkpoint magic")
    version, d, k = struct.unpack("<III", blob[4:16])
    if version != 1:
        raise ValueError(f"unexpected checkpoint version {version}")
    sizes = {"w_enc": k * d, "rho": k, "run_mean": k, "run_var": k, "w_dec": d * k}
    if len(blob) != 16 + 8 * sum(sizes.values()):
        raise ValueError("checkpoint size does not match its header")
    out, pos = {}, 16
    for name, size in sizes.items():
        out[name] = np.frombuffer(blob, dtype="<f8", count=size, offset=pos)
        pos += 8 * size
    out["w_enc"] = out["w_enc"].reshape(k, d)
    out["w_dec"] = out["w_dec"].reshape(d, k)
    return out


def checkpoint_matches(path, arrays):
    """True when the checkpoint file holds exactly ``arrays`` (name -> ndarray)."""
    try:
        stored = read_checkpoint(path)
    except ValueError:
        return False
    return all(np.array_equal(stored[name], np.asarray(arrays[name])) for name in stored)


def pgm_ok(path, values, height, width):
    """Binary PGM with the right header, size and 8-bit scaling of ``values``."""
    blob = Path(path).read_bytes()
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    if not blob.startswith(header) or len(blob) != len(header) + height * width:
        return False
    expect = np.clip(np.floor(np.asarray(values) * 255.0 + 0.5), 0, 255).astype(np.uint8)
    return bool(np.array_equal(np.frombuffer(blob, np.uint8, offset=len(header)), expect))


def abundance_csv_ok(path, values):
    """The 'pixel,a1..aK' CSV re-reads equal to ``values`` with 0-based pixel ids."""
    with open(path) as fh:
        header = fh.readline().strip()
    k = np.asarray(values).shape[1]
    if header != "pixel," + ",".join(f"a{i + 1}" for i in range(k)):
        return False
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return (raw.shape == (len(values), k + 1)
            and np.array_equal(raw[:, 0], np.arange(len(values)))
            and np.array_equal(raw[:, 1:], values))
