"""Core container types: cubes, spectra libraries, abundance maps.

All arrays are float64 and immutable by convention (writeable flag cleared),
so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue

ABUNDANCE_SUM_TOL = 1e-6


def _frozen(a, shape=None):
    arr = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if shape is not None:
        arr = arr.reshape(shape)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class HyperCube:
    """H x W image of D-band reflectance pixels, stored pixel-major.

    ``data`` has shape (height * width, bands); pixel p = row * width + col.
    """

    height: int
    width: int
    bands: int
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(self.data, (self.height * self.width, self.bands)))
        if not np.isfinite(self.data).all():
            raise NonFiniteValue("cube contains NaN/Inf values")

    @property
    def n_pixels(self):
        return self.height * self.width


@dataclass(frozen=True)
class SpectraMatrix:
    """K spectral signatures of D bands each (endmembers or ground truth)."""

    rows: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.rows)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("spectra matrix must be 2-D with at least one row")
        if not np.isfinite(arr).all():
            raise NonFiniteValue("spectra contain NaN/Inf values")
        object.__setattr__(self, "rows", arr)

    @property
    def count(self):
        return self.rows.shape[0]

    @property
    def bands(self):
        return self.rows.shape[1]


@dataclass(frozen=True)
class AbundanceMap:
    """Per-pixel fractional abundances: nonnegative, each pixel sums to one."""

    height: int
    width: int
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen(self.values, (self.height * self.width, -1))
        if not np.isfinite(vals).all():
            raise NonFiniteValue("abundances contain NaN/Inf values")
        if (vals < -1e-12).any():
            raise ValueError("abundances must be nonnegative")
        sums = vals.sum(axis=1)
        if np.abs(sums - 1.0).max() > ABUNDANCE_SUM_TOL:
            raise ValueError("each pixel's abundances must sum to one")
        object.__setattr__(self, "values", vals)

    @property
    def k(self):
        return self.values.shape[1]

    @property
    def n_pixels(self):
        return self.height * self.width


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the synthetic linear-mixing scene generator."""

    k: int
    bands: int
    n_pixels: int
    snr_db: float = np.inf
    pure_pixel_fraction: float = 0.0
    dirichlet_alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least two endmembers")
        if self.bands <= self.k:
            raise ValueError("need more bands than endmembers")
        if self.n_pixels < 1:
            raise ValueError("n_pixels must be >= 1")
        if not self.snr_db > 0:
            raise ValueError("snr_db must be positive (np.inf for noiseless)")
        if not 0.0 <= self.pure_pixel_fraction <= 1.0:
            raise ValueError("pure_pixel_fraction must lie in [0, 1]")
        if not 0.0 < self.dirichlet_alpha < np.inf:
            raise ValueError("dirichlet_alpha must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
