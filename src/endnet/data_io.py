"""Cube/spectra/abundance file I/O and the synthetic scene generator."""

from __future__ import annotations

import os
import warnings
from pathlib import Path

import numpy as np

from .datatypes import AbundanceMap, HyperCube, SpectraMatrix, SynthSpec
from .errors import CubeFormatError, DegenerateCube, NonFiniteValue

_ENVI_DTYPES = {1: np.dtype("u1"), 2: np.dtype("i2"), 3: np.dtype("i4"), 4: np.dtype("f4"),
                5: np.dtype("f8"), 12: np.dtype("u2"), 13: np.dtype("u4")}
_ENVI_KEYS = {"samples", "lines", "bands", "interleave", "data type", "byte order"}
_ENVI_OPTIONAL_KEYS = {"header offset"}


def _grid_shape(n_pixels):
    """Pick (height, width) for a flat pixel list: squarest factorization."""
    h = int(np.sqrt(n_pixels))
    while h > 1 and n_pixels % h != 0:
        h -= 1
    return h, n_pixels // h


def _parse_envi_header(hdr_path):
    # Latin-1 decodes every byte, and the keys read here are ASCII
    text = Path(hdr_path).read_text(encoding="latin-1")
    fields = {}
    ignored = []
    for line in text.splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip().strip("{}").strip()
        if key in _ENVI_KEYS or key in _ENVI_OPTIONAL_KEYS:
            fields[key] = value
        elif key != "envi":
            ignored.append(key)
    if ignored:
        warnings.warn(f"ignoring unsupported ENVI header keys: {ignored}")
    missing = _ENVI_KEYS - fields.keys()
    if missing:
        raise CubeFormatError(f"ENVI header missing keys: {sorted(missing)}")
    return fields


def _find_envi_header(path):
    p = Path(path)
    for cand in (Path(str(p) + ".hdr"), p.with_suffix(".hdr")):
        if cand.exists():
            return cand
    raise CubeFormatError(f"no ENVI header found next to {path}")


def _from_file(path, make, *args):
    """``make(*args)`` for a container read from ``path``; a fault that the
    container finds in the values (non-finite, or out of range) names the file."""
    try:
        return make(*args)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"non-finite values in {path}") from exc
    except ValueError as exc:
        raise CubeFormatError(f"{path}: {exc}") from exc


def load_envi(path):
    """Read a raw ENVI cube (bsq/bil/bip) with its ASCII sidecar header."""
    fields = _parse_envi_header(_find_envi_header(path))
    try:
        samples = int(fields["samples"])
        lines = int(fields["lines"])
        bands = int(fields["bands"])
        dtype_code = int(fields["data type"])
        byte_order = int(fields["byte order"])
        offset = int(fields.get("header offset", 0))
    except ValueError as exc:
        raise CubeFormatError(f"non-numeric ENVI header value: {exc}") from exc
    interleave = fields["interleave"].lower()
    if interleave not in ("bsq", "bil", "bip"):
        raise CubeFormatError(f"unsupported interleave {interleave!r}")
    if dtype_code not in _ENVI_DTYPES:
        raise CubeFormatError(f"unsupported ENVI data type {dtype_code}")
    if byte_order not in (0, 1):
        raise CubeFormatError(f"byte order must be 0 or 1, got {byte_order}")
    if min(samples, lines, bands) <= 0:
        raise CubeFormatError("samples/lines/bands must all be positive")
    size = os.path.getsize(path)
    if not 0 <= offset <= size:
        raise CubeFormatError(f"header offset {offset} lies outside the data file {path}")

    dtype = _ENVI_DTYPES[dtype_code].newbyteorder("<" if byte_order == 0 else ">")
    expected = samples * lines * bands
    # a payload that ends inside a value is a fault too, which np.fromfile would drop
    if size - offset != expected * dtype.itemsize:
        raise CubeFormatError(f"payload holds {size - offset} bytes, header declares "
                              f"{expected} values of {dtype.itemsize} bytes")
    raw = np.fromfile(path, dtype=dtype, offset=offset)

    if interleave == "bip":
        arr = raw.reshape(lines, samples, bands)
    elif interleave == "bil":
        arr = raw.reshape(lines, bands, samples).transpose(0, 2, 1)
    else:  # bsq
        arr = raw.reshape(bands, lines, samples).transpose(1, 2, 0)
    data = arr.astype(np.float64, order="C").reshape(lines * samples, bands)
    return _from_file(path, HyperCube, lines, samples, bands, data)


def _load_csv(path, what, rows, skiprows=0):
    """The numeric rows of a comma-separated file ('#' starts a comment) as a 2-D array.

    A row that does not parse, or no data row (``rows`` names them), raises
    CubeFormatError naming ``what`` and the file.
    """
    try:
        with warnings.catch_warnings():
            # an empty file is reported below as an error, not also as a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    except ValueError as exc:
        raise CubeFormatError(f"cannot parse {what} {path}: {exc}") from exc
    if data.shape[0] == 0:
        raise CubeFormatError(f"{what} {path} holds no {rows}")
    return data


def load_csv_cube(path):
    """Read a CSV cube: one pixel per row, optional leading '#' header line."""
    data = _load_csv(path, "CSV cube", "pixels")
    h, w = _grid_shape(data.shape[0])
    return _from_file(path, HyperCube, h, w, data.shape[1], data)


def load_cube(path):
    """Load a hyperspectral cube: CSV if the name ends in .csv, else ENVI."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    if str(path).endswith(".csv"):
        return load_csv_cube(path)
    return load_envi(path)


def save_cube_csv(cube, path):
    write_file(path, f"# bands={cube.bands}\n" + _csv_text(cube.data.tolist(), "%.17g"))


def normalize_cube(cube):
    """Scale so the global maximum is 1; idempotent; preserves band shape."""
    peak = cube.data.max()
    if peak <= 0.0:
        if cube.data.min() == 0.0:
            raise DegenerateCube("cannot normalize an all-zero cube")
        raise DegenerateCube(f"cannot normalize a cube whose maximum {peak:g} is not positive")
    if peak == 1.0:
        return cube
    return HyperCube(cube.height, cube.width, cube.bands, cube.data / peak)


def _smooth_spectra(k, bands, rng):
    """Random nonnegative smooth spectra in [0,1]: sums of Gaussian bumps.

    Each endmember gets a dominant bump in its own stratum of the band axis
    plus a few weak secondary bumps, giving spectrally distinct signatures
    (mutual angles comparable to real material libraries) rather than
    near-collinear ones.
    """
    grid = np.arange(bands, dtype=np.float64)
    rows = np.empty((k, bands))
    edges = np.linspace(0, bands - 1, k + 1)
    order = rng.permutation(k)
    for i in range(k):
        lo, hi = edges[order[i]], edges[order[i] + 1]
        c0 = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
        w0 = rng.uniform(bands / 30.0, bands / 15.0)
        s = np.exp(-0.5 * ((grid - c0) / w0) ** 2)
        n_extra = rng.integers(1, 3)
        centers = rng.uniform(0, bands - 1, n_extra)
        widths = rng.uniform(bands / 40.0, bands / 20.0, n_extra)
        amps = rng.uniform(0.03, 0.15, n_extra)
        s = s + (amps[:, None] * np.exp(
            -0.5 * ((grid[None, :] - centers[:, None]) / widths[:, None]) ** 2)).sum(axis=0)
        s += 0.01
        rows[i] = s / s.max() * rng.uniform(0.7, 1.0)
    return rows


def synth_scene(spec: SynthSpec):
    """Generate (cube, endmembers, abundances) from the linear mixing model.

    Pixels are convex combinations of smooth random endmember spectra plus
    additive white Gaussian noise scaled to the requested per-cube SNR.
    Deterministic given ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    endm = _smooth_spectra(spec.k, spec.bands, rng)
    abund = rng.dirichlet(np.full(spec.k, spec.dirichlet_alpha), size=spec.n_pixels)

    n_pure = int(np.floor(spec.pure_pixel_fraction * spec.n_pixels))
    if n_pure > 0:
        pure_idx = rng.choice(spec.n_pixels, size=n_pure, replace=False)
        which = rng.integers(0, spec.k, size=n_pure)
        abund[pure_idx] = 0.0
        abund[pure_idx, which] = 1.0

    clean = abund @ endm
    if np.isinf(spec.snr_db):
        data = clean
    else:
        signal_power = np.mean(clean ** 2)
        noise_std = np.sqrt(signal_power / 10.0 ** (spec.snr_db / 10.0))
        data = clean + rng.normal(0.0, noise_std, clean.shape)

    h, w = _grid_shape(spec.n_pixels)
    cube = HyperCube(height=h, width=w, bands=spec.bands, data=data)
    return cube, SpectraMatrix(endm), AbundanceMap(h, w, abund)


def write_file(path, payload):
    """Write ``payload`` (bytes, or ASCII text) to ``path`` whole or not at all: make the
    parent directory, write ``<path>.tmp`` and rename it over ``path``; a failed write or
    rename removes ``<path>.tmp``."""
    if isinstance(payload, str):
        payload = payload.encode("ascii")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fh = open(f"{path}.tmp", "wb")
    try:
        with fh:
            fh.write(payload)
        os.replace(f"{path}.tmp", path)
    except BaseException:
        os.unlink(f"{path}.tmp")
        raise


def _csv_text(rows, fmt="%s"):
    """Comma-separated ``rows``, each field formatted by ``fmt``, one LF-ended line per row."""
    return "".join(",".join([fmt] * len(row)) % tuple(row) + "\n" for row in rows)


def save_pgm(values, height, width, path):
    """Binary 8-bit PGM (P5); values in [0,1], scaled by 255, round-half-up."""
    scaled = np.floor(values * 255.0 + 0.5)
    bytes_ = np.clip(scaled, 0, 255).astype(np.uint8).reshape(height, width)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    write_file(path, header + bytes_.tobytes())


def save_abundance_maps(amap: AbundanceMap, out_dir):
    """Write one PGM per endmember plus a raw-fraction CSV; returns the paths."""
    out = Path(out_dir)
    paths = []
    for k in range(amap.k):
        p = out / f"abundance_{k + 1}.pgm"
        save_pgm(amap.values[:, k], amap.height, amap.width, p)
        paths.append(p)
    csv_path = out / "abundances.csv"
    header = "pixel," + ",".join(f"a{i + 1}" for i in range(amap.k))
    row = "%d," + ",".join(["%.17g"] * amap.k)
    body = "\n".join(row % r for r in zip(range(amap.n_pixels), *amap.values.T.tolist()))
    write_file(csv_path, f"{header}\n{body}\n")
    paths.append(csv_path)
    return paths


def load_abundance_csv(path):
    """Read the 'pixel,a1..aK' CSV written by save_abundance_maps."""
    vals = _load_csv(path, "abundance CSV", "pixels", skiprows=1)[:, 1:]
    if vals.shape[1] == 0:
        raise CubeFormatError(f"abundance CSV {path} holds no abundance column")
    h, w = _grid_shape(vals.shape[0])
    return _from_file(path, AbundanceMap, h, w, vals)


def save_spectra_csv(spectra: SpectraMatrix, path):
    write_file(path, _csv_text(spectra.rows.tolist(), "%.17g"))


def _check_angle_rows(rows, what):
    """Raise CubeFormatError naming ``what`` unless every row of ``rows`` has the
    finite, nonzero squared norm that ``net.angle`` takes."""
    sq_norms = np.einsum("ij,ij->i", rows, rows)
    if not np.isfinite(sq_norms).all():
        raise CubeFormatError(f"squared norms overflow in {what}")
    if not sq_norms.all():
        raise CubeFormatError(f"zero-norm spectrum in {what}")


def load_spectra_csv(path):
    spectra = _from_file(path, SpectraMatrix, _load_csv(path, "spectra CSV", "spectra"))
    _check_angle_rows(spectra.rows, f"spectra CSV {path}")
    return spectra
