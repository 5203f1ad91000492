"""File formats, normalization, and the synthetic scene generator."""

import numpy as np
import pytest

from endnet import AbundanceMap, HyperCube, SpectraMatrix, SynthSpec
from endnet.data_io import (_grid_shape, load_abundance_csv, load_cube,
                            load_csv_cube, load_envi, load_spectra_csv,
                            normalize_cube, save_abundance_maps, save_cube_csv,
                            save_pgm, save_spectra_csv, synth_scene)
from endnet.errors import CubeFormatError, DegenerateCube, NonFiniteValue


def test_grid_shape_squarest():
    assert _grid_shape(2500) == (50, 50)
    assert _grid_shape(12) == (3, 4)
    assert _grid_shape(7) == (1, 7)


def test_csv_cube_layout(tmp_path):
    path = tmp_path / "cube.csv"
    path.write_text("# bands=3\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n")
    cube = load_cube(path)
    assert (cube.height, cube.width, cube.bands) == (2, 2, 3)
    np.testing.assert_array_equal(cube.data[0 * cube.width + 0], [1, 2, 3])
    np.testing.assert_array_equal(cube.data[1 * cube.width + 1], [10, 11, 12])


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    cube = HyperCube(3, 4, 5, rng.random((12, 5)))
    path = tmp_path / "cube.csv"
    save_cube_csv(cube, path)
    back = load_cube(path)
    assert np.abs(back.data - cube.data).max() < 1e-12


def test_csv_nan_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nnan,4\n")
    with pytest.raises(NonFiniteValue):
        load_cube(path)


def test_load_scans_finiteness_once_and_names_the_file(tmp_path, monkeypatch):
    good = tmp_path / "good.csv"
    good.write_text("1,2\n3,4\n")
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("1,2\nnan,4\n")
    arr = np.ones((2, 3, 4))
    arr[1, 2, 3] = np.inf
    bad_envi = _write_envi(tmp_path, arr, "bsq", 5)
    scans = []
    isfinite = np.isfinite

    def counting(a, *args, **kwargs):
        scans.append(np.shape(a))
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    load_cube(good)
    assert scans == [(2, 2)]
    for path, shape in ((bad_csv, (2, 2)), (bad_envi, (6, 4))):
        scans.clear()
        with pytest.raises(NonFiniteValue, match=f"non-finite values in {path}"):
            load_cube(path)
        assert scans == [shape]


def test_csv_garbage_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nfoo,4\n")
    with pytest.raises(CubeFormatError):
        load_csv_cube(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_cube("/nonexistent/cube.csv")


def _write_envi(tmp_path, arr, interleave, dtype_code, byte_order=0,
                extra="", name="scene", offset=0):
    lines, samples, bands = arr.shape
    dtypes = {1: "u1", 2: "<i2", 3: "<i4", 4: "<f4", 5: "<f8", 12: "<u2", 13: "<u4"}
    dt = np.dtype(dtypes[dtype_code])
    if byte_order == 1:
        dt = dt.newbyteorder(">")
    if interleave == "bip":
        raw = arr
    elif interleave == "bil":
        raw = arr.transpose(0, 2, 1)
    else:  # bsq
        raw = arr.transpose(2, 0, 1)
    data_path = tmp_path / name
    # an embedded header: offset bytes of junk before the payload
    data_path.write_bytes(b"\xff" * offset + np.ascontiguousarray(raw, dtype=dt).tobytes())
    if offset:
        extra += f"header offset = {offset}\n"
    (tmp_path / f"{name}.hdr").write_text(
        "ENVI\n"
        f"samples = {samples}\nlines = {lines}\nbands = {bands}\n"
        f"interleave = {interleave}\ndata type = {dtype_code}\n"
        f"byte order = {byte_order}\n{extra}")
    return data_path


@pytest.mark.parametrize("interleave", ["bip", "bil", "bsq"])
def test_envi_interleaves_agree(tmp_path, interleave):
    rng = np.random.default_rng(1)
    arr = rng.random((4, 5, 6)).astype(np.float32).astype(np.float64)
    path = _write_envi(tmp_path, arr, interleave, 4, name=f"c_{interleave}")
    cube = load_envi(path)
    assert (cube.height, cube.width, cube.bands) == (4, 5, 6)
    np.testing.assert_allclose(cube.data.reshape(4, 5, 6), arr, rtol=1e-6)


def test_envi_float64_big_endian(tmp_path):
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    path = _write_envi(tmp_path, arr, "bip", 5, byte_order=1)
    cube = load_envi(path)
    np.testing.assert_array_equal(cube.data.reshape(2, 3, 4), arr)


def test_envi_uint16(tmp_path):
    arr = np.arange(12, dtype=np.uint16).reshape(2, 3, 2).astype(np.float64)
    path = _write_envi(tmp_path, arr, "bsq", 12)
    cube = load_envi(path)
    np.testing.assert_array_equal(cube.data.reshape(2, 3, 2), arr)


@pytest.mark.parametrize("dtype_code, byte_order", [(1, 0), (2, 0), (2, 1), (3, 1), (13, 0)])
def test_envi_integer_payloads(tmp_path, dtype_code, byte_order):
    info = np.iinfo({1: np.uint8, 2: np.int16, 3: np.int32, 13: np.uint32}[dtype_code])
    vals = np.arange(24, dtype=np.int64)
    vals[0], vals[-1] = info.min, info.max
    arr = vals.reshape(2, 3, 4).astype(np.float64)
    path = _write_envi(tmp_path, arr, "bil", dtype_code, byte_order=byte_order)
    cube = load_envi(path)
    np.testing.assert_array_equal(cube.data.reshape(2, 3, 4), arr)


# a supported key is not warned about as ignored
@pytest.mark.filterwarnings("error")
def test_envi_header_offset(tmp_path):
    arr = np.arange(16, dtype=np.int16).reshape(2, 2, 4).astype(np.float64)
    path = _write_envi(tmp_path, arr, "bip", 2, offset=16)
    cube = load_envi(path)
    np.testing.assert_array_equal(cube.data.reshape(2, 2, 4), arr)


@pytest.mark.parametrize("offset", ["-1", "81"])
def test_envi_header_offset_outside_the_file(tmp_path, offset):
    arr = np.zeros((2, 2, 4))
    path = _write_envi(tmp_path, arr, "bip", 4, offset=16)  # 80 bytes in all
    hdr = tmp_path / "scene.hdr"
    hdr.write_text(hdr.read_text().replace("header offset = 16", f"header offset = {offset}"))
    with pytest.raises(CubeFormatError, match=f"header offset {offset} lies outside"):
        load_envi(path)


def test_envi_missing_key(tmp_path):
    arr = np.zeros((2, 2, 2))
    path = _write_envi(tmp_path, arr, "bip", 4)
    hdr = tmp_path / "scene.hdr"
    hdr.write_text(hdr.read_text().replace("bands = 2\n", ""))
    with pytest.raises(CubeFormatError):
        load_envi(path)


def test_envi_size_mismatch(tmp_path):
    arr = np.zeros((2, 2, 2))
    path = _write_envi(tmp_path, arr, "bip", 4)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CubeFormatError):
        load_envi(path)


def test_envi_unknown_keys_warn(tmp_path):
    arr = np.zeros((2, 2, 2))
    path = _write_envi(tmp_path, arr, "bip", 4, extra="wavelength units = nm\n")
    with pytest.warns(UserWarning, match="ignoring"):
        load_envi(path)


def test_envi_bad_interleave(tmp_path):
    arr = np.zeros((2, 2, 2))
    path = _write_envi(tmp_path, arr, "bip", 4)
    hdr = tmp_path / "scene.hdr"
    hdr.write_text(hdr.read_text().replace("= bip", "= bipx"))
    with pytest.raises(CubeFormatError):
        load_envi(path)


def test_normalize_scales_and_idempotent():
    cube = HyperCube(1, 2, 2, [[0.0, 8191.0], [10.0, 20.0]])
    norm = normalize_cube(cube)
    assert norm.data.max() == 1.0
    again = normalize_cube(norm)
    np.testing.assert_array_equal(again.data, norm.data)


def test_normalize_all_zero():
    with pytest.raises(DegenerateCube):
        normalize_cube(HyperCube(1, 2, 2, np.zeros((2, 2))))


def test_normalize_non_positive_maximum():
    with pytest.raises(DegenerateCube, match="maximum -0.25 is not positive"):
        normalize_cube(HyperCube(1, 2, 2, [[-1.0, -0.25], [-2.0, -3.0]]))
    with pytest.raises(DegenerateCube, match="maximum 0 is not positive"):
        normalize_cube(HyperCube(1, 2, 2, [[0.0, -0.25], [0.0, 0.0]]))


def test_synth_noiseless_exact():
    spec = SynthSpec(k=3, bands=40, n_pixels=300, snr_db=np.inf,
                     pure_pixel_fraction=0.0, seed=2)
    cube, endm, abund = synth_scene(spec)
    resid = cube.data - abund.values @ endm.rows
    assert np.linalg.norm(resid, axis=1).max() < 1e-12


def test_synth_dirichlet_mean():
    spec = SynthSpec(k=4, bands=20, n_pixels=10000, dirichlet_alpha=1.0, seed=3)
    _, _, abund = synth_scene(spec)
    assert np.abs(abund.values.mean(axis=0) - 0.25).max() < 0.02


def test_synth_deterministic():
    spec = SynthSpec(k=3, bands=30, n_pixels=100, snr_db=25.0,
                     pure_pixel_fraction=0.1, seed=7)
    a = synth_scene(spec)
    b = synth_scene(spec)
    for x, y in zip(a, b):
        arr_x = x.data if isinstance(x, HyperCube) else (
            x.rows if isinstance(x, SpectraMatrix) else x.values)
        arr_y = y.data if isinstance(y, HyperCube) else (
            y.rows if isinstance(y, SpectraMatrix) else y.values)
        np.testing.assert_array_equal(arr_x, arr_y)


def test_synth_snr_honored():
    spec_clean = SynthSpec(k=3, bands=50, n_pixels=2000, snr_db=np.inf, seed=4)
    spec_noisy = SynthSpec(k=3, bands=50, n_pixels=2000, snr_db=20.0, seed=4)
    clean, endm, abund = synth_scene(spec_clean)
    noisy, _, _ = synth_scene(spec_noisy)
    noise = noisy.data - abund.values @ endm.rows
    snr = 10.0 * np.log10(np.mean(clean.data ** 2) / np.mean(noise ** 2))
    assert abs(snr - 20.0) < 0.5


def test_synth_pure_pixels():
    spec = SynthSpec(k=4, bands=20, n_pixels=1000, pure_pixel_fraction=0.05, seed=5)
    _, _, abund = synth_scene(spec)
    one_hot = (abund.values.max(axis=1) == 1.0).sum()
    assert one_hot >= int(0.05 * 1000)


def test_synth_endmembers_in_unit_range():
    _, endm, _ = synth_scene(SynthSpec(k=5, bands=60, n_pixels=10, seed=6))
    assert endm.rows.min() >= 0.0 and endm.rows.max() <= 1.0


def test_synthspec_validation():
    with pytest.raises(ValueError):
        SynthSpec(k=1, bands=10, n_pixels=5)
    with pytest.raises(ValueError):
        SynthSpec(k=3, bands=3, n_pixels=5)
    with pytest.raises(ValueError):
        SynthSpec(k=3, bands=10, n_pixels=5, snr_db=0.0)
    with pytest.raises(ValueError):
        SynthSpec(k=3, bands=10, n_pixels=5, dirichlet_alpha=0.0)


def test_pgm_scaling(tmp_path):
    path = tmp_path / "m.pgm"
    save_pgm(np.array([1.0, 0.5, 0.0, 0.25]), 2, 2, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n2 2\n255\n")
    assert list(blob[-4:]) == [255, 128, 0, 64]


def test_abundance_files_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    vals = rng.dirichlet(np.ones(3), size=12)
    amap = AbundanceMap(3, 4, vals)
    paths = save_abundance_maps(amap, tmp_path)
    pgms = sorted(p for p in paths if p.suffix == ".pgm")
    assert len(pgms) == 3
    back = load_abundance_csv(tmp_path / "abundances.csv")
    assert np.abs(back.values - vals).max() < 1e-12


def test_abundance_csv_bytes(tmp_path):
    # awkward values for %.17g: exact zero and one, repeating and inexact
    # binary fractions, and a value far below the others' last digit
    vals = np.array([[0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3],
                     [0.1, 0.2, 0.7], [1e-17, 1.0 - 1e-17, 0.0]])
    save_abundance_maps(AbundanceMap(2, 2, vals), tmp_path)
    rows = ["pixel,a1,a2,a3"] + [f"{p}," + ",".join(f"{v:.17g}" for v in row)
                                 for p, row in enumerate(vals)]
    assert (tmp_path / "abundances.csv").read_bytes() == ("\n".join(rows) + "\n").encode("ascii")


def test_spectra_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    spectra = SpectraMatrix(rng.random((4, 17)))
    path = tmp_path / "e.csv"
    save_spectra_csv(spectra, path)
    back = load_spectra_csv(path)
    np.testing.assert_array_equal(back.rows, spectra.rows)


def test_abundance_map_invariants():
    with pytest.raises(ValueError):
        AbundanceMap(1, 1, [[0.5, 0.6]])
    with pytest.raises(ValueError):
        AbundanceMap(1, 1, [[-0.1, 1.1]])
    with pytest.raises(NonFiniteValue):
        AbundanceMap(1, 1, [[np.nan, 1.0]])


def test_hypercube_immutable():
    cube = HyperCube(1, 2, 2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        cube.data[0, 0] = 5.0
