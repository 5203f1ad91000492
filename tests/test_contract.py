"""The command-line input contract, probed with generated files.

Whatever bytes a checkpoint, a CSV or an ENVI cube holds, ``endnet.cli.main``
either succeeds (exit 0) or fails with exit 1 or 2 and exactly one ``error:``
line on stderr; no exception escapes it.  An ENVI cube that does not load
exits 1.
"""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from endnet import EndNetModel, SynthSpec  # noqa: E402
from endnet.cli import main  # noqa: E402
from endnet.data_io import (load_cube, save_abundance_maps, save_cube_csv,  # noqa: E402
                            save_spectra_csv, synth_scene)
from endnet.errors import CubeFormatError, NonFiniteValue  # noqa: E402

_K, _D, _N = 3, 6, 16
_CUBE, _ENDM, _ABUND = synth_scene(SynthSpec(k=_K, bands=_D, n_pixels=_N, seed=2))
_GOOD = EndNetModel.from_endmembers(_ENDM.rows)

_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _run(argv):
    """(exit code, stderr lines) of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


def _assert_contract(rc, err):
    if rc == 0:
        return
    assert rc in (1, 2), (rc, err)
    assert len(err) == 1 and err[0].startswith("error: "), err


def _good_checkpoint(tmp_path):
    path = tmp_path / "good.endn"
    _GOOD.save(path)
    return path.read_bytes()


def _overwrite(blob, at, patch):
    at %= len(blob)
    return blob[:at] + patch + blob[at + len(patch):]


_floats = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _checkpoints(draw, good):
    """Bytes near a sound checkpoint: any header with a payload of doubles,
    a truncated or extended good file, a good file with bytes overwritten,
    or plain noise."""
    shape = st.integers(0, 8) | st.integers(0, 2 ** 32 - 1)
    return draw(st.one_of(
        st.builds(lambda version, d, k, body: b"ENDN" + struct.pack("<III", version, d, k)
                  + np.array(body, dtype="<f8").tobytes(),
                  st.sampled_from([1, 1, 2]), shape, shape, st.lists(_floats, max_size=80)),
        st.builds(lambda n, tail: good[:n] + tail,
                  st.integers(0, len(good)), st.binary(max_size=16)),
        st.builds(lambda at, patch: _overwrite(good, at, patch),
                  st.integers(0, len(good) - 1), st.binary(min_size=1, max_size=8)),
        st.builds(lambda at, value: _overwrite(good, 16 + 8 * at, struct.pack("<d", value)),
                  st.integers(0, 2 * _K * _D + 3 * _K - 1), _floats),
        st.binary(max_size=64)))


@given(data=st.data(), method=st.sampled_from(["spu", "hidden"]))
@_SETTINGS
def test_abundances_keeps_the_contract_on_any_checkpoint(tmp_path, data, method):
    blob = data.draw(_checkpoints(_good_checkpoint(tmp_path)))
    (tmp_path / "m.endn").write_bytes(blob)
    save_cube_csv(_CUBE, tmp_path / "cube.csv")
    _assert_contract(*_run(["abundances", "--input", str(tmp_path / "cube.csv"),
                            "--checkpoint", str(tmp_path / "m.endn"), "--method", method,
                            "--out-dir", str(tmp_path / "maps")]))


_field = st.one_of(_floats.map(repr), st.integers(-3, 3).map(str),
                   st.sampled_from(["", " ", "x", "1e999", "-0", "#", "0x1"]))


def _lines(rows):
    return "".join(",".join(row) + "\n" for row in rows)


# numeric grids as wide as the sound files' rows, ragged rows of odd fields, and noise
_csv_text = st.one_of(
    st.sampled_from([_K, _K + 1, _D]).flatmap(lambda width: st.lists(
        st.lists(_floats.map(repr), min_size=width, max_size=width), min_size=1,
        max_size=_N + 1)).map(_lines),
    st.lists(st.lists(_field, min_size=1, max_size=_D + 1), max_size=_N + 1).map(_lines),
    st.text(alphabet="0123456789.,-+eE#naif \n\r", max_size=60))


@given(est=_csv_text | st.none(), gt=_csv_text | st.none(), est_ab=_csv_text | st.none(),
       gt_ab=_csv_text | st.none(), with_abund=st.booleans(), greedy=st.booleans())
@_SETTINGS
def test_eval_keeps_the_contract_on_any_csv(tmp_path, est, gt, est_ab, gt_ab, with_abund, greedy):
    # a None file is the sound one, so a fault can lie in any one of the four
    save_spectra_csv(_ENDM, tmp_path / "endmembers.csv")
    save_abundance_maps(_ABUND, tmp_path / "sound")
    argv = ["eval", "--out-prefix", str(tmp_path / "out" / "x")] + ["--greedy"] * greedy
    files = [("--est-spectra", est, tmp_path / "endmembers.csv"),
             ("--gt-spectra", gt, tmp_path / "endmembers.csv")]
    if with_abund:
        files += [("--est-abund", est_ab, tmp_path / "sound" / "abundances.csv"),
                  ("--gt-abund", gt_ab, tmp_path / "sound" / "abundances.csv")]
    for flag, text, sound in files:
        path = sound
        if text is not None:
            path = tmp_path / f"{flag.strip('-')}.csv"
            path.write_text(text)
        argv += [flag, str(path)]
    _assert_contract(*_run(argv))


# an ENVI cube of 3 samples x 2 lines x 4 bands, and the header that describes it
_ENVI_SOUND = {"samples": b"3", "lines": b"2", "bands": b"4", "data type": b"4",
               "interleave": b"bsq", "byte order": b"0"}
_ENVI_TYPES = {1: "u1", 2: "i2", 3: "i4", 4: "f4", 5: "f8", 12: "u2", 13: "u4"}
_ENVI_VALUES = np.random.default_rng(4).uniform(10.0, 100.0, 3 * 2 * 4)
_ENVI_EXTRACT = ["--k", "2", "--iters", "20", "--batch", "4", "--seed", "0"]


def _write_envi(tmp_path, values, extra, payload):
    """Write ``payload`` and a header of one ``key = value`` line per value that is not None,
    then the ``extra`` lines; returns the cube's path."""
    lines = [b"ENVI"] + [key.encode() + b" = " + value
                         for key, value in values.items() if value is not None]
    (tmp_path / "cube.img.hdr").write_bytes(b"\n".join(lines + extra) + b"\n")
    (tmp_path / "cube.img").write_bytes(payload)
    return tmp_path / "cube.img"


def _extract(tmp_path, img):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # unsupported header keys
        return _run(["extract", "--input", str(img), *_ENVI_EXTRACT,
                     "--out-prefix", str(tmp_path / "out" / "x")])


def _loads(img):
    """Whether ``load_cube`` reads ``img``; a fault must be one that exits 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            load_cube(img)
        except (CubeFormatError, NonFiniteValue):
            return False
    return True


_header_value = st.one_of(
    st.binary(max_size=12), st.integers(-3, 40).map(lambda i: str(i).encode()),
    st.sampled_from([b"bsq", b"bil", b"bip", b"BIP", b"{4}", b"1e3", b"4.0", b"1_0", b" 7 ",
                     b"9" * 30, b"\xe9", b"\r", b"\x85"]))


@st.composite
def _envi_header_values(draw):
    """The sound header's values, with up to two keys missing or set to any bytes."""
    values = {**_ENVI_SOUND, "header offset": b"0"}
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=2, unique=True)):
        values[key] = draw(st.none() | _header_value)
    return values


# a payload of whole values of any ENVI type, or of any length
_payload_size = (st.sampled_from([n * len(_ENVI_VALUES) for n in (1, 2, 4, 8)])
                 | st.integers(0, 8 * len(_ENVI_VALUES) + 16))


@given(values=_envi_header_values(), extra=st.lists(st.binary(max_size=24), max_size=3),
       size=_payload_size)
@example(values=_ENVI_SOUND, extra=[b"description = {caf\xe9}"], size=4 * len(_ENVI_VALUES))
@_SETTINGS
def test_extract_keeps_the_contract_on_any_envi_header(tmp_path, values, extra, size):
    # the payload is the float32 cube, cut short or repeated to ``size`` bytes
    cube = _ENVI_VALUES.astype("<f4").tobytes()
    img = _write_envi(tmp_path, values, extra, (cube * (1 + size // len(cube)))[:size])
    rc, err = _extract(tmp_path, img)
    _assert_contract(rc, err)
    if not _loads(img):
        assert rc == 1, err


@given(interleave=st.sampled_from([b"bsq", b"bil", b"bip"]), code=st.sampled_from(sorted(_ENVI_TYPES)),
       byte_order=st.sampled_from([0, 1]), offset=st.integers(0, 24), delta=st.integers(-9, 9))
@_SETTINGS
def test_extract_exits_1_on_an_envi_payload_of_the_wrong_size(
        tmp_path, interleave, code, byte_order, offset, delta):
    dtype = np.dtype(_ENVI_TYPES[code]).newbyteorder("<>"[byte_order])
    payload = b"\xff" * offset + _ENVI_VALUES.astype(dtype).tobytes()
    payload = payload[:len(payload) + delta] if delta < 0 else payload + b"\0" * delta
    values = {**_ENVI_SOUND, "interleave": interleave, "data type": str(code).encode(),
              "byte order": str(byte_order).encode(), "header offset": str(offset).encode()}
    rc, err = _extract(tmp_path, _write_envi(tmp_path, values, [], payload))
    assert (rc, err) == (0, []) if delta == 0 else (rc == 1 and len(err) == 1), (rc, err)
