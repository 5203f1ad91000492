"""The command-line input contract, probed with generated files.

Whatever bytes a checkpoint or a CSV holds, ``endnet.cli.main`` either
succeeds (exit 0) or fails with exit 1 or 2 and exactly one ``error:`` line
on stderr; no exception escapes it.
"""

import contextlib
import io
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from endnet import EndNetModel, SynthSpec  # noqa: E402
from endnet.cli import main  # noqa: E402
from endnet.data_io import (save_abundance_maps, save_cube_csv,  # noqa: E402
                            save_spectra_csv, synth_scene)

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
