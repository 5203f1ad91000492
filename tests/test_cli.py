"""End-to-end command-line flows and exit codes."""

import numpy as np
import pytest

from endnet.cli import main
from endnet.data_io import load_abundance_csv, load_spectra_csv


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    rc = main(["synth", "--k", "3", "--bands", "25", "--pixels", "100",
               "--snr", "30", "--alpha", "0.3", "--pure-frac", "0.1",
               "--seed", "5", "--out-dir", str(out)])
    assert rc == 0
    return out


_FAST_TRAIN = ["--iters", "150", "--batch", "16", "--seed", "0"]


def test_synth_outputs(scene_dir):
    assert (scene_dir / "cube.csv").exists()
    assert (scene_dir / "endmembers.csv").exists()
    assert (scene_dir / "abundances.csv").exists()
    assert len(list(scene_dir.glob("abundance_*.pgm"))) == 3
    endm = load_spectra_csv(scene_dir / "endmembers.csv")
    assert endm.rows.shape == (3, 25)


def test_extract_then_abundances_then_eval(scene_dir, tmp_path, capsys):
    prefix = tmp_path / "run"
    rc = main(["extract", "--input", str(scene_dir / "cube.csv"),
               "--k", "3", "--init", "dmaxd",
               *_FAST_TRAIN, "--out-prefix", str(prefix)])
    assert rc == 0
    assert (tmp_path / "run.endn").exists()
    assert (tmp_path / "run_trainlog.csv").exists()

    amap_dir = tmp_path / "maps"
    rc = main(["abundances", "--input", str(scene_dir / "cube.csv"),
               "--checkpoint", str(tmp_path / "run.endn"),
               "--method", "spu", "--out-dir", str(amap_dir)])
    assert rc == 0
    amap = load_abundance_csv(amap_dir / "abundances.csv")
    assert amap.values.shape == (100, 3)

    rc = main(["eval", "--est-spectra", str(tmp_path / "run_endmembers.csv"),
               "--gt-spectra", str(scene_dir / "endmembers.csv"),
               "--est-abund", str(amap_dir / "abundances.csv"),
               "--gt-abund", str(scene_dir / "abundances.csv"),
               "--out-prefix", str(tmp_path / "score")])
    assert rc == 0
    assert (tmp_path / "score_report.csv").exists()
    out = capsys.readouterr().out
    assert "SAD (x1e-2)" in out


def test_eval_repeats(scene_dir, tmp_path, capsys):
    rc = main(["eval", "--input", str(scene_dir / "cube.csv"),
               "--gt-spectra", str(scene_dir / "endmembers.csv"),
               "--gt-abund", str(scene_dir / "abundances.csv"),
               "--k", "3", "--repeats", "2", *_FAST_TRAIN,
               "--out-prefix", str(tmp_path / "rep")])
    assert rc == 0
    text = (tmp_path / "rep_repeats.csv").read_text().strip().splitlines()
    assert text[0] == "endmember,mean_sad,std_sad,mean_rmse,std_rmse"
    assert len(text) == 4
    assert "mean SAD over 2 runs" in capsys.readouterr().out


def test_gradcheck_ok(capsys):
    rc = main(["gradcheck", "--trials", "3", "--seed", "0"])
    assert rc == 0
    assert "[ok]" in capsys.readouterr().out


def test_gradcheck_failure_exit_code(capsys):
    rc = main(["gradcheck", "--trials", "2", "--seed", "0", "--tol", "1e-300"])
    assert rc == 4
    assert "[FAIL]" in capsys.readouterr().out


def test_exit_code_missing_file(tmp_path, capsys):
    rc = main(["extract", "--input", str(tmp_path / "nope.csv"),
               "--k", "3", *_FAST_TRAIN, "--out-prefix", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_bad_config(scene_dir, tmp_path, capsys):
    rc = main(["extract", "--input", str(scene_dir / "cube.csv"),
               "--k", "3", "--iters", "100", "--batch", "1",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_k_too_large(scene_dir, tmp_path, capsys):
    rc = main(["eval", "--gt-spectra", str(scene_dir / "endmembers.csv"),
               "--repeats", "2", "--out-prefix", str(tmp_path / "x")])
    assert rc == 2  # --repeats without --input


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_divergence(scene_dir, tmp_path, capsys):
    rc = main(["extract", "--input", str(scene_dir / "cube.csv"),
               "--k", "3", "--iters", "50", "--lr", "1e200",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 3
    assert "iteration" in capsys.readouterr().err


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for token in ("0.7", "20000", "--lambda2", "0.1"):
        assert token in out


# numpy warns on an empty file; raise that warning, so it cannot pass unseen
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["# bands=3\n", ""])
def test_exit_code_empty_csv_cube(tmp_path, capsys, text):
    path = tmp_path / "e.csv"
    path.write_text(text)
    rc = main(["extract", "--input", str(path), "--k", "3",
               "--out-prefix", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: CSV cube {path} holds no pixels"]
