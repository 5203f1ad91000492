"""End-to-end command-line flows and exit codes."""

import os
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import endnet
from endnet import (AbundanceMap, EndNetModel, HyperParams, SynthSpec, TrainConfig, cli,
                    data_io, evaluation)
from endnet.cli import _train_config, build_parser, main
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


def test_extract_vca_from_envi_cube(scene_dir, tmp_path, capsys):
    cube = np.loadtxt(scene_dir / "cube.csv", delimiter=",", ndmin=2)
    img = tmp_path / "cube.img"
    # 10 x 10 pixels, written band-sequential as little-endian float32
    np.ascontiguousarray(cube.reshape(10, 10, 25).transpose(2, 0, 1), dtype="<f4").tofile(img)
    (tmp_path / "cube.img.hdr").write_text(
        "ENVI\nsamples = 10\nlines = 10\nbands = 25\n"
        "data type = 4\ninterleave = bsq\nbyte order = 0\n")
    rc = main(["extract", "--input", str(img), "--k", "3", "--init", "vca",
               *_FAST_TRAIN, "--out-prefix", str(tmp_path / "run")])
    assert rc == 0
    assert load_spectra_csv(tmp_path / "run_endmembers.csv").rows.shape == (3, 25)
    assert "wrote" in capsys.readouterr().out


_HEADER = ("ENVI\nsamples = 2\nlines = 2\nbands = 3\n"
           "data type = 4\ninterleave = bip\nbyte order = 0\n")


@pytest.mark.parametrize("fault, message", [
    pytest.param(None, "no ENVI header found next to {}", id="missing-hdr"),
    pytest.param(("samples = 2", "samples = two"),
                 "non-numeric ENVI header value: invalid literal for int() with base 10: 'two'",
                 id="non-numeric-samples"),
    pytest.param(("data type = 4", "data type = 6"), "unsupported ENVI data type 6",
                 id="data-type-6"),
    pytest.param(("byte order = 0", "byte order = 2"), "byte order must be 0 or 1, got 2",
                 id="byte-order-2"),
    pytest.param(("bands = 3", "bands = 0"), "samples/lines/bands must all be positive",
                 id="bands-0")])
def test_extract_bad_envi_header_is_an_io_error(tmp_path, capsys, fault, message):
    img = tmp_path / "cube.img"
    np.full(12, 0.5, dtype="<f4").tofile(img)
    if fault is not None:
        (tmp_path / "cube.img.hdr").write_text(_HEADER.replace(*fault))
    rc = main(["extract", "--input", str(img), "--k", "2", *_FAST_TRAIN,
               "--out-prefix", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: " + message.format(img)]
    assert not (tmp_path / "run.endn").exists()


def test_extract_reads_an_envi_header_with_a_latin1_byte(tmp_path, capsys):
    # 5 samples x 4 lines x 30 bands; the 0xe9 of "caf\xe9" is no UTF-8
    cube = np.random.default_rng(3).uniform(0.1, 1.0, (4, 5, 30)).astype("<f4")
    img = tmp_path / "cube.img"
    img.write_bytes(np.ascontiguousarray(cube.transpose(2, 0, 1)).tobytes())
    (tmp_path / "cube.img.hdr").write_bytes(
        b"ENVI\ndescription = {caf\xe9}\nsamples = 5\nlines = 4\nbands = 30\n"
        b"data type = 4\ninterleave = bsq\nbyte order = 0\n")
    with pytest.warns(UserWarning, match=r"ignoring unsupported ENVI header keys: \['description'\]"):
        rc = main(["extract", "--input", str(img), "--k", "3", *_FAST_TRAIN,
                   "--out-prefix", str(tmp_path / "run")])
        loaded = data_io.load_cube(img)
    assert rc == 0, capsys.readouterr().err
    assert (loaded.height, loaded.width, loaded.bands) == (4, 5, 30)
    np.testing.assert_array_equal(loaded.data, cube.reshape(20, 30))
    assert load_spectra_csv(tmp_path / "run_endmembers.csv").rows.shape == (3, 30)


def test_abundances_hidden(scene_dir, tmp_path):
    prefix = tmp_path / "run"
    rc = main(["extract", "--input", str(scene_dir / "cube.csv"), "--k", "3",
               *_FAST_TRAIN, "--out-prefix", str(prefix)])
    assert rc == 0
    rc = main(["abundances", "--input", str(scene_dir / "cube.csv"),
               "--checkpoint", f"{prefix}.endn", "--method", "hidden",
               "--out-dir", str(tmp_path / "maps")])
    assert rc == 0
    amap = load_abundance_csv(tmp_path / "maps" / "abundances.csv")
    assert amap.values.shape == (100, 3)
    assert len(list((tmp_path / "maps").glob("abundance_*.pgm"))) == 3


def test_exit_code_negative_cube(tmp_path, capsys):
    path = tmp_path / "neg.csv"
    path.write_text("-1,-2\n-0.5,-3\n")
    rc = main(["extract", "--input", str(path), "--k", "2",
               "--out-prefix", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot normalize a cube whose maximum -0.5 is not positive"]


def test_eval_writes_its_report_into_a_new_directory(scene_dir, tmp_path):
    truth = str(scene_dir / "endmembers.csv")
    rc = main(["eval", "--est-spectra", truth, "--gt-spectra", truth,
               "--out-prefix", str(tmp_path / "new" / "score")])
    assert rc == 0
    assert (tmp_path / "new" / "score_report.csv").read_text().startswith("estimated,")


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


def test_eval_repeats_trains_run_r_with_seed_plus_r(scene_dir, tmp_path, monkeypatch):
    seeds = []

    def spy(cube, inits, cfg, run_seeds):
        seeds.extend(run_seeds)
        return train_seeds(cube, inits, cfg, run_seeds)

    train_seeds = cli.train_seeds
    monkeypatch.setattr(cli, "train_seeds", spy)
    rc = main(["eval", "--input", str(scene_dir / "cube.csv"),
               "--gt-spectra", str(scene_dir / "endmembers.csv"), "--k", "3",
               "--repeats", "3", "--iters", "150", "--batch", "16", "--seed", "4",
               "--out-prefix", str(tmp_path / "rep")])
    assert rc == 0
    assert seeds == [4, 5, 6]


def test_eval_repeats_hidden_unmixes_with_the_runs_own_top_n(scene_dir, tmp_path, monkeypatch):
    # the estimate handed to evaluate keeps the run's 3 nonzeros in some row,
    # not the default HyperParams' 2
    scored = []
    evaluate = evaluation.evaluate

    def spy(est, gt, est_ab, gt_ab, **kwargs):
        scored.append(est_ab.values)
        return evaluate(est, gt, est_ab, gt_ab, **kwargs)

    monkeypatch.setattr(evaluation, "evaluate", spy)
    rc = main(["eval", "--input", str(scene_dir / "cube.csv"),
               "--gt-spectra", str(scene_dir / "endmembers.csv"),
               "--gt-abund", str(scene_dir / "abundances.csv"), "--method", "hidden",
               "--k", "3", "--top-n", "3", "--repeats", "2", *_FAST_TRAIN,
               "--out-prefix", str(tmp_path / "rep")])
    assert rc == 0
    assert [(values > 0.0).sum(axis=1).max() for values in scored] == [3, 3]


def test_eval_repeats_without_abundances_leaves_the_rmse_columns_empty(scene_dir, tmp_path):
    rc = main(["eval", "--input", str(scene_dir / "cube.csv"),
               "--gt-spectra", str(scene_dir / "endmembers.csv"),
               "--k", "3", "--repeats", "2", *_FAST_TRAIN,
               "--out-prefix", str(tmp_path / "rep")])
    assert rc == 0
    text = (tmp_path / "rep_repeats.csv").read_text().strip().splitlines()
    assert text[0] == "endmember,mean_sad,std_sad,mean_rmse,std_rmse"
    assert [row.split(",")[0] for row in text[1:]] == ["1", "2", "3"]
    assert all(row.endswith(",,") and row.count(",") == 4 for row in text[1:])


_TOO_FEW = "need at least as many estimates as ground-truth rows"
_BANDS = "band count mismatch between estimates and ground truth"


# the spectra cases keep the ids they had when the test took no abundance map
@pytest.mark.parametrize("gt_rows, gt_bands, gt_abund, message", [
    pytest.param(3, 25, None, _TOO_FEW, id=f"3-25-{_TOO_FEW}"),
    pytest.param(2, 20, None, _BANDS, id=f"2-20-{_BANDS}"),
    pytest.param(2, 25, (64, 2),
                 "the ground-truth abundance map covers 64 pixels, the estimates 100",
                 id="abundance-pixel-count"),
    pytest.param(2, 25, (100, 3),
                 "the ground-truth abundance map has 3 columns for 2 ground-truth rows",
                 id="abundance-width")])
def test_eval_repeats_rejects_the_ground_truth_before_training(
        scene_dir, tmp_path, capsys, monkeypatch, gt_rows, gt_bands, gt_abund, message):
    def untrained(*args):
        raise AssertionError("train must not run")

    monkeypatch.setattr(cli, "train_seeds", untrained)
    gt = tmp_path / "gt.csv"
    np.savetxt(gt, np.full((gt_rows, gt_bands), 0.5), delimiter=",")
    abund = []
    if gt_abund is not None:
        n, k = gt_abund
        data_io.save_abundance_maps(AbundanceMap(1, n, np.full((n, k), 1.0 / k)), tmp_path)
        abund = ["--gt-abund", str(tmp_path / "abundances.csv")]
    rc = main(["eval", "--input", str(scene_dir / "cube.csv"), "--gt-spectra", str(gt), *abund,
               "--k", "2", "--repeats", "2", *_FAST_TRAIN, "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("repeats", ["1", "2"])
@pytest.mark.parametrize("flag", ["--est-spectra", "--est-abund"])
def test_eval_input_takes_no_estimate_before_any_file_is_read(
        scene_dir, tmp_path, capsys, monkeypatch, flag, repeats):
    def untrained(*args):
        raise AssertionError("train must not run")

    def unread(path):
        raise OSError(f"{path} must not be read")

    monkeypatch.setattr(cli, "train_seeds", untrained)
    for name in ("load_cube", "load_spectra_csv", "load_abundance_csv"):
        monkeypatch.setattr(data_io, name, unread)
    gt = str(scene_dir / "endmembers.csv")
    rc = main(["eval", "--input", str(scene_dir / "cube.csv"), "--gt-spectra", gt, flag, gt,
               "--k", "3", "--repeats", repeats, *_FAST_TRAIN,
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: eval --input trains its own estimates; it takes no --est-spectra or --est-abund"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("given, missing", [("--est-abund", "--gt-abund"),
                                            ("--gt-abund", "--est-abund")])
def test_eval_scores_abundances_only_in_pairs_before_any_file_is_read(
        scene_dir, tmp_path, capsys, monkeypatch, given, missing):
    def unread(path):
        raise OSError(f"{path} must not be read")

    for name in ("load_spectra_csv", "load_abundance_csv"):
        monkeypatch.setattr(data_io, name, unread)
    truth = str(scene_dir / "endmembers.csv")
    rc = main(["eval", "--est-spectra", truth, "--gt-spectra", truth,
               given, str(scene_dir / "abundances.csv"), "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: eval {given} needs {missing}: abundances are scored in pairs"]
    assert not list(tmp_path.iterdir())


def test_gradcheck_ok(capsys):
    rc = main(["gradcheck", "--trials", "3", "--seed", "0"])
    assert rc == 0
    assert "[ok]" in capsys.readouterr().out


def test_module_entry_point_runs_main():
    src = str(Path(endnet.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "endnet.cli", "gradcheck", "--trials", "1"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert [line.split()[0] for line in done.stdout.splitlines()] == [
        "sad", "batchnorm", "l1norm", "full_loss"]


def test_cli_import_loads_no_scipy_optimize_or_spatial():
    # eval's matching and the dmaxd hull import them when they run
    src = str(Path(endnet.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, endnet.cli; "
         "print(*[m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules])"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


_TRIALS = "error: trials must be >= 1"
_TOL = "error: tol must be positive and finite"


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--trials", "0"], _TRIALS, id="0"),
    pytest.param(["--trials", "-3"], _TRIALS, id="-3"),
    pytest.param(["--tol", "nan"], _TOL, id="tol-nan"),
    pytest.param(["--tol", "-1"], _TOL, id="tol-negative"),
    pytest.param(["--tol", "0"], _TOL, id="tol-zero"),
    pytest.param(["--tol", "inf"], _TOL, id="tol-inf"),
    pytest.param(["--seed", "-1"], "error: seed must be >= 0", id="seed-negative"),
])
def test_gradcheck_without_trials_is_a_config_error(capsys, flags, message):
    # zero trials check nothing, and a tolerance that is not positive and
    # finite passes or fails every check; neither may print [ok] or [FAIL]
    rc = main(["gradcheck", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize("flags, field", [
    pytest.param(["--pixels", "0"], "n_pixels", id="0"),
    pytest.param(["--pixels", "-5"], "n_pixels", id="-5"),
    pytest.param(["--seed", "-1"], "seed", id="seed-negative"),
    pytest.param(["--alpha", "nan"], "dirichlet_alpha", id="alpha-nan"),
    pytest.param(["--alpha", "inf"], "dirichlet_alpha", id="alpha-inf"),
    pytest.param(["--pure-frac", "1.5"], "pure_pixel_fraction", id="pure-frac-1.5"),
])
def test_synth_without_pixels_is_a_config_error(tmp_path, capsys, flags, field):
    rc = main(["synth", *flags, "--out-dir", str(tmp_path / "s")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field} ")
    assert not (tmp_path / "s").exists()


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


@pytest.mark.parametrize("flag, value, field", [
    ("--lr", "nan", "lr"), ("--lr", "inf", "lr"),
    ("--corrupt-sigma", "nan", "corrupt_sigma"), ("--corrupt-sigma", "-0.1", "corrupt_sigma"),
    ("--lambda1", "nan", "lambda1"), ("--seed", "-1", "seed"), ("--k", "0", "k")])
def test_exit_code_bad_value_names_its_field(scene_dir, tmp_path, capsys, flag, value, field):
    # a config fault exits 2 with one line, not 3 ("loss is non-finite")
    rc = main(["extract", "--input", str(scene_dir / "cube.csv"), "--k", "3",
               *_FAST_TRAIN, flag, value, "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field} ")


# each command ends with the bad flag and its value
@pytest.mark.parametrize("command", [
    ["extract", "--lr", "nan"],
    ["eval", "--gt-spectra", "gt.csv", "--repeats", "2", "--lr", "nan"],
    ["eval", "--gt-spectra", "gt.csv", "--repeats", "0"],
    ["eval", "--gt-spectra", "gt.csv", "--repeats", "-2"]])
def test_bad_flag_fails_before_any_file_is_read(monkeypatch, tmp_path, capsys, command):
    def unread(path):
        raise OSError(f"{path} must not be read")

    monkeypatch.setattr(data_io, "load_cube", unread)
    monkeypatch.setattr(data_io, "load_spectra_csv", unread)
    rc = main([*command, "--input", "cube.csv", "--k", "3", *_FAST_TRAIN,
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {command[-2][2:]} ")


@pytest.mark.parametrize("flags, field", [
    (["--k", "3", "--top-n", "4"], "top_n"), (["--k", "0"], "k")])
def test_settings_that_do_not_fit_k_fail_before_any_file_is_read(
        monkeypatch, tmp_path, capsys, flags, field):
    def unread(path):
        raise OSError(f"{path} must not be read")

    monkeypatch.setattr(data_io, "load_cube", unread)
    rc = main(["extract", "--input", "cube.csv", *flags, *_FAST_TRAIN,
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {field} must {'be >= 1' if field == 'k' else 'lie in [1, k]'}"]


def test_exit_code_k_too_large(scene_dir, tmp_path, capsys):
    rc = main(["eval", "--gt-spectra", str(scene_dir / "endmembers.csv"),
               "--repeats", "2", "--out-prefix", str(tmp_path / "x")])
    assert rc == 2  # --repeats without --input


def test_eval_without_an_estimate_is_a_config_error(scene_dir, tmp_path, capsys):
    rc = main(["eval", "--gt-spectra", str(scene_dir / "endmembers.csv"),
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: need --est-spectra (or --input with --repeats)"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_divergence(scene_dir, tmp_path, capsys):
    rc = main(["extract", "--input", str(scene_dir / "cube.csv"),
               "--k", "3", "--iters", "50", "--lr", "1e200",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 3
    assert "iteration" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_repeats_divergence_is_one_error_line(scene_dir, tmp_path, capsys):
    # the seeds train in lockstep: the first diverging iteration stops them all
    rc = main(["eval", "--input", str(scene_dir / "cube.csv"),
               "--gt-spectra", str(scene_dir / "endmembers.csv"), "--k", "3",
               "--repeats", "3", "--iters", "50", "--lr", "1e200",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: iteration ")
    assert not (tmp_path / "x_repeats.csv").exists()


def test_help_lists_defaults(capsys):
    flagged = [f for cls in (TrainConfig, HyperParams) for f in fields(cls) if "help" in f.metadata]
    assert len(flagged) == 15
    for command in ("extract", "eval"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        for f in flagged:
            flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
            # the entry after the flag and its metavar, up to the next flag
            entry = out.split(f" {flag} {f.name.upper()} ", 1)[1].split(" --", 1)[0]
            # the default shows once: corrupt_sigma's help names its own
            assert entry.count(str(f.default)) == 1, (command, flag, entry)
            if f.default is not None:
                assert entry == f"{f.metadata['help']} (default: {f.default})"
        assert "--init {vca,dmaxd} seeding method (default: dmaxd)" in out
        if command == "eval":
            assert "--method {spu,hidden} unmixing method (default: spu)" in out


# every training flag, a value unlike its default, and the field it sets
_EVERY_FLAG = [
    ("--iters", 7, "iters"), ("--lr", 0.02, "lr"), ("--batch", 9, "batch_size"),
    ("--beta1", 0.5, "beta1"), ("--mask-noise", 0.3, "corrupt_mask_frac"),
    ("--corrupt-sigma", 0.05, "corrupt_sigma"), ("--seed", 11, "seed"),
    ("--lambda0", 0.03, "lambda0"), ("--lambda1", 4.0, "lambda1"),
    ("--lambda2", 0.2, "lambda2"), ("--lambda3", 2e-5, "lambda3"),
    ("--lambda4", 3e-5, "lambda4"), ("--lambda5", 4e-3, "lambda5"),
    ("--dropout", 0.8, "dropout_p"), ("--top-n", 3, "top_n")]


@pytest.mark.parametrize("command", [
    ["extract", "--out-prefix", "x"],
    ["eval", "--gt-spectra", "gt.csv", "--out-prefix", "x"]])
def test_every_flag_sets_its_own_field(command):
    argv = [*command, "--input", "cube.csv", "--k", "4"]
    for flag, value, _ in _EVERY_FLAG:
        argv += [flag, str(value)]
    cfg = _train_config(build_parser().parse_args(argv))
    expected = asdict(TrainConfig())
    for _, value, name in _EVERY_FLAG:
        owner = expected if name in expected else expected["hyper"]
        assert owner[name] != value
        owner[name] = value
    assert asdict(cfg) == expected
    for _, value, name in _EVERY_FLAG:
        got = getattr(cfg, name) if hasattr(cfg, name) else getattr(cfg.hyper, name)
        assert type(got) is type(value), name


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


# numpy warns on an empty file; raise that warning, so it cannot pass unseen
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, text, message", [
    pytest.param("--est-spectra", "0.1,0.2\n0.3,abc\n", "cannot parse spectra CSV {}: ",
                 id="spectra-non-numeric"),
    pytest.param("--est-spectra", "0.1,0.2,0.3\n0.4,0.5\n", "cannot parse spectra CSV {}: ",
                 id="spectra-ragged"),
    pytest.param("--est-spectra", "", "spectra CSV {} holds no spectra", id="spectra-empty"),
    pytest.param("--est-abund", "pixel,a1\n", "abundance CSV {} holds no pixels",
                 id="est-abund-header-only"),
    pytest.param("--gt-abund", "pixel,a1\n", "abundance CSV {} holds no pixels",
                 id="gt-abund-header-only"),
    pytest.param("--est-spectra", "0.1,nan,0.3\n", "non-finite values in {}", id="spectra-nan"),
    pytest.param("--gt-spectra", "1e154,1e154\n", "squared norms overflow in spectra CSV {}",
                 id="spectra-norm-overflow"),
    pytest.param("--est-abund", "pixel,a1,a2,a3\n1,nan,0.5,0.5\n", "non-finite values in {}",
                 id="est-abund-nan"),
    pytest.param("--gt-abund", "pixel,a1,a2,a3\n1,0.5,inf,0.5\n", "non-finite values in {}",
                 id="gt-abund-inf"),
    pytest.param("--est-abund", "pixel,a1,a2,a3\n1,0.5,0.2,0.2\n",
                 "{}: each pixel's abundances must sum to one", id="est-abund-sum"),
    pytest.param("--gt-abund", "pixel,a1,a2,a3\n1,-0.5,1.0,0.5\n",
                 "{}: abundances must be nonnegative", id="gt-abund-negative"),
    pytest.param("--est-abund", "pixel\n0\n1\n",
                 "abundance CSV {} holds no abundance column", id="est-abund-pixel-column-only"),
    # three spectra of the scene's 25 bands, the first all zero
    pytest.param("--est-spectra", "".join(",".join([v] * 25) + "\n" for v in ("0", "1", "0.5")),
                 "zero-norm spectrum in spectra CSV {}", id="spectra-zero-row")])
def test_eval_unreadable_csv_is_an_io_error(scene_dir, tmp_path, capsys, flag, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    files = {"--est-spectra": scene_dir / "endmembers.csv",
             "--gt-spectra": scene_dir / "endmembers.csv",
             "--est-abund": scene_dir / "abundances.csv",
             "--gt-abund": scene_dir / "abundances.csv", flag: path}
    argv = [a for item in files.items() for a in (item[0], str(item[1]))]
    rc = main(["eval", *argv, "--out-prefix", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + message.format(path))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["spu", "hidden"])
def test_abundances_band_count_mismatch_is_a_config_error(tmp_path, capsys, method):
    rng = np.random.default_rng(0)
    EndNetModel.from_endmembers(rng.uniform(0.1, 1.0, (3, 8))).save(tmp_path / "m.endn")
    np.savetxt(tmp_path / "cube.csv", rng.uniform(0.1, 1.0, (20, 6)), delimiter=",")
    rc = main(["abundances", "--input", str(tmp_path / "cube.csv"),
               "--checkpoint", str(tmp_path / "m.endn"), "--method", method,
               "--out-dir", str(tmp_path / "maps")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: band count mismatch: the cube has 6 bands, the model 8"]
    assert not (tmp_path / "maps").exists()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_extract_zero_pixel_is_a_config_error_for_every_seed(tmp_path, capsys, seed):
    # the zero pixel meets the encoder or, after corruption, the loss's
    # target first, as the seed decides; both give the same one line
    cube, _, _ = data_io.synth_scene(SynthSpec(k=3, bands=20, n_pixels=100, seed=1))
    data = cube.data.copy()
    data[7] = 0.0
    np.savetxt(tmp_path / "cube.csv", data, delimiter=",")
    rc = main(["extract", "--input", str(tmp_path / "cube.csv"), "--k", "3",
               "--iters", "300", "--batch", "16", "--seed", str(seed),
               "--out-prefix", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == ["error: a zero-norm spectrum has no angle"]


_CK_K, _CK_D = 3, 20
_CK_SIZE = 16 + 8 * (2 * _CK_K * _CK_D + 3 * _CK_K)
_CK_RUN_VAR = 16 + 8 * (_CK_K * _CK_D + 2 * _CK_K)  # byte offset of run_var[0]


def _with_value(offset, value):
    return lambda blob: blob[:offset] + struct.pack("<d", value) + blob[offset + 8:]


def _scaled(values, factor):
    """Scale the payload floats at ``values`` (a slice) by ``factor``: 1e160 keeps
    them finite, but their squared norm overflows; 0 leaves no norm."""
    def damage(blob):
        body = np.frombuffer(blob[16:], dtype="<f8").copy()
        body[values] *= factor
        return blob[:16] + body.tobytes()
    return damage


_CK_W_DEC = _CK_K * _CK_D + 3 * _CK_K  # payload index of w_dec[0, 0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["spu", "hidden"])
@pytest.mark.parametrize("damage, message", [
    pytest.param(lambda b: b"NOPE" + b[4:], "{} is not a model checkpoint", id="magic"),
    pytest.param(lambda b: b[:4], "checkpoint {} ends inside its header", id="magic-only"),
    pytest.param(lambda b: b[:15], "checkpoint {} ends inside its header", id="short-header"),
    pytest.param(lambda b: b[:4] + struct.pack("<I", 2) + b[8:],
                 "unsupported checkpoint version 2 in {}", id="version"),
    pytest.param(lambda b: b[:100],
                 f"checkpoint {{}} holds 100 bytes, its header declares {_CK_SIZE}", id="truncated"),
    pytest.param(lambda b: b + bytes(8),
                 f"checkpoint {{}} holds {_CK_SIZE + 8} bytes, its header declares {_CK_SIZE}",
                 id="trailing-bytes"),
    pytest.param(_with_value(16, np.nan), "non-finite values in checkpoint {}", id="nan-w_enc"),
    pytest.param(_with_value(_CK_RUN_VAR, -1.0), "negative running variance in checkpoint {}",
                 id="negative-run_var"),
    pytest.param(_scaled(slice(0, _CK_D), 1e160), "squared norms overflow in checkpoint {}",
                 id="huge-w_enc-row"),
    pytest.param(_scaled(slice(_CK_W_DEC + 1, None, _CK_K), 1e160),
                 "squared norms overflow in checkpoint {}", id="huge-w_dec-column"),
    pytest.param(_scaled(slice(0, _CK_D), 0.0), "zero-norm spectrum in checkpoint {}",
                 id="zero-w_enc-row"),
    pytest.param(_scaled(slice(_CK_W_DEC + 1, None, _CK_K), 0.0),
                 "zero-norm spectrum in checkpoint {}", id="zero-w_dec-column"),
    pytest.param(lambda b: b[:4] + struct.pack("<III", 1, _CK_D, 0),
                 f"checkpoint {{}} declares 0 endmembers and {_CK_D} bands", id="no-endmember"),
    pytest.param(lambda b: b[:4] + struct.pack("<III", 1, 0, 0),
                 "checkpoint {} declares 0 endmembers and 0 bands", id="no-band"),
    pytest.param(lambda b: b[:4] + struct.pack("<III", 1, 0, _CK_K) + b[16:16 + 24 * _CK_K],
                 f"checkpoint {{}} declares {_CK_K} endmembers and 0 bands",
                 id="no-band-three-endmembers")])
def test_abundances_rejects_an_unsound_checkpoint(tmp_path, capsys, method, damage, message):
    rng = np.random.default_rng(0)
    good = tmp_path / "good.endn"
    EndNetModel.from_endmembers(rng.uniform(0.1, 1.0, (_CK_K, _CK_D))).save(good)
    assert len(good.read_bytes()) == _CK_SIZE
    path = tmp_path / "bad.endn"
    path.write_bytes(damage(good.read_bytes()))
    np.savetxt(tmp_path / "cube.csv", rng.uniform(0.1, 1.0, (30, _CK_D)), delimiter=",")
    rc = main(["abundances", "--input", str(tmp_path / "cube.csv"), "--checkpoint", str(path),
               "--method", method, "--out-dir", str(tmp_path / "maps")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: " + message.format(path)]
    assert not (tmp_path / "maps").exists()
