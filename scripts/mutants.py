#!/usr/bin/env python3
"""Named mutations of ``src/endnet``, each of which its tests must kill.

Each entry of ``MUTATIONS`` is (name, file under ``src/``, old text, new
text, test node ids).  For each entry the runner copies ``src/`` to a
temporary directory, replaces the old text, which must occur exactly once
in the file, and runs the named tests against the copy with
``python -m pytest -q -x``, one subprocess at a time.  A mutation is killed
when the tests fail, and survives when they pass.  Before the mutations,
every named test must pass on an unmutated copy.

Usage (from anywhere; stdlib only, the tests need the project's own
dependencies)::

    python scripts/mutants.py              # every mutation
    python scripts/mutants.py NAME ...     # the mutations whose names contain NAME

Exit status: 0 when every mutation run is killed, 1 when one survives,
2 when the list itself is at fault (old text not found once, a mutant that
does not compile, a test that fails unmutated or does not run).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutation(NamedTuple):
    name: str
    file: str   # relative to src/
    old: str
    new: str
    tests: tuple


MUTATIONS = [
    Mutation("HyperParams not frozen", "endnet/net.py",
             "@dataclass(frozen=True)\nclass HyperParams:", "@dataclass\nclass HyperParams:",
             ("tests/test_trainer.py::test_settings_are_frozen",)),
    Mutation("TrainConfig not frozen", "endnet/trainer.py",
             "@dataclass(frozen=True)\nclass TrainConfig:", "@dataclass\nclass TrainConfig:",
             ("tests/test_trainer.py::test_settings_are_frozen",)),
    Mutation("no top_n >= 1 check", "endnet/net.py",
             '        if self.top_n < 1:\n'
             '            raise ValueError("top_n must lie in [1, k]")\n', "",
             ("tests/test_net.py::test_hyperparams_reject_a_top_n_below_one_when_made",)),
    Mutation("train skips check_k", "endnet/trainer.py",
             "    cfg.hyper.check_k(init.k)\n", "",
             ("tests/test_trainer.py::test_train_checks_top_n_against_its_k",)),
    Mutation("_train_config skips check_k", "endnet/cli.py",
             "    cfg.hyper.check_k(args.k)\n", "",
             ("tests/test_cli.py::test_settings_that_do_not_fit_k_fail_before_any_file_is_read",)),
    Mutation("_frozen freezes the caller's array", "endnet/datatypes.py",
             "arr = arr.reshape(shape or arr.shape)", "arr = arr.reshape(shape) if shape else arr",
             ("tests/test_data_io.py::test_containers_freeze_a_view_not_the_callers_array",)),
    Mutation("write_file keeps .tmp", "endnet/data_io.py",
             '        os.unlink(f"{path}.tmp")\n        raise', "        raise",
             ("tests/test_data_io.py::test_a_failed_write_leaves_the_old_file",)),
    Mutation("every repeat reuses args.seed", "endnet/cli.py",
             "seed=args.seed + r)", "seed=args.seed)",
             ("tests/test_cli.py::test_eval_repeats_trains_run_r_with_seed_plus_r",)),
    Mutation("ENVI header read in the locale's codec", "endnet/data_io.py",
             'read_text(encoding="latin-1")', "read_text()",
             ("tests/test_cli.py::test_extract_reads_an_envi_header_with_a_latin1_byte",)),
    Mutation("ENVI payload counted in whole values", "endnet/data_io.py",
             "if size - offset != expected * dtype.itemsize:",
             "if (size - offset) // dtype.itemsize != expected:",
             ("tests/test_contract.py::"
              "test_extract_exits_1_on_an_envi_payload_of_the_wrong_size",)),
    Mutation("FCLS memo key without the dtype", "endnet/abundance.py",
             "es = _endmember_set(E.shape, E.dtype, E.tobytes())",
             "es = _endmember_set(E.shape, np.dtype(np.float64), E.astype(np.float64).tobytes())",
             ("tests/test_abundance.py::test_fcls_keeps_float32_and_float64_endmembers_apart",)),
    Mutation("FCLS memo keyed on id(E)", "endnet/abundance.py",
             "es = _endmember_set(E.shape, E.dtype, E.tobytes())",
             "es = _endmember_set.__dict__.get(id(E)) or "
             "_endmember_set.__dict__.setdefault(id(E), _EndmemberSet(E))",
             ("tests/test_abundance.py::test_fcls_sees_endmembers_changed_in_place",)),
    Mutation("FCLS memo caches a failed set", "endnet/abundance.py",
             "    es = _endmember_set(E.shape, E.dtype, E.tobytes())\n",
             # the set is cached before its rank check runs, so only a miss checks
             "    key = (E.shape, E.dtype, E.tobytes())\n"
             "    if key not in _endmember_set.__dict__:\n"
             "        _endmember_set.__dict__[key] = _EndmemberSet.__new__(_EndmemberSet)\n"
             "        _endmember_set.__dict__[key].__init__(E)\n"
             "    es = _endmember_set.__dict__[key]\n",
             ("tests/test_abundance.py::test_fcls_checks_the_rank_of_every_endmember_set",)),
    Mutation("FCLS iteration cap does not raise", "endnet/abundance.py",
             '    raise RuntimeError("fcls active-set iteration did not converge")\n', "",
             ("tests/test_abundance.py::test_fcls_raises_after_4k_plus_8_active_set_steps",)),
    Mutation("ADAM_BETA2 one ulp up", "endnet/trainer.py",
             "ADAM_BETA2 = 0.999\n", "ADAM_BETA2 = 0.9990000000000001\n",
             ("tests/test_bit_identity.py::test_reference_checkpoints_and_gradcheck_errors",)),
    Mutation("loss takes an infer-mode trace", "endnet/net.py",
             '    if trace.mode != "train":\n'
             '        raise ValueError("loss gradients need a train-mode trace")\n', "",
             ("tests/test_net.py::test_loss_gradients_need_a_train_trace",)),
    Mutation("a CSV with no data row loads", "endnet/data_io.py",
             '    if data.shape[0] == 0:\n'
             '        raise CubeFormatError(f"{what} {path} holds no {rows}")\n', "",
             ("tests/test_cli.py::test_exit_code_empty_csv_cube",)),
    Mutation("dropout draws at p == 1", "endnet/net.py",
             "return None if p >= 1.0 else (rng.random(shape) < p) / p",
             "return (rng.random(shape) < p) / p",
             ("tests/test_net.py::test_dropout_mask_scales_and_draws_nothing_at_p_one",)),
    Mutation("no iteration-1 copy of the batch statistics", "endnet/trainer.py",
             "        if it == 1:\n"
             "            model.run_mean, model.run_var = trace.bn_mean, trace.bn_var\n"
             "        else:\n",
             "        if True:\n",
             ("tests/test_trainer.py::"
              "test_train_keeps_the_first_batch_statistics_then_their_momentum_average",)),
    Mutation("running-statistics weights swapped", "endnet/trainer.py",
             "BN_MOMENTUM * model.run_mean + (1.0 - BN_MOMENTUM) * trace.bn_mean",
             "(1.0 - BN_MOMENTUM) * model.run_mean + BN_MOMENTUM * trace.bn_mean",
             ("tests/test_trainer.py::"
              "test_train_keeps_the_first_batch_statistics_then_their_momentum_average",)),
    Mutation("a container's ValueError names no file", "endnet/data_io.py",
             "    except ValueError as exc:\n"
             '        raise CubeFormatError(f"{path}: {exc}") from exc\n', "",
             ("tests/test_cli.py::test_eval_unreadable_csv_is_an_io_error",)),
    Mutation("zero-norm spectra load", "endnet/data_io.py",
             "    if not sq_norms.all():\n"
             '        raise CubeFormatError(f"zero-norm spectrum in {what}")\n', "",
             ("tests/test_cli.py::test_eval_unreadable_csv_is_an_io_error",)),
    Mutation("checkpoint skips the zero-norm half", "endnet/data_io.py",
             "    if not sq_norms.all():\n",
             '    if not sq_norms.all() and not what.startswith("checkpoint"):\n',
             ("tests/test_cli.py::test_abundances_rejects_an_unsound_checkpoint",)),
    Mutation("checkpoint squared norms may overflow", "endnet/net.py",
             "        for rows in (w_enc, w_dec.T):  # the filters and the endmembers\n"
             '            _check_angle_rows(rows, f"checkpoint {path}")\n', "",
             ("tests/test_cli.py::test_abundances_rejects_an_unsound_checkpoint",)),
    Mutation("spectra squared norms may overflow", "endnet/data_io.py",
             "    if not np.isfinite(sq_norms).all():\n"
             '        raise CubeFormatError(f"squared norms overflow in {what}")\n', "",
             ("tests/test_cli.py::test_eval_unreadable_csv_is_an_io_error",)),
    Mutation("spectra CSV skips the angle check", "endnet/data_io.py",
             '    _check_angle_rows(spectra.rows, f"spectra CSV {path}")\n', "",
             ("tests/test_cli.py::test_eval_unreadable_csv_is_an_io_error",)),
    Mutation("a global statement in fcls", "endnet/abundance.py",
             "    k, _ = E.shape\n", "    global _NEG_TOL\n    k, _ = E.shape\n",
             ("tests/test_data_io.py::test_no_global_statements",)),
    Mutation("a pixel-column-only abundance CSV loads", "endnet/data_io.py",
             "    if vals.shape[1] == 0:\n"
             "        raise CubeFormatError("
             'f"abundance CSV {path} holds no abundance column")\n', "",
             ("tests/test_cli.py::test_eval_unreadable_csv_is_an_io_error",)),
    Mutation("ForwardTrace not frozen", "endnet/net.py",
             "@dataclass(frozen=True)\nclass ForwardTrace:", "@dataclass\nclass ForwardTrace:",
             ("tests/test_net.py::test_forward_xhat_is_decoder_product",)),
    Mutation("loss counts the replica axis as the batch", "endnet/net.py",
             "    n = X_clean.shape[-2]\n", "    n = X_clean.shape[0]\n",
             ("tests/test_net.py::test_stacked_forward_and_loss_match_solo_calls",)),
    Mutation("kl and sparsity swapped in LossParts", "endnet/net.py",
             "LossParts(total, recon, kl, sparsity, reg, x_hat, c)",
             "LossParts(total, recon, sparsity, kl, reg, x_hat, c)",
             ("tests/test_trainer.py::test_loss_parts_are_the_reference_terms",)),
    Mutation("fcls with one endmember skips the finite checks", "endnet/abundance.py",
             "        if not np.isfinite(E).all():\n"
             '            raise NonFiniteValue("endmembers contain NaN/Inf values")\n'
             "        if not np.isfinite(x).all():\n"
             '            raise NonFiniteValue("pixel contains NaN/Inf values")\n'
             "        return np.array([1.0])\n",
             "        return np.array([1.0])\n",
             ("tests/test_abundance.py::test_unmixing_blames_non_finite_input",)),
]


def mutated_text(mutation):
    """The file's text under ``src/`` with the mutation applied; ValueError unless
    the old text occurs exactly once."""
    text = (ROOT / "src" / mutation.file).read_text(encoding="utf-8")
    count = text.count(mutation.old)
    if count != 1:
        raise ValueError(f"{mutation.name}: old text occurs {count} times in {mutation.file}")
    return text.replace(mutation.old, mutation.new)


def run_tests(src, tests):
    """(pytest exit status, its output) of the tests run against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main(argv):
    chosen = [m for m in MUTATIONS if not argv or any(a in m.name for a in argv)]
    if not chosen:
        print(f"no mutation name contains any of {argv}")
        return 2
    survivors = faults = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        status, output = run_tests(src, tests)
        if status != 0:
            print(f"the named tests fail on the unmutated source (exit {status}):\n{output}")
            return 2
        for m in chosen:
            path = src / m.file
            original = path.read_text(encoding="utf-8")
            start = time.perf_counter()
            try:
                text = mutated_text(m)
                compile(text, str(path), "exec")
                path.write_text(text, encoding="utf-8")
                status, output = run_tests(src, m.tests)
            except (ValueError, SyntaxError) as exc:
                status, output = None, str(exc)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, "ERROR")
            print(f"{verdict:8s} {time.perf_counter() - start:6.1f} s  {m.name}", flush=True)
            if verdict == "SURVIVED":
                survivors += 1
            elif verdict == "ERROR":
                faults += 1
                print(output)
    print(f"{len(chosen) - survivors - faults} killed, {survivors} survived, {faults} errors "
          f"of {len(chosen)} mutations")
    return 2 if faults else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
