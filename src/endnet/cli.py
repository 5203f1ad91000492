"""Command-line interface: synth, extract, abundances, eval, gradcheck."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import abundance, data_io, evaluation, gradcheck, initializers
from .datatypes import SpectraMatrix, SynthSpec
from .errors import (CubeFormatError, EndnetError, NonFiniteValue,
                     NumericalDivergence)
from .net import EndNetModel, HyperParams
from .trainer import TrainConfig, train

EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_GRADCHECK = 4


def _flag_fields(cls):
    """The fields of a config dataclass with ``help`` metadata: the command-line flags,
    ``--top-n`` for ``top_n`` unless the metadata names another ``flag``."""
    return [f for f in dataclasses.fields(cls) if "help" in f.metadata]


def _add_hyper_flags(p):
    for f in _flag_fields(TrainConfig) + _flag_fields(HyperParams):
        # f.type is the annotation, a string under postponed evaluation
        p.add_argument(f.metadata.get("flag", "--" + f.name.replace("_", "-")), dest=f.name,
                       type=int if f.type in (int, "int") else float, default=f.default,
                       help=f.metadata["help"])


def _train_config(args):
    """The TrainConfig of the flags, checked against --k before any file is read."""
    def flags(cls):
        return {f.name: getattr(args, f.name) for f in _flag_fields(cls)}

    cfg = TrainConfig(hyper=HyperParams(**flags(HyperParams)), **flags(TrainConfig))
    cfg.hyper.check_k(args.k)
    return cfg


def _load_input(args):
    return data_io.normalize_cube(data_io.load_cube(args.input))


def _extract_once(args, cfg, cube):
    init = (initializers.vca(cube, args.k, cfg.seed) if args.init == "vca"
            else initializers.dmaxd(cube, args.k))
    return train(cube, init, cfg)


def cmd_extract(args):
    cfg = _train_config(args)
    model, log = _extract_once(args, cfg, _load_input(args))
    prefix = Path(args.out_prefix)
    model.save(f"{prefix}.endn")
    log.write_csv(f"{prefix}_trainlog.csv")
    data_io.save_spectra_csv(SpectraMatrix(model.endmembers()), f"{prefix}_endmembers.csv")
    print(f"wrote {prefix}.endn, {prefix}_trainlog.csv, {prefix}_endmembers.csv")
    return 0


def cmd_abundances(args):
    cube = _load_input(args)
    model = EndNetModel.load(args.checkpoint)
    amap = abundance.estimate_abundances(model, cube, method=args.method)
    paths = data_io.save_abundance_maps(amap, args.out_dir)
    print(f"wrote {len(paths)} files to {args.out_dir}")
    return 0


def cmd_synth(args):
    spec = SynthSpec(k=args.k, bands=args.bands, n_pixels=args.pixels,
                     snr_db=args.snr, pure_pixel_fraction=args.pure_frac,
                     dirichlet_alpha=args.alpha, seed=args.seed)
    cube, endm, amap = data_io.synth_scene(spec)
    out = Path(args.out_dir)
    data_io.save_cube_csv(cube, out / "cube.csv")
    data_io.save_spectra_csv(endm, out / "endmembers.csv")
    data_io.save_abundance_maps(amap, out)
    print(f"wrote synthetic scene ({cube.height}x{cube.width}x{cube.bands}) to {out}")
    return 0


def _eval_single(args):
    est = data_io.load_spectra_csv(args.est_spectra)
    gt = data_io.load_spectra_csv(args.gt_spectra)
    est_ab = data_io.load_abundance_csv(args.est_abund) if args.est_abund else None
    gt_ab = data_io.load_abundance_csv(args.gt_abund) if args.gt_abund else None
    report = evaluation.evaluate(est, gt, est_ab, gt_ab, greedy=args.greedy)
    report.write_csv(f"{args.out_prefix}_report.csv")
    print(report.to_text())
    return 0


def _eval_repeats(args):
    cfg = _train_config(args)
    gt = data_io.load_spectra_csv(args.gt_spectra)
    gt_ab = data_io.load_abundance_csv(args.gt_abund) if args.gt_abund else None
    cube = _load_input(args)
    # a ground truth that no estimate could be scored against fails before training
    evaluation.check_ground_truth(args.k, cube.bands, gt, gt_ab, cube.n_pixels)
    sads, rmses = [], []
    for r in range(args.repeats):
        model, _ = _extract_once(args, dataclasses.replace(cfg, seed=args.seed + r), cube)
        est = SpectraMatrix(model.endmembers())
        est_ab = abundance.estimate_abundances(model, cube, method=args.method) \
            if gt_ab is not None else None
        report = evaluation.evaluate(est, gt, est_ab, gt_ab, greedy=args.greedy)
        sads.append(report.per_endmember_sad)
        if report.per_endmember_rmse is not None:
            rmses.append(report.per_endmember_rmse)
    sads, rmses = np.array(sads), np.array(rmses)

    def stats(runs):
        return f"{runs.mean():.10g}", f"{runs.std():.10g}"

    rows = [("endmember", "mean_sad", "std_sad", "mean_rmse", "std_rmse")]
    rows += [(j + 1, *stats(sads[:, j]), *(stats(rmses[:, j]) if rmses.size else ("", "")))
             for j in range(gt.count)]
    out = f"{args.out_prefix}_repeats.csv"
    data_io.write_file(out, data_io._csv_text(rows))
    print(f"mean SAD over {args.repeats} runs: {sads.mean():.6f} "
          f"(x1e-2: {sads.mean() * 100:.2f})")
    print(f"wrote {out}")
    return 0


def cmd_eval(args):
    if args.repeats < 1:
        raise ValueError("repeats must be >= 1")
    if args.repeats > 1 or args.input:
        if not args.input:
            raise ValueError("--repeats needs --input and training flags")
        return _eval_repeats(args)
    if not args.est_spectra:
        raise ValueError("need --est-spectra (or --input with --repeats)")
    return _eval_single(args)


def cmd_gradcheck(args):
    results, ok = gradcheck.run_all(trials=args.trials, seed=args.seed, tol=args.tol)
    for name, err in results.items():
        status = "ok" if err < args.tol else "FAIL"
        print(f"{name:10s} worst rel err {err:.3e}  [{status}]")
    return 0 if ok else EXIT_GRADCHECK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="endnet", description="Hyperspectral endmember extraction and unmixing")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("synth", formatter_class=fmt, help="generate a synthetic scene")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--bands", type=int, default=100)
    p.add_argument("--pixels", type=int, default=2500)
    p.add_argument("--snr", type=float, default=np.inf, help="SNR in dB (inf: noiseless)")
    p.add_argument("--pure-frac", type=float, default=0.05)
    p.add_argument("--alpha", type=float, default=1.0, help="Dirichlet concentration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", formatter_class=fmt,
                       help="endmember extraction (init + training)")
    p.add_argument("--input", required=True, help="cube file (CSV or ENVI)")
    p.add_argument("--k", type=int, required=True, help="endmember count")
    p.add_argument("--init", choices=("vca", "dmaxd"), default="dmaxd", help="seeding method")
    _add_hyper_flags(p)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("abundances", formatter_class=fmt,
                       help="estimate per-pixel abundances from a checkpoint")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--method", choices=("spu", "hidden"), default="spu", help="unmixing method")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_abundances)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="score estimates against ground truth")
    p.add_argument("--est-spectra", help="estimated endmember CSV")
    p.add_argument("--gt-spectra", required=True)
    p.add_argument("--est-abund")
    p.add_argument("--gt-abund")
    p.add_argument("--greedy", action="store_true",
                   help="greedy per-truth matching instead of optimal")
    p.add_argument("--repeats", type=int, default=1,
                   help="rerun extract+eval with consecutive seeds")
    p.add_argument("--input", help="cube file (required with --repeats)")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--init", choices=("vca", "dmaxd"), default="dmaxd", help="seeding method")
    p.add_argument("--method", choices=("spu", "hidden"), default="spu", help="unmixing method")
    _add_hyper_flags(p)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", formatter_class=fmt,
                       help="finite-difference check of all analytic gradients")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=gradcheck.DEFAULT_TOL)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (OSError, CubeFormatError, NonFiniteValue) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, EndnetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
