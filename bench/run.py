"""Benchmark of the endnet toolkit.

    python3 bench/run.py --workload accept --seed 0 --seconds 40 --trace 0

Run from the repository root.  One process, one call at a time (a closed
loop).  The run writes its scene, repeats whole rounds of the same
operations until ``--seconds`` have passed, checks every output against
the independent references in ``checkers``, and prints one JSON object as
its last line of output: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  A full record (environment, seeds, every
sample) goes to ``bench/out/results/``, and traced runs write their spans
to ``bench/out/traces/``.
"""

import os
import sys

# One BLAS thread, fixed before NumPy loads: with OpenBLAS's default of one
# thread per core, a hidden pass over the acceptance scene measured anywhere
# from 1.2 to 6.4 us/px on two cores, against 0.95 us/px on one.
# ENDNET_THREADS stays unset, the default users get.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ENDNET_THREADS", None)

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "endnet" / "__init__.py").is_file():
    sys.exit(f"error: no package source at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import endnet  # noqa: E402
from endnet import (abundance, data_io, evaluation, gradcheck,  # noqa: E402
                    initializers, net, trainer)
from endnet.datatypes import AbundanceMap, HyperCube, SpectraMatrix, SynthSpec  # noqa: E402

import checkers  # noqa: E402
from scenes import TRAIN_SEEDS, WORKLOADS, input_bytes, write_scene  # noqa: E402
from speed import PERIOD, REF_S, SpeedIndex  # noqa: E402
from tracing import Tracer  # noqa: E402

GRADCHECK_SEED = 0      # the defaults of `endnet gradcheck`
GRADCHECK_TOL = 1e-4
FCLS_TOL = 1e-6         # program FCLS against the NNLS reference, max abs
EVAL_TOL = 1e-12
FCLS_BLOCKS = 16

END_TO_END = {
    "setup_s": "s", "extract_s": "s", "train_it_per_s": "it/s",
    "abundances_s": "s", "spu_px_per_s": "px/s", "hidden_px_per_s": "px/s",
    "fcls_px_per_s": "px/s", "gradcheck_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "data_io.load_cube_ms": "ms", "data_io.normalize_cube_ms": "ms",
    "data_io.save_abundance_maps_ms": "ms", "data_io.bytes_read": "B",
    "data_io.bytes_written": "B",
    "initializers.dmaxd_ms": "ms", "initializers.vca_ms": "ms",
    "trainer.iter_us": "us", "trainer.corrupt_us_per_iter": "us",
    "trainer.corrupt_calls_per_iter": "count", "trainer.adam_step_us": "us",
    "trainer.self_us_per_iter": "us",
    "net.forward_batch_train_us": "us", "net.loss_us": "us",
    "net.forward_batch_infer_us_per_px": "us/px",
    "net.forward_batch_calls": "count", "net.forward_batch_small_us": "us",
    "net.loss_value_calls": "count", "net.loss_value_us": "us",
    "net.checkpoint_save_ms": "ms", "net.checkpoint_load_ms": "ms",
    "abundance.spu_sad_us": "us", "abundance.spu_sad_calls": "count",
    "abundance.hidden_abundances_ms": "ms", "abundance.fcls_us": "us",
    "abundance.fcls_failed": "count", "evaluation.evaluate_ms": "ms",
    **{f"gradcheck.check_{name}_s": "s" for name in gradcheck.LAYERS},
    "trace.overhead_pct": "%",
}


def trace_sites():
    """(owner, attribute, span name) for every layer boundary the tracer wraps."""
    sites = [
        (data_io, "load_cube", "data_io.load_cube"),
        (data_io, "normalize_cube", "data_io.normalize_cube"),
        (data_io, "save_abundance_maps", "data_io.save_abundance_maps"),
        (initializers, "dmaxd", "initializers.dmaxd"),
        (initializers, "vca", "initializers.vca"),
        (trainer, "train", "trainer.train"),
        (trainer, "corrupt", "trainer.corrupt"),
        (trainer, "adam_step", "trainer.adam_step"),
        (trainer, "forward_batch", "net.forward_batch"),
        (trainer, "loss", "net.loss"),
        (net, "forward_batch", "net.forward_batch"),
        (net, "loss", "net.loss"),
        (net, "loss_value", "net.loss_value"),
        (net.EndNetModel, "save", "net.checkpoint_save"),
        (net.EndNetModel, "load", "net.checkpoint_load"),
        (abundance, "forward_batch", "net.forward_batch"),
        (abundance, "estimate_abundances", "abundance.estimate_abundances"),
        (abundance, "spu_abundances", "abundance.spu_abundances"),
        (abundance, "spu_sad", "abundance.spu_sad"),
        (abundance, "hidden_abundances", "abundance.hidden_abundances"),
        (abundance, "fcls", "abundance.fcls"),
        (evaluation, "evaluate", "evaluation.evaluate"),
        (gradcheck, "run_all", "gradcheck.run_all"),
    ]
    sites += [(gradcheck.LAYERS, name, f"gradcheck.check_{name}") for name in gradcheck.LAYERS]
    return sites


class Run:
    """One benchmark process: the scene, the rounds, the samples and the checks."""

    def __init__(self, workload, seed, workdir):
        self.w = workload
        self.train_seed = seed % TRAIN_SEEDS
        self.k = workload.scene["k"]
        self.dir = Path(workdir)
        self.ckpt = self.dir / "run" / "model.endn"
        self.maps_dir = self.dir / "maps"
        # (start, end, work) of every timed call, scaled when the run ends
        self.intervals = {name: [] for name in END_TO_END}
        self.check = checkers.Checker()
        self.attempted = 0
        self.failed = 0
        self.fcls_failed_per_round = None
        self.ref_ckpt_bytes = None
        self.bytes_written = []

    def sample(self, name, t0, t1, work=None):
        """One timing of ``name``: seconds, or ``work`` per second if given."""
        self.intervals[name].append((t0, t1, work))

    def samples(self, seconds):
        """Every sample, its length measured by ``seconds(t0, t1)``."""
        return {name: [s if work is None else work / s
                       for s, work in ((seconds(t0, t1), work) for t0, t1, work in v)]
                for name, v in self.intervals.items() if v}

    # -- set-up -------------------------------------------------------------

    def setup(self):
        w = self.w
        for _ in range(w.setup_reps):
            t0 = time.perf_counter()
            cube, gt_e, gt_a = data_io.synth_scene(SynthSpec(**w.scene))
            path, expected = write_scene(w, cube.data, cube.height, cube.width,
                                         self.dir / "scene")
            self.sample("setup_s", t0, time.perf_counter())
        self.cube_path = path
        self.expected = expected
        self.expected_norm = expected / expected.max()
        self.height, self.width = cube.height, cube.width
        self.n = cube.n_pixels
        self.gt_e = gt_e.rows
        self.gt_a = gt_a.values
        self.bytes_read = input_bytes(path)

    # -- one round ----------------------------------------------------------

    def round(self):
        """Every operation of the workload once (cheap ones repeated a fixed count).

        After the first extract, which the other operations need, the
        repetitions of each kind are spread evenly over the round instead
        of running back to back: the host's speed drifts in phases of
        seconds, and spread-out samples of one metric see several phases
        rather than one.
        """
        w = self.w
        self.extract()
        self.round_fcls_failed = 0
        kinds = [[self.extract] * (w.extract_reps - 1),
                 [self.abundances_path] * w.abundances_reps,
                 [self.hidden] * w.hidden_reps,
                 [functools.partial(self.fcls_block, b) for b in range(FCLS_BLOCKS)],
                 [self.gradcheck], [self.cross_seeder]]
        order = sorted(((i + 0.5) / len(ops), g, i)
                       for g, ops in enumerate(kinds) for i in range(len(ops)))
        for _, g, i in order:
            kinds[g][i]()
        self.evaluate()
        if self.fcls_failed_per_round is None:
            self.fcls_failed_per_round = self.round_fcls_failed
        self.check.check(self.round_fcls_failed == self.fcls_failed_per_round,
                         "FCLS failure count changed between rounds")

    def load(self):
        raw = data_io.load_cube(self.cube_path)
        return raw, data_io.normalize_cube(raw)

    def check_loaded(self, raw, cube):
        self.check.check((raw.height, raw.width) == (self.height, self.width)
                         and np.array_equal(raw.data, self.expected),
                         "loaded cube differs from the written array")
        self.check.check(np.array_equal(cube.data, self.expected_norm),
                         "normalized cube differs from data / max")

    def seeder(self, method, cube):
        if method == "vca":
            return initializers.vca(cube, self.k, self.train_seed)
        return initializers.dmaxd(cube, self.k)

    def check_seeds(self, method, cube, init):
        idx = list(init.pixel_indices)
        self.check.check(len(set(idx)) == self.k
                         and np.array_equal(init.endmembers.rows, cube.data[idx]),
                         f"{method} picks are not {self.k} distinct cube rows")
        _, sads = checkers.match_sad(init.endmembers.rows, self.gt_e)
        self.check.check(sads.max() <= self.w.max_seed_sad,
                         f"{method} endmember SAD {sads.max():.4f} above bound")
        return sads

    def extract(self):
        """The `endnet extract` path, call for call: load, normalize, seed, train, save."""
        w = self.w
        cfg = trainer.TrainConfig(iters=w.iters, seed=self.train_seed)
        prefix = self.ckpt.with_suffix("")
        t0 = time.perf_counter()
        raw, cube = self.load()
        init = self.seeder(w.seeder, cube)
        t1 = time.perf_counter()
        model, log = trainer.train(cube, init, cfg)
        t2 = time.perf_counter()
        prefix.parent.mkdir(parents=True, exist_ok=True)
        model.save(self.ckpt)
        log.write_csv(f"{prefix}_trainlog.csv")
        data_io.save_spectra_csv(SpectraMatrix(model.endmembers()),
                                 f"{prefix}_endmembers.csv")
        t3 = time.perf_counter()
        self.sample("extract_s", t0, t3)
        self.sample("train_it_per_s", t1, t2, w.iters)
        self.attempted += 1

        self.check_loaded(raw, cube)
        self.seed_sad = self.check_seeds(w.seeder, cube, init)
        blob = self.ckpt.read_bytes()
        if self.ref_ckpt_bytes is None:
            self.ref_ckpt_bytes = blob
        self.check.check(blob == self.ref_ckpt_bytes,
                         "same-seed training gave a different checkpoint")
        self.check.check(checkers.checkpoint_matches(self.ckpt, self.model_arrays(model)),
                         "checkpoint bytes differ from the trained model")
        spectra = np.loadtxt(f"{prefix}_endmembers.csv", delimiter=",", ndmin=2)
        self.check.check(np.array_equal(spectra, model.endmembers()),
                         "endmember CSV differs from the trained decoder")
        _, sads = checkers.match_sad(model.endmembers(), self.gt_e)
        self.train_sad = sads
        self.check.check(sads.max() <= w.max_train_sad,
                         f"trained endmember SAD {sads.max():.4f} above bound")
        self.model, self.cube = model, cube

    @staticmethod
    def model_arrays(model):
        return {"w_enc": model.w_enc, "rho": model.rho, "run_mean": model.run_mean,
                "run_var": model.run_var, "w_dec": model.w_dec}

    def cross_seeder(self):
        """The seeder the extract path does not use, on the workload's crop."""
        method = "vca" if self.w.seeder == "dmaxd" else "dmaxd"
        h, w, data = self.height, self.width, self.expected_norm
        side = self.w.cross_crop
        if side is not None:
            h = w = side
            data = data.reshape(self.height, self.width, -1)[:side, :side].reshape(side * side, -1)
        cube = HyperCube(h, w, data.shape[1], data)
        init = self.seeder(method, cube)
        self.attempted += 1
        self.check_seeds(method, cube, init)

    def abundances_path(self):
        """The `endnet abundances --method spu` path: load, checkpoint, SPU, write maps."""
        t0 = time.perf_counter()
        raw, cube = self.load()
        model = net.EndNetModel.load(self.ckpt)
        t1 = time.perf_counter()
        amap = abundance.estimate_abundances(model, cube, method="spu")
        t2 = time.perf_counter()
        paths = data_io.save_abundance_maps(amap, self.maps_dir)
        t3 = time.perf_counter()
        self.sample("abundances_s", t0, t3)
        self.sample("spu_px_per_s", t1, t2, self.n)
        self.attempted += 1

        self.check_loaded(raw, cube)
        loaded = self.model_arrays(model)
        self.check.check(all(np.array_equal(loaded[name], arr)
                             for name, arr in self.model_arrays(self.model).items()),
                         "checkpoint load did not reproduce the trained arrays")
        values = amap.values
        self.check.check(checkers.simplex_rows_ok(values), "SPU rows off the simplex")
        perm, _ = checkers.match_sad(model.endmembers(), self.gt_e)
        rmse = checkers.rmse_columns(values, self.gt_a, perm)
        self.spu_rmse = rmse
        self.check.check(rmse.max() <= self.w.max_spu_rmse,
                         f"SPU RMSE {rmse.max():.4f} above bound")
        self.bytes_written.append(sum(Path(p).stat().st_size for p in paths))
        for j in range(self.k):
            self.check.check(checkers.pgm_ok(self.maps_dir / f"abundance_{j + 1}.pgm",
                                             values[:, j], self.height, self.width),
                             f"abundance_{j + 1}.pgm is malformed")
        self.check.check(checkers.abundance_csv_ok(self.maps_dir / "abundances.csv", values),
                         "abundances.csv does not re-read equal to the abundances")
        self.reloaded, self.amap = model, amap

    def evaluate(self):
        """`evaluate` of the reloaded model and the last SPU map, against the generator."""
        amap = self.amap
        est = self.reloaded.endmembers()
        report = evaluation.evaluate(SpectraMatrix(est), SpectraMatrix(self.gt_e), amap,
                                     AbundanceMap(self.height, self.width, self.gt_a))
        self.attempted += 1
        perm, sads = checkers.match_sad(est, self.gt_e)
        rmse = checkers.rmse_columns(amap.values, self.gt_a, perm)
        self.check.check(report.assignment == {int(perm[j]): j for j in range(self.k)}
                         and np.abs(np.array(report.per_endmember_sad) - sads).max() <= EVAL_TOL
                         and np.abs(np.array(report.per_endmember_rmse) - rmse).max() <= EVAL_TOL,
                         "evaluate disagrees with the independent SAD/RMSE")

    def hidden(self):
        """One `hidden_abundances` pass over the whole cube."""
        top_n = min(2, self.k)
        t0 = time.perf_counter()
        amap = abundance.hidden_abundances(self.model, self.cube)
        self.sample("hidden_px_per_s", t0, time.perf_counter(), self.n)
        self.attempted += 1
        values = amap.values
        self.check.check(checkers.simplex_rows_ok(values), "hidden rows off the simplex")
        # rows with no active unit are set to uniform 1/K by design
        live = ~np.all(np.abs(values - 1.0 / self.k) <= 1e-12, axis=1)
        self.check.check(not live.any() or checkers.max_nonzeros(values[live]) <= top_n,
                         f"hidden rows with more than {top_n} nonzeros")

    def fcls_block(self, b):
        """FCLS with the generator's endmembers on block ``b`` of the FCLS pixels.

        Each raised pixel is a failed operation.  The pass is timed in
        blocks, so that it gives several samples.
        """
        block = np.array_split(self.cube.data[::self.w.fcls_step], FCLS_BLOCKS)[b]
        gt_e = self.gt_e
        out = []
        t0 = time.perf_counter()
        for x in block:
            try:
                out.append(abundance.fcls(x, gt_e))
            except RuntimeError:
                out.append(None)
        self.sample("fcls_px_per_s", t0, time.perf_counter(), len(block))
        failed = sum(a is None for a in out)
        self.attempted += len(block)
        self.failed += failed
        self.round_fcls_failed += failed
        worst = 0.0
        for x, a in zip(block, out):
            if a is not None:
                worst = max(worst, np.abs(a - checkers.fcls_reference(x, gt_e)).max())
        self.check.check(worst <= FCLS_TOL, f"FCLS differs from NNLS reference by {worst:.2e}")

    def gradcheck(self):
        """`endnet gradcheck --trials 50`: its trials, seed and tolerance."""
        t0 = time.perf_counter()
        results, ok = gradcheck.run_all(trials=50, seed=GRADCHECK_SEED, tol=GRADCHECK_TOL)
        self.sample("gradcheck_s", t0, time.perf_counter())
        self.attempted += 1
        self.check.check(ok and max(results.values()) < GRADCHECK_TOL,
                         f"gradient check failed: {results}")


def layer_metrics(tr, run, traced_rounds, overhead_pct):
    """Per-layer figures from the spans of the traced rounds (durations are in ns).

    A figure whose spans are missing, say after a function was renamed, is
    left out rather than reported as zero.
    """
    def ratio(num, den, scale=1.0):
        return num / den * scale if den else None

    def mean(values, scale):
        return ratio(sum(values), len(values), scale)

    m = {}
    for span, key in (("data_io.load_cube", "data_io.load_cube_ms"),
                      ("data_io.normalize_cube", "data_io.normalize_cube_ms"),
                      ("data_io.save_abundance_maps", "data_io.save_abundance_maps_ms"),
                      ("initializers.dmaxd", "initializers.dmaxd_ms"),
                      ("initializers.vca", "initializers.vca_ms"),
                      ("net.checkpoint_save", "net.checkpoint_save_ms"),
                      ("net.checkpoint_load", "net.checkpoint_load_ms"),
                      ("abundance.hidden_abundances", "abundance.hidden_abundances_ms"),
                      ("evaluation.evaluate", "evaluation.evaluate_ms")):
        m[key] = mean(tr.durations(span), 1e-6)
    m["data_io.bytes_read"] = run.bytes_read
    m["data_io.bytes_written"] = run.bytes_written[-1]

    trains = tr.durations("trainer.train")
    iters = len(trains) * run.w.iters
    corrupt = tr.durations("trainer.corrupt", under="trainer.train")
    m["trainer.iter_us"] = ratio(sum(trains), iters, 1e-3)
    m["trainer.corrupt_us_per_iter"] = ratio(sum(corrupt), iters, 1e-3)
    m["trainer.corrupt_calls_per_iter"] = ratio(len(corrupt), iters)
    m["trainer.adam_step_us"] = mean(tr.durations("trainer.adam_step"), 1e-3)
    m["trainer.self_us_per_iter"] = ratio(tr.self_time("trainer.train"), iters, 1e-3)
    m["net.forward_batch_train_us"] = mean(
        tr.durations("net.forward_batch", under="trainer.train"), 1e-3)
    m["net.loss_us"] = mean(tr.durations("net.loss", under="trainer.train"), 1e-3)
    infer = tr.durations("net.forward_batch", under="abundance.hidden_abundances")
    m["net.forward_batch_infer_us_per_px"] = mean(infer, 1e-3 / run.n)

    checks = len(tr.durations("gradcheck.run_all"))
    small = tr.durations("net.forward_batch", under="gradcheck.run_all")
    loss_value = tr.durations("net.loss_value", under="gradcheck.run_all")
    m["net.forward_batch_calls"] = ratio(len(small), checks)
    m["net.forward_batch_small_us"] = mean(small, 1e-3)
    m["net.loss_value_calls"] = ratio(len(loss_value), checks)
    m["net.loss_value_us"] = mean(loss_value, 1e-3)
    for name in gradcheck.LAYERS:
        m[f"gradcheck.check_{name}_s"] = ratio(
            sum(tr.durations(f"gradcheck.check_{name}")), checks, 1e-9)

    spu = tr.durations("abundance.spu_sad")
    m["abundance.spu_sad_us"] = mean(spu, 1e-3)
    m["abundance.spu_sad_calls"] = ratio(len(spu), len(tr.durations("abundance.spu_abundances")))
    m["abundance.fcls_us"] = mean(tr.durations("abundance.fcls"), 1e-3)
    m["abundance.fcls_failed"] = tr.count_failed("abundance.fcls") / traced_rounds
    m["trace.overhead_pct"] = overhead_pct
    return {k: v for k, v in m.items() if v is not None}


def openblas_threads():
    """Thread count reported by the OpenBLAS library NumPy loaded, if found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment(args, run):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "endnet": endnet.__version__, "openblas": blas,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ENDNET_THREADS": os.environ.get("ENDNET_THREADS"),
        "seeds": {"workload": args.seed, "train": run.train_seed,
                  "scene": run.w.scene["seed"], "gradcheck": GRADCHECK_SEED},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out = HERE / "out"
    run = Run(WORKLOADS[args.workload], args.seed, out / "work" / args.workload)
    tracer = Tracer(uuid.uuid4().hex)
    sites = trace_sites()
    speed = SpeedIndex()
    speed.start()
    try:
        run.setup()
        # with --trace 1 rounds alternate untraced/traced, so the same
        # process measures the tracing overhead
        round_at = {"untraced": [], "traced": []}
        start = time.perf_counter()
        rounds = 0
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            if traced:
                tracer.install(sites)
            t0 = time.perf_counter()
            try:
                run.round()
            finally:
                tracer.uninstall()
            round_at["traced" if traced else "untraced"].append((t0, time.perf_counter()))
            rounds += 1
            if time.perf_counter() - start >= args.seconds and (
                    not args.trace or rounds % 2 == 0):
                break
        # one more period, so that the last interval has ticks after it
        end = time.perf_counter() + 2 * PERIOD
        while time.perf_counter() < end:
            pass
    finally:
        speed.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = run.samples(speed.seconds)
    wall_samples = run.samples(lambda t0, t1: t1 - t0)
    round_s = {kind: [speed.seconds(*t) for t in v] for kind, v in round_at.items()}
    e2e = {name: statistics.median(v) for name, v in samples.items()}
    e2e["peak_rss_mb"] = rss_mb
    if args.trace:
        untraced = statistics.median(round_s["untraced"])
        traced = statistics.median(round_s["traced"])
        metrics = layer_metrics(tracer, run, len(round_s["traced"]),
                                100.0 * (traced - untraced) / untraced)
        units = PER_LAYER
        (out / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write_csv(out / "traces" / f"{args.workload}-seed{args.seed}.csv")
    else:
        metrics, units = e2e, END_TO_END

    result = {
        "correct": run.check.correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    record = {
        **result, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "run_id": tracer.run_id, "rounds": rounds, "round_s": round_s,
        "check_failures": run.check.failures, "environment": environment(args, run),
        "end_to_end": e2e, "samples": samples,
        "wall_end_to_end": {name: statistics.median(v) for name, v in wall_samples.items()},
        "wall_samples": wall_samples,
        "speed": {"period_s": PERIOD, "ref_s": REF_S, "ticks": len(speed.starts),
                  "kernel_s_quartiles": statistics.quantiles(speed.kernel_s(), n=4),
                  "tick_starts": speed.starts, "tick_ends": speed.ends,
                  "intervals": run.intervals, "round_at": round_at},
        "seed_sad": run.seed_sad.tolist(), "train_sad": run.train_sad.tolist(),
        "spu_rmse": run.spu_rmse.tolist(),
    }
    (out / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
