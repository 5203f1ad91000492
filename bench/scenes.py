"""Workload definitions and the scene files the program is given.

Every scene is frozen: its generator seed is fixed, so the FCLS failure
count (which depends only on the scene and the generator's endmembers) is
the same in every run.  The workload seed chooses the training seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the training seed is the workload seed modulo this; the SAD and RMSE bounds
# below were checked on training seeds 0..4
TRAIN_SEEDS = 5


@dataclass(frozen=True)
class Workload:
    scene: dict             # SynthSpec fields
    fmt: str                # "csv" or "envi"
    seeder: str             # seeder of the extract path: "dmaxd" or "vca"
    iters: int              # training iterations of one extract
    extract_reps: int       # extract paths per round
    abundances_reps: int    # abundances paths per round
    hidden_reps: int        # hidden-activation passes per round
    fcls_step: int          # FCLS runs on every fcls_step-th pixel
    setup_reps: int         # scene generations whose median is setup_s
    cross_crop: int | None  # the other seeder runs on this top-left square crop
    max_seed_sad: float     # bound on every matched SAD of a seeder's picks (rad)
    max_train_sad: float    # bound on every matched SAD of trained endmembers (rad)
    max_spu_rmse: float     # bound on SPU abundance RMSE per endmember


WORKLOADS = {
    # frozen acceptance scene of the test suite; training is the largest share
    "accept": Workload(
        scene=dict(k=4, bands=100, n_pixels=2500, snr_db=40.0,
                   pure_pixel_fraction=0.05, dirichlet_alpha=0.2, seed=6),
        fmt="csv", seeder="dmaxd", iters=500, extract_reps=4, abundances_reps=2,
        hidden_reps=20, fcls_step=1, setup_reps=25, cross_crop=None,
        max_seed_sad=0.05, max_train_sad=0.1, max_spu_rmse=0.1),
    # Urban-sized (307 x 307 x 162) float32 bsq ENVI scene; unmixing- and
    # I/O-bound.  dmaxd is O(N^2 D) and takes minutes at this size, so the
    # extract path seeds with vca and dmaxd runs on a 64 x 64 crop.
    "urban": Workload(
        scene=dict(k=4, bands=162, n_pixels=307 * 307, snr_db=40.0,
                   pure_pixel_fraction=0.05, dirichlet_alpha=0.2, seed=6),
        fmt="envi", seeder="vca", iters=300, extract_reps=5, abundances_reps=1,
        hidden_reps=10, fcls_step=19, setup_reps=5, cross_crop=64,
        max_seed_sad=0.1, max_train_sad=0.15, max_spu_rmse=0.15),
}


def write_csv_cube(data, path):
    """One pixel per row with a '# bands=D' line, as ``endnet synth`` writes it."""
    np.savetxt(path, data, delimiter=",", fmt="%.17g",
               header=f"bands={data.shape[1]}", comments="# ")


def write_envi_cube(data, height, width, path):
    """Little-endian float32 band-sequential payload plus its ASCII header."""
    bands = data.shape[1]
    cube = data.reshape(height, width, bands).transpose(2, 0, 1)
    np.ascontiguousarray(cube, dtype="<f4").tofile(path)
    Path(str(path) + ".hdr").write_text(
        f"ENVI\nsamples = {width}\nlines = {height}\nbands = {bands}\n"
        "data type = 4\ninterleave = bsq\nbyte order = 0\n")


def write_scene(workload, data, height, width, directory):
    """Write the cube the program reads; returns (path, expected loaded array)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if workload.fmt == "csv":
        path = directory / "cube.csv"
        write_csv_cube(data, path)
        return path, data
    path = directory / "cube.img"
    write_envi_cube(data, height, width, path)
    return path, data.astype(np.float32).astype(np.float64)


def input_bytes(path):
    """Bytes the loader reads: the payload plus an ENVI header if present."""
    path = Path(path)
    hdr = Path(str(path) + ".hdr")
    return path.stat().st_size + (hdr.stat().st_size if hdr.exists() else 0)
