"""The reference checkpoints and gradient-check errors that every bit-for-bit
change is held to.

The seed 0-2 checkpoint hashes are those recorded in CHANGES.md when the
batched denoising corruption landed; a change that moves any of these
values changes training or the gradients, not only their code.
"""

import hashlib

from endnet import TrainConfig, dmaxd, train
from endnet.gradcheck import run_all

# .endn SHA-256 per seed: the normalized 40 dB acceptance scene, dmaxd, 2000 iterations
CHECKPOINT_SHA256 = {
    0: "c4c57f69a8ce5ed3917c684c0f2a4fb4bef2b7ac15224ee2d2ee1e1d240591e6",
    1: "e1a2f19805405d9f40d9ba3397bccf334d278c0b0edc8705d39fc1ccf43f6730",
    2: "7d85f93cb4c1f8592526731023fce47df4a97ed9960947da19510b3f8b964f90",
}
# worst relative error per layer of run_all(trials=50, seed=0)
RUN_ALL_50_0 = {
    "sad": 6.399154993231032e-09,
    "batchnorm": 3.896608450845277e-05,
    "l1norm": 4.5903502331322174e-10,
    "full_loss": 3.0333062698705147e-05,
}


def test_reference_checkpoints_and_gradcheck_errors(noisy_scene, tmp_path):
    cube, _, _ = noisy_scene
    init = dmaxd(cube, 4)
    for seed, digest in CHECKPOINT_SHA256.items():
        model, _ = train(cube, init, TrainConfig(iters=2000, seed=seed))
        path = tmp_path / f"seed{seed}.endn"
        model.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, seed
    results, _ = run_all(50, 0)
    assert results == RUN_ALL_50_0
