"""The reference checkpoints and gradient-check errors that every bit-for-bit
change is held to.

The seed 0-2 checkpoint hashes are those recorded in CHANGES.md when the
angle kernel became one einsum reduction per row; a change that moves any
of these values changes training or the gradients, not only their code.
The train-log hashes of the same runs were taken before the loss returned
its parts, so they hold the logged loss and reconstruction angle too.
The full_loss instance digest holds the gradient check's random instances;
the search draws its candidates a block at a time, so it also pins the
block size.
"""

import hashlib

import numpy as np

from endnet import TrainConfig, dmaxd, gradcheck, train
from endnet.gradcheck import run_all

# .endn SHA-256 per seed: the normalized 40 dB acceptance scene, dmaxd, 2000 iterations
CHECKPOINT_SHA256 = {
    0: "94ae8299fb82247e6bc9d88740fa457b2ee0d7def867699b7b80f6afcbc50ca7",
    1: "a6e03c767dbe967b029b34bb0527baf7a77acce02bc5aaab345e430cb40a2c96",
    2: "5075eb753d3fc1bfe2ab3488bbd7c91fae03e8c434e2d92da125c47aa6cab779",
}
# SHA-256 of TrainLog.write_csv per seed, for the same runs
TRAIN_LOG_SHA256 = {
    0: "9eb8ade3834ee01af7b1fada65026c27109f398e63b3f0847b817be6bec39900",
    1: "b34a2649f966d638a1b62f2b42673e15d121d130a9de02e0a41a5ba3d240024c",
    2: "f3253ffc16c886d6e2359f37263531214c3f89f73f6cdde7b5d97212d5d7fd27",
}
# worst relative error per layer of run_all(trials=50, seed=0)
RUN_ALL_50_0 = {
    "sad": 6.1225961520764996e-09,
    "batchnorm": 3.896608450845277e-05,
    "l1norm": 5.630353994037719e-10,
    "full_loss": 2.4587328030580346e-07,
}
# SHA-256 of the bytes of the 50 full_loss instances of run_all(trials=50, seed=0):
# w_enc, rho, w_dec, X and the dropout mask of each, in call order
FULL_LOSS_INSTANCES_50_0 = "a1a559179f4e23061fe3a43b8d4949a8fefcd538db15c166acca5419c594a617"


def test_reference_checkpoints_and_gradcheck_errors(noisy_scene, tmp_path):
    cube, _, _ = noisy_scene
    init = dmaxd(cube, 4)
    for seed, digest in CHECKPOINT_SHA256.items():
        model, log = train(cube, init, TrainConfig(iters=2000, seed=seed))
        path = tmp_path / f"seed{seed}.endn"
        model.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, seed
        log_path = tmp_path / f"seed{seed}_trainlog.csv"
        log.write_csv(log_path)
        assert hashlib.sha256(log_path.read_bytes()).hexdigest() == TRAIN_LOG_SHA256[seed], seed
    results, _ = run_all(50, 0)
    assert results == RUN_ALL_50_0


def test_full_loss_instances_of_run_all(monkeypatch):
    digest = hashlib.sha256()
    calls = []
    real = gradcheck._random_instance

    def spy(*args, **kwargs):
        model, X, mask = real(*args, **kwargs)
        for arr in (model.w_enc, model.rho, model.w_dec, X, mask):
            digest.update(np.ascontiguousarray(arr).tobytes())
        calls.append(X.shape)
        return model, X, mask

    monkeypatch.setattr(gradcheck, "_random_instance", spy)
    run_all(50, 0)
    assert len(calls) == 50
    assert digest.hexdigest() == FULL_LOSS_INSTANCES_50_0
