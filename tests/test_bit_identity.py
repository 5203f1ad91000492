"""The reference checkpoints and gradient-check errors that every bit-for-bit
change is held to.

The seed 0-2 checkpoint hashes are those recorded in CHANGES.md when the
angle kernel became one einsum reduction per row; a change that moves any
of these values changes training or the gradients, not only their code.
"""

import hashlib

from endnet import TrainConfig, dmaxd, train
from endnet.gradcheck import run_all

# .endn SHA-256 per seed: the normalized 40 dB acceptance scene, dmaxd, 2000 iterations
CHECKPOINT_SHA256 = {
    0: "94ae8299fb82247e6bc9d88740fa457b2ee0d7def867699b7b80f6afcbc50ca7",
    1: "a6e03c767dbe967b029b34bb0527baf7a77acce02bc5aaab345e430cb40a2c96",
    2: "5075eb753d3fc1bfe2ab3488bbd7c91fae03e8c434e2d92da125c47aa6cab779",
}
# worst relative error per layer of run_all(trials=50, seed=0)
RUN_ALL_50_0 = {
    "sad": 6.1225961520764996e-09,
    "batchnorm": 3.896608450845277e-05,
    "l1norm": 5.630353994037719e-10,
    "full_loss": 3.3006672353363044e-05,
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
