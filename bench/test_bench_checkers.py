"""Tests of the benchmark's independent checkers; they need only NumPy and SciPy."""

import numpy as np

import checkers


def _simplex_grid(step):
    m = round(1.0 / step)
    i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    keep = (i + j) <= m
    return np.stack([i[keep], j[keep], m - i[keep] - j[keep]], axis=1) / m


def test_fcls_reference_matches_simplex_grid_k3():
    rng = np.random.default_rng(0)
    grid = _simplex_grid(1e-3)
    for trial in range(20):
        E = rng.uniform(0.05, 1.0, (3, 20))
        # inside, near and well outside the simplex
        a_true = rng.dirichlet(np.ones(3)) * (1.0 + 0.5 * (trial % 3))
        x = a_true @ E + rng.normal(0.0, 0.02, 20)
        residual = grid @ E - x
        best = grid[int(np.argmin(np.einsum("ij,ij->i", residual, residual)))]
        a = checkers.fcls_reference(x, E)
        assert (a >= 0.0).all()
        assert abs(a.sum() - 1.0) < 1e-8
        np.testing.assert_allclose(a, best, atol=2e-3)


def test_sad_matcher_invariant_to_permuting_estimates():
    rng = np.random.default_rng(1)
    truth = rng.uniform(0.1, 1.0, (4, 30))
    est = truth + rng.normal(0.0, 0.02, truth.shape)
    perm, sads = checkers.match_sad(est, truth)
    assert list(perm) == [0, 1, 2, 3]
    shuffle = rng.permutation(4)
    perm2, sads2 = checkers.match_sad(est[shuffle], truth)
    np.testing.assert_array_equal(sads2, sads)
    np.testing.assert_array_equal(shuffle[perm2], perm)
    # scale invariance of the angle
    np.testing.assert_allclose(checkers.match_sad(3.0 * est, truth)[1], sads, atol=1e-12)


def test_rows_not_summing_to_one_fail():
    good = np.array([[0.2, 0.8], [1.0, 0.0]])
    assert checkers.simplex_rows_ok(good)
    assert not checkers.simplex_rows_ok(good * 0.99)
    assert not checkers.simplex_rows_ok(np.array([[1.1, -0.1]]))
    check = checkers.Checker()
    check.check(checkers.simplex_rows_ok(good * 0.99), "rows off the simplex")
    assert not check.correct and check.failures == ["rows off the simplex"]


def _write_checkpoint(path, arrays, d, k):
    import struct
    payload = b"".join(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes()
                       for n in ("w_enc", "rho", "run_mean", "run_var", "w_dec"))
    path.write_bytes(b"ENDN" + struct.pack("<III", 1, d, k) + payload)


def test_wrong_checkpoint_byte_fails(tmp_path):
    rng = np.random.default_rng(2)
    d, k = 6, 3
    arrays = {"w_enc": rng.normal(size=(k, d)), "rho": rng.normal(size=k),
              "run_mean": rng.normal(size=k), "run_var": rng.uniform(0.5, 1.0, k),
              "w_dec": rng.normal(size=(d, k))}
    path = tmp_path / "model.endn"
    _write_checkpoint(path, arrays, d, k)
    assert checkers.checkpoint_matches(path, arrays)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x01
    path.write_bytes(bytes(blob))
    assert not checkers.checkpoint_matches(path, arrays)
    path.write_bytes(bytes(blob[:-8]))
    assert not checkers.checkpoint_matches(path, arrays)


def test_map_files_checked(tmp_path):
    values = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    pgm = tmp_path / "a.pgm"
    body = np.floor(values[:, 0] * 255.0 + 0.5).astype(np.uint8).tobytes()
    pgm.write_bytes(b"P5\n2 2\n255\n" + body)
    assert checkers.pgm_ok(pgm, values[:, 0], 2, 2)
    assert not checkers.pgm_ok(pgm, values[:, 0], 1, 4)
    pgm.write_bytes(b"P5\n2 2\n255\n" + body[:-1])
    assert not checkers.pgm_ok(pgm, values[:, 0], 2, 2)

    csv = tmp_path / "abundances.csv"
    rows = [f"{p}," + ",".join(f"{v:.17g}" for v in values[p]) for p in range(4)]
    csv.write_text("pixel,a1,a2\n" + "\n".join(rows) + "\n")
    assert checkers.abundance_csv_ok(csv, values)
    assert not checkers.abundance_csv_ok(csv, values[::-1])
