"""Geometric initializers: exactness on pure-pixel data and tie rules."""

import itertools
import tracemalloc

import numpy as np
import pytest

from endnet import HyperCube, SynthSpec, dmaxd, vca
from endnet.data_io import normalize_cube, synth_scene
from endnet.errors import DegenerateData


def _simplex_cube(seed=0, n_mixed=9):
    """3 pure vertices + noiseless mixtures, 12 pixels of 6 bands."""
    rng = np.random.default_rng(seed)
    verts = rng.uniform(0.1, 1.0, (3, 6))
    mixes = rng.dirichlet(np.ones(3) * 0.8, size=n_mixed) @ verts
    data = np.vstack([verts, mixes])
    return HyperCube(3, 4, 6, data), verts


def test_vca_recovers_pure_vertices():
    cube, verts = _simplex_cube()
    res = vca(cube, 3, seed=0)
    got = {tuple(np.round(r, 12)) for r in res.endmembers.rows}
    want = {tuple(np.round(v, 12)) for v in verts}
    assert got == want


def test_vca_deterministic_and_seed_sensitive():
    cube, _ = _simplex_cube()
    a = vca(cube, 3, seed=1)
    b = vca(cube, 3, seed=1)
    assert a.pixel_indices == b.pixel_indices
    np.testing.assert_array_equal(a.endmembers.rows, b.endmembers.rows)


def test_vca_k1_max_projection():
    cube, _ = _simplex_cube()
    res = vca(cube, 1, seed=0)
    assert len(res.pixel_indices) == 1
    # the pick is an actual data pixel
    np.testing.assert_array_equal(
        res.endmembers.rows[0], cube.data[res.pixel_indices[0]])


def test_vca_permutation_stable():
    cube, _ = _simplex_cube(seed=3)
    rng = np.random.default_rng(4)
    perm = rng.permutation(cube.n_pixels)
    shuffled = HyperCube(cube.height, cube.width, cube.bands, cube.data[perm])
    a = vca(cube, 3, seed=0)
    b = vca(shuffled, 3, seed=0)
    sa = {tuple(np.round(r, 12)) for r in a.endmembers.rows}
    sb = {tuple(np.round(r, 12)) for r in b.endmembers.rows}
    assert sa == sb


def test_dmaxd_two_cluster_tie_break():
    cube = HyperCube(1, 4, 1, [[0.0], [0.0], [1.0], [1.0]])
    res = dmaxd(cube, 2)
    assert res.pixel_indices == [0, 2]


def test_dmaxd_first_pair_is_max_distance():
    rng = np.random.default_rng(5)
    data = rng.random((40, 4))
    cube = HyperCube(5, 8, 4, data)
    res = dmaxd(cube, 3)
    i, j = res.pixel_indices[:2]
    got = np.linalg.norm(data[i] - data[j])
    best = max(np.linalg.norm(a - b) for a, b in itertools.combinations(data, 2))
    assert abs(got - best) < 1e-12


def test_dmaxd_matches_bruteforce_volume():
    """On a noiseless pure-pixel simplex, greedy picks = max-volume subset."""
    cube, verts = _simplex_cube(seed=6)
    res = dmaxd(cube, 3)
    data = cube.data

    def vol2(idx):
        v = data[list(idx)]
        g = (v[1:] - v[0]) @ (v[1:] - v[0]).T
        return np.linalg.det(g)

    best = max(itertools.combinations(range(12), 3), key=vol2)
    assert set(res.pixel_indices) == set(best)
    got = {tuple(np.round(r, 12)) for r in res.endmembers.rows}
    want = {tuple(np.round(v, 12)) for v in verts}
    assert got == want


def test_both_return_data_pixels(noiseless_scene):
    cube, _, _ = noiseless_scene
    for res in (vca(cube, 4, seed=0), dmaxd(cube, 4)):
        for idx, row in zip(res.pixel_indices, res.endmembers.rows):
            np.testing.assert_array_equal(row, cube.data[idx])
        assert len(set(res.pixel_indices)) == 4


def test_identical_pixels_degenerate():
    cube = HyperCube(1, 4, 3, np.ones((4, 3)))
    with pytest.raises(DegenerateData):
        vca(cube, 2)
    with pytest.raises(DegenerateData):
        dmaxd(cube, 2)


def test_k_out_of_range():
    cube = HyperCube(1, 3, 2, np.eye(3, 2))
    with pytest.raises(ValueError):
        vca(cube, 5)
    with pytest.raises(ValueError):
        dmaxd(cube, 0)


def test_dmaxd_rank_deficient_k():
    # 1-band data cannot support a 3-vertex simplex
    cube = HyperCube(1, 4, 1, [[0.0], [0.3], [0.7], [1.0]])
    with pytest.raises((DegenerateData, ValueError)):
        dmaxd(cube, 3)


def _dmaxd_bruteforce(X, k):
    """The O(N^2 D) dmaxd: every pixel pair in 512-row blocks, then the
    greedy residual over the whole cube.  The oracle for ``dmaxd``."""
    n = len(X)
    sq = np.einsum("ij,ij->i", X, X)
    best = -1.0
    best_pair = (0, 0)
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (X[start:stop] @ X.T)
        block = np.where(np.arange(n)[None, :] > np.arange(start, stop)[:, None], d2, -np.inf)
        flat = int(np.argmax(block))
        if block.flat[flat] > best:
            best = float(block.flat[flat])
            best_pair = (start + flat // n, flat % n)
    if best <= 1e-12:
        raise DegenerateData("all pixels identical")
    i0, j0 = best_pair
    indices = [i0, j0]
    R = X - X[i0]
    q = X[j0] - X[i0]
    v = q / np.linalg.norm(q)
    R = R - np.outer(R @ v, v)
    while len(indices) < k:
        dist = np.linalg.norm(R, axis=1)
        dist[indices] = -1.0
        idx = int(np.argmax(dist))
        if dist[idx] <= 1e-12:
            raise DegenerateData("rank-deficient")
        indices.append(idx)
        v = R[idx] / np.linalg.norm(R[idx])
        R = R - np.outer(R @ v, v)
    return indices[:k]


def _picks_or_raise(fn, *args):
    try:
        return fn(*args)
    except DegenerateData:
        return "DegenerateData"


def _random_cloud(case):
    """Cloud ``case`` of the oracle comparison: six kinds in turn, with
    N <= 4 every 10th case, D <= 2 every 7th and N > 1024 every 50th."""
    rng = np.random.default_rng(case)
    if case % 10 == 0:
        n = int(rng.integers(1, 5))
    elif case % 50 == 1:
        n = int(rng.integers(1000, 2600))
    else:
        n = int(rng.integers(5, 300))
    d = int(rng.integers(1, 3)) if case % 7 == 0 else int(rng.integers(3, 40))
    kind = case % 6
    if kind == 0:
        X = rng.random((n, d))
    elif kind == 1:  # duplicated pixels on a 1/64 grid, so every tie is exact
        base = rng.integers(0, 64, (max(1, n // 3), d)) / 64.0
        X = base[rng.integers(0, len(base), n)]
    elif kind == 2:  # a coarse grid: many exactly tied pairs
        X = rng.integers(0, 3, (n, d)) / 8.0
    elif kind == 3:  # planar: an affine 2-D plane in d bands
        X = rng.random((n, 2)) @ rng.random((2, d)) + rng.random(d)
    elif kind == 4:  # noisy mixtures of three spectra, far from the origin
        X = (rng.dirichlet(np.full(3, 0.3), n) @ (rng.random((3, d)) * 10 + 100)
             + rng.normal(0, 1e-3, (n, d)))
    else:
        X = rng.normal(size=(n, d)) * rng.uniform(0.01, 100)
    k = int(rng.integers(1, min(d + 1, n) + 1))
    return HyperCube(1, n, d, X), k


def test_dmaxd_matches_bruteforce_oracle_on_random_clouds():
    mismatches = []
    for case in range(1000):
        cube, k = _random_cloud(case)
        want = _picks_or_raise(_dmaxd_bruteforce, cube.data, k)
        got = _picks_or_raise(lambda: dmaxd(cube, k).pixel_indices)
        if got != want:
            mismatches.append((case, got, want))
    assert mismatches == []


def test_dmaxd_finds_the_farthest_pair_among_float_duplicates():
    # Duplicates of arbitrary floats tie exactly, but BLAS may round the two
    # tied dot products differently, so which tied pair wins is left open:
    # only the distance of the pair found is pinned.
    for case in range(200):
        rng = np.random.default_rng(case)
        n, d = int(rng.integers(3, 200)), int(rng.integers(1, 30))
        base = rng.random((max(2, n // 3), d))
        X = base[rng.integers(0, len(base), n)]
        if len({tuple(r) for r in X}) < 2:
            continue
        i, j = dmaxd(HyperCube(1, n, d, X), 2).pixel_indices
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        assert d2[i, j] >= d2.max() * (1 - 1e-12)


def test_dmaxd_matches_bruteforce_oracle_on_scenes(noisy_scene):
    urban_crop, _, _ = synth_scene(SynthSpec(k=4, bands=162, n_pixels=64 * 64, snr_db=40.0,
                                             pure_pixel_fraction=0.05, dirichlet_alpha=0.2,
                                             seed=6))
    for cube in (noisy_scene[0], normalize_cube(urban_crop)):
        for k in (2, 4, 6):
            assert dmaxd(cube, k).pixel_indices == _dmaxd_bruteforce(cube.data, k)


def test_constant_cube_degenerate():
    cube = HyperCube(20, 50, 50, np.full((1000, 50), 0.3))
    with pytest.raises(DegenerateData):
        vca(cube, 2)
    with pytest.raises(DegenerateData):
        dmaxd(cube, 2)


def test_vca_picks_on_the_acceptance_scene(noisy_scene):
    cube = noisy_scene[0]
    assert [vca(cube, 4, seed=s).pixel_indices for s in range(5)] == [
        [1387, 1752, 1082, 961], [1569, 1851, 961, 1549], [961, 1082, 1847, 1549],
        [55, 1387, 1082, 961], [1082, 1847, 286, 961]]


def test_vca_picks_do_not_depend_on_eigenvector_signs(noisy_scene, monkeypatch):
    cube = noisy_scene[0]
    want = [vca(cube, 4, seed=s).pixel_indices for s in range(5)]
    eigh = np.linalg.eigh

    def flipped(a):
        w, v = eigh(a)
        return w, v * np.where(np.arange(v.shape[1]) % 2 == 0, -1.0, 1.0)

    monkeypatch.setattr(np.linalg, "eigh", flipped)
    assert [vca(cube, 4, seed=s).pixel_indices for s in range(5)] == want


@pytest.mark.parametrize("seeder", [lambda c: vca(c, 4, seed=0), lambda c: dmaxd(c, 4)],
                         ids=["vca", "dmaxd"])
def test_seeders_hold_no_copy_of_the_cube(seeder):
    cube, _, _ = synth_scene(SynthSpec(k=4, bands=50, n_pixels=20000, snr_db=40.0,
                                       pure_pixel_fraction=0.05, dirichlet_alpha=0.2, seed=6))
    tracemalloc.start()
    try:
        seeder(cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cube.data.nbytes / 2
