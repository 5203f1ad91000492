"""Abundance estimation: SPU kernels, FCLS oracle, hidden activations."""

import numpy as np
import pytest
from scipy.optimize import nnls

from endnet import (EndNetModel, HyperCube, HyperParams, SpectraMatrix, SynthSpec,
                    estimate_abundances, fcls, forward_batch, hidden_abundances,
                    spu_abundances, spu_sad)
from endnet import abundance
from endnet.abundance import _pairwise_d2, _solve1, simplex_project
from endnet.data_io import normalize_cube, synth_scene
from endnet.errors import DegenerateSimplex, NonFiniteValue


def _random_endmembers(k, d, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 1.0, (k, d))


# --- simplex projection -----------------------------------------------------

def _l2_dists(E, x):
    d2_ee = np.sum((E[:, None, :] - E[None, :, :]) ** 2, axis=2)
    d2_ep = np.sum((E - x) ** 2, axis=1)
    return d2_ee, d2_ep


def test_simplex_project_interior_point():
    E = _random_endmembers(3, 12, 0)
    a_true = np.array([0.2, 0.3, 0.5])
    d2_ee, d2_ep = _l2_dists(E, a_true @ E)
    np.testing.assert_allclose(simplex_project(d2_ee, d2_ep[None])[0], a_true,
                               atol=1e-9)


def test_simplex_project_output_valid():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        E = rng.normal(size=(k, 8))
        x = 3.0 * rng.normal(size=8)  # usually outside the simplex
        d2_ee, d2_ep = _l2_dists(E, x)
        p = simplex_project(d2_ee, d2_ep[None])[0]
        assert p.min() >= -1e-10
        assert abs(p.sum() - 1.0) < 1e-9


# --- spu --------------------------------------------------------------------

def test_spu_vertex_is_one_hot():
    E = _random_endmembers(4, 25, 1)
    np.testing.assert_allclose(spu_sad(E[2], E, kernel="l2"),
                               [0, 0, 1, 0], atol=1e-10)
    # the angle clamp leaves a ~1e-4 self-distance, so sad is only near one-hot
    np.testing.assert_allclose(spu_sad(E[2], E, kernel="sad"),
                               [0, 0, 1, 0], atol=1e-3)


def test_spu_k2_midpoint():
    E = np.array([[1.0, 0.0], [0.0, 1.0]])
    a = spu_sad(np.array([0.5, 0.5]), E, kernel="l2")
    np.testing.assert_allclose(a, [0.5, 0.5], atol=1e-10)


def test_spu_drops_the_most_negative_vertex_first():
    # obtuse triangle: the pixel's coordinates are (-0.67, -4.17, 5.83);
    # dropping vertex 0, the first negative one, would end on vertex 2.
    # Moved off the origin by (1, 1): a zero endmember has no angle, and
    # both kernels reject it
    E = np.array([[1.0, 1.0], [2.0, 1.0], [1.2, 1.3]])
    np.testing.assert_allclose(spu_sad(np.array([-2.0, 2.75]), E, kernel="l2"),
                               [1, 0, 0], atol=1e-12)


def test_spu_sad_scale_invariant():
    E = _random_endmembers(3, 20, 2)
    x = np.array([0.6, 0.3, 0.1]) @ E
    base = spu_sad(x, E, kernel="sad")
    for alpha in (0.1, 10.0):
        np.testing.assert_allclose(spu_sad(alpha * x, E, kernel="sad"),
                                   base, atol=1e-8)


def test_spu_coincident_endmembers():
    E = np.vstack([_random_endmembers(1, 10, 3)] * 2)
    with pytest.raises(DegenerateSimplex):
        spu_sad(E[0], E, kernel="sad")


def test_spu_l2_equal_endmembers_are_ill_conditioned():
    # the l2 kernel has no coincidence check of its own: the facet system is singular
    E = _random_endmembers(3, 10, 7)
    E[2] = E[0]
    with pytest.raises(DegenerateSimplex, match="^ill-conditioned simplex system$"):
        spu_sad(E.mean(axis=0), E, kernel="l2")


def test_spu_needs_two_endmembers():
    E = _random_endmembers(1, 10, 4)
    with pytest.raises(ValueError):
        spu_sad(E[0], E)


def test_spu_unknown_kernel():
    E = _random_endmembers(3, 10, 5)
    with pytest.raises(ValueError):
        spu_sad(E[0], E, kernel="rbf")


# --- non-finite input -------------------------------------------------------

def _with_nan(a, index):
    a = np.array(a, dtype=np.float64)
    a[index] = np.nan
    return a


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("unmix", [
    pytest.param(spu_sad, id="spu-sad"),
    pytest.param(lambda x, E: spu_sad(x, E, kernel="l2"), id="spu-l2"),
    pytest.param(fcls, id="fcls"),
    # one endmember needs no solve, but its inputs are checked as at k >= 2
    pytest.param(lambda x, E: fcls(x, E[1:2]), id="fcls-k1")])
@pytest.mark.parametrize("where, match", [("endmember", "^endmembers "), ("pixel", "^pixels? ")])
def test_unmixing_blames_non_finite_input(unmix, where, match):
    E = _random_endmembers(4, 20, 12)
    x = np.array([0.1, 0.2, 0.3, 0.4]) @ E
    if where == "endmember":
        E = _with_nan(E, (1, 3))
    else:
        x = _with_nan(x, 5)
    for _ in range(2):  # a rejected endmember matrix is not remembered
        with pytest.raises(NonFiniteValue, match=match):
            unmix(x, E)


@pytest.mark.filterwarnings("error")
def test_spu_blames_one_non_finite_pixel_in_a_block():
    E = _random_endmembers(4, 20, 13)
    X = np.random.default_rng(13).dirichlet(np.ones(4), 50) @ E
    with pytest.raises(NonFiniteValue, match="^pixels "):
        spu_sad(_with_nan(X, (37, 2)), E)


@pytest.mark.parametrize("kernel", ["sad", "l2"])
@pytest.mark.parametrize("block", [False, True], ids=["pixel", "block"])
def test_spu_blames_an_inf_pixel_without_a_warning(block, kernel):
    # the inf/inf cosine (sad) and the inf - inf distance difference (l2)
    # are NaN; under the suite's error::RuntimeWarning filter a warning
    # would surface in place of the blame
    E = _random_endmembers(4, 20, 14)
    X = np.random.default_rng(14).dirichlet(np.ones(4), 20) @ E
    X[11, 3] = np.inf
    with pytest.raises(NonFiniteValue, match="^pixels "):
        spu_sad(X if block else X[11], E, kernel=kernel)


# --- fcls -------------------------------------------------------------------

def test_fcls_recovers_interior_point():
    E = _random_endmembers(4, 30, 6)
    a_true = np.array([0.1, 0.2, 0.3, 0.4])
    a = fcls(a_true @ E, E)
    np.testing.assert_allclose(a, a_true, atol=1e-9)


def test_fcls_outside_face_clamps():
    # target beyond the e2 side of a 1-simplex in 2D projects to e2
    E = np.array([[1.0, 0.0], [0.0, 1.0]])
    a = fcls(np.array([-0.5, 1.5]), E)
    np.testing.assert_allclose(a, [0.0, 1.0], atol=1e-10)


def test_fcls_k1():
    E = _random_endmembers(1, 12, 7)
    np.testing.assert_allclose(fcls(0.3 * E[0], E), [1.0], atol=1e-12)


def test_fcls_optimal_vs_random_simplex_points():
    rng = np.random.default_rng(8)
    E = _random_endmembers(4, 15, 9)
    x = rng.random(15)
    a = fcls(x, E)
    best = np.linalg.norm(x - a @ E)
    samples = rng.dirichlet(np.ones(4), size=10000)
    cand = np.linalg.norm(x - samples @ E, axis=1).min()
    assert best <= cand + 1e-9


def test_fcls_rank_deficient():
    E = np.vstack([_random_endmembers(1, 10, 10)] * 3)
    with pytest.raises(DegenerateSimplex):
        fcls(E[0], E)


def _fcls_by_nnls(x, E, weight=1e5):
    """FCLS as NNLS with a heavily weighted sum-to-one row appended."""
    A = np.vstack([E.T, np.full((1, E.shape[0]), weight)])
    a, _ = nnls(A, np.append(x, weight))
    return a


def test_fcls_matches_nnls_on_acceptance_scene(noisy_scene):
    # most of these pixels clamp a variable at the optimum, so the sign of
    # the clamped variables' KKT multiplier decides whether the active set
    # settles or cycles
    cube, endm, _ = noisy_scene
    for x in cube.data[:200]:
        np.testing.assert_allclose(fcls(x, endm.rows), _fcls_by_nnls(x, endm.rows),
                                   atol=1e-8)


def _random_noisy_cases():
    """Noisy mixtures of 3,000 seeded random k = 2..6 simplices: (x, E) pairs."""
    rng = np.random.default_rng(0)
    for _ in range(3000):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(k, 3 * k + 4))
        E = rng.uniform(0.0, 1.0, (k, d))
        yield rng.dirichlet(np.full(k, 0.5)) @ E + rng.normal(0.0, 0.2, d), E


def test_fcls_matches_nnls_on_random_noisy_cases():
    # in 9 of these cases the active set must free a clamped variable again
    # (its KKT multiplier falls below -1e-9), which no acceptance-scene
    # pixel does
    for x, E in _random_noisy_cases():
        np.testing.assert_allclose(fcls(x, E), _fcls_by_nnls(x, E), atol=1e-8)


def _fcls_per_pixel_reference(pixel, endmembers, refreed=None):
    """Per-pixel FCLS: rank check, Gram matrix and every KKT matrix built
    anew for each pixel, which ``fcls`` must match bit for bit.  Appends to
    ``refreed`` each time a clamped variable is freed again."""
    E = endmembers.rows if isinstance(endmembers, SpectraMatrix) else np.atleast_2d(endmembers)
    k, d = E.shape
    x = np.asarray(pixel, dtype=np.float64)
    if k == 1:
        return np.array([1.0])
    if np.linalg.matrix_rank(E) < k:
        raise DegenerateSimplex("endmembers are linearly dependent")
    gram = E @ E.T
    ex = E @ x

    free = np.ones(k, dtype=bool)
    for _ in range(4 * k + 8):
        idx = np.flatnonzero(free)
        m = idx.size
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = 2.0 * gram[np.ix_(idx, idx)]
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        rhs = np.append(2.0 * ex[idx], 1.0)
        sol = np.linalg.solve(kkt, rhs)
        a_free, lam = sol[:m], sol[m]
        if a_free.min() < -1e-12:
            free[idx[int(np.argmin(a_free))]] = False
            continue
        a = np.zeros(k)
        a[idx] = np.maximum(a_free, 0.0)
        grad = 2.0 * (gram @ a - ex)
        mu = grad + lam
        clamped = np.flatnonzero(~free)
        if clamped.size and mu[clamped].min() < -1e-9:
            free[clamped[int(np.argmin(mu[clamped]))]] = True
            if refreed is not None:
                refreed.append(x)
            continue
        a /= a.sum()
        return a
    raise RuntimeError("fcls active-set iteration did not converge")


def test_fcls_bit_identical_to_per_pixel_reference_on_acceptance_scene(noisy_scene):
    cube, endm, _ = noisy_scene
    for x in cube.data:
        assert np.array_equal(fcls(x, endm.rows), _fcls_per_pixel_reference(x, endm.rows))


def test_fcls_bit_identical_to_per_pixel_reference_on_random_cases():
    refreed = []
    for x, E in _random_noisy_cases():
        assert np.array_equal(fcls(x, E), _fcls_per_pixel_reference(x, E, refreed))
    assert len(refreed) == 9


def test_fcls_solve_kernel_is_np_linalg_solve():
    # fcls and SPU call the private LAPACK gufunc behind np.linalg.solve; a NumPy
    # release that moves or changes it fails here, not in silently moved bits
    rng = np.random.default_rng(21)
    for n in range(2000):
        m = 2 + n % 7  # KKT systems of sizes 3 to 9
        E = rng.uniform(0.05, 1.0, (m, 3 * m))
        kkt = np.ones((m + 1, m + 1))
        kkt[:m, :m] = 2.0 * (E @ E.T)
        kkt[m, m] = 0.0
        rhs = np.append(2.0 * rng.uniform(0.0, 5.0, m), 1.0)
        want = np.linalg.solve(kkt, rhs)
        assert np.array_equal(_solve1(kkt, rhs, signature="dd->d"), want)
    # SPU's form: a facet's positive definite G broadcast over one 1-D
    # right-hand side per pixel, against one column per pixel
    for n in range(60):
        m = 1 + n % 6  # facet systems of sizes 1 to 6
        A = rng.uniform(0.05, 1.0, (m, 3 * m))
        G = A @ A.T
        B = rng.normal(0.0, 2.0, (300, m))
        want = np.linalg.solve(G, B[:, :, None])[:, :, 0]
        assert np.array_equal(_solve1(G, B, signature="dd->d"), want)


def test_fcls_bit_identical_to_per_pixel_reference_on_162_bands():
    cube, endm, _ = synth_scene(SynthSpec(k=4, bands=162, n_pixels=2000, snr_db=40.0,
                                          pure_pixel_fraction=0.05, dirichlet_alpha=0.2,
                                          seed=6))
    for x in normalize_cube(cube).data:
        assert np.array_equal(fcls(x, endm.rows), _fcls_per_pixel_reference(x, endm.rows))


def test_fcls_sees_endmembers_changed_in_place():
    E = _random_endmembers(4, 30, 12)
    x = np.random.default_rng(12).dirichlet(np.ones(4)) @ E + 0.05
    before = fcls(x, E)
    E[1] *= 0.5
    after = fcls(x, E)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, _fcls_per_pixel_reference(x, E))


def test_fcls_checks_the_rank_of_every_endmember_set():
    good = _random_endmembers(3, 10, 13)
    bad = np.vstack([good[0], good[0], good[1]])
    x = good.mean(axis=0) + 0.1
    first = fcls(x, good)
    for _ in range(2):
        with pytest.raises(DegenerateSimplex):
            fcls(x, bad)
    assert np.array_equal(fcls(x, good), first)


def test_fcls_keeps_float32_and_float64_endmembers_apart():
    E32 = _random_endmembers(4, 30, 14).astype(np.float32)
    E64 = E32.astype(np.float64)  # the same values
    x = np.random.default_rng(14).dirichlet(np.ones(4)) @ E64 + 0.05
    want32 = _fcls_per_pixel_reference(x, E32)
    want64 = _fcls_per_pixel_reference(x, E64)
    assert not np.array_equal(want32, want64)
    for E, want in ((E64, want64), (E32, want32), (E64, want64)):
        assert np.array_equal(fcls(x, E), want)


def test_fcls_k1_between_larger_sets():
    # one endmember admits only a = [1], once it has passed the verdict of
    # every endmember set: a zero row raises, as it does at k >= 2
    E = _random_endmembers(4, 12, 15)
    x = E.mean(axis=0)
    first = fcls(x, E)
    assert np.array_equal(fcls(x, E[:1]), [1.0])
    for _ in range(2):  # a rejected endmember matrix is not remembered
        with pytest.raises(DegenerateSimplex, match="^zero-norm spectrum in endmembers$"):
            fcls(x, np.zeros((1, 12)))
    assert np.array_equal(fcls(x, E), first)


def test_fcls_raises_after_4k_plus_8_active_set_steps(monkeypatch):
    # a solver that cycles the active set: with every variable free it makes
    # coordinate 0 negative, so fcls clamps variable 0; with it clamped it
    # gives the multiplier -1e6, so fcls frees variable 0 again
    k = 3
    E = _random_endmembers(k, 10, 16)
    sizes = []

    def cycling_solve(kkt, rhs, signature):
        m = kkt.shape[0] - 1
        sizes.append(m)
        sol = np.full(m + 1, 1.0 / m)
        if m == k:
            sol[0] = -1.0
        else:
            sol[m] = -1e6
        return sol

    monkeypatch.setattr(abundance, "_solve1", cycling_solve)
    with pytest.raises(RuntimeError, match="did not converge"):
        fcls(E.mean(axis=0), E)
    assert sizes == [k, k - 1] * (2 * k + 4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x, match", [
    pytest.param(1e17 * np.array([1.0, -1.0, 0.5]), "sum to 0", id="zero-mass"),
    pytest.param(1e18 * np.array([2.1, 2.8, 2.3]), "every variable", id="all-clamped")])
def test_fcls_raises_when_a_pixel_far_off_scale_loses_the_sum_to_one_row(x, match):
    # so far off the endmembers' scale, the solves lose the sum-to-one row:
    # the kept abundances sum to 0, or every variable is clamped
    E = np.array([[1.0, 0.5, 0.25], [0.25, 0.5, 1.0]])
    with pytest.raises(RuntimeError, match=f"^fcls lost the sum-to-one row: .*{match}"):
        fcls(x, E)
    # the same scale with a NaN or Inf band still blames the pixel
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[1] = bad
        with pytest.raises(NonFiniteValue, match="^pixel "):
            fcls(y, E)


def test_spu_l2_matches_fcls_in_simplex():
    rng = np.random.default_rng(11)
    for k in (3, 4, 5):
        E = _random_endmembers(k, 40, 100 + k)
        A = rng.dirichlet(np.ones(k), size=50)
        for a_true in A:
            x = a_true @ E
            np.testing.assert_allclose(spu_sad(x, E, kernel="l2"),
                                       fcls(x, E), atol=1e-6)


# --- batched / hidden paths -------------------------------------------------

def _toy_model(seed=0, k=3, d=20):
    E = _random_endmembers(k, d, seed)
    model = EndNetModel.from_endmembers(E)
    model.run_mean[:] = 0.5
    model.run_var[:] = 1.0
    return model, E


def test_spu_abundances_valid_rows(small_scene):
    cube, endm, _ = small_scene
    amap = spu_abundances(endm, cube)
    assert amap.values.shape == (400, 3)
    assert amap.values.min() >= -1e-10
    np.testing.assert_allclose(amap.values.sum(axis=1), 1.0, atol=1e-8)


def _facet_block(E, seed):
    """Pixels that project onto facets of every size: the centroid of each
    vertex subset (interior, faces, edges, vertices), points pushed out past
    it, away from the simplex's centroid, and random points far outside."""
    rng = np.random.default_rng(seed)
    k = E.shape[0]
    centre = E.mean(axis=0)
    rows = []
    for mask in range(1, 2 ** k):
        p = E[[j for j in range(k) if mask >> j & 1]].mean(axis=0)
        rows += [p] + [p + t * (p - centre) for t in (0.5, 2.0)]
    rows += list(3.0 * rng.normal(size=(16, E.shape[1])))  # far out, several negative coordinates
    return np.array(rows)


def _project_one_pixel(x, E, kernel):
    """Reference: one pixel's drop loop, one facet solve at a time."""
    d2_ee, d2_ep = _pairwise_d2(E, x[None], kernel)
    d2_ep = d2_ep[0]
    k = E.shape[0]
    active = list(range(k))
    while True:
        if len(active) == 1:
            coords = np.array([1.0])
            break
        ref, others = active[-1], active[:-1]
        dr = d2_ee[others, ref]
        G = 0.5 * (dr[:, None] + dr[None, :] - d2_ee[np.ix_(others, others)])
        sol = np.linalg.solve(G, 0.5 * (dr + d2_ep[ref] - d2_ep[others]))
        coords = np.append(sol, 1.0 - sol.sum())
        worst = int(np.argmin(coords))  # ties: the lower index
        if coords[worst] >= -1e-10:
            break
        del active[worst]
    out = np.zeros(k)
    out[active] = np.maximum(coords, 0.0)
    return out / out.sum()


@pytest.mark.parametrize("kernel", ["sad", "l2"])
def test_spu_abundances_matches_per_pixel(kernel):
    E = _random_endmembers(4, 12, 12)
    X = _facet_block(E, 13)
    block = spu_sad(X, E, kernel=kernel)
    if kernel == "sad":
        amap = spu_abundances(E, HyperCube(1, X.shape[0], X.shape[1], X))
        np.testing.assert_array_equal(amap.values, block)
    per_pixel = np.array([spu_sad(x, E, kernel=kernel) for x in X])
    np.testing.assert_array_equal(per_pixel, block)
    reference = np.array([_project_one_pixel(x, E, kernel) for x in X])
    np.testing.assert_allclose(block, reference, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(block == 0, reference == 0)
    # pixels ended on facets of every size, 4 (interior) down to 1 (vertex);
    # the angle obeys the triangle inequality, so under 'sad' no pixel
    # leaves an edge for one of its ends
    sizes = 4 - (block == 0).sum(axis=1)
    assert set(sizes) == ({1, 2, 3, 4} if kernel == "l2" else {2, 3, 4})


def test_spu_abundances_coincident_endmembers(small_scene):
    cube, endm, _ = small_scene
    E = np.vstack([endm.rows[:2], endm.rows[:1]])
    with pytest.raises(DegenerateSimplex):
        spu_abundances(E, cube)


def test_hidden_abundances_invariants(small_scene):
    cube, endm, _ = small_scene
    model = EndNetModel.from_endmembers(endm.rows)
    model.run_mean[:] = 0.5
    model.run_var[:] = 1.0
    amap = hidden_abundances(model, cube)
    assert amap.values.min() >= 0.0
    sums = amap.values.sum(axis=1)
    assert np.all((sums == 0.0) | (np.abs(sums - 1.0) < 1e-6))
    again = hidden_abundances(model, cube)
    np.testing.assert_array_equal(amap.values, again.values)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fault, error, match", [
    ("nan", NonFiniteValue, "^encoder filters contain NaN/Inf values$"),
    ("inf", NonFiniteValue, "^encoder filters contain NaN/Inf values$"),
    ("-inf", NonFiniteValue, "^encoder filters contain NaN/Inf values$"),
    ("zero", DegenerateSimplex, "^zero-norm spectrum in encoder filters$"),
    ("1e160", DegenerateSimplex, "^squared norms overflow in encoder filters$")],
    ids=["nan", "inf", "-inf", "zero", "1e160"])
def test_hidden_abundances_gives_bad_filters_the_endmember_verdict(fault, error, match):
    # the verdict SPU and FCLS give the same row as an endmember; at 1e160
    # the filter's direction is sound, but its squared norm overflows
    model, E = _toy_model(k=3, d=10)
    cube = HyperCube(1, 4, 10, np.random.default_rng(3).dirichlet(np.ones(3), 4) @ E)
    w_enc = model.w_enc.copy()
    if fault == "zero":
        w_enc[1] = 0.0
    elif fault == "1e160":
        w_enc[1] *= 1e160
    else:
        w_enc[1, 4] = float(fault)
    bad = EndNetModel(w_enc, model.rho, model.w_dec, model.run_mean, model.run_var)
    with pytest.raises(error, match=match):
        hidden_abundances(bad, cube)
    for unmix in (spu_sad, lambda X, E: spu_sad(X, E, kernel="l2"), lambda X, E: fcls(X[0], E)):
        with pytest.raises(error, match=match.replace("encoder filters", "endmembers")):
            unmix(cube.data, w_enc)


def test_hidden_dead_pixel_uniform(caplog):
    model, E = _toy_model(k=3, d=10)
    # push the shift far negative so every unit dies for every pixel
    model.rho[:] = -100.0
    model.run_mean[:] = 0.0
    model.run_var[:] = 1.0
    cube = HyperCube(1, 2, 10, np.abs(E[:2]))
    with caplog.at_level("INFO"):
        amap = hidden_abundances(model, cube)
    np.testing.assert_allclose(amap.values, 1.0 / 3.0, atol=1e-12)
    assert any("all-zero activation" in r.getMessage() for r in caplog.records)


def test_unmixing_row_blocks_gives_those_rows_of_the_whole_cube(noisy_scene):
    """A pixel's abundances do not depend on the other pixels in the call."""
    cube, endm, _ = noisy_scene
    model = EndNetModel.from_endmembers(endm.rows)
    trace = forward_batch(model, cube.data, HyperParams(), mode="train")
    model.run_mean, model.run_var = trace.bn_mean, trace.bn_var
    spu = spu_sad(cube.data, endm)
    hidden = hidden_abundances(model, cube).values
    for size in (1, 7, 100, 777):
        for i in range(0, cube.n_pixels, size):
            rows = cube.data[i:i + size]
            assert np.array_equal(spu_sad(rows, endm), spu[i:i + size]), (size, i)
            block = hidden_abundances(model, HyperCube(1, len(rows), cube.bands, rows))
            assert np.array_equal(block.values, hidden[i:i + size]), (size, i)


def test_estimate_abundances_accuracy(small_scene):
    cube, endm, gt = small_scene
    model = EndNetModel.from_endmembers(endm.rows)
    amap = estimate_abundances(model, cube, method="spu")
    rmse = np.sqrt(np.mean((amap.values - gt.values) ** 2))
    assert rmse < 0.05  # 30 dB scene, true endmembers, angle-kernel spu


def test_estimate_abundances_unknown_method(small_scene):
    cube, endm, _ = small_scene
    model = EndNetModel.from_endmembers(endm.rows)
    with pytest.raises(ValueError):
        estimate_abundances(model, cube, method="nnls")
