import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from grasscrit import core, cutlocus
from grasscrit.errors import (
    DimensionError,
    DimensionMismatch,
    DomainError,
    InsufficientSamples,
    NotOnCut,
)

from conftest import (
    NEAR_RIGHT,
    calls_since,
    connecting_cases,
    e_basis,
    framed,
    nearest_cut_witness,
    plane_from_columns,
)


def cut_point(l_framed, angles, seed=0):
    """exp of a tangent matrix with prescribed singular values."""
    n, k = l_framed.n, l_framed.k
    rng = np.random.default_rng(seed)
    u = core._signed_qr(rng.standard_normal((n - k, k)))
    v = core._signed_qr(rng.standard_normal((k, k)))
    a = u @ np.diag(angles) @ v.T
    return core.exp(l_framed, core.tangent(l_framed, a))


def orbit(factors, j, w_sample):
    """The stack N diag(theta) blockdiag(I_{k-j}, W^T) P^T over a nonempty
    sample of W in O(j), the whole sample checked at once."""
    ncols, theta, p = factors
    w = np.asarray(w_sample, dtype=float)
    if w.size == 0:
        raise DimensionMismatch("empty orbit sample")
    if w.shape[1:] != (j, j):
        raise DimensionMismatch(f"orbit sample has shape {w.shape}, expected (m, {j}, {j})")
    if not np.maximum.reduce(np.abs(w.swapaxes(-1, -2) @ w - core._eye(j)), axis=None) <= 1e-8:
        raise DimensionMismatch("orbit element is not orthogonal within 1e-8")
    blocks = core._eye(len(theta))[None].repeat(len(w), axis=0)
    blocks[:, -j:, -j:] = w
    return ncols @ (theta[:, None] * blocks.swapaxes(-1, -2)) @ p.T


def generators(gen_set):
    """The unit-norm generators that the sample of ``gen_set`` stands for,
    one stack (m, n-k, k) at its base: -orbit / delta."""
    stack = orbit(gen_set.factors, gen_set.j, gen_set.sample)
    return core.tangent(gen_set.base, -stack / gen_set.delta)


def geodesic_preimages(l, s, w_sample):
    """Minimizing-geodesic velocities from the framed plane ``l`` to a cut
    point ``s``: the connecting matrices N diag(theta) blockdiag(I, W) P^T
    for each W of ``w_sample``, one stack, from the factors of ``l`` toward
    ``s`` and the orbit fed W^T."""
    factors, j = cutlocus._cut_factors(l, s)
    w = np.asarray(w_sample, dtype=float)
    return core.tangent(l, orbit(factors, j, w.swapaxes(-1, -2)))


def per_w_reference(at, target, w_sample, transpose):
    """Connecting matrices N diag(theta) blockdiag(I, W) U^T built one W at
    a time (W^T with ``transpose``), as a stack, with the angles within
    TOL_CUT of pi/2 set to exactly pi/2."""
    ncols, theta, u_right = core.connecting_factors(at, target)
    theta[theta >= math.pi / 2 - core.TOL_CUT] = math.pi / 2
    k = at.k
    out = []
    for w in w_sample:
        j = len(w)
        blk = np.eye(k)
        blk[k - j:, k - j:] = w.T if transpose else w
        out.append(ncols @ (np.diag(theta) @ blk) @ u_right.T)
    return np.array(out), float(np.linalg.norm(theta))


# (n, k, angles of the cut point, j)
STACK_CASES = [
    (5, 2, [0.6, math.pi / 2], 1),
    (7, 3, [0.5, math.pi / 2, math.pi / 2], 2),
    (5, 2, [math.pi / 2, math.pi / 2], 2),
    (9, 4, [0.3, math.pi / 2, math.pi / 2, math.pi / 2], 3),
    (6, 3, [math.pi / 2] * 3, 3),
]


class TestCutStratum:
    def test_base_point(self):
        l = core.random_plane(4, 2, 0)
        assert cutlocus.cut_stratum(l, l).j == 0

    def test_single_right_angle(self):
        l = plane_from_columns(e_basis(4, 0), e_basis(4, 1))
        e = plane_from_columns(e_basis(4, 0), e_basis(4, 2))
        assert cutlocus.cut_stratum(l, e).j == 1

    def test_fully_orthogonal(self):
        l = plane_from_columns(e_basis(4, 0), e_basis(4, 1))
        e = plane_from_columns(e_basis(4, 2), e_basis(4, 3))
        assert cutlocus.cut_stratum(l, e).j == 2

    @pytest.mark.parametrize("tol", [2.0, math.pi / 2, 1e300, math.inf, math.nan, -1e-9])
    def test_tolerance_out_of_range_rejected(self, tol):
        # a tolerance of pi/2 or more would count every angle, a zero one
        # included; a negative one not even an exact right angle
        l = core.random_plane(4, 2, 0)
        with pytest.raises(DomainError, match="tol"):
            cutlocus.cut_stratum(l, l, tol=tol)
        assert cutlocus.cut_stratum(l, l, tol=1.5).j == 0


class TestCutFactors:
    @pytest.mark.parametrize("n, k", [(4, 2), (7, 3), (12, 5)])
    def test_sets_exactly_the_right_angles(self, n, k):
        # the angles within TOL_CUT of pi/2 (NEAR_RIGHT and pi/2 itself)
        # become exactly pi/2, the last j of them; the other angles and
        # N, P keep the bits of core.connecting_factors
        f, cases = connecting_cases(n, k)
        for theta, target in cases:
            raw = core.connecting_factors(f, target)
            right = theta >= NEAR_RIGHT
            assert np.array_equal(
                right, core.principal_angles(f.plane, target) >= math.pi / 2 - core.TOL_CUT
            )
            if not right.any():
                with pytest.raises(NotOnCut):
                    cutlocus._cut_factors(f, target)
                continue
            (ncols, snapped, p), j = cutlocus._cut_factors(f, target)
            assert np.array_equal(snapped == math.pi / 2, right), theta
            assert j == np.count_nonzero(right) and np.all(snapped[k - j:] == math.pi / 2)
            assert np.array_equal(snapped[~right], raw[1][~right])
            assert np.array_equal(ncols, raw[0]) and np.array_equal(p, raw[2])


class TestPreimages:
    def test_identity_returns_base_preimage(self):
        lf = framed(core.random_plane(4, 2, 1))
        s = cut_point(lf, [0.4, math.pi / 2], seed=2)
        pre = geodesic_preimages(lf, s, [np.eye(1)])
        base, _ = per_w_reference(lf, s, [np.eye(1)], transpose=False)
        assert np.allclose(pre.a[0], base[0], atol=1e-12)

    def test_circle_antipode_two_semicircles(self):
        lf = framed(core.make_plane([[1.0], [0.0]]))
        s = core.make_plane([[0.0], [1.0]])
        w_list = [np.array([[1.0]]), np.array([[-1.0]])]
        pre = geodesic_preimages(lf, s, w_list)
        a_plus, a_minus = pre.a
        assert np.allclose(a_plus, -a_minus, atol=1e-12)
        for a in pre.a:
            assert core.grassmann_distance(core.exp(lf, core.tangent(lf, a)), s) < 1e-12

    def test_all_preimages_hit_target_with_distance_norm(self):
        for seed in range(5):
            lf = framed(core.random_plane(5, 2, seed))
            s = cut_point(lf, [0.7, math.pi / 2], seed=seed + 10)
            delta = core.grassmann_distance(lf.plane, s)
            w_list = cutlocus.sample_orthogonal_group(1)
            pre = geodesic_preimages(lf, s, w_list)
            assert np.all(np.abs(pre.norm - delta) < 1e-9)
            for a in pre.a:
                assert core.grassmann_distance(core.exp(lf, core.tangent(lf, a)), s) < 1e-9

    def test_distinct_geodesics_at_midpoint(self):
        lf = framed(core.random_plane(4, 2, 7))
        s = cut_point(lf, [0.5, math.pi / 2], seed=8)
        a_id, a_flip = (
            core.tangent(lf, a)
            for a in geodesic_preimages(lf, s, [np.eye(1), np.array([[-1.0]])]).a
        )
        mid_id = core.geodesic_point(lf, a_id, 0.5)
        mid_flip = core.geodesic_point(lf, a_flip, 0.5)
        assert core.grassmann_distance(mid_id, mid_flip) > 0.1

    def test_off_cut_rejected(self):
        lf = framed(core.random_plane(4, 2, 3))
        s = cut_point(lf, [0.3, 0.8], seed=4)
        with pytest.raises(NotOnCut):
            geodesic_preimages(lf, s, [np.eye(1)])


class TestStackedOrbit:
    @pytest.mark.parametrize("n, k, angles, j", STACK_CASES)
    def test_preimages_match_per_w_formula(self, n, k, angles, j):
        lf = framed(core.random_plane(n, k, n + j))
        s = cut_point(lf, angles, seed=j)
        w_sample = cutlocus.sample_orthogonal_group(j, seed=5, n_grid=6)
        pre = geodesic_preimages(lf, s, w_sample)
        ref, _ = per_w_reference(lf, s, w_sample, transpose=False)
        assert pre.a.shape == (len(w_sample), n - k, k)
        assert np.max(np.abs(pre.a - ref)) <= 1e-15

    @pytest.mark.parametrize("n, k, angles, j", STACK_CASES)
    def test_generators_match_per_w_formula(self, n, k, angles, j):
        l = core.random_plane(n, k, n + j)
        sf = framed(cut_point(framed(l), angles, seed=j))
        w_sample = cutlocus.sample_orthogonal_group(j, seed=5, n_grid=6)
        gens = cutlocus.subdiff_generators(l, sf, w_sample)
        ref, delta = per_w_reference(sf, l, w_sample, transpose=True)
        assert gens.j == j and generators(gens).frame is sf
        assert np.max(np.abs(generators(gens).a - (-ref / delta))) <= 1e-15

    def test_non_orthogonal_element_inside_sample_rejected(self):
        l = core.random_plane(7, 3, 80)
        sf = framed(cut_point(framed(l), [0.5, math.pi / 2, math.pi / 2], seed=81))
        for bad in (np.diag([1.0, 1.0 + 1e-6]), np.full((2, 2), np.nan)):
            w_sample = cutlocus.sample_orthogonal_group(2, n_grid=4).copy()
            w_sample[5] = bad
            with pytest.raises(DimensionMismatch, match="not orthogonal"):
                cutlocus.subdiff_generators(l, sf, w_sample)
            with pytest.raises(DimensionMismatch, match="not orthogonal"):
                geodesic_preimages(framed(l), sf.plane, w_sample)

    @pytest.mark.parametrize(
        "w_sample",
        [[], np.zeros((0, 2, 2)), [np.eye(1)], np.eye(2), [np.eye(3)] * 4],
        ids=["empty-list", "empty-stack", "wrong-j", "single-matrix", "too-large"],
    )
    def test_malformed_sample_rejected(self, w_sample):
        l = core.random_plane(5, 2, 82)
        sf = framed(cut_point(framed(l), [math.pi / 2, math.pi / 2], seed=83))
        with pytest.raises(DimensionMismatch):
            cutlocus.subdiff_generators(l, sf, w_sample)

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("n_grid", [0, -3])
    def test_sample_needs_a_grid_point(self, j, n_grid):
        with pytest.raises(DimensionError):
            cutlocus.sample_orthogonal_group(j, n_grid=n_grid)

    def test_sample_is_one_orthogonal_stack(self):
        for j, m in ((1, 2), (2, 10), (3, 5)):
            w = cutlocus.sample_orthogonal_group(j, seed=1, n_grid=5)
            assert w.shape == (m, j, j)
            assert np.allclose(w.swapaxes(-1, -2) @ w, np.eye(j), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_grid", [1, 2, 3, 7, 64, 200])
    def test_sample_matches_per_element_loop(self, j, n_grid):
        # the reference builds one group element at a time: the O(2) grid
        # from math.cos and math.sin, each rotation followed by its
        # reflection, and the larger groups from one QR of one Gaussian
        # draw after another, the diagonal of R made nonnegative
        for seed in (0, 1, 12345):
            if j == 1:
                ref = np.array([[[1.0]], [[-1.0]]])
            elif j == 2:
                ref = []
                for t in np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False):
                    c, s = math.cos(t), math.sin(t)
                    ref += [[[c, -s], [s, c]], [[c, s], [s, -c]]]
                ref = np.array(ref)
            else:
                rng, ref = np.random.default_rng(seed), []
                for _ in range(n_grid):
                    q, r = np.linalg.qr(rng.standard_normal((j, j)))
                    signs = np.sign(np.diag(r))
                    signs[signs == 0] = 1.0
                    ref.append(q * signs)
                ref = np.array(ref)
            w = cutlocus.sample_orthogonal_group(j, seed=seed, n_grid=n_grid)
            assert w.dtype == ref.dtype and w.shape == ref.shape
            assert w.tobytes() == ref.tobytes()

    def test_zero_test_rejects_basis_at_other_frame(self):
        l = core.make_plane([[1.0], [0.0]])
        sf = framed(core.make_plane([[0.0], [1.0]]))
        gens = cutlocus.subdiff_generators(l, sf, cutlocus.sample_orthogonal_group(1))
        other = framed(core.make_plane([[0.6], [0.8]]))
        with pytest.raises(DimensionMismatch, match="different frame"):
            cutlocus.restricted_critical_test(gens, core.tangent(other, [[[1.0]]]))
        with pytest.raises(DimensionMismatch, match="empty"):
            cutlocus.restricted_critical_test(gens, core.tangent(sf, np.zeros((0, 1, 1))))
        # an equal frame that is another object passes
        copy = framed(sf.plane)
        assert copy.frame is not sf.frame
        assert cutlocus.restricted_critical_test(gens, core.tangent(copy, [[[1.0]]])).found


class TestSubdiffGenerators:
    def test_unit_norm_and_reach_base(self):
        l = core.random_plane(5, 2, 2)
        lf = framed(l)
        s = cut_point(lf, [0.6, math.pi / 2], seed=5)
        gens = cutlocus.subdiff_generators(l, framed(s), cutlocus.sample_orthogonal_group(1))
        assert gens.j == 1
        assert np.all(np.abs(generators(gens).norm - 1.0) < 1e-10)
        for g in generators(gens).a:
            back = core.exp(framed(s), core.tangent(framed(s), -gens.delta * g))
            assert core.grassmann_distance(back, l) < 1e-9

    def test_antipodal_circle_generators_are_opposite(self):
        l = core.make_plane([[1.0], [0.0]])
        s = framed(core.make_plane([[0.0], [1.0]]))
        gens = cutlocus.subdiff_generators(l, s, cutlocus.sample_orthogonal_group(1))
        g1, g2 = generators(gens).a
        assert np.allclose(g1, -g2, atol=1e-12)

    def test_two_subdifferential_forms_agree(self):
        # the quotient-differential form C Wbar C^T and the generator form
        # -B_W / delta describe the same set: spot-check the algebraic
        # identity C Wbar C^T = [[0, -B_W^T], [B_W, 0]] on sampled W
        l = core.random_plane(4, 2, 11)
        lf = framed(l)
        s = cut_point(lf, [0.5, math.pi / 2], seed=12)
        sf = framed(s)
        w_list = cutlocus.sample_orthogonal_group(1)
        gens = cutlocus.subdiff_generators(l, sf, w_list)
        ncols, theta, p = gens.factors  # core's order: the right angles come last
        n, k, j = sf.n, sf.k, gens.j
        c_mat = np.zeros((n, 2 * k))
        c_mat[:k, :k] = p
        c_mat[k:, k:] = ncols @ np.diag(theta)
        for w, gen in zip(w_list, generators(gens).a):
            blk = np.eye(k)
            blk[k - j:, k - j:] = w
            wbar = np.zeros((2 * k, 2 * k))
            wbar[:k, k:] = -blk
            wbar[k:, :k] = blk.T
            lhs = c_mat @ wbar @ c_mat.T
            b_w = -gens.delta * gen
            rhs = np.zeros((n, n))
            rhs[:k, k:] = -b_w.T
            rhs[k:, :k] = b_w
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_not_on_cut(self):
        l = core.random_plane(4, 2, 0)
        lf = framed(l)
        s = cut_point(lf, [0.2, 0.9], seed=1)
        with pytest.raises(NotOnCut):
            cutlocus.subdiff_generators(l, framed(s), [np.eye(1)])

    def test_one_svd_gives_orbit_and_stratum(self, linalg_calls):
        # j is the number of right angles snapped by the one
        # connecting_factors call that also gives the orbit
        l = core.random_plane(7, 3, 27)
        lf, s = framed(l), cut_point(framed(l), [0.5, math.pi / 2, math.pi / 2], seed=28)
        sf, w_sample = framed(s), cutlocus.sample_orthogonal_group(2, n_grid=4)
        before = dict(linalg_calls)
        gens = cutlocus.subdiff_generators(l, sf, w_sample)
        calls = calls_since(linalg_calls, before)
        assert calls["svd"] == 1 and calls["np.linalg.svd"] == calls["np.linalg.qr"] == 0
        before = dict(linalg_calls)
        geodesic_preimages(lf, s, w_sample)
        calls = calls_since(linalg_calls, before)
        assert calls["svd"] == 1 and calls["np.linalg.svd"] == calls["np.linalg.qr"] == 0
        assert gens.j == cutlocus.cut_stratum(l, s).j == 2


class TestAffineDimension:
    def test_j1_dimension_one(self):
        l = core.random_plane(4, 2, 21)
        lf = framed(l)
        s = cut_point(lf, [0.4, math.pi / 2], seed=22)
        gens = cutlocus.subdiff_generators(l, framed(s), cutlocus.sample_orthogonal_group(1))
        assert cutlocus.subdiff_affine_dimension(gens) == 1

    def test_j2_dimension_four(self):
        l = core.random_plane(5, 2, 23)
        lf = framed(l)
        s = cut_point(lf, [math.pi / 2, math.pi / 2], seed=24)
        gens = cutlocus.subdiff_generators(l, framed(s), cutlocus.sample_orthogonal_group(2))
        assert gens.j == 2
        assert cutlocus.subdiff_affine_dimension(gens, tol_rank=1e-8) == 4

    def test_insufficient_samples(self):
        l = core.random_plane(5, 2, 25)
        lf = framed(l)
        s = cut_point(lf, [math.pi / 2, math.pi / 2], seed=26)
        gens = cutlocus.subdiff_generators(
            l, framed(s), cutlocus.sample_orthogonal_group(2)[:3]
        )
        with pytest.raises(InsufficientSamples):
            cutlocus.subdiff_affine_dimension(gens)

    def test_set_keeps_a_read_only_copy_of_the_sample(self):
        l = core.random_plane(5, 2, 23)
        sf = framed(cut_point(framed(l), [math.pi / 2, math.pi / 2], seed=24))
        w = cutlocus.sample_orthogonal_group(2, n_grid=4).copy()
        gens = cutlocus.subdiff_generators(l, sf, w)
        assert [f.name for f in dataclasses.fields(gens)] == [
            "base", "delta", "factors", "j", "sample"
        ]
        assert gens.sample is not w and not gens.sample.flags.writeable
        assert gens.sample.tobytes() == w.tobytes()
        w[0] = -w[0]
        assert not np.array_equal(gens.sample[0], w[0])

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (7, 3), (9, 4), (11, 4)])
    def test_sample_rank_is_generator_stack_rank(self, n, k):
        # the centered generators are the centered sample carried by the
        # isometry X -> N2 X^T P2^T and scaled by pi / (2 delta), so the
        # rank under a relative threshold is the same; the reference ranks
        # the generator stack itself
        for j in range(1, k + 1):
            rng = np.random.default_rng(n * 10 + j)
            angles = [*np.sort(rng.uniform(0.2, 1.3, k - j)), *[math.pi / 2] * j]
            l = core.random_plane(n, k, n + j)
            sf = framed(cut_point(framed(l), angles, seed=j))
            eye, need = np.eye(j), j * j + 1
            full = cutlocus.sample_orthogonal_group(j)
            samples = [
                (full, j * j),
                (cutlocus.sample_orthogonal_group(j, seed=3, n_grid=need), None),
                (core._signed_qr(rng.standard_normal((need + 3, j, j))), None),
                (np.concatenate([full[:2]] * need), 1),  # duplicated elements
                (np.array([eye, -eye] * need), 1),
                (np.array([eye] * need), 0),
            ]
            for w, expected in samples:
                gens = cutlocus.subdiff_generators(l, sf, w)
                assert gens.j == j
                x = generators(gens).a.reshape(len(w), -1)
                svals = np.linalg.svd(x - x[0], compute_uv=False)
                for tol_rank in (1e-8, 1e-3, 0.1, 0.5, 0.9):
                    dim = cutlocus.subdiff_affine_dimension(gens, tol_rank=tol_rank)
                    ref = np.count_nonzero(svals > tol_rank * svals[0]) if svals[0] > 0 else 0
                    assert dim == ref, (j, tol_rank)
                if expected is not None:
                    assert cutlocus.subdiff_affine_dimension(gens) == expected

    @pytest.mark.parametrize("n_grid", [16, cutlocus.O2_GRID])
    def test_tol_rank_must_lie_below_one(self, n_grid):
        # at the two-right-angle point l = columns 0, 1 and s = columns
        # 2, 3 of I_5; a relative threshold of 1 or more would count the
        # largest singular value as zero and report dimension 0
        eye = np.eye(5)
        l = plane_from_columns(eye[:, 0], eye[:, 1])
        sf = framed(plane_from_columns(eye[:, 2], eye[:, 3]))
        w = cutlocus.sample_orthogonal_group(2, n_grid=n_grid)
        gens = cutlocus.subdiff_generators(l, sf, w)
        assert cutlocus.subdiff_affine_dimension(gens) == 4
        assert cutlocus.subdiff_affine_dimension(gens, tol_rank=0.99) == 1
        for tol_rank in (1.0, 2.0, math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(DomainError, match="tol_rank"):
                cutlocus.subdiff_affine_dimension(gens, tol_rank=tol_rank)

    def test_memory_stays_with_the_sample(self):
        # G(4,9), j = 2, with the 20 000 elements of an n_grid = 10 000
        # O(2) grid: no (m, n-k, k) generator stack is built (it peaked at
        # about 9 MB), only copies of the (m, 2, 2) sample
        l = core.random_plane(9, 4, 90)
        sf = framed(cut_point(framed(l), [0.4, 0.9, math.pi / 2, math.pi / 2], seed=91))
        w = cutlocus.sample_orthogonal_group(2, n_grid=10_000)
        tracemalloc.start()
        try:
            gens = cutlocus.subdiff_generators(l, sf, w)
            dim = cutlocus.subdiff_affine_dimension(gens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gens.j == 2 and dim == 4
        assert peak < 3 * 2**20, peak


def reference_lp_test(gen_set, basis, tol=1e-8):
    """The zero test as a linear program over the sampled generators: the
    convex combination with the smallest sup-norm projection; its l2
    residual within ``tol`` is a witness.  Returns (found, residual)."""
    gens = generators(gen_set).a.reshape(len(gen_set.sample), -1)
    proj = basis.a.reshape(-1, gens.shape[1]) @ gens.T  # (D, m)
    dim_t, m = proj.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.block([[proj, -np.ones((dim_t, 1))], [-proj, -np.ones((dim_t, 1))]])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(2 * dim_t),
        A_eq=np.concatenate([np.ones(m), [0.0]])[None],
        b_eq=[1.0],
        bounds=[(0.0, None)] * (m + 1),
        method="highs",
    )
    if not res.success:
        return False, math.inf
    residual = float(np.linalg.norm(proj @ res.x[:m]))
    return residual <= tol, residual


def check_witness(l, sf, basis, result, tol=1e-8):
    """Rebuild the witness's subdifferential element from sampled generators:
    Q = U diag(s) V^T is the convex combination of the 2^j orthogonal
    matrices U diag(eps) V^T with weights prod (1 + eps_i s_i) / 2, and the
    generator of W = Q^T is G0 + L(Q)."""
    q = result.witness
    u, sv, vt = np.linalg.svd(q)
    assert sv[0] <= 1.0 + 1e-12
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=len(q))))
    weights = np.prod((1.0 + signs * np.minimum(sv, 1.0)) / 2.0, axis=1)
    corners = (u * signs[:, None, :]) @ vt  # (2^j, j, j)
    assert np.allclose(np.einsum("e,eab->ab", weights, corners), q, rtol=0.0, atol=1e-12)
    gens = cutlocus.subdiff_generators(l, sf, corners.swapaxes(-1, -2))
    element = np.einsum("e,eab->ab", weights, generators(gens).a)
    projection = basis.a.reshape(len(basis.a), -1) @ element.reshape(-1)
    assert np.linalg.norm(projection) <= tol


def random_tangent_space(sf, dim, rng, normal=None):
    """Orthonormal stack of ``dim`` random tangent matrices at ``sf``,
    orthogonal to ``normal`` if given."""
    shape = (sf.n - sf.k, sf.k)
    x = rng.standard_normal((math.prod(shape), dim))
    if normal is not None:
        unit = normal.reshape(-1) / np.linalg.norm(normal)
        x -= np.outer(unit, unit @ x)
    q, _ = np.linalg.qr(x)
    return core.tangent(sf, q.T.reshape(dim, *shape))


# (n, k, angles of the cut point, j, tangent-space dimensions D, fine O(j) sample)
ORACLE_CASES = [
    (4, 2, [0.6, math.pi / 2], 1, (1, 2, 3), cutlocus.sample_orthogonal_group(1)),
    (7, 3, [0.5, math.pi / 2, math.pi / 2], 2, (2, 3, 4, 7),
     cutlocus.sample_orthogonal_group(2, n_grid=64)),
    (9, 4, [0.3, math.pi / 2, math.pi / 2, math.pi / 2], 3, (4, 8, 9, 13),
     cutlocus.sample_orthogonal_group(3, seed=11, n_grid=128)),
]


class TestZeroInHullTest:
    def test_antipodal_circle_witness(self):
        l = core.make_plane([[1.0], [0.0]])
        sf = framed(core.make_plane([[0.0], [1.0]]))
        gens = cutlocus.subdiff_generators(l, sf, cutlocus.sample_orthogonal_group(1))
        basis = core.tangent(sf, np.array([[[1.0]]]))
        result = cutlocus.restricted_critical_test(gens, basis)
        assert result.found and result.outcome == "witness"
        assert np.array_equal(result.witness, [[0.0]])
        assert result.residual < 1e-12
        check_witness(l, sf, basis, result)

    def test_generator_direction_found_inside_orbit(self):
        # the basis is the direction of the W = I generator G0 + L(1); the
        # element G0 + L(q) projects to zero at q = -|theta1|^2 / (pi/2)^2
        l = core.random_plane(4, 2, 31)
        lf = framed(l)
        s = cut_point(lf, [0.4, math.pi / 2], seed=32)
        sf = framed(s)
        gens = cutlocus.subdiff_generators(l, sf, [np.eye(1)])
        g = generators(gens).a[0]
        basis = core.tangent(sf, [g / np.linalg.norm(g)])
        result = cutlocus.restricted_critical_test(gens, basis)
        assert result.found
        assert abs(result.witness[0, 0] - (-(0.4**2) / (math.pi / 2) ** 2)) < 1e-12
        check_witness(l, sf, basis, result)

    def test_direction_of_g0_is_refuted(self):
        # G0 is orthogonal to every L(Q): the projection is the single
        # point |G0| = 0.4 / delta, away from zero
        l = core.random_plane(4, 2, 33)
        s = cut_point(framed(l), [0.4, math.pi / 2], seed=34)
        sf = framed(s)
        gens = cutlocus.subdiff_generators(l, sf, cutlocus.sample_orthogonal_group(1))
        g0 = generators(gens).a.mean(axis=0)
        basis = core.tangent(sf, [g0 / np.linalg.norm(g0)])
        result = cutlocus.restricted_critical_test(gens, basis)
        assert not result.found and result.outcome == "refuted"
        assert abs(result.residual - 0.4 / gens.delta) < 1e-12
        assert np.linalg.norm(result.witness, 2) <= 1.0

    @pytest.mark.parametrize("n, k, angles, j, dims, w_fine", ORACLE_CASES)
    def test_finds_every_reference_lp_witness(self, n, k, angles, j, dims, w_fine):
        # random tangent spaces, half of them orthogonal to an element
        # G0 + L(Q0) with Q0 the mean of a few sampled W^T, so that the
        # sampled hull already contains a zero
        rng = np.random.default_rng(n * 10 + j)
        reference_hits = 0
        inconclusive = []
        for seed in range(3):
            l = core.random_plane(n, k, 100 + seed)
            sf = framed(cut_point(framed(l), angles, seed=200 + seed))
            fine = cutlocus.subdiff_generators(l, sf, w_fine)
            gens = cutlocus.subdiff_generators(l, sf, np.eye(j)[None])
            for dim in dims:
                picks = rng.choice(len(w_fine), size=min(3, len(w_fine)), replace=False)
                for normal in (None, generators(fine).a[picks].mean(axis=0)):
                    basis = random_tangent_space(sf, dim, rng, normal)
                    ref_found, _ = reference_lp_test(fine, basis)
                    result = cutlocus.restricted_critical_test(gens, basis)
                    reference_hits += ref_found
                    assert (result.outcome == "witness") == result.found
                    if ref_found:
                        assert result.found, (seed, dim)
                    if result.found:
                        check_witness(l, sf, basis, result)
                    if result.outcome == "inconclusive":
                        inconclusive.append((seed, dim))
        assert reference_hits >= len(dims) * 3
        # reported, not asserted: how many cases below D = j^2 the
        # alternating search leaves undecided (shown with pytest -s)
        below = sum(2 * 3 for dim in dims if dim < j * j)
        print(f"j={j}: {len(inconclusive)} of {below} cases with D < {j * j} inconclusive")

    def test_orthonormality_enforced(self):
        l = core.make_plane([[1.0], [0.0]])
        sf = framed(core.make_plane([[0.0], [1.0]]))
        gens = cutlocus.subdiff_generators(l, sf, cutlocus.sample_orthogonal_group(1))
        bad = core.tangent(sf, np.array([[[2.0]]]))
        with pytest.raises(DimensionMismatch):
            cutlocus.restricted_critical_test(gens, bad)

    def test_schubert_maximizer_is_critical(self):
        # global farthest points of a Schubert variety sit on the cut locus;
        # zero must lie in the projection of the subdifferential onto the
        # variety's tangent space there
        from grasscrit import schubert

        omega = schubert.SchubertVariety(
            w=framed(core.random_plane(5, 2, 70)), s=1
        )
        l = core.random_plane(5, 2, 71)
        _, maximizer = schubert.global_max(omega, l, b_seed=3)
        j = cutlocus.cut_stratum(l, maximizer).j
        assert j == omega.k - omega.s == 1
        sf = framed(maximizer)
        gens = cutlocus.subdiff_generators(l, sf, cutlocus.sample_orthogonal_group(j))
        basis = schubert.chart_tangent_basis(omega, maximizer)
        result = cutlocus.restricted_critical_test(gens, basis, tol=1e-8)
        assert result.found
        assert result.residual < 1e-8
        check_witness(l, sf, basis, result)

    def test_schubert_maximizer_critical_on_second_stratum(self):
        # same chain with two right angles
        from grasscrit import schubert

        omega = schubert.SchubertVariety(
            w=framed(core.random_plane(7, 3, 72)), s=1
        )
        l = core.random_plane(7, 3, 73)
        _, maximizer = schubert.global_max(omega, l, b_seed=4)
        j = cutlocus.cut_stratum(l, maximizer).j
        assert j == omega.k - omega.s == 2
        sf = framed(maximizer)
        gens = cutlocus.subdiff_generators(l, sf, cutlocus.sample_orthogonal_group(2))
        basis = schubert.chart_tangent_basis(omega, maximizer)
        result = cutlocus.restricted_critical_test(gens, basis, tol=1e-7)
        assert result.found
        check_witness(l, sf, basis, result, tol=1e-7)


class TestCutDistance:
    def test_distance_to_cut_is_right_angle(self):
        for seed in range(20):
            lf = framed(core.random_plane(5, 2, 40 + seed))
            witness = nearest_cut_witness(lf)
            assert cutlocus.cut_stratum(lf.plane, witness).j == 1
            assert abs(core.grassmann_distance(lf.plane, witness) - math.pi / 2) < 1e-9

    def test_cut_locus_has_codimension_one(self):
        # random small tangent steps off an first-stratum point leave the
        # cut locus essentially always
        lf = framed(core.random_plane(4, 2, 60))
        s = cut_point(lf, [0.5, math.pi / 2], seed=61)
        sf = framed(s)
        rng = np.random.default_rng(62)
        left = 0
        for _ in range(100):
            step = rng.standard_normal((2, 2))
            step *= 1e-3 / np.linalg.norm(step)
            moved = core.exp(sf, core.tangent(sf, step))
            if cutlocus.cut_stratum(lf.plane, moved).j == 0:
                left += 1
        assert left >= 99
