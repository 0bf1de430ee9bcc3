import math

import numpy as np
import pytest

from grasscrit import core, cutlocus
from grasscrit.errors import DimensionError, DimensionMismatch, InsufficientSamples, NotOnCut

from conftest import e_basis, framed, plane_from_columns


def cut_point(l_framed, angles, seed=0):
    """exp of a tangent matrix with prescribed singular values."""
    n, k = l_framed.n, l_framed.k
    rng = np.random.default_rng(seed)
    u = core._signed_qr(rng.standard_normal((n - k, k)))
    v = core._signed_qr(rng.standard_normal((k, k)))
    a = u @ np.diag(angles) @ v.T
    return core.exp(l_framed, core.tangent(l_framed, a))


def per_w_reference(at, target, w_sample, transpose):
    """Connecting matrices N diag(theta) blockdiag(I, W) U^T built one W at
    a time (W^T with ``transpose``), as a stack."""
    ncols, theta, u_right = core.connecting_factors(at, target, snap_tol=core.TOL_CUT)
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


class TestPreimages:
    def test_identity_returns_base_preimage(self):
        lf = framed(core.random_plane(4, 2, 1))
        s = cut_point(lf, [0.4, math.pi / 2], seed=2)
        pre = cutlocus.geodesic_preimages(lf, s, [np.eye(1)])
        base = core.connecting_tangent(lf, s, snap_tol=core.TOL_CUT)
        assert np.allclose(pre.a[0], base.a, atol=1e-12)

    def test_circle_antipode_two_semicircles(self):
        lf = framed(core.make_plane([[1.0], [0.0]]))
        s = core.make_plane([[0.0], [1.0]])
        w_list = [np.array([[1.0]]), np.array([[-1.0]])]
        pre = cutlocus.geodesic_preimages(lf, s, w_list)
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
            pre = cutlocus.geodesic_preimages(lf, s, w_list)
            assert np.all(np.abs(pre.norm - delta) < 1e-9)
            for a in pre.a:
                assert core.grassmann_distance(core.exp(lf, core.tangent(lf, a)), s) < 1e-9

    def test_distinct_geodesics_at_midpoint(self):
        lf = framed(core.random_plane(4, 2, 7))
        s = cut_point(lf, [0.5, math.pi / 2], seed=8)
        a_id, a_flip = (
            core.tangent(lf, a)
            for a in cutlocus.geodesic_preimages(lf, s, [np.eye(1), np.array([[-1.0]])]).a
        )
        mid_id = core.geodesic_point(lf, a_id, 0.5)
        mid_flip = core.geodesic_point(lf, a_flip, 0.5)
        assert core.grassmann_distance(mid_id, mid_flip) > 0.1

    def test_off_cut_rejected(self):
        lf = framed(core.random_plane(4, 2, 3))
        s = cut_point(lf, [0.3, 0.8], seed=4)
        with pytest.raises(NotOnCut):
            cutlocus.geodesic_preimages(lf, s, [np.eye(1)])


class TestStackedOrbit:
    @pytest.mark.parametrize("n, k, angles, j", STACK_CASES)
    def test_preimages_match_per_w_formula(self, n, k, angles, j):
        lf = framed(core.random_plane(n, k, n + j))
        s = cut_point(lf, angles, seed=j)
        w_sample = cutlocus.sample_orthogonal_group(j, seed=5, n_grid=6)
        pre = cutlocus.geodesic_preimages(lf, s, w_sample)
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
        assert gens.j == j and gens.generators.frame is sf
        assert np.max(np.abs(gens.generators.a - (-ref / delta))) <= 1e-15

    def test_non_orthogonal_element_inside_sample_rejected(self):
        l = core.random_plane(7, 3, 80)
        sf = framed(cut_point(framed(l), [0.5, math.pi / 2, math.pi / 2], seed=81))
        for bad in (np.diag([1.0, 1.0 + 1e-6]), np.full((2, 2), np.nan)):
            w_sample = cutlocus.sample_orthogonal_group(2, n_grid=4).copy()
            w_sample[5] = bad
            with pytest.raises(DimensionMismatch, match="not orthogonal"):
                cutlocus.subdiff_generators(l, sf, w_sample)
            with pytest.raises(DimensionMismatch, match="not orthogonal"):
                cutlocus.geodesic_preimages(framed(l), sf.plane, w_sample)

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

    def test_zero_test_rejects_basis_at_other_frame(self):
        l = core.make_plane([[1.0], [0.0]])
        sf = framed(core.make_plane([[0.0], [1.0]]))
        gens = cutlocus.subdiff_generators(l, sf, cutlocus.sample_orthogonal_group(1))
        other = framed(core.make_plane([[0.6], [0.8]]))
        with pytest.raises(DimensionMismatch, match="different frame"):
            cutlocus.restricted_critical_test(gens, core.tangent(other, [[[1.0]]]))
        with pytest.raises(DimensionMismatch, match="empty"):
            cutlocus.restricted_critical_test(gens, core.tangent(sf, np.zeros((0, 1, 1))))


class TestSubdiffGenerators:
    def test_unit_norm_and_reach_base(self):
        l = core.random_plane(5, 2, 2)
        lf = framed(l)
        s = cut_point(lf, [0.6, math.pi / 2], seed=5)
        gens = cutlocus.subdiff_generators(l, framed(s), cutlocus.sample_orthogonal_group(1))
        assert gens.j == 1
        assert np.all(np.abs(gens.generators.norm - 1.0) < 1e-10)
        for g in gens.generators.a:
            back = core.exp(framed(s), core.tangent(framed(s), -gens.delta * g))
            assert core.grassmann_distance(back, l) < 1e-9

    def test_antipodal_circle_generators_are_opposite(self):
        l = core.make_plane([[1.0], [0.0]])
        s = framed(core.make_plane([[0.0], [1.0]]))
        gens = cutlocus.subdiff_generators(l, s, cutlocus.sample_orthogonal_group(1))
        g1, g2 = gens.generators.a
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
        t = gens.b0_svd  # nonincreasing order: the right angles come first
        n, k, j = sf.n, sf.k, gens.j
        u_sigma = t.u @ np.diag(t.sigma)
        c_mat = np.zeros((n, 2 * k))
        c_mat[:k, :k] = t.v
        c_mat[k:, k:] = u_sigma
        for w, gen in zip(w_list, gens.generators.a):
            blk = np.eye(k)
            blk[:j, :j] = w
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


class TestZeroInHullTest:
    def test_antipodal_circle_witness(self):
        l = core.make_plane([[1.0], [0.0]])
        sf = framed(core.make_plane([[0.0], [1.0]]))
        gens = cutlocus.subdiff_generators(l, sf, cutlocus.sample_orthogonal_group(1))
        basis = core.tangent(sf, np.array([[[1.0]]]))
        result = cutlocus.restricted_critical_test(gens, basis)
        assert result.found
        assert np.allclose(result.weights, [0.5, 0.5], atol=1e-9)
        assert result.residual < 1e-12

    def test_transverse_direction_not_found(self):
        # single-generator direction projected onto itself cannot vanish
        l = core.random_plane(4, 2, 31)
        lf = framed(l)
        s = cut_point(lf, [0.4, math.pi / 2], seed=32)
        sf = framed(s)
        gens = cutlocus.subdiff_generators(l, sf, [np.eye(1)])
        g = gens.generators.a[0]
        basis = core.tangent(sf, [g / np.linalg.norm(g)])
        result = cutlocus.restricted_critical_test(gens, basis)
        assert not result.found

    def test_orthonormality_enforced(self):
        l = core.make_plane([[1.0], [0.0]])
        sf = framed(core.make_plane([[0.0], [1.0]]))
        gens = cutlocus.subdiff_generators(l, sf, cutlocus.sample_orthogonal_group(1))
        bad = core.tangent(sf, np.array([[[2.0]]]))
        with pytest.raises(DimensionMismatch):
            cutlocus.restricted_critical_test(gens, bad)

    def test_schubert_maximizer_is_critical(self):
        # global farthest points of a Schubert variety sit on the cut locus;
        # zero must lie in the projection of the subdifferential hull onto
        # the variety's tangent space there
        from grasscrit import schubert

        omega = schubert.SchubertVariety(
            w=framed(core.random_plane(5, 2, 70)), s=1
        )
        l = core.random_plane(5, 2, 71)
        _, maximizer = schubert.global_max(omega, l, b_seed=3)
        j = cutlocus.cut_stratum(l, maximizer).j
        assert j == omega.k - omega.s == 1
        gens = cutlocus.subdiff_generators(
            l, framed(maximizer), cutlocus.sample_orthogonal_group(j)
        )
        basis = schubert.chart_tangent_basis(omega, maximizer)
        result = cutlocus.restricted_critical_test(gens, basis, tol=1e-8)
        assert result.found
        assert result.residual < 1e-8

    def test_schubert_maximizer_critical_on_second_stratum(self):
        # same chain with two right angles: the hull needs the full
        # orthogonal-group sample, not just the sign pair
        from grasscrit import schubert

        omega = schubert.SchubertVariety(
            w=framed(core.random_plane(7, 3, 72)), s=1
        )
        l = core.random_plane(7, 3, 73)
        _, maximizer = schubert.global_max(omega, l, b_seed=4)
        j = cutlocus.cut_stratum(l, maximizer).j
        assert j == omega.k - omega.s == 2
        gens = cutlocus.subdiff_generators(
            l, framed(maximizer), cutlocus.sample_orthogonal_group(2)
        )
        basis = schubert.chart_tangent_basis(omega, maximizer)
        result = cutlocus.restricted_critical_test(gens, basis, tol=1e-7)
        assert result.found


class TestCutDistance:
    def test_distance_to_cut_is_right_angle(self):
        for seed in range(20):
            lf = framed(core.random_plane(5, 2, 40 + seed))
            witness = cutlocus.nearest_cut_witness(lf)
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
