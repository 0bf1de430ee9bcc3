import itertools
import math

import numpy as np
import pytest

from grasscrit import core, cutlocus, schubert
from grasscrit.errors import (
    NonGenericL,
    NotSmoothPoint,
    OnCutLocus,
)
from conftest import calls_since, fixed_rank_tangent_basis, framed, sample_variety_distances


def stratum_min_value(omega, l, depth):
    """Infimum of the distance from ``l`` over the stratum of given depth.

    Depth 0 is the smooth stratum; deeper strata force more angles to
    vanish, so the value strictly increases with depth for generic
    ``l``: it is the l2 norm of the s + depth smallest angles.
    """
    angles = core.principal_angles(omega.w.plane, l)
    return float(np.linalg.norm(angles[: omega.s + depth]))


def variety(n, k, s, seed=0):
    return schubert.SchubertVariety(w=framed(core.random_plane(n, k, seed)), s=s)


def plane_with_angles(omega, angles, seed=1):
    """exp of a tangent matrix with prescribed singular values at w."""
    n, k = omega.n, omega.k
    rng = np.random.default_rng(seed)
    u = core._signed_qr(rng.standard_normal((n - k, k)))
    v = core._signed_qr(rng.standard_normal((k, k)))
    a = u @ np.diag(angles) @ v.T
    return core.exp(omega.w, core.tangent(omega.w, a))


SHAPES = [(5, 2, 1), (7, 3, 1), (7, 3, 2), (8, 2, 1), (9, 4, 2)]


def flat_rows(basis):
    return basis.a.reshape(len(basis.a), -1)


def outer_list_reference(omega, e):
    """The tangent basis as a list of np.outer products, one element at a
    time: R_i U_j^T, then R_perp_i Y_perp_j^T, i-major."""
    e_frame = core.complete_frame(e)
    r = omega.k - omega.s
    b_w = omega.w.plane.basis
    left, _, vt = np.linalg.svd(e_frame.complement.T @ b_w)
    u, _ = np.linalg.qr(e.basis.T @ b_w @ vt[r:].T, mode="complete")
    pairs = itertools.chain(
        itertools.product(left[:, :r].T, u.T),
        itertools.product(left[:, r:].T, u[:, omega.s:].T),
    )
    return [np.outer(x, y) for x, y in pairs]


def pushforward_reference(omega, e):
    """Reference tangent span: central differences of exp at w, read through
    log in the frame at ``e``, over a basis of the fixed-rank tangent space
    at the connecting matrix (the logarithm: e is off the cut locus of
    w).  Returns orthonormal rows."""
    a = core.log(omega.w, e).a
    e_frame = core.complete_frame(e)
    h = np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, float(np.linalg.norm(a)))
    pushed = []
    for z in fixed_rank_tangent_basis(a, omega.k - omega.s):
        plus = core.exp(omega.w, core.tangent(omega.w, a + h * z))
        minus = core.exp(omega.w, core.tangent(omega.w, a - h * z))
        pushed.append((core.log(e_frame, plus).a - core.log(e_frame, minus).a).ravel() / (2.0 * h))
    q, _ = np.linalg.qr(np.array(pushed).T)
    return q.T


class TestStratum:
    def test_reference_plane_is_deepest(self):
        omega = variety(5, 2, 1)
        st = schubert.schubert_stratum(omega, omega.w.plane)
        assert st.kind == "singular" and st.depth == omega.k - omega.s

    def test_generic_plane_not_member(self):
        omega = variety(5, 2, 1)
        st = schubert.schubert_stratum(omega, core.random_plane(5, 2, 77))
        assert st.kind == "not_member"

    def test_bounded_rank_image_is_smooth(self):
        omega = variety(7, 3, 1, seed=2)
        e = plane_with_angles(omega, [0.0, 0.6, 1.1], seed=3)
        assert schubert.schubert_stratum(omega, e).kind == "smooth"

    def test_deeper_rank_image_is_singular(self):
        omega = variety(7, 3, 1, seed=2)
        e = plane_with_angles(omega, [0.0, 0.0, 1.1], seed=3)
        st = schubert.schubert_stratum(omega, e)
        assert st.kind == "singular" and st.depth == 1


class TestChartTangentBasis:
    def test_dimension_g25(self):
        omega = variety(5, 2, 1, seed=4)
        e = plane_with_angles(omega, [0.0, 0.9], seed=5)
        basis = schubert.chart_tangent_basis(omega, e)
        assert basis.a.shape == (1 * (5 - 2 + 1), 3, 2) and len(basis.a) == omega.smooth_dim

    def test_dimension_g24(self):
        omega = variety(4, 2, 1, seed=6)
        e = plane_with_angles(omega, [0.0, 0.8], seed=7)
        assert len(schubert.chart_tangent_basis(omega, e).a) == 3

    def test_orthonormality(self):
        omega = variety(7, 3, 1, seed=8)
        e = plane_with_angles(omega, [0.0, 0.5, 1.0], seed=9)
        flat = flat_rows(schubert.chart_tangent_basis(omega, e))
        assert float(np.max(np.abs(flat @ flat.T - np.eye(len(flat))))) < 1e-10

    def test_not_smooth_rejected(self):
        omega = variety(5, 2, 1, seed=10)
        with pytest.raises(NotSmoothPoint):
            schubert.chart_tangent_basis(omega, omega.w.plane)

    def test_basis_near_right_angle(self):
        # geodesics along basis elements stay in the variety (the s-th angle
        # to w stays 0); geodesics along unit normals leave it at rate ~1
        omega = variety(5, 2, 1, seed=11)
        e = plane_with_angles(omega, [0.0, math.pi / 2 - 1e-9], seed=12)
        basis = schubert.chart_tangent_basis(omega, e)
        flat = flat_rows(basis)
        assert len(flat) == omega.smooth_dim
        assert float(np.max(np.abs(flat @ flat.T - np.eye(len(flat))))) < 1e-12
        frame = basis.frame
        normals = np.linalg.svd(flat)[2][len(flat):]

        def rate(a, t):
            moved = core.exp(frame, core.tangent(frame, t * a.reshape(omega.n - omega.k, omega.k)))
            return float(core.principal_angles(moved, omega.w.plane)[omega.s - 1]) / t

        for t in (1e-3, 1e-4):
            assert max(rate(b, t) for b in basis.a) < 1e-6
            assert min(rate(nv, t) for nv in normals) > 0.5

    def test_matches_pushforward_reference(self):
        for n, k, s in SHAPES:
            for seed in range(2):
                omega = variety(n, k, s, seed=60 + seed)
                rng = np.random.default_rng(70 + seed)
                angles = [0.0] * s + list(rng.uniform(0.2, 1.3, k - s))
                e = plane_with_angles(omega, angles, seed=rng)
                basis = schubert.chart_tangent_basis(omega, e)
                assert basis.a.shape == (omega.smooth_dim, n - k, k)
                cosines = np.linalg.svd(
                    flat_rows(basis) @ pushforward_reference(omega, e).T, compute_uv=False
                )
                assert 1.0 - float(np.min(cosines)) <= 1e-10

    def test_stack_equals_outer_list_bit_for_bit(self):
        for n, k, s in SHAPES:
            for seed in range(3):
                omega = variety(n, k, s, seed=90 + seed)
                rng = np.random.default_rng(95 + seed)
                angles = [0.0] * s + list(rng.uniform(0.2, 1.3, k - s))
                e = plane_with_angles(omega, angles, seed=rng)
                basis = schubert.chart_tangent_basis(omega, e)
                assert np.array_equal(basis.frame.frame, core.complete_frame(e).frame)
                assert np.array_equal(basis.a, np.array(outer_list_reference(omega, e)))

    def test_normality_residual_is_norm_of_coefficients(self):
        # the one contraction against the stack equals the coefficient
        # vector taken one basis element at a time
        for n, k, s in SHAPES:
            omega = variety(n, k, s, seed=97)
            l = core.random_plane(n, k, 98)
            for record in schubert.ey_schubert_critical_points(omega, l):
                e = record.point
                v = core.log(core.complete_frame(e), l).a
                coeffs = [float(np.sum(v * b)) for b in outer_list_reference(omega, e)]
                want = math.sqrt(sum(c * c for c in coeffs))
                assert abs(schubert.normality_residual(omega, l, e) - want) <= 1e-15


class TestSelectionCriticalPoints:
    def test_count_and_residuals_g37(self):
        omega = variety(7, 3, 1, seed=15)
        l = core.random_plane(7, 3, 16)
        records = schubert.ey_schubert_critical_points(omega, l)
        assert len(records) == math.comb(3, 1)
        for r in records:
            assert r.normality_residual < 1e-7
            assert cutlocus.cut_stratum(l, r.point).j == 0

    def test_residuals_at_machine_precision(self):
        for i in range(30):
            n, k, s = SHAPES[i % len(SHAPES)]
            omega = variety(n, k, s, seed=200 + i)
            l = core.random_plane(n, k, 300 + i)
            for r in schubert.ey_schubert_critical_points(omega, l):
                assert r.normality_residual < 1e-12

    def test_values_are_dropped_angle_norms(self):
        omega = variety(6, 2, 1, seed=17)
        l = core.random_plane(6, 2, 18)
        theta = core.principal_angles(omega.w.plane, l)  # nondecreasing
        records = schubert.ey_schubert_critical_points(omega, l)
        values = sorted(r.value for r in records)
        expected = sorted([float(theta[0]), float(theta[1])])
        assert np.allclose(values, expected, atol=1e-12)
        for r in records:
            d = core.grassmann_distance(l, r.point)
            assert abs(d - r.value) < 1e-10

    def test_leading_selection_attains_minimum(self):
        omega = variety(7, 3, 2, seed=19)
        l = core.random_plane(7, 3, 20)
        records = schubert.ey_schubert_critical_points(omega, l)
        by_index = {r.index_set: r.value for r in records}
        assert min(by_index.values()) == by_index[(0,)]

    def test_nongeneric_rejected(self):
        omega = variety(5, 2, 1, seed=21)
        member = plane_with_angles(omega, [0.0, 0.7], seed=22)
        with pytest.raises(NonGenericL):
            schubert.ey_schubert_critical_points(omega, member)


class TestGlobalMin:
    def test_two_angle_formula(self):
        omega = variety(5, 2, 1, seed=23)
        l = plane_with_angles(omega, [0.4, 0.9], seed=24)
        value, minimizer = schubert.global_min(omega, l)
        assert abs(value - 0.4) < 1e-12
        assert abs(core.grassmann_distance(l, minimizer) - value) < 1e-10

    def test_member_is_its_own_minimizer(self):
        omega = variety(5, 2, 1, seed=25)
        member = plane_with_angles(omega, [0.0, 0.8], seed=26)
        value, minimizer = schubert.global_min(omega, member)
        assert value == 0.0
        assert core.grassmann_distance(minimizer, member) < 1e-13

    def test_minimizer_on_variety_and_off_cut(self):
        omega = variety(7, 3, 1, seed=27)
        l = core.random_plane(7, 3, 28)
        value, minimizer = schubert.global_min(omega, l)
        assert schubert.schubert_stratum(omega, minimizer).kind == "smooth"
        assert cutlocus.cut_stratum(l, minimizer).j == 0
        theta = core.principal_angles(omega.w.plane, l)
        assert abs(value - float(np.linalg.norm(theta[:1]))) < 1e-12

    def test_sampling_oracle_never_undercuts(self):
        omega = variety(6, 2, 1, seed=29)
        l = core.random_plane(6, 2, 30)
        value, _ = schubert.global_min(omega, l)
        dists = sample_variety_distances(omega, l, 2000, seed=31)
        assert float(np.min(dists)) >= value - 1e-6

    def test_interlacing_lower_bound_on_members(self):
        omega = variety(6, 2, 1, seed=32)
        l = core.random_plane(6, 2, 33)
        theta = core.principal_angles(omega.w.plane, l)
        bound = float(np.linalg.norm(theta[: omega.s]))
        rng = np.random.default_rng(34)
        for _ in range(100):
            e = plane_with_angles(omega, [0.0, rng.uniform(0.05, math.pi / 2)], seed=rng)
            assert core.grassmann_distance(l, e) >= bound - 1e-9

    def test_local_minimality_within_variety(self):
        # perturb the minimizer through the fixed-rank chart: no nearby
        # variety point improves on the value
        omega = variety(6, 2, 1, seed=90)
        l = core.random_plane(6, 2, 91)
        value, _ = schubert.global_min(omega, l)
        a_l = core.log(omega.w, l)
        u, sigma, vt = np.linalg.svd(a_l.a, full_matrices=False)
        r = omega.k - omega.s
        a_min = u[:, :r] @ np.diag(sigma[:r]) @ vt[:r]
        rng = np.random.default_rng(92)
        basis = fixed_rank_tangent_basis(a_min, r)
        for step in (1e-2, 1e-3):
            for _ in range(20):
                coeffs = rng.standard_normal(len(basis))
                z = sum(c * b for c, b in zip(coeffs, basis))
                z *= step / np.linalg.norm(z)
                # retract back to the fixed-rank set before mapping up
                zu, zsigma, zvt = np.linalg.svd(a_min + z, full_matrices=False)
                a_near = zu[:, :r] @ np.diag(zsigma[:r]) @ zvt[:r]
                e_near = core.exp(omega.w, core.tangent(omega.w, a_near))
                assert core.grassmann_distance(l, e_near) >= value - 1e-9


class TestGlobalMax:
    def test_two_angle_formula(self):
        omega = variety(5, 2, 1, seed=35)
        l = plane_with_angles(omega, [0.4, 0.9], seed=36)
        value, maximizer = schubert.global_max(omega, l, b_seed=0)
        assert abs(value - math.sqrt(0.81 + (math.pi / 2) ** 2)) < 1e-12
        assert abs(core.grassmann_distance(l, maximizer) - value) < 1e-9

    def test_maximizer_in_expected_cut_stratum(self):
        omega = variety(7, 3, 1, seed=37)
        l = core.random_plane(7, 3, 38)
        _, maximizer = schubert.global_max(omega, l, b_seed=1)
        assert cutlocus.cut_stratum(l, maximizer).j == omega.k - omega.s
        assert schubert.schubert_stratum(omega, maximizer).kind == "smooth"

    def test_distinct_seeds_same_value(self):
        omega = variety(5, 2, 1, seed=39)
        l = core.random_plane(5, 2, 40)
        v1, m1 = schubert.global_max(omega, l, b_seed=7)
        v2, m2 = schubert.global_max(omega, l, b_seed=8)
        assert abs(v1 - v2) < 1e-10
        assert core.grassmann_distance(m1, m2) > 1e-3

    def test_sampling_oracle_never_exceeds(self):
        omega = variety(6, 2, 1, seed=41)
        l = core.random_plane(6, 2, 42)
        value, _ = schubert.global_max(omega, l, b_seed=2)
        dists = sample_variety_distances(omega, l, 2000, seed=43)
        assert float(np.max(dists)) <= value + 1e-6

    def test_nongeneric_rejected(self):
        omega = variety(5, 2, 1, seed=44)
        member = plane_with_angles(omega, [0.0, 0.8], seed=45)
        with pytest.raises(NonGenericL):
            schubert.global_max(omega, member, b_seed=0)


class TestNormalityResidual:
    def test_selection_points_certified(self):
        omega = variety(6, 2, 1, seed=46)
        l = core.random_plane(6, 2, 47)
        for r in schubert.ey_schubert_critical_points(omega, l):
            assert schubert.normality_residual(omega, l, r.point) < 1e-7

    def test_minimizer_certified(self):
        omega = variety(7, 3, 2, seed=48)
        l = core.random_plane(7, 3, 49)
        _, minimizer = schubert.global_min(omega, l)
        assert schubert.normality_residual(omega, l, minimizer) < 1e-7

    def test_random_smooth_points_not_critical(self):
        omega = variety(6, 2, 1, seed=50)
        l = core.random_plane(6, 2, 51)
        hits = 0
        for seed in range(10):
            e = plane_with_angles(omega, [0.0, 0.3 + 0.1 * seed], seed=100 + seed)
            if schubert.normality_residual(omega, l, e) > 1e-2:
                hits += 1
        assert hits >= 9


# the test shapes plus G(5,12), s=2 (10 records in 7 x 5 tangent matrices)
STACK_SHAPES = SHAPES + [(12, 5, 2)]


class TestStackedCertificate:
    @pytest.mark.parametrize("n, k, s", STACK_SHAPES)
    def test_records_match_single_point_certificate(self, n, k, s):
        for seed in range(3):
            omega = variety(n, k, s, seed=400 + seed)
            l = core.random_plane(n, k, 410 + seed)
            records = schubert.ey_schubert_critical_points(omega, l)
            assert len(records) == math.comb(k, s)
            for r in records:
                single = schubert.normality_residual(omega, l, r.point)
                assert abs(r.normality_residual - single) <= 1e-15
                assert cutlocus.cut_stratum(l, r.point).j == 0

    @pytest.mark.parametrize("n, k, s", STACK_SHAPES)
    def test_stacked_tangent_spaces_equal_outer_list_bit_for_bit(self, n, k, s):
        omega = variety(n, k, s, seed=420)
        l = core.random_plane(n, k, 421)
        points = [r.point for r in schubert.ey_schubert_critical_points(omega, l)]
        comps, stacks = schubert._tangent_spaces(omega, np.array([e.basis for e in points]))
        for e, comp, stack in zip(points, comps, stacks):
            assert np.array_equal(np.hstack([e.basis, comp]), core.complete_frame(e).frame)
            assert np.array_equal(stack, np.array(outer_list_reference(omega, e)))

    def test_one_singular_point_in_stack_raises(self):
        omega = variety(7, 3, 1, seed=430)
        l = core.random_plane(7, 3, 431)
        bases = [r.point.basis for r in schubert.ey_schubert_critical_points(omega, l)]
        with pytest.raises(NotSmoothPoint, match="singular"):
            schubert._tangent_spaces(omega, np.array(bases + [omega.w.plane.basis]))

    def test_point_on_cut_of_l_raises(self):
        # a farthest point is smooth and on the cut locus of l, where the
        # certificate has no logarithm
        omega = variety(7, 3, 1, seed=432)
        l = core.random_plane(7, 3, 433)
        _, maximizer = schubert.global_max(omega, l, b_seed=0)
        with pytest.raises(OnCutLocus):
            schubert.normality_residual(omega, l, maximizer)

    def test_linear_algebra_calls_do_not_grow_with_records(self, linalg_calls):
        # the certificate is one stacked pass: G(4,9) has 4 records at
        # s = 1 and 6 at s = 2, and both take the same SVD and QR calls;
        # the tangent spaces read the smooth-stratum test from the sines
        # of their own SVD, and the genericity gate and the truncations
        # read the angles and triplets of the one SVD that gives the
        # connecting factors, so the critical set adds no SVD of its own
        calls = {}
        for s in (1, 2):
            omega = variety(9, 4, s, seed=440)
            l = core.random_plane(9, 4, 441)
            before = dict(linalg_calls)
            records = schubert.ey_schubert_critical_points(omega, l)
            calls[s] = (len(records), calls_since(linalg_calls, before))
        assert calls[1][0] == 4 and calls[2][0] == 6
        expected = {"svd": 3, "qr": 2, "np.linalg.svd": 0, "np.linalg.qr": 0}
        assert calls[1][1] == calls[2][1] == expected


class TestOneDecomposition:
    """The three answers for a plane l come from one decomposition of (w, l)."""

    @pytest.mark.parametrize("n, k, s", STACK_SHAPES)
    def test_global_min_is_leading_record(self, n, k, s):
        for seed in range(3):
            omega = variety(n, k, s, seed=450 + seed)
            l = core.random_plane(n, k, 460 + seed)
            lead = schubert.ey_schubert_critical_points(omega, l)[0]
            assert lead.index_set == tuple(range(k - s))
            value, minimizer = schubert.global_min(omega, l)
            assert abs(value - lead.value) <= 1e-15
            assert core.grassmann_distance(minimizer, lead.point) <= 1e-12

    def test_svd_calls_per_answer(self, linalg_calls):
        # global_min: the connecting factors; global_max: those and the
        # SVD of the auxiliary constraints
        omega = variety(9, 4, 2, seed=470)
        l = core.random_plane(9, 4, 471)
        calls = []
        for answer in (
            lambda: schubert.global_min(omega, l),
            lambda: schubert.global_max(omega, l, b_seed=0),
        ):
            before = dict(linalg_calls)
            answer()
            calls.append(calls_since(linalg_calls, before))
        assert [c["svd"] for c in calls] == [1, 2]
        assert all(c["np.linalg.svd"] == c["np.linalg.qr"] == 0 for c in calls)

    @pytest.mark.parametrize(
        "angles",
        [[0.4, 0.4, 0.9], [1e-10, 0.5, 0.9], [0.3, 0.8, math.pi / 2 - 1e-10]],
        ids=["repeated", "near-zero", "near-right"],
    )
    def test_nongeneric_rejected_by_all_three(self, angles):
        # s = 2, so one vanishing angle leaves l off the variety
        omega = variety(7, 3, 2, seed=480)
        l = plane_with_angles(omega, angles, seed=481)
        for answer in (
            schubert.ey_schubert_critical_points,
            schubert.global_min,
            lambda omega, l: schubert.global_max(omega, l, b_seed=0),
        ):
            with pytest.raises(NonGenericL):
                answer(omega, l)


class TestStrataMonotonicity:
    def test_deeper_minimum_strictly_larger(self):
        omega = variety(7, 3, 1, seed=52)
        l = core.random_plane(7, 3, 53)
        smooth_min = stratum_min_value(omega, l, depth=0)
        deeper_min = stratum_min_value(omega, l, depth=1)
        assert deeper_min > smooth_min + 1e-3
        # statistical check: sampled singular-stratum points stay above the
        # deeper theoretical minimum, hence above the smooth one
        dists = sample_variety_distances(omega, l, 1000, seed=54, depth=1)
        assert float(np.min(dists)) >= deeper_min - 1e-6

    def test_aux_space_guard_unreachable_for_generic(self):
        omega = variety(5, 2, 1, seed=55)
        l = core.random_plane(5, 2, 56)
        # generic data never triggers it; the guard exists for degenerate input
        value, _ = schubert.global_max(omega, l, b_seed=3)
        assert value > 0
