import itertools
import math
import warnings

import numpy as np
import pytest

from grasscrit import core, cutlocus, lowrank
from grasscrit.errors import DegenerateSpectrum, DimensionError, IndexOutOfRange

from conftest import fixed_rank_tangent_basis


class RankCollapse(Exception):
    """A truncation has smaller numerical rank than required."""


def truncate(a, index_set):
    """Keep the singular triplets at the 0-based positions ``index_set``
    (into the nonincreasing singular values) and zero the rest; warns
    when the spectrum is degenerate."""
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    m = sigma.size
    idx = sorted(set(index_set))
    if any(i < 0 or i >= m for i in idx):
        raise IndexOutOfRange(f"indices {idx} outside range(0, {m})")
    if lowrank.spectrum_is_degenerate(sigma):
        warnings.warn("singular values coincide within tolerance", UserWarning, stacklevel=2)
    mask = np.zeros(m)
    mask[idx] = 1.0
    return u @ np.diag(sigma * mask) @ vt


def perturb_degenerate(a, seed=0, scale=1e-8):
    """``a`` plus Gaussian jitter of Frobenius norm ``scale * |a|``, which
    splits tied singular values (a nearby problem, not the same one)."""
    g = np.random.default_rng(seed).standard_normal(a.shape)
    return a + scale * np.linalg.norm(a) * g / np.linalg.norm(g)


def ey_normality_residual(a, a_trunc, expected_rank=None):
    """Criticality certificate of a truncation ``U1 S1 V1^T`` of rank r:
    ``max(|U1^T (a - a_trunc)|_F, |(a - a_trunc) V1|_F)`` vanishes exactly
    when the difference is normal to the rank-r manifold there."""
    u, sigma, vt = np.linalg.svd(a_trunc, full_matrices=False)
    rank = int(np.sum(sigma > lowrank.TOL_SV * max(sigma[0], 1e-300)))
    if rank == 0 or (expected_rank is not None and rank < expected_rank):
        raise RankCollapse(f"numerical rank {rank} < expected {expected_rank}")
    resid = a - a_trunc
    return max(np.linalg.norm(u[:, :rank].T @ resid), np.linalg.norm(resid @ vt[:rank].T))


def sign_fixed_svd(a):
    """Compact SVD (u, sigma, v) with the first entry of each column of u
    above 1e-12 of the column maximum made positive, one column at a
    time, and v a C-ordered copy: the SVD the critical set was once built
    from."""
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T.copy()
    for i in range(sigma.size):
        col = u[:, i]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(float(np.max(np.abs(col))), 1e-300))[0]
        if nz.size and col[nz[0]] < 0:
            u[:, i] = -u[:, i]
            v[:, i] = -v[:, i]
    return u, sigma, v


def assert_matches_sign_fixed_svd(a):
    """``ey_critical_set`` at every rank equals, byte for byte, the
    selections of :func:`sign_fixed_svd`'s triplets."""
    u, sigma, v = sign_fixed_svd(a)
    for r in range(1, sigma.size + 1):
        combos, _, truncations = lowrank._selections(u, sigma, v, r)
        points = lowrank.ey_critical_set(a, r)
        assert [index_set for index_set, _ in points] == combos
        assert all(
            got.tobytes() == want.tobytes() for (_, got), want in zip(points, truncations)
        )


def sign_fix_cases(kind, rng):
    """Matrices whose singular vectors start with exact zeros or with
    entries below 1e-12 of the column maximum, which the sign fix of
    :func:`sign_fixed_svd` skips, a random one, and a random matrix of
    every shape 1..8 x 1..8."""
    if kind == "random-shapes":
        return [rng.standard_normal(shape) for shape in itertools.product(range(1, 9), repeat=2)]
    if kind in ("permuted-diagonal", "tiny-entries"):
        a = np.zeros((6, 4))
        a[[4, 1, 5, 2], [0, 1, 2, 3]] = [-4.0, 3.0, -2.0, -1.0]
        if kind == "tiny-entries":
            a[0] = 1e-15 * rng.standard_normal(4)
    elif kind == "block":
        a = np.zeros((5, 5))
        a[:2, :2] = rng.standard_normal((2, 2))
        a[2:, 2:] = -rng.standard_normal((3, 3)) - 3.0 * np.eye(3)
    else:
        a = rng.standard_normal((4, 7))
    return [a]


class TestSvd:
    """The compact SVD inside ey_critical_set, seen through its output:
    the triplets it keeps, with no sign convention."""

    def test_diagonal(self):
        points = dict(lowrank.ey_critical_set(np.diag([3.0, 1.0]), 1))
        assert np.allclose(points[(0,)], np.diag([3.0, 0.0]), atol=1e-15)
        assert np.allclose(points[(1,)], np.diag([0.0, 1.0]), atol=1e-15)

    def test_zero_matrix(self):
        with pytest.raises(DegenerateSpectrum):
            lowrank.ey_critical_set(np.zeros((3, 2)), 1)

    def test_frobenius_identity(self, rng):
        # kept and dropped triplets split the squared norm of a
        for _ in range(20):
            a = rng.standard_normal((5, 3))
            total = np.sum(a * a)
            for r in (1, 2):
                for _, a_i in lowrank.ey_critical_set(a, r):
                    split = np.sum(a_i * a_i) + np.sum((a - a_i) ** 2)
                    assert abs(total - split) < 1e-12 * max(1, total)

    def test_reconstruction(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 6))
            [(index_set, a_full)] = lowrank.ey_critical_set(a, 4)
            assert index_set == (0, 1, 2, 3)
            assert np.allclose(a_full, a, atol=1e-12 * np.linalg.norm(a))

    def test_sign_convention_deterministic(self, rng):
        # two calls agree bit for bit, and negating a column of U with the
        # same column of V leaves every truncation unchanged bit for bit,
        # so no sign convention can show in the output
        a = rng.standard_normal((5, 4))
        first, second = lowrank.ey_critical_set(a, 2), lowrank.ey_critical_set(a, 2)
        assert all(x[1].tobytes() == y[1].tobytes() for x, y in zip(first, second))
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
        for signs in itertools.product((1.0, -1.0), repeat=sigma.size):
            _, _, flipped = lowrank._selections(u * signs, sigma, (vt.T * signs), 2)
            assert all(got[1].tobytes() == want.tobytes() for got, want in zip(first, flipped))

    @pytest.mark.parametrize(
        "kind", ["permuted-diagonal", "tiny-entries", "block", "random", "random-shapes"]
    )
    def test_sign_fix_matches_per_column_loop(self, kind, rng):
        # the critical set without the sign fix is the critical set built
        # from the sign-fixed triplets, byte for byte, at every rank
        for a in sign_fix_cases(kind, rng):
            assert_matches_sign_fixed_svd(a)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrix(self, shape):
        with pytest.raises(IndexOutOfRange):
            lowrank.ey_critical_set(np.zeros(shape), 1)

    @pytest.mark.parametrize(
        "a", [np.zeros(3), np.zeros((2, 2, 2)), [[1.0, np.nan]], [[np.inf, 0.0]]],
        ids=["vector", "stack", "nan", "inf"],
    )
    def test_malformed_matrix_rejected(self, a):
        with pytest.raises(DimensionError):
            lowrank.ey_critical_set(a, 1)


class TestTruncate:
    def test_keep_largest(self):
        a = np.diag([3.0, 1.0])
        out = truncate(a, {0})
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-14)
        assert abs(np.linalg.norm(a - out) - 1.0) < 1e-14

    def test_keep_all_is_identity(self, rng):
        a = rng.standard_normal((4, 3))
        assert np.allclose(truncate(a, range(3)), a, atol=1e-13)

    def test_distances_enumerate_selections(self, rng):
        a = rng.standard_normal((4, 3))
        s = np.linalg.svd(a, compute_uv=False)
        points = dict(lowrank.ey_critical_set(a, 1))
        for keep in ({0}, {1}, {2}):
            drop = set(range(3)) - keep
            d = np.linalg.norm(a - truncate(a, keep))
            expected = math.sqrt(sum(s[i] ** 2 for i in drop))
            assert abs(d - expected) < 1e-12
            assert np.allclose(points[tuple(keep)], truncate(a, keep), atol=1e-13)

    def test_idempotent(self, rng):
        a = rng.standard_normal((5, 4))
        t1 = truncate(a, {0, 2})
        with pytest.warns(UserWarning):
            # t1 has zeroed singular values, hence a degenerate spectrum
            t2 = truncate(t1, {0, 1, 2, 3})
        assert np.allclose(t1, t2, atol=1e-14)

    def test_index_out_of_range(self, rng):
        with pytest.raises(IndexOutOfRange):
            truncate(rng.standard_normal((3, 3)), {5})


class TestEyCriticalSet:
    def test_count_three_for_rank_one(self, rng):
        pts = lowrank.ey_critical_set(rng.standard_normal((3, 3)), 1)
        assert len(pts) == 3

    def test_full_rank_single_point(self, rng):
        a = rng.standard_normal((4, 2))
        pts = lowrank.ey_critical_set(a, 2)
        assert len(pts) == 1
        assert np.allclose(pts[0][1], a, atol=1e-13)

    def test_minimizer_is_leading_selection(self, rng):
        a = rng.standard_normal((5, 4))
        s = np.linalg.svd(a, compute_uv=False)
        pts = lowrank.ey_critical_set(a, 2)
        dists = {idx: np.linalg.norm(a - m) for idx, m in pts}
        assert min(dists, key=dists.get) == (0, 1)
        assert abs(dists[(0, 1)] - math.sqrt(s[2] ** 2 + s[3] ** 2)) < 1e-12

    def test_cardinality_all_shapes(self, rng):
        for m in range(2, 7):
            for r in range(1, m):
                a = rng.standard_normal((6, m))
                assert len(lowrank.ey_critical_set(a, r)) == math.comb(m, r)

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrum):
            lowrank.ey_critical_set(np.eye(3), 1)

    def test_perturb_helper_unlocks(self):
        a = perturb_degenerate(np.eye(3), seed=0)
        assert len(lowrank.ey_critical_set(a, 1)) == 3


class TestNormalityResidual:
    def test_diagonal_truncation_exact(self):
        a = np.diag([3.0, 1.0])
        assert ey_normality_residual(a, np.diag([3.0, 0.0])) < 1e-14

    def test_all_selection_points_certified(self, rng):
        a = rng.standard_normal((5, 4))
        for _, a_i in lowrank.ey_critical_set(a, 2):
            resid = ey_normality_residual(a, a_i, expected_rank=2)
            assert resid < 1e-10 * np.linalg.norm(a)

    def test_noncritical_perturbation_flagged(self, rng):
        a = rng.standard_normal((5, 4))
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
        # tangent step at the minimizer keeps the rank but breaks normality
        b = (
            u[:, :2] @ np.diag(sigma[:2] + np.array([0.0, 0.05])) @ vt[:2]
            + 0.05 * np.outer(u[:, 2], vt[1])
        )
        assert ey_normality_residual(a, b) > 1e-3

    def test_rank_collapse(self, rng):
        a = rng.standard_normal((4, 3))
        with pytest.raises(RankCollapse):
            ey_normality_residual(a, truncate(a, {0}), expected_rank=2)


class TestRegion:
    """R_{pi/2}, the tangent matrices with singular values at most pi/2:
    exp maps its interior off the cut locus of the base plane, at the
    Frobenius norm as distance, and its boundary onto the cut locus."""

    def _image(self, a):
        base = core.complete_frame(core.random_plane(4, 2, 7))
        return base.plane, core.exp(base, core.tangent(base, a))

    def test_zero_matrix_interior(self):
        base, e = self._image(np.zeros((2, 2)))
        assert cutlocus.cut_stratum(base, e).j == 0
        assert core.grassmann_distance(base, e) < 1e-12

    def test_boundary(self):
        base, e = self._image(np.diag([math.pi / 2, 0.3]))
        assert cutlocus.cut_stratum(base, e).j == 1
        assert abs(core.grassmann_distance(base, e) - math.hypot(math.pi / 2, 0.3)) < 1e-12

    def test_outside(self):
        # past the cut locus the geodesic stops minimizing
        a = np.diag([2.0, 0.1])
        base, e = self._image(a)
        assert abs(core.grassmann_distance(base, e) - math.hypot(math.pi - 2.0, 0.1)) < 1e-12
        assert core.grassmann_distance(base, e) < np.linalg.norm(a) - 0.5

    def test_rank_region_tangent_dimension(self, rng):
        a = rng.standard_normal((5, 3))
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
        a2 = u[:, :2] @ np.diag(sigma[:2]) @ vt[:2]
        basis = fixed_rank_tangent_basis(a2, 2)
        assert len(basis) == 2 * (5 + 3 - 2)
        flat = np.array([b.ravel() for b in basis])
        assert np.allclose(flat @ flat.T, np.eye(len(basis)), atol=1e-12)


class TestEyOptimality:
    def test_no_candidate_beats_minimizer(self, rng):
        # random + perturbation candidates around the minimizer, batched
        for _ in range(10):
            m, n = rng.integers(2, 7, 2)
            r = int(rng.integers(1, min(m, n)))
            a = rng.standard_normal((m, n))
            u, sigma, vt = np.linalg.svd(a, full_matrices=False)
            d_min = math.sqrt(float(np.sum(sigma[r:] ** 2)))
            u1, v1, s1 = u[:, :r], vt[:r].T, sigma[:r]
            count = 500
            eps = rng.uniform(0.0, 0.5, count)
            gu = rng.standard_normal((count, m, r)) * eps[:, None, None]
            gv = rng.standard_normal((count, n, r)) * eps[:, None, None]
            cand = np.einsum("bir,r,bjr->bij", u1 + gu, s1, v1 + gv)
            dists = np.linalg.norm(cand - a, axis=(1, 2))
            assert float(np.min(dists)) >= d_min - 1e-9
