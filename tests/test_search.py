import math
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares
from scipy.optimize._lsq.common import solve_lsq_trust_region
from scipy.optimize._numdiff import approx_derivative

from grasscrit import bounds, core, schubert, search
from grasscrit.errors import (
    DimensionError,
    DomainError,
    FrameMismatch,
    NoConvergence,
    NonGenericL,
    NotUnit,
    SchemaError,
)

from conftest import framed, random_orthogonal, zero_tangent


def circle_two_point_slice(phi=0.7):
    """Degree-2 polynomial on G(1,2) vanishing at two orthogonal lines."""
    a = np.array([math.cos(phi), math.sin(phi)])
    b = np.array([-math.sin(phi), math.cos(phi)])
    terms = (
        ((2, 0), a[0] * b[0]),
        ((1, 1), a[0] * b[1] + a[1] * b[0]),
        ((0, 2), a[1] * b[1]),
    )
    return search.PluckerPolynomial(n=2, k=1, terms=terms)


def empty_conic():
    """x^2 + 2 y^2 + 3 z^2 on G(1,3): positive definite, so the conic has
    no real points and the Lagrange residual no zero."""
    return search.PluckerPolynomial(
        n=3, k=1, terms=(((2, 0, 0), 1.0), ((0, 2, 0), 2.0), ((0, 0, 2), 3.0))
    )


def real_conic():
    """x^2 - 2 y^2 + 0.5 z^2 + 0.3 x y on G(1,3): indefinite, so the
    conic has real points and the distance from a line critical ones."""
    return search.PluckerPolynomial(
        n=3, k=1,
        terms=(((2, 0, 0), 1.0), ((0, 2, 0), -2.0), ((0, 0, 2), 0.5), ((1, 1, 0), 0.3)),
    )


def schubert_divisor(w):
    """det[E W] = 0 on G(k, 2k): the planes meeting W, as the linear form
    with weight det[I_S W] on each k-subset S (Laplace expansion along
    the first k columns)."""
    n, k = w.n, w.k
    eye = np.eye(n)
    weights = [
        np.linalg.det(np.column_stack([eye[:, list(rows)], w.basis]))
        for rows in core.plucker_index_table(n, k)
    ]
    return search.linear_form(n, k, weights)


def g24_hyperplane(seed=21):
    w = np.random.default_rng(seed).standard_normal(6)
    return search.linear_form(4, 2, w)


class TestPolynomial:
    def test_homogeneity_enforced(self):
        with pytest.raises(SchemaError):
            search.PluckerPolynomial(n=2, k=1, terms=(((1, 0), 1.0), ((2, 0), 1.0)))

    def test_positive_degree_required(self):
        with pytest.raises(SchemaError):
            search.PluckerPolynomial(n=2, k=1, terms=(((0, 0), 1.0),))

    def test_malformed_exponents_rejected(self):
        with pytest.raises(SchemaError):
            search.PluckerPolynomial(n=2, k=1, terms=(((-1, 2), 1.0),))
        with pytest.raises(SchemaError):
            search.PluckerPolynomial(n=2, k=1, terms=(((1,), 1.0),))
        # exponents are integers: neither truncated nor parsed
        for exps in ((1.5, 0), (1.0, 0), ("1", 0)):
            with pytest.raises(SchemaError, match="not an integer"):
                search.PluckerPolynomial(n=2, k=1, terms=((exps, 1.0),))
        p = search.PluckerPolynomial(n=2, k=1, terms=(((np.int64(1), 0), 1.0),))
        assert p.degree == 1

    def test_degree_limit(self):
        # the degree is checked before the index tables, whose size grows
        # as d^2 per term, are built
        top = search.MAX_DEGREE
        p = search.PluckerPolynomial(n=3, k=1, terms=(((top, 0, 0), 1.0), ((0, top - 1, 1), 1.0)))
        assert p.degree == top
        for exps in ([top + 1, 0, 0], [10**18, 0, 0], [2**62, 2**62, 0]):
            with pytest.raises(SchemaError, match="exceeds MAX_DEGREE"):
                search.PluckerPolynomial(n=3, k=1, terms=((tuple(exps), 1.0),))

    @pytest.mark.parametrize("n, k", [(-3, 1), (3, 0), (3, 2), (4, 3)])
    def test_shape_outside_standing_range_rejected(self, n, k):
        # checked before binomial(n, k), which rejects negative n untyped
        with pytest.raises(DimensionError):
            search.PluckerPolynomial(n=n, k=k, terms=(((1, 0), 1.0),))

    @pytest.mark.parametrize("n, k", [(-3, 1), (3, 0), (3, 2), (4, 3)])
    def test_linear_form_outside_standing_range_rejected(self, n, k):
        # checked before binomial(n, k), as for PluckerPolynomial
        with pytest.raises(DimensionError):
            search.linear_form(n, k, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("coefs", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 0.0), (0.0, -0.0)])
    def test_non_finite_or_zero_coefficients_rejected(self, coefs):
        terms = (((1, 0, 0), coefs[0]), ((0, 1, 0), coefs[1]))
        with pytest.raises(SchemaError):
            search.PluckerPolynomial(n=3, k=1, terms=terms)

    def test_eval_grad_consistent(self, rng):
        p = g24_hyperplane()
        c = rng.standard_normal(6)
        val, grad = p.eval_grad(c)
        assert abs(val - p.eval(c)) < 1e-14
        h = 1e-7
        for i in range(6):
            cp, cm = c.copy(), c.copy()
            cp[i] += h
            cm[i] -= h
            assert abs(grad[i] - (p.eval(cp) - p.eval(cm)) / (2 * h)) < 1e-6

    def test_eval_builds_no_gradient(self, monkeypatch, rng):
        p = random_polynomial(rng, 4, 2, 2, 12)
        coords = rng.standard_normal((3, p.n_coords))
        value = p.eval(coords)

        def no_gradient(*args):
            raise AssertionError("eval built the gradient")

        monkeypatch.setattr(search.PluckerPolynomial, "eval_grad", no_gradient)
        assert np.array_equal(p.eval(coords), value)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_stacked_eval_grad_matches_loop(self, rng, degree):
        for n, k in ((3, 1), (4, 2), (5, 2)):
            p = random_polynomial(rng, n, k, degree, 12)
            for shape in ((), (5,), (2, 3)):
                coords = rng.standard_normal(shape + (p.n_coords,))
                coords[..., 1] = 0.0
                value, grad = p.eval_grad(coords)
                assert np.shape(value) == shape and grad.shape == coords.shape
                # the value alone, bit for bit
                alone = p.eval(coords)
                assert np.shape(alone) == shape
                assert np.asarray(alone).tobytes() == np.asarray(value).tobytes()
                for idx in np.ndindex(*shape):
                    ref_val, ref_grad = loop_eval_grad(p, coords[idx])
                    assert abs(value[idx] - ref_val) <= 1e-13 * max(1.0, abs(ref_val))
                    assert np.allclose(grad[idx], ref_grad, rtol=1e-13, atol=1e-13)


def loop_eval_grad(p, coords):
    """Reference: value and gradient by plain loops over terms and
    coordinates, one coordinate vector at a time."""
    val = 0.0
    grad = np.zeros(p.n_coords)
    for exps, coef in p.terms:
        mon = coef
        for idx, e in enumerate(exps):
            if e:
                mon *= coords[idx] ** e
        val += mon
        for idx, e in enumerate(exps):
            if not e:
                continue
            g = coef * e * (coords[idx] ** (e - 1) if e > 1 else 1.0)
            for idx2, e2 in enumerate(exps):
                if idx2 != idx and e2:
                    g *= coords[idx2] ** e2
            grad[idx] += g
    return val, grad


def random_polynomial(rng, n, k, degree, n_terms):
    """Random homogeneous polynomial whose terms repeat coordinates."""
    size = math.comb(n, k)
    terms = []
    for _ in range(n_terms):
        e = [0] * size
        for i in rng.integers(0, size, degree):
            e[i] += 1
        terms.append((tuple(e), float(rng.standard_normal())))
    return search.PluckerPolynomial(n=n, k=k, terms=tuple(terms))


def repeated_angle_hyperplane(theta, h=1e-6):
    """Hyperplane on G(2,4) that is critical at E* = exp(theta I) from the
    coordinate plane, where both principal angles equal theta."""
    lf = framed(core.make_plane(np.eye(4)[:, :2]))
    a_star = core.tangent(lf, theta * np.eye(2))

    def minors(t):
        return core.plucker_minors(core.geodesic_point(lf, a_star, t))

    w = (minors(1 + h) - minors(1 - h)) / (2 * h)
    c = minors(1.0)
    w -= (w @ c) * c
    return search.linear_form(4, 2, w), lf, core.exp(lf, a_star)


def svd_exp_projector(base, a):
    """Projector onto exp(a) from the explicit SVD form frame @ [V cos S; U sin S]."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    y = base.frame @ np.vstack([vt.T * np.cos(s), u * np.sin(s)])
    return y @ y.T


def laplace_cofactors(x):
    """Reference: the cofactor matrix of one square block by deleting a
    row and a column for each entry."""
    k = x.shape[0]
    if k == 1:
        return np.ones((1, 1))
    return np.array(
        [
            [(-1) ** (i + j) * np.linalg.det(np.delete(np.delete(x, i, 0), j, 1)) for j in range(k)]
            for i in range(k)
        ]
    )


class TestBasisGradient:
    def test_linear_form_matches_cofactor_blocks(self, rng):
        # the reverse sweep's gradient of sum_S w_S c_S is sum_S w_S times
        # each block's cofactor matrix, added to the block's rows; the
        # second matrix repeats a row, so every block holding both copies
        # is singular, and the third has rank k - 1, so every block is;
        # n stays in the standing range k <= n - k
        for k in (1, 2, 3, 4, 5):
            n = max(k + 3, 2 * k)
            y = rng.standard_normal((3, n, k))
            y[1, 2] = y[1, 0]
            y[2, :, -1] = y[2, :, 0]
            table = core.plucker_index_table(n, k)
            w = rng.standard_normal(len(table))
            p = search.linear_form(n, k, w)
            _, grad = search._value_and_basis_grad(p, y)
            assert grad.shape == y.shape
            # the gradient comes scaled by a power of two, exactly
            grad = grad / p._grad_factor
            for matrix, got in zip(y, grad):
                expected = np.zeros((n, k))
                for weight, rows in zip(w, table):
                    expected[rows] += weight * laplace_cofactors(matrix[rows])
                assert np.allclose(got, expected, atol=1e-12)


class TestLagrangeResidual:
    def test_first_component_is_polynomial_value(self):
        p = g24_hyperplane()
        base = framed(core.random_plane(4, 2, 3))
        a = core.tangent(base, np.array([[0.3, -0.2], [0.1, 0.6]]))
        resid = search.lagrange_residual(p, base, a)
        y = core._geodesic_end(base, a.a)
        assert abs(resid[0] - p.eval(core.plucker_minors(y)) / p.coefficient_scale()) < 1e-15
        assert resid[0] != 0.0

    def test_geodesic_end_matches_exp(self):
        # Y spans the explicit SVD exponential and Ydot matches its
        # central difference, compared through projectors so no basis
        # gauge enters; covers repeated singular values, a singular value
        # at pi/2 and singular values beyond pi/2
        base = framed(core.random_plane(5, 2, 4))
        u = random_orthogonal(3, 6)[:, :2]
        v = random_orthogonal(2, 7)
        cases = [np.random.default_rng(5).uniform(-0.6, 0.6, (3, 2))] + [
            u @ np.diag(mu) @ v.T
            for mu in ([0.8, 0.8], [math.pi / 2, 0.4], [2.5, 1.9], [2.2, 2.2])
        ]
        h = 1e-5
        for a in cases:
            y, ydot = core._geodesic_end(base, a, velocity=True)
            assert np.allclose(y.T @ y, np.eye(2), atol=1e-14)
            assert np.allclose(y @ y.T, svd_exp_projector(base, a), atol=1e-14)
            dp = (svd_exp_projector(base, (1 + h) * a) - svd_exp_projector(base, (1 - h) * a)) / (2 * h)
            assert np.allclose(ydot @ y.T + y @ ydot.T, dp, atol=1e-9)

    def test_constructed_critical_point_on_circle(self):
        # the zero set of the two-line slice is 0-dimensional: both zeros
        # are critical for the distance from any base line
        p = circle_two_point_slice(0.7)
        lf = framed(core.make_plane([[1.0], [0.0]]))
        # zero of p nearest to the base: line at angle 0.7 + pi/2 has
        # Plucker coords (cos, sin); the form a.c vanishes on (-sin a, cos a)
        target = core.make_plane([[-math.sin(0.7)], [math.cos(0.7)]])
        resid = search.lagrange_residual(p, lf, core.log(lf, target))
        assert float(np.linalg.norm(resid)) < 1e-9

    def test_stacked_equals_per_matrix_calls(self, rng):
        for n, k in ((3, 1), (4, 2), (5, 2), (7, 3)):
            p = random_polynomial(rng, n, k, 2, 8)
            base = framed(core.random_plane(n, k, rng))
            stack = rng.uniform(-1.2, 1.2, (2, 3, n - k, k))
            stacked = search.lagrange_residual(p, base, stack)
            assert stacked.shape == (2, 3, 1 + n * k)
            for idx in np.ndindex(2, 3):
                single = search.lagrange_residual(p, base, core.tangent(base, stack[idx]))
                assert np.max(np.abs(stacked[idx] - single)) <= 1e-15

    @pytest.mark.parametrize("n, k", [(3, 1), (5, 2), (7, 3)])
    def test_rows_independent_of_stack_size(self, rng, n, k):
        # every row of a stacked residual is computed by fixed-order
        # reductions, so it does not depend on how many rows share the stack
        base = framed(core.random_plane(n, k, rng))
        stack = rng.uniform(-0.8, 0.8, (40, n - k, k))
        size = math.comb(n, k)
        quadric = random_polynomial(rng, n, k, 2, 3 * size)
        for p in (search.linear_form(n, k, rng.standard_normal(size)), quadric):
            full = search.lagrange_residual(p, base, stack)
            assert np.array_equal(full[:3], search.lagrange_residual(p, base, stack[:3]))

    def test_zero_tangent_is_finite(self):
        # the velocity vanishes at A = 0; the unit vector must stay zero
        p = g24_hyperplane()
        base = framed(core.random_plane(4, 2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = search.lagrange_residual(p, base, zero_tangent(base))
            stacked = search.lagrange_residual(p, base, np.zeros((3, 2, 2)))
        assert np.all(np.isfinite(single)) and np.all(np.isfinite(stacked))
        assert np.array_equal(single[1:], np.zeros(8))

    def test_subnormal_coefficient_scale(self, rng):
        # the power of two scaling the basis gradient is capped where the
        # coefficient scale is subnormal (2^1074 overflows); the normality
        # part of the residual is the same as at scale 1, bit for bit
        base = framed(core.random_plane(3, 1, 4))
        a = rng.uniform(-1.0, 1.0, (5, 2, 1))
        one, tiny = (search.linear_form(3, 1, [c, 0.0, 0.0]) for c in (1.0, 5e-324))
        expected = search.lagrange_residual(one, base, a)[:, 1:]
        assert np.array_equal(search.lagrange_residual(tiny, base, a)[:, 1:], expected)

    def test_jacobian_matches_scipy_2_point(self, rng, monkeypatch):
        # the stacked Jacobian of several starts takes scipy's unbounded
        # 2-point steps, none flipped (a start past pi/2 steps outward
        # too), and one residual call evaluates each start together with
        # its m shifted points
        seen = []
        residual = search.lagrange_residual

        def recording(p, l, a):
            seen.append(np.array(a))
            return residual(p, l, a)

        for n, k in ((3, 1), (4, 2), (5, 2)):
            p = random_polynomial(rng, n, k, 2, 8)
            base = framed(core.random_plane(n, k, rng))
            m = (n - k) * k
            x = rng.uniform(-1.2, 1.2, (3, m))
            x[0, 0] = math.pi / 2 - 1e-9
            x[1, -1] = 0.0
            x[2, 0] = -2.5
            seen.clear()
            with monkeypatch.context() as patch:
                patch.setattr(search, "lagrange_residual", recording)
                f, jac = search._jacobian(p, base, x)
            assert len(seen) == 1 and seen[0].shape == (3 * (m + 1), n - k, k)
            stencil = seen[0].reshape(3, m + 1, m)
            assert np.array_equal(stencil[:, 0], x)
            # each step points away from zero: sign(x_j), with sign(0) = +1
            steps = np.diagonal(stencil[:, 1:] - x[:, None, :], axis1=1, axis2=2)
            assert np.all(np.where(x >= 0.0, steps > 0.0, steps < 0.0))
            assert f.shape == (3, 1 + n * k) and jac.shape == (3, 1 + n * k, m)
            assert np.max(np.abs(f - residual(p, base, x.reshape(3, n - k, k)))) <= 1e-15
            for xs, js in zip(x, jac):
                expected = approx_derivative(
                    lambda v: residual(p, base, v.reshape(n - k, k)), xs, method="2-point"
                )
                assert np.max(np.abs(js - expected)) <= 1e-6

    def test_frame_mismatch_guard(self):
        p = g24_hyperplane()
        base = framed(core.random_plane(4, 2, 3))
        other = framed(core.random_plane(4, 2, 4))
        with pytest.raises(FrameMismatch):
            search.lagrange_residual(p, base, zero_tangent(other))
        # an equal frame that is another object passes
        copy = framed(base.plane)
        assert copy.frame is not base.frame
        assert np.array_equal(
            search.lagrange_residual(p, base, zero_tangent(copy)),
            search.lagrange_residual(p, base, zero_tangent(base)),
        )

    def test_gradients_match_finite_differences(self, rng):
        # degree-2 polynomials on G(2,4), G(3,6) and G(4,8) run one to
        # three levels of the reverse column sweep
        for n, k in ((4, 2), (6, 3), (8, 4)):
            size = math.comb(n, k)
            w = rng.standard_normal(size)
            terms = []
            for i in range(size):
                e = [0] * size
                e[i] = 2
                terms.append((tuple(e), w[i]))
            p = search.PluckerPolynomial(n=n, k=k, terms=tuple(terms))
            y = rng.standard_normal((n, k))
            _, grad = search._value_and_basis_grad(p, y)
            grad = grad / p._grad_factor
            h = 1e-6
            for i in range(n):
                for j in range(k):
                    yp, ym = y.copy(), y.copy()
                    yp[i, j] += h
                    ym[i, j] -= h
                    fd = (p.eval(core.plucker_minors(yp)) - p.eval(core.plucker_minors(ym))) / (2 * h)
                    assert abs(grad[i, j] - fd) < 1e-6 * max(1.0, abs(fd))


class TestRowAlgebra:
    @pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (5, 2), (6, 3), (7, 3), (8, 4)])
    @pytest.mark.parametrize("s", [1, 2, 4, 12])
    def test_vector_gufuncs_match_matmul_forms(self, n, k, s):
        # the solver's row products run through np.vecdot, np.matvec and
        # np.vecmat; on its own arrays (S starts, m = k(n - k) unknowns,
        # 1 + n k residuals) each equals the stacked-matmul form bit for
        # bit, so a numpy whose gufuncs take another BLAS path than
        # matmul fails here instead of moving the solver's iterates
        rng = np.random.default_rng(100 * n + s)
        p = random_polynomial(rng, n, k, 2, 2 * math.comb(n, k))
        lf = framed(core.random_plane(n, k, rng))
        m = k * (n - k)

        def same(got, want):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

        def vecdot(a, b):
            return (a[:, None, :] @ b[:, :, None])[:, 0, 0]

        def matvec(a, x):
            return (a @ x[:, :, None])[:, :, 0]

        def vecmat(x, a):
            return (x[:, None, :] @ a)[:, 0]

        x = rng.uniform(-1.4, 1.4, (s, m))
        f, jac = search._jacobian(p, lf, x)
        assert f.shape == (s, 1 + n * k) and jac.shape == (s, 1 + n * k, m)
        # the layout _jacobian returns, and the same array after a round
        # copies accepted rows into it
        f_new, jac_new = search._jacobian(p, lf, x + rng.uniform(-0.1, 0.1, (s, m)))
        accepted = np.arange(s) % 2 == 0
        for _ in range(2):
            g = np.vecmat(f, jac)
            same(g, vecmat(f, jac))
            u, sv, vt = core._svd(jac, full_matrices=False)
            uf = np.vecmat(f, u)
            same(uf, vecmat(f, u))
            v = np.ascontiguousarray(vt.swapaxes(1, 2))
            delta = 0.5 * np.sqrt(np.vecdot(x, x))
            step, _ = search._trust_region_steps(uf, sv, v, delta, np.zeros(s), f.shape[1])
            same(np.matvec(v, uf / sv), matvec(v, uf / sv))
            js = np.matvec(jac, step)
            same(js, matvec(jac, step))
            for a, b in ((f, f), (f_new, f_new), (js, js), (g, step), (x, x), (step, step)):
                same(np.vecdot(a, b), vecdot(a, b))
            np.copyto(f, f_new, where=accepted[:, None])
            np.copyto(jac, jac_new, where=accepted[:, None, None])


    def test_trust_region_steps_match_scipy_row_by_row(self, monkeypatch):
        # each row of the stacked step is scipy's scalar Moré step on that
        # row's arrays, byte for byte: on every call the solver makes in a
        # small sweep (Gauss-Newton and Levenberg-Marquardt rows, rows
        # leaving the Newton iteration at different rounds) and on
        # synthetic Jacobians with a zero or 1e-300 column, whose rank
        # deficiency takes scipy's rank-deficient branch
        calls = []
        steps = search._trust_region_steps

        def recording(uf, sv, v, delta, alpha, n_res):
            args = tuple(a.copy() for a in (uf, sv, v, delta, alpha))
            out = steps(uf, sv, v, delta, alpha, n_res)
            calls.append((args, n_res, out))
            return out

        monkeypatch.setattr(search, "_trust_region_steps", recording)
        rng = np.random.default_rng(2026)
        for p, (n, k) in (
            (real_conic(), (3, 1)),
            (g24_hyperplane(), (4, 2)),
            (random_polynomial(rng, 5, 2, 2, 6), (5, 2)),
            (random_polynomial(rng, 6, 3, 1, 8), (6, 3)),
        ):
            solve_with_diagnostics(p, framed(core.random_plane(n, k, rng)), 12, 7)
        swept = len(calls)
        for _ in range(40):
            s, m = 6, int(rng.integers(2, 9))
            n_res = m + int(rng.integers(1, 6))
            jac = rng.standard_normal((s, n_res, m))
            jac[:, :, rng.integers(0, m)] = rng.choice([0.0, 1e-300])
            f = rng.standard_normal((s, n_res))
            u, sv, vt = core._svd(jac, full_matrices=False)
            v = np.ascontiguousarray(vt.swapaxes(1, 2))
            delta = rng.uniform(1e-3, 2.0, s)
            alpha = np.where(rng.random(s) < 0.5, 0.0, rng.uniform(0.0, 1.0, s))
            recording(np.vecmat(f, u), sv, v, delta, alpha, n_res)
        assert swept > 20
        iterations = set()
        for (uf, sv, v, delta, alpha), n_res, (step, new_alpha) in calls:
            for i in range(len(uf)):
                want, want_alpha, n_iter = solve_lsq_trust_region(
                    uf.shape[1], n_res, uf[i], sv[i], v[i], delta[i], initial_alpha=alpha[i]
                )
                assert step[i].tobytes() == want.tobytes()
                assert new_alpha[i].tobytes() == np.float64(want_alpha).tobytes()
                iterations.add(n_iter)
        # Gauss-Newton rows (0 iterations) and Newton iterations of several lengths
        assert 0 in iterations and len(iterations) > 3


def scipy_trf_reference(p, l, x0):
    """Reference solver: each start alone through
    ``scipy.optimize.least_squares`` (unbounded trf) with the lockstep
    solver's settings, read from the solver module, and its Jacobian."""
    shape = (p.n - p.k, p.k)

    def residual(x):
        return search.lagrange_residual(p, l, x.reshape(shape))

    def jacobian(x):
        return search._jacobian(p, l, x[None])[1][0]

    out = [
        scipy_least_squares(
            residual, x, jac=jacobian, xtol=search._XTOL, ftol=search._FTOL, gtol=search._GTOL,
            max_nfev=search._MAX_NFEV,
        )
        for x in x0
    ]
    return search.SolveResult(
        x=np.array([r.x for r in out]),
        fun=np.array([r.fun for r in out]),
        start_nfev=np.array([r.nfev for r in out]),
        nfev=sum(r.nfev for r in out),
        njev=sum(r.njev for r in out),
        status=np.array([r.status for r in out]),
    )


def solve_with_diagnostics(p, lf, n_starts, seed):
    """Found points and per-start diagnostics, also when none is kept."""
    try:
        return search.find_critical_points(p, lf, n_starts, seed, return_diagnostics=True)
    except NoConvergence as exc:
        return [], exc.diagnostics


class TestFindCriticalPoints:
    def test_circle_two_points_values_sum_to_right_angle(self):
        p = circle_two_point_slice(0.7)
        lf = framed(core.random_plane(2, 1, 5))
        points = search.find_critical_points(p, lf, n_starts=12, seed=123)
        assert len(points) == 2
        total = sum(v for _, v in points)
        assert abs(total - math.pi / 2) < 1e-9

    def test_duplicate_starts_deduplicate(self):
        p = circle_two_point_slice(0.3)
        lf = framed(core.random_plane(2, 1, 6))
        points = search.find_critical_points(p, lf, n_starts=24, seed=7)
        assert len(points) == 2

    def test_solver_soundness_on_g24(self):
        p = g24_hyperplane()
        lf = framed(core.random_plane(4, 2, 50))
        points, diags = search.find_critical_points(
            p, lf, n_starts=14, seed=77, return_diagnostics=True
        )
        assert points
        for pt, value in points:
            assert abs(core.grassmann_distance(lf.plane, pt) - value) < 1e-9
            assert search.hypersurface_normality_residual(p, lf.plane, pt) < 1e-6
        converged = [d for d in diags if d.status == "converged"]
        assert converged

    def test_monotone_discovery(self):
        p = circle_two_point_slice(1.0)
        lf = framed(core.random_plane(2, 1, 8))
        few = search.find_critical_points(p, lf, n_starts=4, seed=9)
        many = search.find_critical_points(p, lf, n_starts=16, seed=9)
        assert len(many) >= len(few)

    @pytest.mark.parametrize("theta", [0.6, 1.1])
    def test_repeated_angles(self, theta):
        p, lf, target = repeated_angle_hyperplane(theta)
        points = search.find_critical_points(p, lf, n_starts=12, seed=0)
        assert min(core.grassmann_distance(pt, target) for pt, _ in points) < 1e-9

    def test_g37_hyperplane(self):
        # k = 3 runs two levels of the column sweep; only about one
        # start in five converges on G(3,7) hyperplanes, here the fifth
        rng = np.random.default_rng(0)
        p = search.linear_form(7, 3, rng.standard_normal(35))
        lf = framed(core.random_plane(7, 3, rng))
        points = search.find_critical_points(p, lf, n_starts=6, seed=0)
        for pt, _ in points:
            assert search.hypersurface_normality_residual(p, lf.plane, pt) < search.CERT_TOL

    def test_diagnostics_name_each_outcome(self):
        p = g24_hyperplane()
        lf = framed(core.random_plane(4, 2, 50))
        _, diags = search.find_critical_points(
            p, lf, n_starts=14, seed=77, return_diagnostics=True
        )
        assert [d.start for d in diags] == list(range(14))
        for d in diags:
            assert d.status in (
                "converged", "no convergence", "on cut locus", "certificate failed"
            )
            assert 1 <= d.nfev <= 100
            if d.status == "converged":
                assert d.residual < search.SOLVER_TOL and d.certificate < search.CERT_TOL

    def test_stalled_starts_retire_early(self):
        # on a conic without real points every start ends on a plateau
        # of the residual norm, where the relative cost test stops it
        # before the evaluation budget; with that test near rounding
        # (ftol = 1e-15) five of these eight starts use all 100
        p = empty_conic()
        lf = framed(core.random_plane(3, 1, 0))
        with pytest.raises(NoConvergence) as exc:
            search.find_critical_points(p, lf, n_starts=8, seed=0)
        diags = exc.value.diagnostics
        assert len(diags) == 8
        for d in diags:
            assert d.status == "no convergence"
            assert d.stop in ("ftol", "xtol", "ftol and xtol")
            assert d.nfev < search._MAX_NFEV

    def test_status_names_each_stop(self, monkeypatch):
        # status holds scipy's codes, and the diagnostics name them
        p = g24_hyperplane()
        lf = framed(core.random_plane(4, 2, 50))
        results = []
        solver = search.least_squares

        def recording(*args):
            results.append(solver(*args))
            return results[-1]

        monkeypatch.setattr(search, "least_squares", recording)
        _, diags = search.find_critical_points(
            p, lf, n_starts=14, seed=77, return_diagnostics=True
        )
        res = results[0]
        assert res.status.shape == (14,)
        assert set(res.status.tolist()) <= set(range(len(search.STOP_REASONS)))
        assert [d.stop for d in diags] == [search.STOP_REASONS[s] for s in res.status]
        for d, nfev in zip(diags, res.start_nfev):
            if d.stop == "max_nfev":
                assert nfev == search._MAX_NFEV

    def test_solver_called_through_module_attribute(self, monkeypatch):
        # the traced benchmark wraps search.least_squares by name to time
        # each query and reads its scalar nfev and njev; a solver
        # imported under another name escapes it
        p = g24_hyperplane()
        lf = framed(core.random_plane(4, 2, 50))
        plain, diags = search.find_critical_points(
            p, lf, n_starts=6, seed=77, return_diagnostics=True
        )
        results = []
        solver = search.least_squares

        def recording(*args, **kwargs):
            results.append(solver(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(search, "least_squares", recording)
        traced = search.find_critical_points(p, lf, n_starts=6, seed=77)
        assert len(results) == 1
        res = results[0]
        assert res.x.shape == (6, 4) and res.fun.shape == (6, 9)
        assert type(res.nfev) is int and type(res.njev) is int
        assert res.nfev == sum(d.nfev for d in diags)
        assert 6 <= res.njev <= res.nfev
        assert len(traced) == len(plain)
        for (pt, value), (ref, ref_value) in zip(traced, plain):
            assert value == ref_value
            assert np.array_equal(pt.basis, ref.basis)

    def test_one_residual_call_per_round(self, monkeypatch):
        # each round evaluates the trial points of all running starts
        # with their Jacobian stencils in one call, and the first call
        # does the same for the starts; each round takes one SVD over
        # the Jacobians of all running starts, rejected steps included;
        # njev counts the Jacobians used
        p = g24_hyperplane()
        lf = framed(core.random_plane(4, 2, 50))
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-1.5, 1.5, (5, 4))
        calls = []
        residual = search.lagrange_residual

        def counting(p, l, a):
            calls.append(len(a))
            return residual(p, l, a)

        running = []
        steps = search._trust_region_steps

        def rounds(uf, *args):
            running.append(len(uf))
            return steps(uf, *args)

        svds = []
        svd = core._svd

        def recording(a, *args, **kwargs):
            svds.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(search, "lagrange_residual", counting)
        monkeypatch.setattr(search, "_trust_region_steps", rounds)
        monkeypatch.setattr(core, "_svd", recording)
        res = search.least_squares(p, lf, x0)
        assert len(calls) == len(running) + 1
        assert calls == [5 * 5] + [5 * s for s in running]
        assert svds == running
        assert res.nfev == 5 + sum(running)
        # the starts take rejected steps, which the SVDs must cover
        assert 5 <= res.njev < res.nfev

    def test_stacked_certificates_match_single_point(self, rng, monkeypatch):
        # the stacked certificate of each start that reaches the
        # certificate equals the single-point one at its point, and a
        # stack of random planes gives the single-point values exactly
        results = []
        solver = search.least_squares

        def recording(*args):
            results.append(solver(*args))
            return results[-1]

        monkeypatch.setattr(search, "least_squares", recording)
        certified = 0
        for n, k, degree in ((4, 2, 1), (5, 2, 2), (6, 3, 1)):
            p = random_polynomial(rng, n, k, degree, 2 * math.comb(n, k))
            lf = framed(core.random_plane(n, k, rng))
            _, diags = solve_with_diagnostics(p, lf, 8, seed=n)
            res = results[-1]
            for d in diags:
                if d.status in ("converged", "certificate failed"):
                    point = core.exp(lf, core.tangent(lf, res.x[d.start].reshape(n - k, k)))
                    single = search.hypersurface_normality_residual(p, lf.plane, point)
                    assert d.certificate == single
                    certified += 1
                else:
                    assert d.certificate == math.inf
            y = np.linalg.qr(rng.standard_normal((3, n, k)))[0]
            stacked = search._normality_certificates(p, lf.plane, y)
            for basis, value in zip(y, stacked):
                plane = core.Plane(n=n, k=k, basis=basis)
                assert value == search.hypersurface_normality_residual(p, lf.plane, plane)
        assert certified

    def test_matches_scipy_trf_reference(self, monkeypatch):
        # the lockstep solver against scipy's unbounded trf run start by
        # start with the same settings, on random hypersurfaces of degree
        # 1 and 2 from G(1,3) to G(3,7)
        rng = np.random.default_rng(5)
        cases = ((3, 1, 2), (4, 2, 1), (4, 2, 2), (5, 2, 1), (5, 2, 2), (6, 3, 1), (7, 3, 1))
        for n, k, degree in cases:
            p = random_polynomial(rng, n, k, degree, 2 * math.comb(n, k))
            lf = framed(core.random_plane(n, k, rng))
            runs = [solve_with_diagnostics(p, lf, 6, seed=n + 10 * degree)]
            with monkeypatch.context() as patch:
                patch.setattr(search, "least_squares", scipy_trf_reference)
                runs.append(solve_with_diagnostics(p, lf, 6, seed=n + 10 * degree))
            (points, diags), (ref_points, ref_diags) = runs
            assert [d.status for d in diags] == [d.status for d in ref_diags]
            for d, ref in zip(diags, ref_diags):
                if d.status == "converged":
                    assert abs(d.residual - ref.residual) <= 1e-10
            assert len(points) == len(ref_points)
            for (pt, value), (ref, ref_value) in zip(points, ref_points):
                assert abs(value - ref_value) <= 1e-10
                assert core.grassmann_distance(pt, ref) <= 1e-10

    def test_lockstep_matches_each_start_alone(self, monkeypatch):
        # every start of a lockstep solve ends exactly where it ends when
        # solved alone.  The solver keeps state for the running starts
        # only, so a stopped start's row is dropped mid-run; under a
        # small evaluation budget the starts that stopped on another
        # rule are dropped before the rest stop on the budget
        mixed_stops = 0
        for budget in (search._MAX_NFEV, 10):
            monkeypatch.setattr(search, "_MAX_NFEV", budget)
            rng = np.random.default_rng(11)
            for n, k in ((3, 1), (4, 2), (5, 2), (6, 3), (7, 3)):
                for degree in (1, 2):
                    p = random_polynomial(rng, n, k, degree, 2 * math.comb(n, k))
                    lf = framed(core.random_plane(n, k, rng))
                    x0 = rng.uniform(-1.4, 1.4, (8, k * (n - k)))
                    res = search.least_squares(p, lf, x0)
                    for i, x in enumerate(x0):
                        alone = search.least_squares(p, lf, x[None])
                        assert np.array_equal(alone.x[0], res.x[i])
                        assert np.array_equal(alone.fun[0], res.fun[i])
                        assert alone.status[0] == res.status[i]
                        assert alone.start_nfev[0] == res.start_nfev[i]
                    assert np.all(res.start_nfev <= budget)
                    mixed_stops += 0 < np.count_nonzero(res.status == 0) < len(x0)
        assert mixed_stops

    def test_wrapped_solution_is_judged_at_its_plane(self, monkeypatch):
        # a start near a wrapped copy of a known critical line, whose
        # tangent is past pi/2 (exp(-(pi - theta) u) is the line of
        # exp(theta u)), solves there and is kept at its plane, with the
        # distance of that plane as its value
        p = real_conic()
        lf = framed(core.random_plane(3, 1, 0))
        known, _ = search.find_critical_points(p, lf, n_starts=8, seed=0)[0]
        a = core.log(lf, known).a.ravel()
        theta = float(np.linalg.norm(a))
        wrapped = a * (1.001 * (theta - math.pi) / theta)
        results = []
        solver = search.least_squares

        def from_wrapped(p, l, x0):
            results.append(solver(p, l, wrapped[None]))
            return results[-1]

        monkeypatch.setattr(search, "least_squares", from_wrapped)
        [(point, value)], [diag] = search.find_critical_points(
            p, lf, n_starts=1, seed=0, return_diagnostics=True
        )
        assert diag.status == "converged"
        assert np.linalg.norm(results[0].x) > math.pi / 2
        assert core.grassmann_distance(point, known) < 1e-9
        assert value == core.grassmann_distance(lf.plane, point)
        # a copy wrapped by about 100 pi, past the range where the kernel
        # alone stays accurate, is judged at exp's plane, bit for bit
        wrapped = a * (1.00001 * (theta + 100 * math.pi) / theta)
        [(point, value)], [diag] = search.find_critical_points(
            p, lf, n_starts=1, seed=0, return_diagnostics=True
        )
        assert diag.status == "converged"
        assert np.linalg.norm(results[1].x) > 100 * math.pi
        expected = core.exp(lf, core.tangent(lf, results[1].x.reshape(2, 1)))
        assert np.array_equal(point.basis, expected.basis)
        assert core.grassmann_distance(point, known) < 1e-9
        assert value == core.grassmann_distance(lf.plane, point)

    def test_stacked_dedup_matches_per_pair_loop(self, monkeypatch):
        # solved starts on one geodesic from the base plane (its distance
        # is exact along it), spaced about DEDUP_DISTANCE apart, plus one
        # off it; the starts are out of value order.  The stacked
        # deduplication keeps the points and order of the per-pair loop
        n, k = 4, 2
        rng = np.random.default_rng(5)
        lf = framed(core.random_plane(n, k, rng))
        p = search.linear_form(n, k, rng.standard_normal(6))
        unit = rng.standard_normal((n - k, k))
        unit /= np.linalg.norm(unit)
        side = rng.standard_normal((n - k, k))
        offsets = [2e-6, 0.0, 2.5e-6, 0.5e-6, 4e-6, 3.5e-6]
        x = np.array([(0.6 + t) * unit for t in offsets] + [0.6 * unit + 1.5e-6 * side])
        x = x.reshape(len(x), -1)

        def solved(p, l, x0):
            s = len(x)
            return search.SolveResult(
                x=x.copy(), fun=np.zeros((s, 1 + n * k)), start_nfev=np.ones(s, dtype=int),
                nfev=s, njev=s, status=np.ones(s, dtype=int),
            )

        monkeypatch.setattr(search, "least_squares", solved)
        monkeypatch.setattr(search, "_normality_certificates", lambda p, l, y: np.zeros(len(y)))
        got = search.find_critical_points(p, lf, n_starts=len(x), seed=0)
        planes = [core.exp(lf, core.tangent(lf, row.reshape(n - k, k))) for row in x]
        expected = []
        for point, value in sorted(
            [(e, core.grassmann_distance(lf.plane, e)) for e in planes], key=lambda t: t[1]
        ):
            if all(core.grassmann_distance(point, q) > search.DEDUP_DISTANCE for q, _ in expected):
                expected.append((point, value))
        # the spacing: 0.5e-6 and 2e-6 apart along the geodesic
        assert 0.4e-6 < core.grassmann_distance(planes[3], planes[1]) < 0.6e-6
        assert 1.9e-6 < core.grassmann_distance(planes[0], planes[1]) < 2.1e-6
        assert 1 < len(expected) < len(x)
        assert len(got) == len(expected)
        for (point, value), (want, want_value) in zip(got, expected):
            assert np.array_equal(point.basis, want.basis)
            assert value == want_value

    def test_schubert_divisors_against_selection_oracle(self):
        # det[E W] = 0 on G(k, 2k) is the Schubert variety of planes
        # meeting W (s = 1), whose k off-cut critical points the
        # singular-triplet selection gives independently of the solver.
        # No found point may lie outside that set, and the points found
        # per shape stay at or above the bounded solver's, which found
        # 12/12, 16/18 and 21/24 here (the unbounded one 12, 17 and 22)
        found_per_shape = []
        for n, k in ((4, 2), (6, 3), (8, 4)):
            matched = 0
            for case in range(6):
                rng = np.random.default_rng(10 * k + case)
                w, l = core.random_plane(n, k, rng), core.random_plane(n, k, rng)
                omega = schubert.SchubertVariety(framed(w), 1)
                oracle = [r.point for r in schubert.ey_schubert_critical_points(omega, l)]
                points, _ = solve_with_diagnostics(schubert_divisor(w), framed(l), 20, seed=case)
                for pt, _ in points:
                    assert min(core.grassmann_distance(pt, q) for q in oracle) < 1e-6
                matched += sum(
                    any(core.grassmann_distance(q, pt) < 1e-6 for pt, _ in points)
                    for q in oracle
                )
            found_per_shape.append(matched)
        assert all(got >= floor for got, floor in zip(found_per_shape, (12, 16, 21)))

    def test_stacked_start_draws_match_per_start_loop(self, monkeypatch):
        # the starts are drawn in the order of a per-start loop and
        # orthonormalized in two stacked QR calls; every start equals the
        # loop's bit for bit
        class Captured(Exception):
            pass

        def capture(p, l, x0):
            raise Captured(np.array(x0))

        monkeypatch.setattr(search, "least_squares", capture)
        rng = np.random.default_rng(17)
        for n, k in ((3, 1), (4, 2), (5, 2), (7, 3), (8, 4), (12, 5)):
            for n_starts in (1, 3, 7):
                p = search.linear_form(n, k, rng.standard_normal(math.comb(n, k)))
                lf = framed(core.random_plane(n, k, rng))
                seed = int(rng.integers(1 << 30))
                with pytest.raises(Captured) as info:
                    search.find_critical_points(p, lf, n_starts, seed)
                draws = np.random.default_rng(seed)
                loop = np.empty((n_starts, (n - k) * k))
                for start in range(n_starts):
                    u0 = core._signed_qr(draws.standard_normal((n - k, k)))
                    v0 = core._signed_qr(draws.standard_normal((k, k)))
                    mu0 = draws.uniform(0.1, math.pi / 2 - 0.1, k)
                    loop[start] = ((u0 * mu0) @ v0.T).ravel()
                assert np.array_equal(info.value.args[0], loop)

    @pytest.mark.parametrize("n_starts", [0, -2])
    def test_nonpositive_starts_rejected(self, n_starts):
        p = g24_hyperplane()
        with pytest.raises(DimensionError):
            search.find_critical_points(p, framed(core.random_plane(4, 2, 3)), n_starts, seed=0)

    def test_base_on_hypersurface_rejected(self):
        p = circle_two_point_slice(0.7)
        zero = core.make_plane([[-math.sin(0.7)], [math.cos(0.7)]])
        with pytest.raises(NonGenericL):
            search.find_critical_points(p, framed(zero), n_starts=2, seed=0)


class TestGdcEstimate:
    def test_single_trial_matches_direct_count(self):
        p = circle_two_point_slice(0.9)
        report = search.gdc_estimate(p, trials=1, n_starts=10, seed=42)
        child = np.random.SeedSequence(42).spawn(1)[0]
        rng = np.random.default_rng(child)
        lf = framed(core.random_plane(2, 1, rng))
        direct = search.find_critical_points(p, lf, n_starts=10, seed=rng)
        assert report.counts[0] == len(direct)
        assert report.max_count == report.counts[0]

    def test_deterministic_reports(self):
        p = circle_two_point_slice(1.1)
        r1 = search.gdc_estimate(p, trials=3, n_starts=8, seed=5)
        r2 = search.gdc_estimate(p, trials=3, n_starts=8, seed=5)
        assert r1 == r2

    @pytest.mark.parametrize(
        "n, k, weight_seed, trials, seed, counts, statuses",
        [
            (4, 2, 2, 4, 1, (2, 2, 1, 1), ("ok",) * 4),
            (6, 3, 3, 3, 0, (0, 1, 2), ("no_convergence", "ok", "ok")),
        ],
    )
    def test_pinned_hyperplane_counts(self, n, k, weight_seed, trials, seed, counts, statuses):
        # counts and statuses on fixed seeds, six starts a trial; G(3,6)
        # runs two levels of the column sweep and of its reverse
        w = np.random.default_rng(weight_seed).standard_normal(math.comb(n, k))
        report = search.gdc_estimate(search.linear_form(n, k, w), trials, n_starts=6, seed=seed)
        assert report.counts == counts
        assert report.statuses == statuses

    @pytest.mark.parametrize(
        "n, k, weights",
        [(3, 1, [1.0, -1.0, 0.0]), (4, 2, np.random.default_rng(21).standard_normal(6))],
    )
    def test_counts_independent_of_scale(self, n, k, weights):
        # a hypersurface and its scalar multiples are one set: the line
        # x - y = 0 on G(1,3) and a G(2,4) hyperplane give the same
        # counts at every scale, and at a power of two, exact in floating
        # point, the same points bit for bit
        def solve(scale):
            p = search.linear_form(n, k, np.multiply(scale, weights))
            report = search.gdc_estimate(p, trials=2, n_starts=4, seed=0)
            points = search.find_critical_points(p, framed(core.random_plane(n, k, 6)), 4, seed=0)
            return report, [(plane.basis.tobytes(), value) for plane, value in points]

        report, points = solve(1.0)
        assert report.statuses == ("ok", "ok") and points
        for scale in (2.0**600, 2.0**-600, 1e200, 1e-200):
            scaled_report, scaled_points = solve(scale)
            assert (scaled_report.counts, scaled_report.statuses) == (report.counts, report.statuses)
            assert len(scaled_points) == len(points)
            if math.frexp(scale)[0] == 0.5:
                assert scaled_points == points

    def test_counts_below_bound(self):
        p = circle_two_point_slice(0.8)
        report = search.gdc_estimate(p, trials=2, n_starts=8, seed=11)
        bound = bounds.pfaffian_bound(1, 2, p.degree)
        assert report.max_count <= bound.bound


class TestPfaffianBound:
    def test_exponent_examples(self):
        assert bounds.pfaffian_bound(2, 4, 1).c2 == 18
        assert bounds.pfaffian_bound(3, 8, 1).c2 == 39

    def test_leading_constant_printed_product(self):
        rep = bounds.pfaffian_bound(2, 4, 1)
        expected = 2 * 2 * 2**28 * (math.comb(8, 7) + 9) ** 10 * 40**18
        assert rep.c1_int == expected

    def test_monotone_in_degree_and_scale(self):
        b1 = bounds.pfaffian_bound(2, 4, 2)
        b2 = bounds.pfaffian_bound(2, 4, 3)
        assert b2.log10_bound > b1.log10_bound
        b3 = bounds.pfaffian_bound(2, 4, 2, c_param=2.0)
        assert b3.log10_bound > b1.log10_bound

    def test_huge_values_reported_via_log(self):
        rep = bounds.pfaffian_bound(3, 8, 10)
        assert math.isinf(rep.bound)
        assert rep.log10_bound > 300
        assert rep.c1_int > 0

    def test_tiny_scale_on_huge_constant(self):
        # the integer alone does not fit a float; the scaled value does
        rep = bounds.pfaffian_bound(3, 8, 1, c_param=1e-250)
        assert math.isfinite(rep.c1) and rep.c1 > 0
        assert abs(rep.log10_c1 - math.log10(rep.c1)) < 1e-9

    def test_domain_gates(self):
        with pytest.raises(DimensionError):
            bounds.pfaffian_bound(3, 4, 1)
        with pytest.raises(DimensionError):
            bounds.pfaffian_bound(2, 4, 0)
        with pytest.raises(DomainError):
            bounds.pfaffian_bound(2, 4, 1, c_param=0.0)


class TestSphereProductModel:
    def test_distance_identical_pairs(self):
        x = np.array([1.0, 0.0, 0.0])
        assert bounds.g24_distance(x, x, x, x) == 0.0

    def test_distance_orthogonal_second_factor(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        w = np.array([0.0, 0.0, 1.0])
        assert abs(bounds.g24_distance(x, y, x, w) - math.pi / 2) < 1e-15

    def test_distance_antipodal(self):
        x = np.array([0.0, 1.0, 0.0])
        y = np.array([0.0, 0.0, 1.0])
        assert abs(bounds.g24_distance(x, y, -x, -y) - math.pi * math.sqrt(2)) < 1e-14

    def test_distance_rejects_non_unit(self):
        x = np.array([1.0, 0.0, 0.0])
        with pytest.raises(NotUnit):
            bounds.g24_distance(2 * x, x, x, x)

    def test_residual_at_zero(self):
        assert abs(bounds.g24_critical_residual(0.0, 1.0) - math.pi) < 1e-15

    def test_residual_limit_toward_one(self):
        # alpha tends to 1 as its argument tends to 1, so the residual
        # tends to 2 at beta = 1
        assert abs(bounds.g24_critical_residual(1.0 - 1e-6, 1.0) - 2.0) < 1e-3

    def test_residual_domain(self):
        with pytest.raises(DomainError):
            bounds.g24_critical_residual(0.9, 2.0)

    def test_det_identity_spot(self):
        lhs, rhs = bounds.g24_det_identity_check(
            np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), 2.0
        )
        expected = (1.5 * math.pi) ** 2
        assert abs(lhs - expected) < 1e-12
        assert abs(rhs - expected) < 1e-12

    def test_det_identity_random(self, rng):
        for _ in range(100):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(3)
            y /= np.linalg.norm(y)
            beta = rng.uniform(0.2, 3.0)
            lhs, rhs = bounds.g24_det_identity_check(x, y, beta)
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
            assert rel < 1e-10

    def test_det_identity_vanishing_limit(self):
        # x approaching the first axis kills the first factor
        t = 1e-5
        x = np.array([math.sqrt(1 - t * t), t, 0.0])
        y = np.array([0.0, 0.6, 0.8])
        lhs, rhs = bounds.g24_det_identity_check(x, y, 1.3)
        assert abs(lhs) < 1e-6 and abs(rhs) < 1e-6

    def test_scan_reports_positivity(self):
        scan = bounds.g24_residual_scan([0.5, 1.0, 2.0], n_grid=501)
        assert len(scan["betas"]) == 3
        for entry in scan["betas"]:
            assert entry["all_positive"]
            assert entry["sign_changes"] == 0
            assert entry["min_residual"] > 0.0
