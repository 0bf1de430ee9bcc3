import math
import warnings

import numpy as np
import pytest

from grasscrit import core
from grasscrit.errors import (
    DimensionError,
    DomainError,
    FrameMismatch,
    OnCutLocus,
    RankDeficient,
    StepTooSmall,
)

from conftest import (
    e_basis,
    framed,
    plane_from_columns,
    random_orthogonal,
    random_pair,
    zero_tangent,
)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

class TestNormHelper:
    """core._norm is np.linalg.norm's arithmetic, bit for bit."""

    @pytest.mark.parametrize(
        "shape, axis, keepdims",
        [
            ((7,), None, False),
            ((0,), None, False),
            ((4, 3), None, False),
            ((4, 3), (-2, -1), False),
            ((4, 3), (-2, -1), True),
            ((4, 3), -1, False),
            ((4, 3), -2, True),
            ((2, 5, 4, 3), (-2, -1), False),
            ((2, 5, 4, 3), (-2, -1), True),
            ((2, 5, 4, 3), -1, False),
            ((2, 5, 4, 3), -2, True),
            ((3, 0, 2), (-2, -1), False),
        ],
    )
    def test_matches_numpy_bit_for_bit(self, rng, shape, axis, keepdims):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
        for v in (x, np.zeros(shape), x[..., ::-1], x.swapaxes(0, -1)):
            expected = np.linalg.norm(v, axis=axis, keepdims=keepdims)
            got = core._norm(v, axis=axis, keepdims=keepdims)
            assert np.shape(got) == np.shape(expected)
            assert np.array_equal(got, expected)

    def test_eye_is_read_only_identity(self):
        eye = core._eye(4)
        assert np.array_equal(eye, np.eye(4)) and core._eye(4) is eye
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0


def _same_bits(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()
    )


def _numpy_qr(a, mode="reduced"):
    """Q and the diagonal of R from np.linalg.qr."""
    q, r = np.linalg.qr(a, mode=mode)
    return q, r.diagonal(0, -2, -1)


def _outcome(fn, a):
    """The arrays ``fn(a)`` returns, or the type and message it raises."""
    try:
        out = fn(a)
    except np.linalg.LinAlgError as exc:
        return type(exc), str(exc)
    return tuple(out) if isinstance(out, tuple) else (out,)


def _same_outcome(got, expected) -> bool:
    if isinstance(expected[0], type):
        return got == expected
    return len(got) == len(expected) and all(map(_same_bits, got, expected))


class TestLapackHelpers:
    """core._svd, _svdvals, _eigh and _qr give np.linalg's results bit for
    bit and raise its errors, without a warning and without writing to
    their input."""

    # single matrices and stacks, square, tall (m > n) and wide (m < n)
    SHAPES = [(3, 3), (5, 3), (3, 5), (1, 4), (4, 1), (2, 4, 4), (3, 6, 2), (2, 3, 2, 5)]

    def _inputs(self, rng, shape):
        x = rng.standard_normal(shape)
        # a C-contiguous stack and a strided view of another
        return [x, rng.standard_normal(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("full_matrices", [True, False])
    def test_svd(self, rng, shape, full_matrices):
        for a in self._inputs(rng, shape):
            saved = a.copy()
            got = core._svd(a, full_matrices=full_matrices)
            expected = np.linalg.svd(a, full_matrices=full_matrices)
            assert _same_outcome(got, tuple(expected))
            assert _same_bits(core._svdvals(a), np.linalg.svd(a, compute_uv=False))
            assert _same_bits(a, saved)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 4, 4), (3, 2, 5, 5)])
    def test_eigh(self, rng, shape):
        x = rng.standard_normal(shape)
        # symmetric, and not: both read the lower triangle alone
        for a in (x + x.swapaxes(-1, -2), x, x.swapaxes(-1, -2)):
            saved = a.copy()
            assert _same_outcome(tuple(core._eigh(a)), tuple(np.linalg.eigh(a)))
            assert _same_bits(a, saved)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("complete", [True, False])
    def test_qr(self, rng, shape, complete):
        for a in self._inputs(rng, shape):
            saved = a.copy()
            got = core._qr(a, complete=complete)
            expected = _numpy_qr(a, "complete" if complete else "reduced")
            assert _same_outcome(got, expected)
            assert _same_bits(a, saved)

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (3, 5), (2, 4, 4)])
    @pytest.mark.parametrize("where", [(0, 1), (-1, 0)])
    def test_nan_input_fails_as_numpy_does(self, shape, where):
        a = np.ones(shape)
        a[(..., *where)] = np.nan
        cases = [
            (core._svdvals, lambda x: np.linalg.svd(x, compute_uv=False)),
            (core._svd, np.linalg.svd),
            (lambda x: core._svd(x, full_matrices=False),
             lambda x: np.linalg.svd(x, full_matrices=False)),
            (core._qr, _numpy_qr),
            (lambda x: core._qr(x, complete=True), lambda x: _numpy_qr(x, "complete")),
        ]
        if shape[-1] == shape[-2]:
            cases.append((core._eigh, np.linalg.eigh))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for helper, wrapper in cases:
                saved = a.copy()
                got, expected = _outcome(helper, a), _outcome(wrapper, a)
                assert _same_outcome(got, expected)
                assert _same_bits(a, saved)
            # an SVD of a NaN raises numpy's own error
            for helper in (core._svdvals, core._svd):
                with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
                    helper(a)

    HELPERS = [
        (core._svdvals, lambda x: np.linalg.svd(x, compute_uv=False)),
        (core._svd, np.linalg.svd),
        (core._eigh, np.linalg.eigh),
        (core._qr, _numpy_qr),
    ]

    @pytest.mark.parametrize("helper, wrapper", HELPERS)
    def test_caller_error_state_restored(self, monkeypatch, helper, wrapper):
        # after a return, a LinAlgError and an exception from the gufunc
        # itself, the caller's error state and callback are in force again
        def callback(kind, flag):
            raise AssertionError("the caller's callback ran")

        good = np.array([[2.0, 1.0], [1.0, 3.0]])
        nan = np.array([[2.0, np.nan], [1.0, 3.0]])

        class Failing:
            def __getattr__(self, name):
                def gufunc(*args, **kwargs):
                    raise RuntimeError(name)
                return gufunc

        caller = dict(divide="raise", over="warn", under="print", invalid="ignore")
        with np.errstate(call=callback, **caller):
            state, call = np.geterr(), np.geterrcall()
            helper(good)
            assert np.geterr() == state and np.geterrcall() is call
            assert _same_outcome(_outcome(helper, nan), _outcome(wrapper, nan))
            assert np.geterr() == state and np.geterrcall() is call
            with monkeypatch.context() as patch:
                patch.setattr(core, "_umath_linalg", Failing())
                with pytest.raises(RuntimeError):
                    helper(good)
            assert np.geterr() == state and np.geterrcall() is call

    @pytest.mark.parametrize("helper, wrapper", HELPERS)
    def test_inside_raise_state_as_numpy_does(self, rng, helper, wrapper):
        # the helpers set numpy.linalg's error state over the caller's
        # all="raise": a NaN still gives numpy's LinAlgError (or its
        # result), and tiny or huge entries no FloatingPointError
        nan = np.ones((3, 3))
        nan[0, 1] = np.nan
        x = rng.standard_normal((3, 3))
        with np.errstate(all="raise"):
            for a in (x, nan, nan.T, 1e-300 * x, 1e300 * x, np.full((3, 3), np.inf)):
                assert _same_outcome(_outcome(helper, a), _outcome(wrapper, a))

    def test_numpy_private_names(self):
        # core calls numpy.linalg's gufuncs and raises its errors by
        # their private names, and sets its error state through the
        # context variable np.errstate sets; a numpy that renames or
        # drops one fails here by name
        from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
        from numpy.linalg import _linalg, _umath_linalg

        for name in ("svd", "svd_f", "svd_s", "eigh_lo", "qr_r_raw", "qr_reduced", "qr_complete"):
            assert isinstance(getattr(_umath_linalg, name), np.ufunc)
        # core's error states are _make_extobj's, set through the variable
        assert core._make_extobj is _make_extobj and core._extobj_contextvar is _extobj_contextvar
        outside = _extobj_contextvar.get()
        with np.errstate(all="raise"):
            assert _extobj_contextvar.get() is not outside
        assert _extobj_contextvar.get() is outside
        for state, call in (
            (core._SVD_STATE, _linalg._raise_linalgerror_svd_nonconvergence),
            (core._EIGH_STATE, _linalg._raise_linalgerror_eigenvalues_nonconvergence),
            (core._QR_STATE, _linalg._raise_linalgerror_qr),
        ):
            token = _extobj_contextvar.set(state)
            try:
                assert np.geterr() == {
                    "divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "call"
                }
                assert np.geterrcall() is call
            finally:
                _extobj_contextvar.reset(token)

    def test_numpy_vector_gufuncs(self):
        # the solver's row products call np.vecdot (numpy 2.0) and
        # np.matvec and np.vecmat (numpy 2.2); an older numpy fails here
        # by name
        for name in ("vecdot", "matvec", "vecmat"):
            assert isinstance(getattr(np, name, None), np.ufunc), (
                f"np.{name} is missing: grasscrit needs numpy >= 2.2 (see pyproject.toml)"
            )


# ---------------------------------------------------------------------------
# make_plane / complete_frame
# ---------------------------------------------------------------------------

class TestMakePlane:
    def test_column_scaling_is_removed(self):
        p = core.make_plane([[2, 0], [0, 3], [0, 0], [0, 0]])
        assert np.allclose(p.basis, np.eye(4)[:, :2], atol=1e-15)

    def test_single_column(self):
        p = core.make_plane(np.eye(4)[:, :1])
        assert np.allclose(p.basis[:, 0], e_basis(4, 0))

    def test_span_preserved(self):
        raw = np.array([[1, 1], [1, -1], [0, 0], [0, 0]]) / math.sqrt(2)
        p = core.make_plane(raw)
        proj_raw = raw @ np.linalg.inv(raw.T @ raw) @ raw.T
        assert np.allclose(p.projector, proj_raw, atol=1e-12)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            core.make_plane([[1, 1], [1, 1], [0, 0], [0, 0]])

    def test_dimension_gate(self):
        with pytest.raises(DimensionError):
            core.make_plane(np.eye(4)[:, :3])

    def test_deterministic(self, rng):
        raw = rng.standard_normal((6, 3))
        assert np.array_equal(core.make_plane(raw).basis, core.make_plane(raw).basis)


class TestCompleteFrame:
    def test_coordinate_plane_gives_identity(self):
        f = framed(core.make_plane(np.eye(4)[:, :2]))
        assert np.array_equal(f.frame, np.eye(4))

    def test_third_axis_line(self):
        f = framed(core.make_plane(np.eye(3)[:, 2:3]))
        assert np.allclose(f.frame.T @ f.frame, np.eye(3), atol=1e-14)
        assert np.allclose(f.frame[:, 0], e_basis(3, 2))

    def test_determinant_is_unit(self, rng):
        for seed in range(5):
            f = framed(core.random_plane(6, 2, seed))
            assert abs(abs(np.linalg.det(f.frame)) - 1.0) < 1e-12

    def test_repeated_calls_identical(self):
        p = core.random_plane(7, 3, 99)
        assert np.array_equal(framed(p).frame, framed(p).frame)

    @pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (7, 3), (9, 4), (12, 5)])
    def test_stacked_kernel_equals_per_plane_bit_for_bit(self, n, k):
        # a coordinate plane in the stack ties residual norms, which
        # the stable order breaks by index in every slot alike
        planes = [core.make_plane(np.eye(n)[:, :k])] + [
            core.random_plane(n, k, 10 * n + i) for i in range(5)
        ]
        bases = np.array([p.basis for p in planes])
        comps = core._frame_complements(bases)
        assert comps.shape == (6, n, n - k)
        for p, c in zip(planes, comps):
            assert np.array_equal(np.hstack([p.basis, c]), framed(p).frame)
        grid = core._frame_complements(bases.reshape(2, 3, n, k))
        assert np.array_equal(grid.reshape(comps.shape), comps)


# ---------------------------------------------------------------------------
# principal angles
# ---------------------------------------------------------------------------

class TestPrincipalAngles:
    def test_shared_and_orthogonal_direction(self):
        e1 = plane_from_columns(e_basis(4, 0), e_basis(4, 1))
        e2 = plane_from_columns(e_basis(4, 0), e_basis(4, 2))
        assert np.allclose(core.principal_angles(e1, e2), [0.0, math.pi / 2], atol=1e-12)

    @pytest.mark.parametrize("t", [0.1, 0.7, 1.3])
    def test_rotated_line(self, t):
        e1 = core.make_plane([[1.0], [0.0]])
        e2 = core.make_plane([[math.cos(t)], [math.sin(t)]])
        assert abs(core.principal_angles(e1, e2)[0] - t) < 1e-12

    def test_angles_of_exponential_match_singular_values(self):
        # velocities diag(0.3, 0.7) at the framed coordinate plane in G(2,5)
        e = framed(core.make_plane(np.eye(5)[:, :2]))
        a = np.zeros((3, 2))
        a[0, 0], a[1, 1] = 0.3, 0.7
        img = core.exp(e, core.tangent(e, a))
        assert np.allclose(core.principal_angles(e.plane, img), [0.3, 0.7], atol=1e-12)

    def test_decomposition_invariants(self):
        # the principal vectors of the connecting factors: B P in e1 and
        # B P cos(theta) + C N sin(theta) in e2
        e1, e2 = random_pair(6, 3, 7)
        f = framed(e1)
        ncols, theta, p = core.connecting_factors(f, e2)
        assert np.all(np.diff(theta) >= -1e-15)
        assert np.all(theta >= 0) and np.all(theta <= math.pi / 2 + 1e-15)
        p_vectors = e1.basis @ p
        q_vectors = p_vectors * np.cos(theta) + f.complement @ ncols * np.sin(theta)
        assert np.allclose(q_vectors.T @ q_vectors, np.eye(3), atol=1e-12)
        assert np.allclose(q_vectors @ q_vectors.T, e2.projector, atol=1e-12)
        gram = p_vectors.T @ q_vectors
        assert np.allclose(gram, np.diag(np.cos(theta)), atol=1e-10)
        # principal 2-planes are pairwise orthogonal
        for i in range(3):
            for j in range(i + 1, 3):
                pi = np.column_stack([p_vectors[:, i], q_vectors[:, i]])
                pj = np.column_stack([p_vectors[:, j], q_vectors[:, j]])
                assert float(np.max(np.abs(pi.T @ pj))) < 1e-10

    def test_rotation_invariance(self):
        e1, e2 = random_pair(6, 2, 3)
        for seed in range(5):
            r = random_orthogonal(6, seed)
            r1 = core.Plane(n=6, k=2, basis=r @ e1.basis)
            r2 = core.Plane(n=6, k=2, basis=r @ e2.basis)
            assert np.allclose(
                core.principal_angles(r1, r2), core.principal_angles(e1, e2), atol=1e-10
            )

    def test_stacked_angles_equal_per_pair(self):
        # a stack against one plane and a stack against a stack, both
        # bit for bit equal to the scalar principal_angles
        for n, k in ((4, 2), (8, 3), (12, 5)):
            firsts = [core.random_plane(n, k, 100 + s) for s in range(6)]
            seconds = [core.random_plane(n, k, 200 + s) for s in range(6)]
            stacked = core._hybrid_angles(
                np.array([e.basis for e in firsts]), np.array([e.basis for e in seconds])
            )
            against_one = core._hybrid_angles(firsts[0].basis, np.array([e.basis for e in seconds]))
            for i, e in enumerate(seconds):
                assert np.array_equal(stacked[i], core.principal_angles(firsts[i], e))
                assert np.array_equal(against_one[i], core.principal_angles(firsts[0], e))


def principal_angles_rect(e, f):
    """The angle kernel between a plane and one of smaller dimension:
    ``f.k`` nondecreasing entries, which interlace with the angles of
    ``e`` and any plane containing ``f``."""
    return core._hybrid_angles(e.basis, f.basis)


class TestRectangularAngles:
    def test_subspace_gives_zero(self):
        e = core.random_plane(6, 3, 0)
        f = core.Plane(n=6, k=1, basis=e.basis[:, 1:2])
        assert np.allclose(principal_angles_rect(e, f), [0.0], atol=1e-12)

    def test_orthogonal_line(self):
        e = plane_from_columns(e_basis(4, 0), e_basis(4, 1))
        f = core.make_plane(np.eye(4)[:, 2:3])
        assert np.allclose(principal_angles_rect(e, f), [math.pi / 2], atol=1e-12)

    def test_interlacing(self):
        k = 3
        for seed in range(20):
            ss = np.random.SeedSequence(seed).spawn(3)
            e = core.random_plane(7, k, ss[0])
            f = core.random_plane(7, k, ss[1])
            coeff = np.random.default_rng(ss[2]).standard_normal((k, 1))
            line = core.make_plane(f.basis @ coeff)
            theta_full = core.principal_angles(e, f)
            theta_line = principal_angles_rect(e, line)[0]
            assert theta_full[0] - 1e-12 <= theta_line <= theta_full[-1] + 1e-12

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            core.principal_angles(core.random_plane(6, 2, 0), core.random_plane(5, 2, 0))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

class TestDistance:
    def test_self_distance(self):
        e = core.random_plane(5, 2, 11)
        assert core.grassmann_distance(e, e) < 1e-13

    def test_circle(self):
        t = 0.9
        e1 = core.make_plane([[1.0], [0.0]])
        e2 = core.make_plane([[math.cos(t)], [math.sin(t)]])
        assert abs(core.grassmann_distance(e1, e2) - t) < 1e-12

    def test_orthogonal_planes(self):
        e1 = plane_from_columns(e_basis(4, 0), e_basis(4, 1))
        e2 = plane_from_columns(e_basis(4, 2), e_basis(4, 3))
        assert abs(core.grassmann_distance(e1, e2) - math.pi / 2 * math.sqrt(2)) < 1e-12

    def test_metric_axioms_sample(self):
        for seed in range(50):
            ss = np.random.SeedSequence(seed).spawn(3)
            a, b, c = (core.random_plane(5, 2, s) for s in ss)
            dab = core.grassmann_distance(a, b)
            assert abs(dab - core.grassmann_distance(b, a)) < 1e-12
            assert dab <= core.grassmann_distance(a, c) + core.grassmann_distance(c, b) + 1e-10


# ---------------------------------------------------------------------------
# metric on tangent vectors
# ---------------------------------------------------------------------------

class TestMetric:
    def test_diagonal_example(self):
        f = framed(core.make_plane(np.eye(5)[:, :2]))
        a = np.zeros((3, 2))
        a[0, 0], a[1, 1] = 0.3, 0.7
        v = core.tangent(f, a)
        assert abs(core.metric(f, v, v) - 0.58) < 1e-15

    def test_symmetry(self, rng):
        f = framed(core.random_plane(6, 2, 5))
        v1 = core.tangent(f, rng.standard_normal((4, 2)))
        v2 = core.tangent(f, rng.standard_normal((4, 2)))
        assert core.metric(f, v1, v2) == core.metric(f, v2, v1)

    def test_norm_equals_distance_to_exponential(self, rng):
        f = framed(core.random_plane(6, 2, 8))
        for _ in range(10):
            a = rng.standard_normal((4, 2))
            a *= 1.2 / np.linalg.norm(a)  # singular values below pi/2
            v = core.tangent(f, a)
            d = core.grassmann_distance(f.plane, core.exp(f, v))
            assert abs(math.sqrt(core.metric(f, v, v)) - d) < 1e-10

    def test_frame_mismatch(self, rng):
        f1 = framed(core.random_plane(6, 2, 1))
        f2 = framed(core.random_plane(6, 2, 2))
        v1 = core.tangent(f1, rng.standard_normal((4, 2)))
        v2 = core.tangent(f2, rng.standard_normal((4, 2)))
        with pytest.raises(FrameMismatch):
            core.metric(f1, v1, v2)

    def test_stack_rejected(self, rng):
        f = framed(core.random_plane(6, 2, 3))
        v = core.tangent(f, rng.standard_normal((4, 2)))
        stack = core.tangent(f, rng.standard_normal((3, 4, 2)))
        for pair in ((stack, v), (v, stack), (stack, stack)):
            with pytest.raises(DimensionError):
                core.metric(f, *pair)

    def test_exp_and_geodesic_point_reject_stack_by_its_shape(self):
        f = framed(core.random_plane(5, 2, 4))
        stack = core.tangent(f, np.zeros((3, 3, 2)))
        with pytest.raises(DimensionError, match=r"^exp takes .*shape \(3, 3, 2\)$"):
            core.exp(f, stack)
        with pytest.raises(DimensionError, match=r"^geodesic_point takes .*shape \(3, 3, 2\)$"):
            core.geodesic_point(f, stack, 0.5)

    def test_geodesic_point_rejects_non_finite_or_overflowing_t(self, rng):
        f = framed(core.random_plane(5, 2, 4))
        v = core.tangent(f, rng.standard_normal((3, 2)))
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="must be finite"):
                core.geodesic_point(f, v, t)
        # t A is finite, but (t A)^T (t A) in the exponential kernel is not
        for t in (1e308, -1e160):
            with pytest.raises(DomainError, match="overflows"):
                core.geodesic_point(f, v, t)
        # a zero tangent stays at the base plane for any finite t
        zero = core.tangent(f, np.zeros((3, 2)))
        assert core.grassmann_distance(core.geodesic_point(f, zero, 1e308), f.plane) < 1e-12


class TestFrameShortcut:
    """exp and metric compare frames by identity first; an equal frame
    that is another object must still pass, and another frame fail."""

    def test_equal_copy_of_frame_accepted(self, rng):
        e = core.random_plane(6, 2, 5)
        f, copy = framed(e), framed(e)
        assert copy.frame is not f.frame and np.array_equal(copy.frame, f.frame)
        a, b = rng.standard_normal((2, 4, 2))
        on_copy = core.tangent(copy, a)
        assert np.array_equal(core.exp(f, on_copy).basis, core.exp(f, core.tangent(f, a)).basis)
        assert core.metric(f, on_copy, core.tangent(copy, b)) == float((a * b).sum())

    def test_exp_rejects_other_frame(self, rng):
        f1 = framed(core.random_plane(6, 2, 1))
        f2 = framed(core.random_plane(6, 2, 2))
        with pytest.raises(FrameMismatch):
            core.exp(f1, core.tangent(f2, rng.standard_normal((4, 2))))


class TestTangentStack:
    def test_norm_per_matrix(self, rng):
        f = framed(core.random_plane(7, 3, 4))
        a = rng.standard_normal((2, 5, 4, 3))
        stack = core.tangent(f, a)
        assert stack.norm.shape == (2, 5)
        for i in range(2):
            for j in range(5):
                single = core.tangent(f, a[i, j]).norm
                assert isinstance(single, float)
                assert stack.norm[i, j] == single
                assert abs(single - float(np.linalg.norm(a[i, j]))) <= 4e-16 * single

    @pytest.mark.parametrize("where", [(0, 0, 0), (2, 3, 1), (4, 1, 0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere_rejected(self, rng, where, bad):
        f = framed(core.random_plane(6, 2, 5))
        a = rng.standard_normal((5, 4, 2))
        a[where] = bad
        with pytest.raises(DimensionError, match="non-finite"):
            core.tangent(f, a)

    @pytest.mark.parametrize("shape", [(3, 2, 4), (3, 4, 1), (4,), (), (3, 4, 2, 1)])
    def test_wrong_trailing_shape_rejected(self, shape):
        f = framed(core.random_plane(6, 2, 6))
        with pytest.raises(DimensionError, match="tangent shape"):
            core.tangent(f, np.zeros(shape))

    def test_stack_is_frozen_copy(self, rng):
        f = framed(core.random_plane(5, 2, 7))
        a = rng.standard_normal((3, 3, 2))
        stack = core.tangent(f, a)
        a[0, 0, 0] = 99.0
        assert stack.a[0, 0, 0] != 99.0
        with pytest.raises(ValueError):
            stack.a[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# exp / geodesics / log
# ---------------------------------------------------------------------------

class TestExpLog:
    def test_exp_of_zero(self):
        f = framed(core.random_plane(5, 2, 3))
        img = core.exp(f, zero_tangent(f))
        assert core.grassmann_distance(img, f.plane) < 1e-13

    def test_circle_geodesic(self):
        f = framed(core.make_plane([[1.0], [0.0]]))
        t = 0.6
        img = core.exp(f, core.tangent(f, [[t]]))
        expected = core.make_plane([[math.cos(t)], [math.sin(t)]])
        assert core.grassmann_distance(img, expected) < 1e-13

    def test_right_angle_rotation_reaches_complement(self):
        f = framed(core.make_plane(np.eye(4)[:, :2]))
        img = core.exp(f, core.tangent(f, np.diag([math.pi / 2, math.pi / 2])))
        expected = plane_from_columns(e_basis(4, 2), e_basis(4, 3))
        assert core.grassmann_distance(img, expected) < 1e-12

    def test_stacked_kernel_equals_per_matrix_calls(self, rng):
        for n, k in ((4, 2), (7, 3), (12, 5)):
            f = framed(core.random_plane(n, k, n))
            a = rng.uniform(-1.0, 1.0, (2, 3, n - k, k))
            y, ydot = core._geodesic_end(f, a, velocity=True)
            assert y.shape == ydot.shape == (2, 3, n, k)
            # the velocity is computed on request only, and leaves Y untouched
            assert np.array_equal(core._geodesic_end(f, a), y)
            for i in range(2):
                for j in range(3):
                    y1, ydot1 = core._geodesic_end(f, a[i, j], velocity=True)
                    assert np.array_equal(y[i, j], y1)
                    assert np.array_equal(ydot[i, j], ydot1)
                    assert np.array_equal(y1, core.exp(f, core.tangent(f, a[i, j])).basis)

    def test_exp_below_pi_takes_no_svd(self, rng, linalg_calls):
        # the mod-pi reduction costs an SVD only when ||A||_F >= pi
        f = framed(core.random_plane(7, 3, 2))
        a = rng.standard_normal((4, 3))
        a *= 3.1 / np.linalg.norm(a)
        before = dict(linalg_calls)
        basis = core.exp(f, core.tangent(f, a)).basis
        assert linalg_calls == before
        assert np.array_equal(basis, core._geodesic_end(f, a))

    def test_exp_reduces_angles_mod_pi(self):
        # on G(1,2) exp rotates e1 by the angle itself: any angle, also
        # past pi, gives the line at that angle
        f = framed(core.make_plane([[1.0], [0.0]]))
        for t in (math.pi, 4.0, -7.5, 1e3):
            img = core.exp(f, core.tangent(f, [[t]]))
            expected = core.make_plane([[math.cos(t)], [math.sin(t)]])
            assert core.grassmann_distance(img, expected) < 1e-12 * max(1.0, abs(t))

    @pytest.mark.parametrize("n, k", [(4, 2), (7, 3), (3, 1)])
    def test_geodesic_at_any_finite_norm(self, rng, n, k):
        f = framed(core.random_plane(n, k, 3))
        v = core.tangent(f, rng.standard_normal((n - k, k)))
        for t in (10.0, 1e3, 1e6, 1e12, 1e20, -1e20):
            point = core.geodesic_point(f, v, t)
            assert np.abs(point.basis.T @ point.basis - np.eye(k)).max() < 1e-14
            assert np.array_equal(point.basis, core.exp(f, core.tangent(f, t * v.a)).basis)
            # where the unreduced kernel stays orthonormal, the two planes
            # agree within the resolution of t A
            old = core._geodesic_end(f, t * v.a)
            if np.abs(old.T @ old - np.eye(k)).max() <= core.TOL_ORTH * k:
                gap = np.abs(point.projector - old @ old.T).max()
                assert gap <= 64 * core._EPS * abs(t) * v.norm

    def test_geodesic_endpoints(self, rng):
        f = framed(core.random_plane(6, 2, 4))
        v = core.tangent(f, rng.standard_normal((4, 2)) * 0.3)
        assert core.grassmann_distance(core.geodesic_point(f, v, 0.0), f.plane) < 1e-13
        assert core.grassmann_distance(core.geodesic_point(f, v, 1.0), core.exp(f, v)) < 1e-13

    def test_geodesic_additivity(self, rng):
        f = framed(core.random_plane(6, 2, 9))
        a = rng.standard_normal((4, 2))
        a *= 1.0 / np.linalg.norm(a)
        v = core.tangent(f, a)
        for t in (0.25, 0.5, 0.75, 1.0):
            d = core.grassmann_distance(f.plane, core.geodesic_point(f, v, t))
            assert abs(d - t * v.norm) < 1e-9

    @pytest.mark.filterwarnings("error")
    def test_log_at_base(self):
        f = framed(core.random_plane(5, 2, 6))
        assert core.log(f, f.plane).norm < 1e-12
        # one shared direction: an angle of exactly 0 next to one of 0.7,
        # in the identity frame so that the zero sine is exact
        f = framed(plane_from_columns(e_basis(4, 0), e_basis(4, 1)))
        target = plane_from_columns(e_basis(4, 0), [0.0, math.cos(0.7), math.sin(0.7), 0.0])
        a = core.log(f, target).a
        assert np.allclose(a, [[0.0, 0.7], [0.0, 0.0]], rtol=0.0, atol=1e-15)

    def test_log_norm_on_circle(self):
        f = framed(core.make_plane([[1.0], [0.0]]))
        t = 1.2
        target = core.make_plane([[math.cos(t)], [math.sin(t)]])
        assert abs(core.log(f, target).norm - t) < 1e-12

    def test_roundtrip_through_exp(self):
        for seed in range(30):
            e, _ = random_pair(6, 2, seed)
            f = framed(e)
            ss = np.random.SeedSequence(10_000 + seed)
            r = np.random.default_rng(ss)
            u = core._signed_qr(r.standard_normal((4, 2)))
            v = core._signed_qr(r.standard_normal((2, 2)))
            sv = r.uniform(0.01, math.pi / 2 - 0.05, 2)
            a = u @ np.diag(sv) @ v.T
            target = core.exp(f, core.tangent(f, a))
            back = core.exp(f, core.log(f, target))
            assert core.grassmann_distance(back, target) < 1e-9

    def test_log_norm_equals_distance(self):
        for seed in range(20):
            e1, e2 = random_pair(7, 3, seed)
            f = framed(e1)
            assert abs(core.log(f, e2).norm - core.grassmann_distance(e1, e2)) < 1e-10

    def test_log_rejects_cut_locus(self):
        f = framed(plane_from_columns(e_basis(4, 0), e_basis(4, 1)))
        target = plane_from_columns(e_basis(4, 2), e_basis(4, 1))
        with pytest.raises(OnCutLocus):
            core.log(f, target)

    @pytest.mark.parametrize("tol_cut", [2.0, math.pi / 2, 1e300, math.inf, math.nan, -1e-9])
    def test_log_rejects_tolerance_out_of_range(self, tol_cut):
        # every principal angle lies within pi/2 of pi/2, so a tolerance
        # that large would put the base plane itself on its cut locus; a
        # negative one would take a log on the cut locus
        l = core.random_plane(4, 2, 0)
        with pytest.raises(DomainError, match="tol_cut"):
            core.log(framed(l), l, tol_cut=tol_cut)
        assert core.log(framed(l), l, tol_cut=1.5).norm < 1e-12

    def test_log_singular_values_bounded(self):
        for seed in range(20):
            e1, e2 = random_pair(6, 3, 500 + seed)
            a = core.log(framed(e1), e2).a
            assert float(np.linalg.svd(a, compute_uv=False)[0]) <= math.pi / 2 + 1e-12

    def test_roundtrip_with_repeated_angles(self, rng):
        # repeated singular values leave a continuous gauge in the log;
        # the composition with exp is still the identity on planes
        f = framed(core.random_plane(6, 3, 77))
        for rep in ([0.5, 0.5, 1.2], [0.8, 0.8, 0.8], [1e-3, 0.9, 0.9]):
            u = core._signed_qr(rng.standard_normal((3, 3)))
            v = core._signed_qr(rng.standard_normal((3, 3)))
            target = core.exp(f, core.tangent(f, u @ np.diag(rep) @ v.T))
            back = core.exp(f, core.log(f, target))
            assert core.grassmann_distance(back, target) < 1e-11

    def test_log_branch_seam_continuity(self, rng):
        f = framed(core.random_plane(5, 2, 88))
        u = core._signed_qr(rng.standard_normal((3, 2)))
        v = core._signed_qr(rng.standard_normal((2, 2)))
        for top in (0.999999, 1.0 - 1e-12, 1.0 + 1e-12, 1.000001):
            a = u @ np.diag([0.4, top]) @ v.T
            target = core.exp(f, core.tangent(f, a))
            t = core.log(f, target)
            assert abs(t.norm - math.sqrt(0.16 + top * top)) < 1e-10
            assert core.grassmann_distance(core.exp(f, t), target) < 1e-11

    @pytest.mark.parametrize("n, k", [(4, 2), (7, 3), (12, 5)])
    def test_log_equals_angle_oracle_entrywise(self, n, k):
        # Targets are built without exp or log, as the span of
        # B V cos(theta) + C U sin(theta) in a random basis R; off the cut
        # locus the log is then exactly U diag(theta) V^T.  Tolerance:
        # eps (32 + 256 |theta| / pair), pair = min(1, cos th_i + cos th_j
        # over i < j).  The constant term is the rounding of the target
        # basis, which sets the floor for tiny angles; 1/pair is the
        # conditioning of log, which blows up only where two angles near
        # pi/2 together (sin(th_i + th_j) -> 0).
        rng = np.random.default_rng(n)
        f = framed(core.random_plane(n, k, n))
        cases = [
            *(rng.uniform(1e-10, 1e-6, k) for _ in range(4)),
            *(rng.uniform(0.05, 1.5, k) for _ in range(4)),
            *(np.full(k, rng.uniform(0.1, 1.4)) for _ in range(4)),
            *(np.r_[0.0, rng.uniform(0.1, 1.4, k - 1)] for _ in range(4)),
            *(math.pi / 2 - 10.0 ** rng.uniform(-6, -4, k) for _ in range(4)),
            *(np.r_[rng.uniform(0.1, 1.4, k - 1), math.pi / 2 - d] for d in (1e-4, 1e-5, 1e-6)),
            *(np.r_[np.full(k - 1, 0.4), top] for top in (0.999999, 1 - 1e-12, 1 + 1e-12, 1.000001)),
        ]
        eps = float(np.finfo(float).eps)
        for theta in cases:
            theta = np.sort(theta)
            u = core._signed_qr(rng.standard_normal((n - k, k)))
            v = core._signed_qr(rng.standard_normal((k, k)))
            r = core._signed_qr(rng.standard_normal((k, k)))
            basis = f.frame @ np.vstack([v * np.cos(theta), u * np.sin(theta)]) @ r
            got = core.log(f, core.Plane(n=n, k=k, basis=basis)).a
            c = np.cos(theta)
            pair = min(1.0, min(c[i] + c[j] for i in range(k) for j in range(i + 1, k)))
            tol = eps * (32.0 + 256.0 * float(np.linalg.norm(theta)) / pair)
            assert np.max(np.abs(got - u @ np.diag(theta) @ v.T)) <= tol, theta


def principal_vector_factors(at, target, snap_tol=None):
    """The construction of (N, theta, U) from paired principal vectors:
    n_i = (q_i - cos(theta_i) p_i) / sin(theta_i) in complement
    coordinates, zero for theta_i <= 1e-14, with the hybrid angles and
    the principal vectors p_i, q_i from one numpy SVD of B^T B_t."""
    u, _, vt = np.linalg.svd(at.plane.basis.T @ target.basis)
    p_vectors, q_vectors = at.plane.basis @ u, target.basis @ vt.T
    theta = core.principal_angles(at.plane, target)
    if snap_tol is not None:
        theta[theta >= math.pi / 2 - snap_tol] = math.pi / 2
    ncols = np.zeros((at.n - at.k, at.k))
    for i in range(at.k):
        if theta[i] > 1e-14:
            ni = (q_vectors[:, i] - math.cos(theta[i]) * p_vectors[:, i]) / math.sin(theta[i])
            ncols[:, i] = at.complement.T @ ni
    return ncols, theta, u


class TestConnectingFactors:
    @pytest.mark.parametrize("n, k", [(4, 2), (7, 3), (12, 5)])
    def test_matches_principal_vector_construction(self, n, k):
        # Gauge-invariant comparison: the connecting matrix N diag(theta) U^T
        # where it is unique (at most one right angle), and otherwise the
        # spans of the right-angle columns of N and U, which fix the orbit
        # of minimizing geodesics.
        rng = np.random.default_rng(100 + n)
        f = framed(core.random_plane(n, k, n))
        gap = math.pi / 2 - 1e-11  # snapped by snap_tol = 1e-9
        cases = [
            np.sort(rng.uniform(0.05, 1.5, k)),
            np.r_[0.0, np.sort(rng.uniform(0.1, 1.4, k - 1))],
            np.full(k, rng.uniform(0.1, 1.4)),
            np.r_[np.full(k - 1, 0.7), gap],
            np.r_[0.0, np.full(k - 2, 0.5), math.pi / 2],
            np.r_[np.sort(rng.uniform(0.1, 1.4, k - 2)), gap, math.pi / 2],
            np.full(k, math.pi / 2),
        ]
        for theta in cases:
            u = core._signed_qr(rng.standard_normal((n - k, k)))
            v = core._signed_qr(rng.standard_normal((k, k)))
            r = core._signed_qr(rng.standard_normal((k, k)))
            basis = f.frame @ np.vstack([v * np.cos(theta), u * np.sin(theta)]) @ r
            target = core.Plane(n=n, k=k, basis=basis)
            got = core.connecting_factors(f, target, snap_tol=1e-9)
            ref = principal_vector_factors(f, target, snap_tol=1e-9)
            assert np.max(np.abs(got[1] - ref[1])) < 1e-14, theta
            assert np.allclose(got[2].T @ got[2], np.eye(k), rtol=0.0, atol=1e-14)
            right = got[1] == math.pi / 2
            assert np.array_equal(right, ref[1] == math.pi / 2)
            assert np.array_equal(right, theta >= gap)
            if right.sum() <= 1:
                a_got = (got[0] * got[1]) @ got[2].T
                a_ref = (ref[0] * ref[1]) @ ref[2].T
                assert np.max(np.abs(a_got - a_ref)) < 1e-13, theta
            else:
                for x, y in ((got[0], ref[0]), (got[2], ref[2])):
                    xr, yr = x[:, right], y[:, right]
                    assert np.max(np.abs(xr @ xr.T - yr @ yr.T)) < 1e-13, theta
                a_got = (got[0][:, ~right] * got[1][~right]) @ got[2][:, ~right].T
                a_ref = (ref[0][:, ~right] * ref[1][~right]) @ ref[2][:, ~right].T
                assert np.max(np.abs(a_got - a_ref)) < 1e-13, theta
            a = (got[0] * got[1]) @ got[2].T
            assert core.grassmann_distance(core.exp(f, core.tangent(f, a)), target) < 1e-10

    def test_stacked_log_equals_log_per_frame(self, rng):
        # the stacked kernel behind log, with one frame per base plane
        # and one target, as the Schubert certificate calls it
        n, k = 7, 3
        target = core.random_plane(n, k, 5)
        frames = [framed(core.random_plane(n, k, 20 + i)) for i in range(4)]
        bases = np.array([f.plane.basis for f in frames])
        comps = np.array([f.complement for f in frames])
        a, theta = core._log(bases, comps, target.basis, core.TOL_CUT)
        for f, a_i, theta_i in zip(frames, a, theta):
            assert np.array_equal(a_i, core.log(f, target).a)
            assert np.array_equal(theta_i, core.connecting_factors(f, target)[1])
        cut = core.make_plane(np.hstack([frames[2].complement[:, :1], bases[2][:, 1:]]))
        with pytest.raises(OnCutLocus):
            core._log(bases, comps, cut.basis, core.TOL_CUT)

    def test_zero_angle_gives_zero_direction(self):
        # an exactly shared direction in the identity frame: the zero sine
        # leaves a zero column, without a division warning
        f = framed(plane_from_columns(e_basis(4, 0), e_basis(4, 1)))
        target = plane_from_columns(e_basis(4, 0), [0.0, math.cos(0.7), math.sin(0.7), 0.0])
        ncols, theta, _ = core.connecting_factors(f, target)
        assert theta[0] == 0.0 and np.all(ncols[:, 0] == 0.0)
        assert abs(theta[1] - 0.7) < 1e-15 and abs(np.linalg.norm(ncols[:, 1]) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# Plucker coordinates
# ---------------------------------------------------------------------------

def exact_determinant(matrix) -> int:
    """Determinant of an integer matrix in Python integers (Bareiss's
    fraction-free elimination): an oracle with no rounding at all."""
    a = [[int(x) for x in row] for row in matrix]
    size, sign, pivot = len(a), 1, 1
    for c in range(size - 1):
        if a[c][c] == 0:
            swap = next((r for r in range(c + 1, size) if a[r][c] != 0), None)
            if swap is None:
                return 0
            a[c], a[swap], sign = a[swap], a[c], -sign
        for r in range(c + 1, size):
            for j in range(c + 1, size):
                a[r][j] = (a[r][j] * a[c][c] - a[r][c] * a[c][j]) // pivot
        pivot = a[c][c]
    return sign * a[-1][-1]


class TestPlucker:
    def test_coordinate_plane(self):
        p = core.plucker_coords(plane_from_columns(e_basis(4, 0), e_basis(4, 1)))
        expected = np.zeros(6)
        expected[0] = 1.0  # index (0,1) is first lexicographically
        assert np.allclose(p.coords, expected, atol=1e-14)

    def test_unit_norm(self):
        for seed in range(5):
            p = core.plucker_coords(core.random_plane(6, 2, seed))
            assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-12

    def test_minors_exact_on_integer_bases(self, rng):
        # every partial sum of the column sweep is an integer below 2^53
        # here, so the minors equal the exact determinants bit for bit
        for n, k in ((3, 1), (4, 2), (7, 3), (12, 5)):
            basis = rng.integers(-9, 10, (n, k))
            exact = [exact_determinant(basis[list(rows), :]) for rows in core.plucker_index_table(n, k)]
            assert np.array_equal(core.plucker_minors(basis), np.array(exact, dtype=float))

    def test_minors_match_determinant_loop(self, rng):
        for n, k in ((3, 1), (4, 2), (7, 3), (12, 5)):
            basis = core.random_plane(n, k, rng).basis
            loop = [np.linalg.det(basis[list(rows), :]) for rows in core.plucker_index_table(n, k)]
            assert np.max(np.abs(core.plucker_minors(basis) - np.array(loop))) <= 1e-14

    def test_exact_determinant_oracle(self):
        assert exact_determinant([[7]]) == 7
        assert exact_determinant([[0, 1], [1, 0]]) == -1
        assert exact_determinant([[0, 2, 1], [3, 0, 0], [1, 1, 1]]) == -3
        assert exact_determinant([[1, 2], [2, 4]]) == 0

    def test_stacked_minors_equal_per_basis(self, rng):
        for n, k in ((4, 2), (12, 5)):
            stack = np.array(
                [[core.random_plane(n, k, rng).basis for _ in range(3)] for _ in range(2)]
            )
            minors = core.plucker_minors(stack)
            assert minors.shape == (2, 3, math.comb(n, k))
            for i in range(2):
                for j in range(3):
                    assert np.array_equal(minors[i, j], core.plucker_minors(stack[i, j]))

    def test_first_chart_coordinate_of_exponential(self, rng):
        # leading minor of the exponential image equals det(V) prod cos(mu)
        f = framed(core.make_plane(np.eye(5)[:, :2]))
        for _ in range(10):
            u = core._signed_qr(rng.standard_normal((3, 2)))
            v = core._signed_qr(rng.standard_normal((2, 2)))
            v[:, 0] *= np.sign(rng.standard_normal())  # exercise both det signs
            mu = rng.uniform(0.05, math.pi / 2 - 0.05, 2)
            # the SVD-form basis, with this explicit gauge
            basis = f.frame @ np.vstack([v * np.cos(mu), u * np.sin(mu)])
            lead = core.plucker_minors(basis)[0]
            expected = float(np.linalg.det(v)) * float(np.prod(np.cos(mu)))
            assert abs(lead - expected) < 1e-10
            # and exp of the same velocity spans the same plane
            img = core.exp(f, core.tangent(f, u @ np.diag(mu) @ v.T))
            assert core.grassmann_distance(img, core.Plane(n=5, k=2, basis=basis)) < 1e-12
            # exp's basis is this one rotated by V^T, so its minor has no det(V)
            assert abs(core.plucker_minors(img)[0] - float(np.prod(np.cos(mu)))) < 1e-10

    def test_off_cut_planes_have_nonzero_chart_coordinate(self, rng):
        f = framed(core.make_plane(np.eye(5)[:, :2]))
        for _ in range(20):
            a = rng.standard_normal((3, 2))
            a *= rng.uniform(0.1, 1.4) / float(np.linalg.svd(a, compute_uv=False)[0])
            img = core.exp(f, core.tangent(f, a))
            assert abs(core.plucker_minors(img)[0]) > 1e-8


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

class TestRandomPlane:
    def test_determinism(self):
        assert np.array_equal(core.random_plane(6, 2, 42).basis, core.random_plane(6, 2, 42).basis)

    def test_genericity_against_fixed_plane(self):
        w = core.random_plane(5, 2, 0)
        lo, hi = math.pi / 2, 0.0
        for seed in range(1000):
            e = core.random_plane(5, 2, 1000 + seed)
            th = core.principal_angles(w, e)
            lo = min(lo, float(th[0]))
            hi = max(hi, float(th[-1]))
        assert lo > 1e-6
        assert hi < math.pi / 2 - 1e-6

    def test_line_statistics(self):
        w = core.make_plane([[1.0], [0.0]])
        vals = [
            math.cos(core.principal_angles(w, core.random_plane(2, 1, 5000 + s))[0]) ** 2
            for s in range(2000)
        ]
        assert abs(float(np.mean(vals)) - 0.5) < 0.05


# ---------------------------------------------------------------------------
# pullback metric distortion
# ---------------------------------------------------------------------------

class TestPullbackMetric:
    def test_smaller_scale_means_smaller_error(self):
        w = framed(core.random_plane(4, 2, 2))
        small = core.pullback_metric_error(w, 1e-3, n_samples=6, seed=0)
        large = core.pullback_metric_error(w, 1e-1, n_samples=6, seed=0)
        assert small < large

    def test_flat_at_origin(self):
        # zero base offset: the differential of exp at 0 is the identity
        w = framed(core.random_plane(4, 2, 3))

        rng = np.random.default_rng(0)
        b = rng.standard_normal((2, 2))
        b /= np.linalg.norm(b)
        h = float(np.finfo(float).eps) ** (1 / 3)
        base = core.complete_frame(core.exp(w, zero_tangent(w)))
        plus = core.exp(w, core.tangent(w, h * b))
        minus = core.exp(w, core.tangent(w, -h * b))
        d = (core.log(base, plus).a - core.log(base, minus).a) / (2 * h)
        assert abs(float(np.sum(d * b)) - 1.0) < 1e-6

    def test_matches_log_chart_reference(self):
        # the reference reads central differences of exp back through
        # log at a completed frame of the image point, sampling as the
        # library does
        for seed, eps in ((0, 0.2), (1, 0.01)):
            w = framed(core.random_plane(4, 2, 1200 + seed))
            rng = np.random.default_rng(seed)
            h0 = float(np.finfo(float).eps) ** (1 / 3)
            worst = 0.0
            for _ in range(8):
                a = rng.standard_normal((2, 2))
                a *= rng.uniform(0.0, 1.0) / np.linalg.norm(a)
                bs = [x / np.linalg.norm(x) for x in rng.standard_normal((2, 2, 2))]
                base = core.complete_frame(core.exp(w, core.tangent(w, eps * a)))
                h = h0 * max(1.0, eps * float(np.linalg.norm(a)))
                d = [
                    (
                        core.log(base, core.exp(w, core.tangent(w, eps * a + h * b))).a
                        - core.log(base, core.exp(w, core.tangent(w, eps * a - h * b))).a
                    ) / (2 * h)
                    for b in bs
                ]
                for i in range(2):
                    for j in range(2):
                        worst = max(worst, abs(float(np.sum(d[i] * d[j]) - np.sum(bs[i] * bs[j]))))
            got = core.pullback_metric_error(w, eps, n_samples=8, seed=seed)
            assert abs(got - worst) < 1e-4 * worst

    def test_circle_is_flat(self):
        w = framed(core.make_plane([[1.0], [0.0]]))
        assert core.pullback_metric_error(w, 0.1, n_samples=8, seed=1) < 0.02

    def test_step_separation_guard(self):
        w = framed(core.random_plane(4, 2, 4))
        with pytest.raises(StepTooSmall):
            core.pullback_metric_error(w, 1e-7, n_samples=2, seed=0)

    def test_eps_domain(self):
        w = framed(core.random_plane(4, 2, 4))
        with pytest.raises(DimensionError):
            core.pullback_metric_error(w, 1.0, n_samples=2, seed=0)
