"""Critical points of the distance to algebraic hypersurfaces and
distance complexity estimation.

A hypersurface is a homogeneous polynomial in the Plucker coordinates.
Off the cut locus of the base plane L, every plane is E = exp_L(A) for a
unique tangent matrix A with largest singular value below pi/2, so A
itself is a chart of the off-cut set (normal coordinates at L) and the
distance is ||A||.  By the Gauss lemma the gradient of the distance at E
is the unit geodesic velocity there, so the constrained critical points
are the solutions of a Lagrange system in A:

* the polynomial vanishes on the minors of an orthonormal basis of E,
* the unit geodesic velocity at E is parallel to the unit horizontal
  gradient of the polynomial.

Both are smooth in A, including at repeated angles: the basis and the
velocity are power series in A^T A.  :func:`lagrange_residual` stacks
the two conditions and the solver drives it to zero from seeded starts;
a solution counts only when its plane E lies off the cut locus and the
chart-free certificate (geodesic direction normal to the hypersurface)
also passes.  Counting the surviving points over random base planes
gives an empirical lower bound for the generic critical-point count,
which the explicit format-based constants of :mod:`grasscrit.bounds`
bound from above.

The whole evaluation path takes stacks of tangent matrices: the
exponential kernel, the Plucker minors from the core column-by-column
Laplace sweep, the compiled polynomial, and the polynomial's gradient
in the basis from the same sweep run backward (no cofactor matrices).
Every reduction on this path runs in a fixed order, so a row of a
stacked residual does not depend on the other rows.  The solver,
:func:`least_squares`, runs all starts of a query in lockstep, each
with its own state, through an unbounded trust-region method with
Moré's Levenberg-Marquardt step (the configuration of scipy's
unbounded ``trf`` with exact trust-region solves; the tests run scipy
as the reference, start by start).  A solution is judged at its plane
E, not in A: it may lie past pi/2 in normal coordinates and still be
an off-cut critical point, read back through the principal angles.
Its state holds one row per running start: a start that stops is
written to the result once and its row dropped, so a round touches
only the starts it advances.  Each round makes one stacked residual
call: the trial point of every running start together with its
k(n - k) forward-difference shifts, so the Jacobian of an accepted
step is already there and that of a rejected one is dropped; the
quadratic model is stacked too, and so are the starts' orthonormal
factors and the certificates of a query, whose bases are the found
planes.  The module needs numpy alone; the solver is called through
the module attribute, which the traced benchmark wraps by name to
time each query.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import core
from .core import FramedPlane, Plane, TangentMatrix
from .errors import (
    DimensionError,
    FrameMismatch,
    NoConvergence,
    NonGenericL,
    SchemaError,
)

#: Default convergence tolerance on the stacked Lagrange residual.
SOLVER_TOL = 1e-9

#: Default tolerance on the chart-free normality certificate.
CERT_TOL = 1e-6

#: Grassmann distance under which two found critical points are merged.
DEDUP_DISTANCE = 1e-6

_EPS = float(np.finfo(float).eps)

#: Relative finite-difference step of the solver's Jacobian (scipy's
#: 2-point default).
_FD_STEP = _EPS**0.5

#: The solver's stopping rules: relative cost change (scipy's default,
#: so a start on a plateau stops), relative step change, scaled
#: gradient norm and residual evaluations per start.
_FTOL = 1e-8
_XTOL = 1e-15
_GTOL = 1e-13
_MAX_NFEV = 100

#: Names of the solver's stop reasons, indexed by scipy's status codes.
STOP_REASONS = ("max_nfev", "gtol", "ftol", "xtol", "ftol and xtol")


# ---------------------------------------------------------------------------
# Plucker polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PluckerPolynomial:
    """Homogeneous polynomial in the Plucker coordinates of G(k, n).

    ``terms`` maps exponent vectors (tuples of length binomial(n, k))
    to coefficients; all exponent vectors must have the same total
    degree d.  Construction compiles the terms once: each term becomes
    its d coordinate indices (powers repeated), one row of a T x d
    index matrix, beside the indices of the other d - 1 factors of each
    slot (T x d x (d - 1)), a coefficient vector and the coefficient
    scale, so evaluation never forms a terms x coordinates matrix.  It
    raises :class:`DimensionError` unless 1 <= k <= n - k, and
    :class:`SchemaError` for malformed terms or coefficients that are
    not finite or all zero.
    """

    n: int
    k: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if not (1 <= self.k <= self.n - self.k):
            raise DimensionError(f"need 1 <= k <= n - k, got k={self.k}, n={self.n}")
        n_coords = math.comb(self.n, self.k)
        if not self.terms:
            raise SchemaError("polynomial has no terms")
        for exps, _ in self.terms:
            if len(exps) != n_coords:
                raise SchemaError(
                    f"exponent vector length {len(exps)} != binomial(n,k) = {n_coords}"
                )
        terms = tuple((tuple(e), float(c)) for e, c in self.terms)
        exponents = np.array([e for e, _ in terms], dtype=np.intp)
        if np.any(exponents < 0):
            raise SchemaError("negative exponent")
        degrees = np.unique(exponents.sum(axis=1))
        if len(degrees) != 1:
            raise SchemaError(f"polynomial is not homogeneous: degrees {degrees.tolist()}")
        d = int(degrees[0])
        if d == 0:
            raise SchemaError("polynomial must have positive degree")
        coefs = np.array([c for _, c in terms])
        if not np.all(np.isfinite(coefs)):
            raise SchemaError("polynomial has a non-finite coefficient")
        if not np.any(coefs):
            raise SchemaError("polynomial has only zero coefficients")
        coord = np.broadcast_to(np.arange(n_coords), exponents.shape)
        indices = np.repeat(coord.ravel(), exponents.ravel()).reshape(-1, d)
        others = np.array([[i for i in range(d) if i != j] for j in range(d)], dtype=np.intp)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_others", indices[:, others])
        object.__setattr__(self, "_coefs", coefs)
        object.__setattr__(self, "_scale", float(np.max(np.abs(coefs))))

    @property
    def degree(self) -> int:
        return sum(self.terms[0][0])

    @property
    def n_coords(self) -> int:
        return math.comb(self.n, self.k)

    def eval(self, coords: np.ndarray):
        """Value at coordinates of shape (..., binomial(n, k)); shape (...).

        The terms are summed in a fixed order rather than by a BLAS
        matrix-vector product, whose rounding depends on the number of
        rows in the stack.
        """
        coords = np.asarray(coords, dtype=float)
        monomials = np.multiply.reduce(coords.take(self._indices, axis=-1), axis=-1)
        return np.add.reduce(monomials * self._coefs, axis=-1)

    def eval_grad(self, coords: np.ndarray):
        """Value (...) and gradient (..., binomial(n, k)) at coordinates
        of shape (..., binomial(n, k)).

        A monomial's derivative in one of its d slots is the product of
        the other d - 1 factors (a leave-one-out product), so zero
        coordinates need no division; repeated slots add up to the
        power rule.  The value is :meth:`eval`'s.
        """
        coords = np.asarray(coords, dtype=float)
        grad = np.zeros(coords.shape)
        leave_one_out = np.multiply.reduce(coords.take(self._others, axis=-1), axis=-1)
        np.add.at(grad, (..., self._indices), self._coefs[:, None] * leave_one_out)
        return self.eval(coords), grad

    def coefficient_scale(self) -> float:
        return self._scale


def linear_form(n: int, k: int, weights) -> PluckerPolynomial:
    """Degree-1 hypersurface: a hyperplane section in Plucker coordinates.
    Raises :class:`DimensionError` unless 1 <= k <= n - k."""
    if not (1 <= k <= n - k):
        raise DimensionError(f"need 1 <= k <= n - k, got k={k}, n={n}")
    w = np.asarray(weights, dtype=float)
    n_coords = math.comb(n, k)
    if w.shape != (n_coords,):
        raise SchemaError(f"expected {n_coords} weights, got {w.shape}")
    terms = []
    for i in range(n_coords):
        if w[i] != 0.0:
            e = [0] * n_coords
            e[i] = 1
            terms.append((tuple(e), float(w[i])))
    return PluckerPolynomial(n=n, k=k, terms=tuple(terms))


# ---------------------------------------------------------------------------
# Normal coordinates at the base plane
# ---------------------------------------------------------------------------

def _value_and_basis_grad(p: PluckerPolynomial, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(minors(y)) and its gradient with respect to y, for a stack of
    n x k matrices (..., n, k): the minors from the column sweep
    :func:`core._laplace_sweep`, and the gradient from the same sweep
    run backward (its pullback of dp/dc)."""
    minors, pullback = core._laplace_sweep(y)
    value, dp_dc = p.eval_grad(minors)
    return value, pullback(dp_dc)


def _unit(x: np.ndarray) -> np.ndarray:
    """Each matrix of a stack divided by its Frobenius norm; zero
    matrices pass unchanged."""
    norm = core._norm(x, axis=(-2, -1), keepdims=True)
    return x / np.where(norm > 0.0, norm, 1.0)


def lagrange_residual(
    p: PluckerPolynomial, l: FramedPlane, a: TangentMatrix | np.ndarray
) -> np.ndarray:
    """Residual of the Lagrange system at E = exp_l(a) in normal coordinates.

    Components, in order: p(minors(Y)) / ``p.coefficient_scale()`` with
    Y the basis of E, then the n x k component of the unit geodesic
    velocity at E orthogonal to the unit horizontal gradient of p at Y.
    With the largest singular value of ``a`` below pi/2 the residual
    vanishes exactly at the off-cut critical points of the distance
    from ``l`` restricted to {p = 0} (Gauss lemma: the distance gradient
    at E is the unit geodesic velocity).

    ``a`` is a :class:`TangentMatrix` at ``l``, or an array stack
    (..., n-k, k) of tangent matrices read in ``l``'s frame; a stack
    gives residuals of shape (..., 1 + n k) in one call.
    """
    if isinstance(a, TangentMatrix):
        if not core._same_frame(a.frame.frame, l.frame):
            raise FrameMismatch("tangent matrix not attached to the base frame")
        a = a.a
    y, ydot = core._geodesic_end(l, a, velocity=True)
    value, grad = _value_and_basis_grad(p, y)
    *stack, n, k = y.shape
    # the velocity and the horizontal gradient, normalized in one pass
    pair = np.empty((2, *stack, n, k))
    pair[0] = ydot
    np.subtract(grad, y @ (y.swapaxes(-1, -2) @ grad), out=pair[1])
    velocity, normal = _unit(pair)
    tangential = velocity - np.add.reduce(velocity * normal, axis=(-2, -1), keepdims=True) * normal
    out = np.empty((*stack, 1 + n * k))
    out[..., 0] = value / p.coefficient_scale()
    out[..., 1:] = tangential.reshape(*stack, n * k)
    return out


def _normality_certificates(p: PluckerPolynomial, l: Plane, y: np.ndarray) -> np.ndarray:
    """:func:`hypersurface_normality_residual` at a stack of points with
    orthonormal bases ``y`` (S, n, k): one frame completion, one basis
    gradient and one logarithm toward ``l`` for the whole stack.
    Returns the certificates (S,)."""
    complements = core._frame_complements(y)
    _, grad = _value_and_basis_grad(p, y)
    gamma = complements.swapaxes(-1, -2) @ grad
    direction, _ = core._log(y, complements, l.basis, core.TOL_CUT)
    gnorm = core._norm(gamma, axis=(-2, -1), keepdims=True)
    dnorm = core._norm(direction, axis=(-2, -1), keepdims=True)
    gamma = gamma / np.where(gnorm == 0.0, 1.0, gnorm)
    direction = direction / np.where(dnorm < 1e-15, 1.0, dnorm)
    along = np.add.reduce(direction * gamma, axis=(-2, -1), keepdims=True)
    cert = core._norm(direction - along * gamma, axis=(-2, -1))
    return np.where((gnorm[:, 0, 0] == 0.0) | (dnorm[:, 0, 0] < 1e-15), math.inf, cert)


def hypersurface_normality_residual(p: PluckerPolynomial, l: Plane, point: Plane) -> float:
    """Chart-free criticality certificate at a hypersurface point.

    Computes the gradient of the polynomial on the Grassmannian at
    ``point`` (pulled back through the horizontal lift of the basis
    curve, so no basis gauge enters) and returns the norm of the
    component of the unit geodesic direction toward ``l`` orthogonal to
    that gradient line.  Zero means the geodesic is normal to the
    hypersurface, i.e. the point is critical.  A vanishing gradient or
    a point at ``l`` gives ``inf``; a point on the cut locus of ``l``
    raises :class:`OnCutLocus`.  The work is
    :func:`_normality_certificates` on a stack of one.
    """
    return float(_normality_certificates(p, l, point.basis[None])[0])


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _shift_pattern(m: int) -> np.ndarray:
    """Read-only (m + 1, m) pattern of the forward-difference stencil: a
    zero row (the point itself), then the unit vectors e_j."""
    pattern = np.eye(m + 1, m, -1)
    pattern.flags.writeable = False
    return pattern


def _jacobian(p: PluckerPolynomial, l: FramedPlane, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals f (S, 1 + n k) of :func:`lagrange_residual` at the S
    flattened tangent matrices ``x`` (S, m) and their forward-difference
    Jacobians J (S, 1 + n k, m), from one stacked call at the S (m + 1)
    points x and x + h_j e_j.

    The steps are scipy's unbounded 2-point ones:
    h_j = sqrt(eps) sign(x_j) max(1, |x_j|), with sign(0) = +1, and each
    column is divided by the representable step (x_j + h_j) - x_j.
    """
    n_starts, m = x.shape
    h = _FD_STEP * np.where(x >= 0.0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    stencil = x[:, None, :] + h[:, None, :] * _shift_pattern(m)
    r = lagrange_residual(p, l, stencil.reshape(n_starts * (m + 1), p.n - p.k, p.k))
    r = r.reshape(n_starts, m + 1, -1)
    f = r[:, 0]
    return f, (r[:, 1:] - f[:, None, :]).swapaxes(1, 2) / ((x + h) - x)[:, None, :]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (S, m) stacks."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (S, m) stack."""
    return np.sqrt(_dot(a, a))


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a_s @ x_s for a stack of matrices (S, r, m) and vectors (S, m)."""
    return (a @ x[:, :, None])[:, :, 0]


def _trust_region_steps(uf, sv, v, delta, alpha, n_res: int):
    """Moré's trust-region step of each start from one SVD of its
    Jacobian (U, sv, V^T), with ``uf`` = U^T f.

    The Gauss-Newton step is taken when the Jacobian has full rank and
    the step fits in the radius ``delta``; otherwise the
    Levenberg-Marquardt parameter alpha solves ||p(alpha)|| = delta to
    1 % by at most 10 safeguarded Newton iterations on
    phi(alpha) = ||p(alpha)|| - delta, warm-started from ``alpha``, and
    the step is scaled onto the boundary.  The iteration keeps only the
    starts still iterating; each sees scipy's scalar iteration.  Returns
    the steps (S, m) and the new parameters (S,).
    """
    suf = sv * uf
    full_rank = sv[:, -1] > _EPS * n_res * sv[:, 0]
    step = -_matvec(v, np.divide(uf, sv, out=np.zeros(uf.shape), where=full_rank[:, None]))
    gauss_newton = full_rank & (_norm(step) <= delta)
    alpha = np.where(gauss_newton, 0.0, alpha)
    if np.logical_and.reduce(gauss_newton):
        return step, alpha
    # a slice, not a gather, when every start takes the Levenberg-Marquardt step
    rest = (~gauss_newton).nonzero()[0] if np.logical_or.reduce(gauss_newton) else slice(None)
    suf, sv, radius, full_rank, v = suf[rest], sv[rest], delta[rest], full_rank[rest], v[rest]
    sv2, suf2 = sv**2, suf**2

    def phi_and_derivative(a, sv2, suf, suf2, radius):
        denom = sv2 + a[:, None]
        p_norm = _norm(suf / denom)
        return p_norm - radius, -np.add.reduce(suf2 / denom**3, axis=1) / p_norm

    upper = _norm(suf) / radius
    lower = np.zeros(upper.shape)
    n_full = np.count_nonzero(full_rank)
    if n_full:
        fr = slice(None) if n_full == full_rank.size else full_rank
        phi, phi_prime = phi_and_derivative(
            np.zeros(n_full), sv2[fr], suf[fr], suf2[fr], radius[fr]
        )
        lower[fr] = -phi / phi_prime
    a = alpha[rest]
    a = np.where(~full_rank & (a == 0.0), np.maximum(0.001 * upper, np.sqrt(lower * upper)), a)
    # the rows still iterating, at positions ``pos`` of ``a``, which
    # receives a row's parameter when the row stops
    pos, ai, lo, up, s2, s, ss, r = np.arange(a.size), a, lower, upper, sv2, suf, suf2, radius
    for _ in range(10):
        outside = (ai < lo) | (ai > up)
        if np.logical_or.reduce(outside):
            ai = np.where(outside, np.maximum(0.001 * up, np.sqrt(lo * up)), ai)
        phi, phi_prime = phi_and_derivative(ai, s2, s, ss, r)
        up = np.where(phi < 0, ai, up)
        ratio = phi / phi_prime
        lo = np.maximum(lo, ai - ratio)
        ai = ai - (phi + r) * ratio / r
        iterating = ~(np.abs(phi) < 0.01 * r)
        if not np.logical_or.reduce(iterating):
            break
        if not np.logical_and.reduce(iterating):
            a[pos] = ai
            pos, ai, lo, up, s2, s, ss, r = (
                z[iterating] for z in (pos, ai, lo, up, s2, s, ss, r)
            )
    a[pos] = ai
    p = -_matvec(v, suf / (sv2 + a[:, None]))
    p = p * (radius / _norm(p))[:, None]
    if isinstance(rest, slice):
        return p, a
    step[rest], alpha[rest] = p, a
    return step, alpha


@dataclass(frozen=True)
class SolveResult:
    """Final points ``x`` (S, m) and residuals ``fun`` (S, 1 + n k) of
    S starts, each start's residual evaluations ``start_nfev`` (S,), and
    the totals over the starts: ``nfev`` residual evaluations and
    ``njev`` Jacobian evaluations.  ``status`` (S,) holds each start's
    stop reason in scipy's codes, named by :data:`STOP_REASONS`: 0 the
    evaluation budget, 1 gtol, 2 ftol, 3 xtol, 4 ftol and xtol."""

    x: np.ndarray
    fun: np.ndarray
    start_nfev: np.ndarray
    nfev: int
    njev: int
    status: np.ndarray


def least_squares(p: PluckerPolynomial, l: FramedPlane, x0: np.ndarray) -> SolveResult:
    """Least-squares solves of :func:`lagrange_residual` from the starts
    ``x0`` (S, k(n-k)), flattened tangent matrices at ``l``, run in
    lockstep.

    Each start runs the unbounded trust-region method (scipy's ``trf``
    without bounds, with ``tr_solver="exact"``, ``x_scale=1``): Moré's
    trust-region Levenberg-Marquardt step from one SVD of the Jacobian.
    A start stops on scipy's rules: an accepted step that lowers the
    cost by less than ``ftol = 1e-8`` of it (a plateau; a start
    converging to a root lowers its cost by orders of magnitude per
    step), a step below ``xtol = 1e-15`` relative to the iterate, a
    gradient below ``gtol = 1e-13`` in the max norm, or 100 residual
    evaluations; ``status`` records which.  Every start keeps its own
    iterate, radius, Levenberg-Marquardt parameter and evaluation
    count, and stops on its own.  The state arrays hold one row per
    running start, in start order; when starts stop, their x, residual
    and evaluation count are written to the result once and their rows
    dropped in one compaction, so no round gathers or scatters through
    start indices.  Each round evaluates the trial points of all running
    starts, each together with its forward-difference stencil, in one
    stacked residual call (see :func:`_jacobian`), and takes one batched
    SVD of the Jacobians of the starts whose step was accepted (the
    first call does the same for ``x0``).  The stencils at rejected
    trial points are computed and discarded: evaluating them
    speculatively costs one pass per round instead of two.  ``nfev``
    counts trial points and ``njev`` the Jacobians at accepted points
    (scipy's meanings); as in scipy, the gradient at an accepted point
    is checked against gtol also when the step ended the start (its row
    is dropped after that check), and a gtol stop there takes
    precedence.

    The solver is a module attribute, looked up by name at each query,
    so a tracer can wrap ``search.least_squares`` to time each query.
    """
    x = np.array(x0, dtype=float)
    n_starts, m = x.shape
    f, jac = _jacobian(p, l, x)
    n_res = f.shape[1]
    # each start's end state, written once when it stops
    status = np.zeros(n_starts, dtype=int)
    end_x, end_f = np.empty_like(x), np.empty((n_starts, n_res))
    end_nfev = np.empty(n_starts, dtype=int)
    # the state of the running starts, one row each in start order:
    # ``ids`` names the start of each row
    ids = np.arange(n_starts)
    cost = 0.5 * _dot(f, f)
    nfev = np.ones(n_starts, dtype=int)
    njev = 0
    delta = _norm(x)
    delta[delta == 0] = 1.0
    alpha = np.zeros(n_starts)
    # each start's gradient and Jacobian SVD, refreshed after each accepted step
    g, uf, sv = np.empty((3, n_starts, m))
    v_svd = np.empty((n_starts, m, m))
    # rows whose step was accepted (or, at first, every row), and rows
    # whose start stopped
    fresh = np.ones(n_starts, dtype=bool)
    done = np.zeros(n_starts, dtype=bool)
    while True:
        rows = fresh.nonzero()[0]
        if rows.size:
            njev += rows.size
            if rows.size == ids.size:
                rows = slice(None)
            ff, jf = f[rows], jac[rows]
            gf = (ff[:, None, :] @ jf)[:, 0]
            gtol = np.maximum.reduce(np.abs(gf), axis=1) < _GTOL
            if np.logical_or.reduce(gtol):
                status[ids[rows][gtol]] = 1
                done[rows] |= gtol
            keep = ~done[rows]
            if not np.logical_and.reduce(keep):
                rows = (fresh & ~done).nonzero()[0]
                ff, jf, gf = ff[keep], jf[keep], gf[keep]
            u, sv[rows], vt = core._svd(jf, full_matrices=False)
            g[rows], v_svd[rows] = gf, vt.swapaxes(1, 2)
            uf[rows] = (ff[:, None, :] @ u)[:, 0]
        if np.logical_or.reduce(done):
            # retire the stopped starts: record them, then drop their rows
            gone = ids[done]
            end_x[gone], end_f[gone], end_nfev[gone] = x[done], f[done], nfev[done]
            keep = ~done
            ids, x, f, jac, cost, nfev, alpha, delta, g, uf, sv, v_svd = (
                a[keep] for a in (ids, x, f, jac, cost, nfev, alpha, delta, g, uf, sv, v_svd)
            )
            if not ids.size:
                break
        step, alpha = _trust_region_steps(uf, sv, v_svd, delta, alpha, n_res)
        # the decrease the quadratic model 0.5 ||J s||^2 + g^T s predicts
        js = _matvec(jac, step)
        predicted = -(0.5 * _dot(js, js) + _dot(g, step))
        x_new = x + step
        f_new, jac_new = _jacobian(p, l, x_new)
        nfev += 1
        step_norm = _norm(step)
        finite = np.logical_and.reduce(np.isfinite(f_new), axis=1)
        cost_new = 0.5 * _dot(f_new, f_new)
        actual = cost - cost_new
        ratio = np.where((predicted == 0) & (actual == 0), 1.0, 0.0)
        np.divide(actual, predicted, out=ratio, where=predicted > 0)
        new_radius = np.where(
            ratio < 0.25,
            0.25 * step_norm,
            np.where((ratio > 0.75) & (step_norm > 0.95 * delta), 2.0 * delta, delta),
        )
        ftol = (actual < _FTOL * cost) & (ratio > 0.25) & finite
        xtol = (step_norm < _XTOL * (_XTOL + _norm(x))) & finite
        stopped = ftol | xtol
        if np.logical_or.reduce(stopped):
            status[ids[stopped]] = np.where(xtol, np.where(ftol, 4, 3), 2)[stopped]
        update = finite & ~stopped
        alpha = alpha * np.divide(delta, new_radius, out=np.ones(delta.shape), where=update)
        delta = np.where(update, new_radius, np.where(finite, delta, 0.25 * step_norm))
        fresh = finite & (actual > 0)
        if np.logical_and.reduce(fresh):
            x, f, cost, jac = x_new, f_new, cost_new, jac_new
        elif np.logical_or.reduce(fresh):
            x[fresh], f[fresh], cost[fresh] = x_new[fresh], f_new[fresh], cost_new[fresh]
            jac[fresh] = jac_new[fresh]
        done = stopped | (nfev == _MAX_NFEV)
    return SolveResult(
        x=end_x, fun=end_f, start_nfev=end_nfev, nfev=int(np.add.reduce(end_nfev)), njev=njev,
        status=status,
    )


@dataclass(frozen=True)
class StartDiagnostic:
    """Outcome of one solver start: ``status`` is "converged", "no
    convergence" (residual not below ``tol``), "on cut locus" (solved,
    but its plane is within ``core.TOL_CUT`` of the cut locus of the
    base plane) or "certificate failed", and ``stop`` the solver's stop
    reason, one of :data:`STOP_REASONS`."""

    start: int
    status: str
    residual: float
    certificate: float
    nfev: int
    stop: str


def find_critical_points(
    p: PluckerPolynomial,
    l: FramedPlane,
    n_starts: int,
    seed,
    tol: float = SOLVER_TOL,
    return_diagnostics: bool = False,
):
    """Critical points of the distance from ``l`` restricted to {p = 0}.

    Solves :func:`lagrange_residual` = 0 in the least-squares sense for
    the tangent matrix A at ``l``, unbounded, from ``n_starts`` seeded
    random tangent matrices with angles in (0.1, pi/2 - 0.1), all in one
    lockstep call of :func:`least_squares`; each start's diagnostic
    carries its own residual evaluations (nfev).  Every start whose
    residual is below ``tol`` is judged at its plane E = exp_l(A),
    whatever ||A|| is: the principal angles between ``l`` and E, one
    stacked pass, put E on the cut locus when the largest is at least
    pi/2 - ``core.TOL_CUT``; otherwise E is kept when the chart-free
    normality certificate is below :data:`CERT_TOL`.  The certificates
    are one stacked pass, each equal to
    :func:`hypersurface_normality_residual` at its point.  Each plane is
    the basis of :func:`core.exp` at A bit for bit: A reduced mod pi as
    ``exp`` reduces it (:func:`core._exp_tangent`), then the stacked
    kernel :func:`core._geodesic_end`.  A survivor's value is the norm of
    its angles, the distance ||log_l(E)||, which is ||A|| only when A
    lies inside the cut locus.  Survivors are sorted by value and
    deduplicated by Grassmann distance, which is sound because off-cut
    critical points are isolated: in that order, a survivor is kept
    when it lies farther than :data:`DEDUP_DISTANCE` from every one kept
    before it, the angles to those from one stacked call.

    Raises
    ------
    DimensionError
        If the polynomial and ``l`` live on different Grassmannians, or
        ``n_starts`` is not positive.
    NonGenericL
        If the polynomial vanishes at ``l`` (the base point must be off
        the hypersurface).
    NoConvergence
        If no start is kept; per-start diagnostics attached.
    """
    if (p.n, p.k) != (l.n, l.k):
        raise DimensionError(f"polynomial on G({p.k},{p.n}) but base on G({l.k},{l.n})")
    if n_starts < 1:
        raise DimensionError(f"n_starts must be positive, got {n_starts}")
    if abs(p.eval(core.plucker_minors(l.plane))) <= 1e-12 * p.coefficient_scale():
        raise NonGenericL("polynomial vanishes at the base plane")
    n, k = p.n, p.k
    rng = np.random.default_rng(seed)
    u0, v0, mu0 = np.empty((n_starts, n - k, k)), np.empty((n_starts, k, k)), np.empty((n_starts, k))
    for start in range(n_starts):
        u0[start] = rng.standard_normal((n - k, k))
        v0[start] = rng.standard_normal((k, k))
        mu0[start] = rng.uniform(0.1, math.pi / 2 - 0.1, k)
    u0, v0 = core._signed_qr(u0), core._signed_qr(v0)
    x0 = ((u0 * mu0[:, None, :]) @ v0.swapaxes(1, 2)).reshape(n_starts, -1)
    res = least_squares(p, l, x0)
    residuals = _norm(res.fun)
    unsolved = ~(residuals < tol)
    solved = (~unsolved).nonzero()[0]
    on_cut = np.zeros(n_starts, dtype=bool)
    certs = np.full(n_starts, math.inf)
    found: list[tuple[Plane, float]] = []
    if solved.size:
        a = res.x[solved].reshape(-1, n - k, k)
        for row, a_row in enumerate(a):
            a[row] = core._exp_tangent(l, a_row, "solved tangent matrix")
        y = core._geodesic_end(l, a)
        angles = core._hybrid_angles(l.plane.basis, y)
        on_cut[solved] = cut = angles[:, -1] >= math.pi / 2 - core.TOL_CUT
        if not np.logical_and.reduce(cut):
            certs[solved[~cut]] = _normality_certificates(p, l.plane, y[~cut])
        found = [
            (Plane(n=n, k=k, basis=y[row]), float(core._norm(angles[row])))
            for row, start in enumerate(solved)
            if certs[start] < CERT_TOL
        ]
    diagnostics = [
        StartDiagnostic(
            start,
            "no convergence" if unsolved[start]
            else "on cut locus" if on_cut[start]
            else "converged" if certs[start] < CERT_TOL
            else "certificate failed",
            float(residuals[start]),
            float(certs[start]),
            int(res.start_nfev[start]),
            STOP_REASONS[res.status[start]],
        )
        for start in range(n_starts)
    ]
    found.sort(key=lambda t: t[1])
    kept = [0] if found else []
    if len(found) > 1:
        bases = np.array([point.basis for point, _ in found])
        for i in range(1, len(found)):
            # one stacked call against the points kept so far, each pair
            # in the order core.grassmann_distance takes it
            pair_angles = core._hybrid_angles(bases[i], bases[kept])
            if all(core._norm(pair) > DEDUP_DISTANCE for pair in pair_angles):
                kept.append(i)
    deduped = [found[i] for i in kept]
    if not deduped:
        raise NoConvergence(
            f"no start converged out of {n_starts}", diagnostics=diagnostics
        )
    if return_diagnostics:
        return deduped, diagnostics
    return deduped


# ---------------------------------------------------------------------------
# Distance complexity estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GdcReport:
    """Per-trial off-cut critical point counts and their maximum."""

    trials: int
    counts: tuple[int, ...]
    statuses: tuple[str, ...]
    max_count: int
    seed: int
    n_starts: int
    tol: float

    def to_dict(self) -> dict:
        return dict(asdict(self), counts=list(self.counts), statuses=list(self.statuses))


def gdc_estimate(
    p: PluckerPolynomial,
    trials: int,
    n_starts: int,
    seed: int,
    tol: float = SOLVER_TOL,
) -> GdcReport:
    """Empirical lower bound for the generic off-cut critical point count.

    For each trial draws a seeded random base plane, solves for critical
    points (all off the base plane's cut locus by construction) and
    records the count; the report's maximum is the estimate.  Solver
    failures are recorded per trial (count 0) rather than failing the
    batch.  Identical (seed, inputs) give identical reports.
    """
    if trials < 1 or n_starts < 1:
        raise DimensionError("trials and n_starts must be positive")
    results = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        base = core.complete_frame(core.random_plane(p.n, p.k, rng))
        try:
            results.append((len(find_critical_points(p, base, n_starts, rng, tol=tol)), "ok"))
        except NoConvergence:
            results.append((0, "no_convergence"))
        except NonGenericL:
            results.append((0, "base_on_hypersurface"))
    counts = tuple(c for c, _ in results)
    statuses = tuple(s for _, s in results)
    return GdcReport(
        trials=trials,
        counts=counts,
        statuses=statuses,
        max_count=max(counts),
        seed=seed,
        n_starts=n_starts,
        tol=tol,
    )
