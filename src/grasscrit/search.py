"""Critical points of the distance to algebraic hypersurfaces, distance
complexity estimation, and explicit complexity bounds.

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
a solution counts only when A lies inside the cut locus and the
chart-free certificate (geodesic direction normal to the hypersurface)
also passes.  Counting the surviving points over random base planes
gives an empirical lower bound for the generic critical-point count,
which explicit format-based constants bound from above.

The whole evaluation path takes stacks of tangent matrices: the
exponential kernel, the Plucker minors from the core column-by-column
Laplace sweep, the compiled polynomial, and the polynomial's gradient
in the basis from the same sweep run backward (no cofactor matrices).
Every reduction on this path runs in a fixed order, so a row of a
stacked residual does not depend on the other rows.  The solver,
:func:`least_squares`, runs all starts of a query in lockstep, each
with its own state, through the trust-region-reflective method of
Branch, Coleman and Li with Moré's Levenberg-Marquardt step (the
configuration of scipy's bounded ``trf`` with exact trust-region
solves; the tests run scipy as the reference, start by start).  Each
round makes one stacked residual call: the trial point of every
running start together with its k(n - k) forward-difference shifts, so
the Jacobian of an accepted step is already there and that of a
rejected one is dropped; the quadratic model and the reflective choice
at the box are stacked too, and so are the certificates of a query,
whose bases are the found planes.  The module needs numpy alone; the
solver is called through the module attribute, which the traced
benchmark wraps by name to time each query.

The module also evaluates the closed-form sphere-product distance on
the oriented double cover of G(2, 4), where a family of linear slices
yields a visibly non-algebraic critical-point system.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from decimal import Decimal, localcontext

import numpy as np

from . import core
from .core import FramedPlane, Plane, TangentMatrix
from .errors import (
    DimensionError,
    DomainError,
    FrameMismatch,
    NoConvergence,
    NonGenericL,
    NotUnit,
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

#: Bound on every entry of the solver's tangent matrix: the box
#: [-pi/2, pi/2] holds the off-cut domain ||A||_2 < pi/2.
_BOX = math.pi / 2
_INSIDE = float(np.nextafter(_BOX, 0.0))

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
        """Value at coordinates of shape (..., binomial(n, k)); shape (...)."""
        return self.eval_grad(coords)[0]

    def eval_grad(self, coords: np.ndarray):
        """Value (...) and gradient (..., binomial(n, k)) at coordinates
        of shape (..., binomial(n, k)).

        A monomial's derivative in one of its d slots is the product of
        the other d - 1 factors (a leave-one-out product), so zero
        coordinates need no division; repeated slots add up to the
        power rule.  The value sums the terms in a fixed order rather
        than by a BLAS matrix-vector product, whose rounding depends on
        the number of rows in the stack.
        """
        coords = np.asarray(coords, dtype=float)
        value = (coords.take(self._indices, axis=-1).prod(axis=-1) * self._coefs).sum(axis=-1)
        grad = np.zeros_like(coords)
        leave_one_out = coords.take(self._others, axis=-1).prod(axis=-1)
        np.add.at(grad, (..., self._indices), self._coefs[:, None] * leave_one_out)
        return value, grad

    def coefficient_scale(self) -> float:
        return self._scale


def linear_form(n: int, k: int, weights) -> PluckerPolynomial:
    """Degree-1 hypersurface: a hyperplane section in Plucker coordinates."""
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
    # np.linalg.norm's arithmetic, without its per-call overhead
    norm = np.sqrt(np.add.reduce(x * x, axis=(-2, -1), keepdims=True))
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
        if not np.array_equal(a.frame.frame, l.frame):
            raise FrameMismatch("tangent matrix not attached to the base frame")
        a = a.a
    y, ydot = core._geodesic_end(l, a, velocity=True)
    value, grad = _value_and_basis_grad(p, y)
    velocity = _unit(ydot)
    normal = _unit(grad - y @ (y.swapaxes(-1, -2) @ grad))
    tangential = velocity - np.sum(velocity * normal, axis=(-2, -1), keepdims=True) * normal
    head = np.asarray(value)[..., None] / p.coefficient_scale()
    return np.concatenate([head, tangential.reshape(y.shape[:-2] + (-1,))], axis=-1)


def _normality_certificates(p: PluckerPolynomial, l: Plane, y: np.ndarray) -> np.ndarray:
    """:func:`hypersurface_normality_residual` at a stack of points with
    orthonormal bases ``y`` (S, n, k): one frame completion, one basis
    gradient and one logarithm toward ``l`` for the whole stack.
    Returns the certificates (S,)."""
    complements = core._frame_complements(y)
    _, grad = _value_and_basis_grad(p, y)
    gamma = complements.swapaxes(-1, -2) @ grad
    direction, _ = core._log(y, complements, l.basis, core.TOL_CUT)
    gnorm = np.linalg.norm(gamma, axis=(-2, -1), keepdims=True)
    dnorm = np.linalg.norm(direction, axis=(-2, -1), keepdims=True)
    gamma = gamma / np.where(gnorm == 0.0, 1.0, gnorm)
    direction = direction / np.where(dnorm < 1e-15, 1.0, dnorm)
    along = np.sum(direction * gamma, axis=(-2, -1), keepdims=True)
    cert = np.linalg.norm(direction - along * gamma, axis=(-2, -1))
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

def _jacobian(p: PluckerPolynomial, l: FramedPlane, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals f (S, 1 + n k) of :func:`lagrange_residual` at the S
    flattened tangent matrices ``x`` (S, m) and their forward-difference
    Jacobians J (S, 1 + n k, m), from one stacked call at the S (m + 1)
    points x and x + h_j e_j.

    The steps are scipy's 2-point ones inside the box [-pi/2, pi/2]:
    h_j = sqrt(eps) sign(x_j) max(1, |x_j|), with sign(0) = +1, negated
    where x_j + h_j would leave the box, and each column is divided by
    the representable step (x_j + h_j) - x_j.
    """
    n_starts, m = x.shape
    h = _FD_STEP * np.where(x >= 0.0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = np.where(np.abs(x + h) > _BOX, -h, h)
    stencil = x[:, None, :] + h[:, None, :] * np.eye(m + 1, m, -1)
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
    augmented scaled Jacobian (U, sv, V^T), with ``uf`` = U^T f.

    The Gauss-Newton step is taken when the Jacobian has full rank and
    the step fits in the radius ``delta``; otherwise the
    Levenberg-Marquardt parameter alpha solves ||p(alpha)|| = delta to
    1 % by at most 10 safeguarded Newton iterations on
    phi(alpha) = ||p(alpha)|| - delta, warm-started from ``alpha``, and
    the step is scaled onto the boundary.  Starts still iterating are
    masked; each sees scipy's scalar iteration.  Returns the steps (S, m)
    and the new parameters (S,).
    """
    suf = sv * uf
    full_rank = sv[:, -1] > _EPS * n_res * sv[:, 0]
    step = -_matvec(v, np.divide(uf, sv, out=np.zeros_like(uf), where=full_rank[:, None]))
    gauss_newton = full_rank & (_norm(step) <= delta)
    alpha = np.where(gauss_newton, 0.0, alpha)
    rest = np.flatnonzero(~gauss_newton)
    if not rest.size:
        return step, alpha

    suf, sv, radius, full_rank = suf[rest], sv[rest], delta[rest], full_rank[rest]

    def phi_and_derivative(a, i):
        denom = sv[i] ** 2 + a[:, None]
        p_norm = _norm(suf[i] / denom)
        return p_norm - radius[i], -np.sum(suf[i] ** 2 / denom**3, axis=1) / p_norm

    upper = _norm(suf) / radius
    lower = np.zeros_like(upper)
    fr = np.flatnonzero(full_rank)
    if fr.size:
        phi, phi_prime = phi_and_derivative(np.zeros(fr.size), fr)
        lower[fr] = -phi / phi_prime
    a = alpha[rest]
    a = np.where(~full_rank & (a == 0.0), np.maximum(0.001 * upper, np.sqrt(lower * upper)), a)
    running = np.arange(rest.size)
    for _ in range(10):
        ai, lo, up, radius_i = a[running], lower[running], upper[running], radius[running]
        ai = np.where((ai < lo) | (ai > up), np.maximum(0.001 * up, np.sqrt(lo * up)), ai)
        phi, phi_prime = phi_and_derivative(ai, running)
        upper[running] = np.where(phi < 0, ai, up)
        ratio = phi / phi_prime
        lower[running] = np.maximum(lo, ai - ratio)
        a[running] = ai - (phi + radius_i) * ratio / radius_i
        running = running[~(np.abs(phi) < 0.01 * radius_i)]
        if not running.size:
            break
    p = -_matvec(v[rest], suf / (sv**2 + a[:, None]))
    step[rest] = p * (radius / _norm(p))[:, None]
    alpha[rest] = a
    return step, alpha


def _model_1d(j_h, g_h, diag_h, s, s0=None):
    """Coefficients of t -> model(s0 + t s) of each start, the model
    0.5 z^T (J^T J + diag) z + g^T z on rows (R, m): (a, b) from s0 = 0,
    else (a, b, c).  The model's value at s itself is a + b."""
    v = _matvec(j_h, s)
    a = 0.5 * (_dot(v, v) + _dot(s * diag_h, s))
    b = _dot(g_h, s)
    if s0 is None:
        return a, b
    u = _matvec(j_h, s0)
    b = b + _dot(u, v)
    c = 0.5 * _dot(u, u) + _dot(g_h, s0)
    b = b + _dot(s0 * diag_h, s)
    c = c + 0.5 * _dot(s0 * diag_h, s0)
    return a, b, c


def _to_bound(x: np.ndarray, s: np.ndarray):
    """Largest t >= 0 with x + t s in the box, row by row (R, m), and
    the entries that hit it there (+1 or -1 by the sign of s, else 0)."""
    moving = s != 0
    s_safe = np.where(moving, s, 1.0)
    steps = np.where(moving, np.maximum((-_BOX - x) / s_safe, (_BOX - x) / s_safe), np.inf)
    t = np.min(steps, axis=1)
    return t, np.equal(steps, t[:, None]) * np.sign(s).astype(int)


def _minimize_1d(a, b, lb, ub, c=0.0):
    """Minimum point and value of a t^2 + b t + c on [lb, ub], entry by
    entry of (R,) arrays: the first smallest of lb, ub and an inner vertex."""
    vertex = -0.5 * b / np.where(a != 0, a, 1.0)
    inside = (a != 0) & (lb < vertex) & (vertex < ub)
    # a vertex outside the interval is replaced by ub, which ties with ub
    t = np.stack([lb, ub, np.where(inside, vertex, ub)])
    y = t * (a * t + b) + c
    i = np.argmin(y, axis=0)[None]
    return np.take_along_axis(t, i, 0)[0], np.take_along_axis(y, i, 0)[0]


def _reflective_step(x, j_h, diag_h, g_h, p, p_h, d, delta, theta):
    """Steps of the R starts (rows) whose trust-region step ``p`` leaves
    the box, all in one pass.

    The trust-region-reflective choice of Branch, Coleman and Li: for
    each start the best, on the quadratic model, of the step cut at the
    box and stepped back by ``theta``, its reflection at the box, and
    the scaled steepest-descent step.  Returns the steps, their scaled
    form and their predicted reductions.
    """
    p_stride, hits = _to_bound(x, p)
    r_h = np.where(hits != 0, -p_h, p_h)
    p, p_h = p * p_stride[:, None], p_h * p_stride[:, None]
    # the reflected direction leaves the trust region or the box first
    aa, bb = _dot(r_h, r_h), _dot(p_h, r_h)
    cc = _dot(p_h, p_h) - delta**2
    q = -(bb + np.copysign(np.sqrt(bb * bb - aa * cc), bb))
    to_tr = np.maximum(q / aa, cc / q)
    to_bound, _ = _to_bound(x + p, d * r_h)
    r_stride = np.minimum(to_bound, to_tr)
    positive = r_stride > 0
    r_lo = np.where(positive, (1 - theta) * p_stride / np.where(positive, r_stride, 1.0), 0.0)
    r_hi = np.where(positive, np.where(r_stride == to_bound, theta * to_bound, to_tr), -1.0)
    a, b, c = _model_1d(j_h, g_h, diag_h, r_h, s0=p_h)
    r_stride, r_value = _minimize_1d(a, b, r_lo, r_hi, c)
    r_value = np.where(r_lo <= r_hi, r_value, math.inf)
    r_h = r_h * r_stride[:, None] + p_h
    r = r_h * d
    p, p_h = p * theta[:, None], p_h * theta[:, None]
    a, b = _model_1d(j_h, g_h, diag_h, p_h)
    p_value = a + b
    ag_h = -g_h
    ag = d * ag_h
    to_tr = delta / _norm(ag_h)
    to_bound, _ = _to_bound(x, ag)
    ag_stride = np.where(to_bound < to_tr, theta * to_bound, to_tr)
    a, b = _model_1d(j_h, g_h, diag_h, ag_h)
    ag_stride, ag_value = _minimize_1d(a, b, np.zeros_like(ag_stride), ag_stride)
    take_p = (p_value < r_value) & (p_value < ag_value)
    take_r = (r_value < p_value) & (r_value < ag_value)
    value = np.where(take_p, p_value, np.where(take_r, r_value, ag_value))
    take_p, take_r = take_p[:, None], take_r[:, None]
    step = np.where(take_p, p, np.where(take_r, r, ag * ag_stride[:, None]))
    step_h = np.where(take_p, p_h, np.where(take_r, r_h, ag_h * ag_stride[:, None]))
    return step, step_h, -value


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
    """Bounded least-squares solves of :func:`lagrange_residual` from the
    starts ``x0`` (S, k(n-k)), flattened tangent matrices at ``l`` with
    every entry inside (-pi/2, pi/2), run in lockstep.

    Each start runs the trust-region-reflective method (scipy's ``trf``
    with ``tr_solver="exact"``, ``x_scale=1``): Moré's trust-region
    Levenberg-Marquardt step in the Coleman-Li scaling of the box
    [-pi/2, pi/2] on every entry, reflected at the box when the step
    leaves it.  A start stops on scipy's rules: an accepted step that
    lowers the cost by less than ``ftol = 1e-8`` of it (a plateau; a
    start converging to a root lowers its cost by orders of magnitude
    per step), a step below ``xtol = 1e-15`` relative to the iterate, a
    scaled gradient below ``gtol = 1e-13``, or 100 residual
    evaluations; ``status`` records which.  Every start keeps its own
    iterate, radius, Levenberg-Marquardt parameter and evaluation
    count, and stops on its own.  Each round evaluates the trial points
    of all running starts, each together with its forward-difference
    stencil, in one stacked residual call (see :func:`_jacobian`), and
    takes one batched SVD of the augmented scaled Jacobians of the
    starts whose step was accepted (the first call does the same for
    ``x0``) and one :func:`_reflective_step` call for all starts whose
    step leaves the box.  The stencils at rejected trial points are
    computed and discarded: evaluating them speculatively costs one
    pass per round instead of two.  ``nfev`` counts trial points and ``njev`` the
    Jacobians at accepted points (scipy's meanings); as in scipy, the
    gradient at an accepted point is checked against gtol also when the
    step ended the start, and a gtol stop there takes precedence.

    The solver is a module attribute, looked up by name at each query,
    so a tracer can wrap ``search.least_squares`` to time each query.
    """
    x = np.array(x0, dtype=float)
    n_starts, m = x.shape
    f, jac = _jacobian(p, l, x)
    n_res = f.shape[1]
    cost = 0.5 * _dot(f, f)
    nfev = np.ones(n_starts, dtype=int)
    njev = 0
    delta = None
    alpha = np.zeros(n_starts)
    # each start's scaled problem, refreshed after each accepted step
    d, diag_h, g_h, uf, sv = np.empty((5, n_starts, m))
    j_h = np.empty((n_starts, n_res, m))
    v_svd = np.empty((n_starts, m, m))
    theta = np.empty(n_starts)
    running = np.ones(n_starts, dtype=bool)
    status = np.zeros(n_starts, dtype=int)
    fresh = np.arange(n_starts)
    while True:
        if fresh.size:
            xf, ff, jf = x[fresh], f[fresh], jac[fresh]
            njev += fresh.size
            g = (ff[:, None, :] @ jf)[:, 0]
            # Coleman-Li scaling: distance to the bound a descent step moves toward
            dv = np.sign(g)
            v = np.where(dv < 0, _BOX - xf, np.where(dv > 0, xf + _BOX, 1.0))
            if delta is None:  # the first round, where every start is fresh
                delta = _norm(x / np.sqrt(v))
                delta[delta == 0] = 1.0
            g_norm = np.max(np.abs(g * v), axis=1)
            stop = g_norm < _GTOL
            status[fresh[stop]] = 1
            running[fresh[stop]] = False
            keep = running[fresh]
            if not keep.all():
                fresh, ff, g, v, dv, jf, g_norm = (
                    a[keep] for a in (fresh, ff, g, v, dv, jf, g_norm)
                )
            scale = np.sqrt(v)
            scaled_jac = jf * scale[:, None, :]
            diag = g * dv
            u, sv[fresh], vt = np.linalg.svd(
                np.concatenate([scaled_jac, np.sqrt(diag)[:, :, None] * np.eye(m)], axis=1),
                full_matrices=False,
            )
            d[fresh], diag_h[fresh], g_h[fresh], j_h[fresh] = scale, diag, scale * g, scaled_jac
            v_svd[fresh] = vt.swapaxes(1, 2)
            uf[fresh] = (ff[:, None, :] @ u[:, :n_res])[:, 0]
            theta[fresh] = np.maximum(0.995, 1 - g_norm)
        idx = np.flatnonzero(running)
        if not idx.size:
            break
        step_h, alpha[idx] = _trust_region_steps(
            uf[idx], sv[idx], v_svd[idx], delta[idx], alpha[idx], n_res
        )
        step = d[idx] * step_h
        a, b = _model_1d(j_h[idx], g_h[idx], diag_h[idx], step_h)
        predicted = -(a + b)
        xs = x[idx]
        out = np.flatnonzero(np.any(np.abs(xs + step) > _BOX, axis=1))
        if out.size:
            s = idx[out]
            step[out], step_h[out], predicted[out] = _reflective_step(
                xs[out], j_h[s], diag_h[s], g_h[s], step[out], step_h[out], d[s], delta[s],
                theta[s],
            )
        # strictly inside the box: no double lies between -_BOX and _INSIDE
        x_new = np.clip(xs + step, -_INSIDE, _INSIDE)
        f_new, jac_new = _jacobian(p, l, x_new)
        nfev[idx] += 1
        step_h_norm = _norm(step_h)
        finite = np.all(np.isfinite(f_new), axis=1)
        cost_new = 0.5 * _dot(f_new, f_new)
        actual = cost[idx] - cost_new
        ratio = np.where((predicted == 0) & (actual == 0), 1.0, 0.0)
        np.divide(actual, predicted, out=ratio, where=predicted > 0)
        radius = delta[idx]
        new_radius = np.where(
            ratio < 0.25,
            0.25 * step_h_norm,
            np.where((ratio > 0.75) & (step_h_norm > 0.95 * radius), 2.0 * radius, radius),
        )
        ftol = (actual < _FTOL * cost[idx]) & (ratio > 0.25) & finite
        xtol = (_norm(step) < _XTOL * (_XTOL + _norm(xs))) & finite
        stopped = ftol | xtol
        status[idx[stopped]] = np.where(xtol, np.where(ftol, 4, 3), 2)[stopped]
        update = finite & ~stopped
        alpha[idx[update]] *= radius[update] / new_radius[update]
        delta[idx[update]] = new_radius[update]
        delta[idx[~finite]] = 0.25 * step_h_norm[~finite]
        accepted = finite & (actual > 0)
        taken = idx[accepted]
        x[taken], f[taken], cost[taken] = x_new[accepted], f_new[accepted], cost_new[accepted]
        jac[taken] = jac_new[accepted]
        running[idx[stopped | (nfev[idx] == _MAX_NFEV)]] = False
        fresh = taken
    return SolveResult(
        x=x, fun=f, start_nfev=nfev, nfev=int(nfev.sum()), njev=njev, status=status
    )


@dataclass(frozen=True)
class StartDiagnostic:
    """Outcome of one solver start: ``status`` is "converged", "no
    convergence", "past cut locus" or "certificate failed", and ``stop``
    the solver's stop reason, one of :data:`STOP_REASONS`."""

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
    the tangent matrix A at ``l``, inside the box [-pi/2, pi/2] on every
    entry, from ``n_starts`` seeded random tangent matrices with angles
    in (0.1, pi/2 - 0.1), all in one lockstep call of
    :func:`least_squares`; each start's diagnostic carries its own
    residual evaluations (nfev).  A start is kept when its residual is
    below ``tol``, the largest singular value of A is below
    pi/2 - ``core.TOL_CUT`` (so A is the minimizing logarithm
    and E = exp_l(A) is off the cut locus) and the chart-free normality
    certificate is below :data:`CERT_TOL`.  The certificates of all
    starts that pass the first two tests are one stacked pass, each
    equal to :func:`hypersurface_normality_residual` at its point, and
    each survivor's plane is its basis from that pass, the basis
    :func:`core.exp` gives.  Survivors are
    deduplicated by Grassmann distance, which is sound because off-cut
    critical points are isolated, and sorted by their distance value
    ||A||.

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
    x0 = np.empty((n_starts, (n - k) * k))
    for start in range(n_starts):
        u0 = core._signed_qr(rng.standard_normal((n - k, k)))
        v0 = core._signed_qr(rng.standard_normal((k, k)))
        mu0 = rng.uniform(0.1, math.pi / 2 - 0.1, k)
        x0[start] = ((u0 * mu0) @ v0.T).ravel()
    res = least_squares(p, l, x0)
    a = res.x.reshape(n_starts, n - k, k)
    residuals = _norm(res.fun)
    unsolved = residuals >= tol
    past_cut = ~unsolved & (np.linalg.norm(a, 2, axis=(1, 2)) >= math.pi / 2 - core.TOL_CUT)
    candidates = np.flatnonzero(~unsolved & ~past_cut)
    certs = np.full(n_starts, math.inf)
    found: list[tuple[Plane, float]] = []
    if candidates.size:
        y = core._geodesic_end(l, a[candidates])
        certs[candidates] = _normality_certificates(p, l.plane, y)
        values = _norm(res.x)
        found = [
            (Plane(n=n, k=k, basis=y[row]), float(values[start]))
            for row, start in enumerate(candidates)
            if certs[start] < CERT_TOL
        ]
    diagnostics = [
        StartDiagnostic(
            start,
            "no convergence" if unsolved[start]
            else "past cut locus" if past_cut[start]
            else "converged" if certs[start] < CERT_TOL
            else "certificate failed",
            float(residuals[start]),
            float(certs[start]),
            int(res.start_nfev[start]),
            STOP_REASONS[res.status[start]],
        )
        for start in range(n_starts)
    ]
    deduped: list[tuple[Plane, float]] = []
    for point, value in sorted(found, key=lambda t: t[1]):
        if all(core.grassmann_distance(point, q) > DEDUP_DISTANCE for q, _ in deduped):
            deduped.append((point, value))
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


# ---------------------------------------------------------------------------
# Explicit complexity bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Evaluation of the explicit degree-power complexity bound.

    ``c1_int`` is the exact integer value of the leading constant at
    unit undetermined factor; ``c_param`` scales it.  ``bound`` is
    c_param * c1_int * d**c2, reported as a float when representable
    and always in log10 form.
    """

    k: int
    n: int
    d: int
    c_param: float
    c1_int: int
    c2: int
    c1: float
    log10_c1: float
    bound: float
    log10_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def _log10_int(value: int) -> float:
    with localcontext() as ctx:
        ctx.prec = 60
        return float(Decimal(value).log10())


def _scaled_float(big: int, scale: float, log10_total: float) -> float:
    """scale * big as a float; falls back to the log form out of range."""
    if log10_total >= 308.0:
        return math.inf
    try:
        return scale * float(big)
    except OverflowError:
        return 10.0 ** log10_total


def pfaffian_bound(k: int, n: int, d: int, c_param: float = 1.0) -> BoundReport:
    """Explicit upper bound constants for hypersurface distance complexity.

    The exponent is ``c2 = k (n + 5)`` exactly; the leading constant is
    ``c1 = 2 k * c * 2^(8 k^2 - 2 k)
    * (binomial(n k, k(k+1)+1) + (k+1)^2)^(k (n + 1))
    * (2 k^2 (n + 1))^(k (n + 5))``
    with the undetermined factor ``c`` exposed as ``c_param`` (default
    1, always reported).  Everything is evaluated in exact integer
    arithmetic; magnitudes too large for floats are reported through
    their base-10 logarithm.
    """
    if not (1 <= k <= n - k):
        raise DimensionError(f"need 1 <= k <= n - k, got k={k}, n={n}")
    if d < 1:
        raise DimensionError(f"degree must be >= 1, got {d}")
    if not (c_param > 0):
        raise DimensionError(f"c_param must be positive, got {c_param}")
    c2 = k * (n + 5)
    c1_tilde = (
        2 ** (8 * k * k - 2 * k)
        * (math.comb(n * k, k * (k + 1) + 1) + (k + 1) ** 2) ** (k * (n + 1))
        * (2 * k * k * (n + 1)) ** c2
    )
    c1_int = 2 * k * c1_tilde
    log10_c1 = math.log10(c_param) + _log10_int(c1_int)
    log10_bound = log10_c1 + c2 * math.log10(d)
    c1 = _scaled_float(c1_int, c_param, log10_c1)
    bound = _scaled_float(c1_int * d**c2, c_param, log10_bound)
    return BoundReport(
        k=k,
        n=n,
        d=d,
        c_param=c_param,
        c1_int=c1_int,
        c2=c2,
        c1=c1,
        log10_c1=log10_c1,
        bound=bound,
        log10_bound=log10_bound,
    )


# ---------------------------------------------------------------------------
# Oriented G(2,4) sphere-product model
# ---------------------------------------------------------------------------

def _check_unit(vec, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise DimensionError(f"{name} must be a 3-vector, got shape {v.shape}")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-10:
        raise NotUnit(f"{name} has norm {np.linalg.norm(v)!r}, expected 1 within 1e-10")
    return v


def g24_distance(x, y, z, w) -> float:
    """Distance on the oriented double cover of G(2, 4).

    The cover embeds as the product of two unit 2-spheres; the distance
    between (x, y) and (z, w) is the l2 norm of the two spherical
    angles.
    """
    x, y, z, w = (_check_unit(v, name) for v, name in ((x, "x"), (y, "y"), (z, "z"), (w, "w")))
    ax = math.acos(min(1.0, max(-1.0, float(x @ z))))
    ay = math.acos(min(1.0, max(-1.0, float(y @ w))))
    return math.sqrt(ax * ax + ay * ay)


def g24_alpha(w: float) -> float:
    """arccos(w) / sqrt(1 - w^2) on (-1, 1); strictly positive there."""
    if abs(w) >= 1.0:
        raise DomainError(f"alpha undefined at |w| >= 1, got {w}")
    return math.acos(w) / math.sqrt(1.0 - w * w)


def g24_critical_residual(y1: float, beta: float) -> float:
    """Off-cut criticality residual of the slice family at parameter beta.

    Zeros of ``alpha(y1) + beta alpha(beta y1)`` (with the sphere and
    slice constraints) are the off-cut critical points of the distance
    to the slice.  Since alpha is positive on (-1, 1), the residual is
    positive for beta > 0; the scan report documents this grid evidence
    without asserting nonexistence.
    """
    if abs(y1) >= 1.0 or abs(beta * y1) >= 1.0:
        raise DomainError(f"need |y1| < 1 and |beta*y1| < 1, got y1={y1}, beta={beta}")
    return g24_alpha(y1) + beta * g24_alpha(beta * y1)


def g24_det_identity_check(x, y, beta: float) -> tuple[float, float]:
    """Both sides of the closed-form factorization of the criticality minor.

    The left side is the determinant of M^T M for the 6 x 4 gradient
    matrix of the slice system; the right side is the product
    (x2^2 + x3^2)(y2^2 + y3^2)(alpha(y1) + beta alpha(x1))^2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (3,) or y.shape != (3,):
        raise DimensionError("x and y must be 3-vectors")
    if abs(float(x[0])) >= 1.0 or abs(float(y[0])) >= 1.0:
        raise DomainError("need |x1| < 1 and |y1| < 1")
    ax, ay = g24_alpha(float(x[0])), g24_alpha(float(y[0]))
    m = np.array(
        [
            [x[0], 0.0, ax, 1.0],
            [x[1], 0.0, 0.0, 0.0],
            [x[2], 0.0, 0.0, 0.0],
            [0.0, y[0], ay, -beta],
            [0.0, y[1], 0.0, 0.0],
            [0.0, y[2], 0.0, 0.0],
        ]
    )
    lhs = float(np.linalg.det(m.T @ m))
    rhs = float(
        (x[1] ** 2 + x[2] ** 2) * (y[1] ** 2 + y[2] ** 2) * (ay + beta * ax) ** 2
    )
    return lhs, rhs


def g24_residual_scan(
    betas, n_grid: int = 2001, y1_lo: float = -0.999, y1_hi: float = 0.999
) -> dict:
    """Deterministic sign scan of the criticality residual over a grid.

    For each beta reports the residual extrema, the number of sign
    changes (roots bracketed by the grid) and whether the residual is
    positive throughout.  The scan documents evidence; it does not
    decide solvability.

    Raises
    ------
    DimensionError
        If ``n_grid`` is below 2.
    DomainError
        If a beta is not finite, or no grid point y1 has |beta y1| < 1.
    """
    n_grid = int(n_grid)
    if n_grid < 2:
        raise DimensionError(f"n_grid must be at least 2, got {n_grid}")
    out = {"y1_lo": y1_lo, "y1_hi": y1_hi, "n_grid": n_grid, "betas": []}
    ys = np.linspace(y1_lo, y1_hi, n_grid)
    for beta in betas:
        beta = float(beta)
        if not math.isfinite(beta):
            raise DomainError(f"beta must be finite, got {beta}")
        vals = []
        for y1 in ys:
            if abs(beta * y1) >= 1.0:
                continue
            vals.append(g24_critical_residual(float(y1), beta))
        if not vals:
            raise DomainError(f"no grid point y1 has |beta*y1| < 1 for beta={beta!r}")
        vals = np.array(vals)
        signs = np.sign(vals)
        changes = int(np.sum(signs[1:] * signs[:-1] < 0))
        out["betas"].append(
            {
                "beta": beta,
                "grid_points": int(vals.size),
                "min_residual": float(np.min(vals)),
                "max_residual": float(np.max(vals)),
                "sign_changes": changes,
                "all_positive": bool(np.all(vals > 0.0)),
            }
        )
    return out
