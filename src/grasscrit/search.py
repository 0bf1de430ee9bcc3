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
exponential kernel, the Plucker minors, their cofactors and the
compiled polynomial.  The solver's Jacobian is a forward difference
with scipy's 2-point steps that evaluates the base point and all
k(n - k) shifted points in one stacked residual call.  The solver,
``scipy.optimize.least_squares``, is imported on the first solve by the
module-level :func:`least_squares`, so importing this module (and the
CLI) loads numpy alone; the solver is called through that module
attribute, which the traced benchmark wraps by name to time each start.

The module also evaluates the closed-form sphere-product distance on
the oriented double cover of G(2, 4), where a family of linear slices
yields a visibly non-algebraic critical-point system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

#: Relative finite-difference step of the solver's Jacobian (scipy's
#: 2-point default).
_FD_STEP = float(np.finfo(float).eps) ** 0.5


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
    scale, so evaluation never forms a terms x coordinates matrix.
    """

    n: int
    k: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
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
        power rule.
        """
        coords = np.asarray(coords, dtype=float)
        value = coords[..., self._indices].prod(axis=-1) @ self._coefs
        grad = np.zeros_like(coords)
        leave_one_out = coords[..., self._others].prod(axis=-1)
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

def _cofactors(blocks: np.ndarray) -> np.ndarray:
    """Cofactor matrices (gradients of det) of a stack of k x k blocks.

    Closed form for k <= 2; for k >= 3 from the SVD, which stays exact
    on singular blocks where det * inv breaks down.
    """
    k = blocks.shape[-1]
    if k == 1:
        return np.ones_like(blocks)
    if k == 2:
        return blocks[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    u, s, vt = np.linalg.svd(blocks)
    leave_one_out = np.stack(
        [np.prod(np.delete(s, i, axis=-1), axis=-1) for i in range(k)], -1
    )
    sign = np.linalg.det(u) * np.linalg.det(vt)
    return sign[..., None, None] * (u * leave_one_out[..., None, :]) @ vt


def _value_and_basis_grad(p: PluckerPolynomial, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(minors(y)) and its gradient with respect to y, for a stack of
    n x k matrices (..., n, k)."""
    table = core.plucker_index_table(p.n, p.k)
    value, dq_dc = p.eval_grad(core.plucker_minors(y))
    grad = np.zeros_like(y)
    cofactors = _cofactors(y[..., table, :])
    np.add.at(grad, (..., table, slice(None)), dq_dc[..., None, None] * cofactors)
    return value, grad


def _unit(x: np.ndarray) -> np.ndarray:
    """Each matrix of a stack divided by its Frobenius norm; zero
    matrices pass unchanged."""
    norm = np.linalg.norm(x, axis=(-2, -1), keepdims=True)
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


def hypersurface_normality_residual(p: PluckerPolynomial, l: Plane, point: Plane) -> float:
    """Chart-free criticality certificate at a hypersurface point.

    Computes the gradient of the polynomial on the Grassmannian at
    ``point`` (pulled back through the horizontal lift of the basis
    curve, so no basis gauge enters) and returns the norm of the
    component of the unit geodesic direction toward ``l`` orthogonal to
    that gradient line.  Zero means the geodesic is normal to the
    hypersurface, i.e. the point is critical.
    """
    frame = core.complete_frame(point)
    _, grad = _value_and_basis_grad(p, point.basis)
    gamma = frame.complement.T @ grad
    gnorm = float(np.linalg.norm(gamma))
    if gnorm == 0.0:
        return math.inf
    gamma /= gnorm
    direction = core.log(frame, l).a.copy()
    dnorm = float(np.linalg.norm(direction))
    if dnorm < 1e-15:
        return math.inf
    direction /= dnorm
    return float(np.linalg.norm(direction - float(np.sum(direction * gamma)) * gamma))


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def _residual(x: np.ndarray, p: PluckerPolynomial, l: FramedPlane) -> np.ndarray:
    """:func:`lagrange_residual` at the flattened tangent matrix ``x``."""
    return lagrange_residual(p, l, x.reshape(p.n - p.k, p.k))


def _jacobian(x: np.ndarray, p: PluckerPolynomial, l: FramedPlane) -> np.ndarray:
    """Forward-difference Jacobian of :func:`_residual` from one stacked
    residual call at x and the k(n-k) points x + h_j e_j.

    The steps are scipy's 2-point ones inside the box [-pi/2, pi/2]:
    h_j = sqrt(eps) sign(x_j) max(1, |x_j|), with sign(0) = +1, negated
    where x_j + h_j would leave the box, and each column is divided by
    the representable step (x_j + h_j) - x_j.
    """
    h = _FD_STEP * np.where(x >= 0.0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = np.where(np.abs(x + h) > math.pi / 2, -h, h)
    rows = np.vstack([x, x + np.diag(h)])
    r = lagrange_residual(p, l, rows.reshape(-1, p.n - p.k, p.k))
    return (r[1:] - r[0]).T / ((x + h) - x)


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on first use.

    Importing ``scipy.optimize`` costs several hundred ms, which every
    command that never solves would otherwise pay at start-up.  The
    function is a module attribute, looked up by name at each solve, so
    a tracer (``bench/run.py``) can wrap ``search.least_squares`` to time
    each start and read its nfev; a local import inside
    :func:`find_critical_points` would hide the solver from it.
    """
    from scipy import optimize

    return optimize.least_squares(*args, **kwargs)


@dataclass(frozen=True)
class StartDiagnostic:
    """Outcome of one solver start: ``status`` is "converged", "no
    convergence", "past cut locus" or "certificate failed"."""

    start: int
    status: str
    residual: float
    certificate: float
    nfev: int


def find_critical_points(
    p: PluckerPolynomial,
    l: FramedPlane,
    n_starts: int,
    seed,
    tol: float = SOLVER_TOL,
    cert_tol: float = CERT_TOL,
    return_diagnostics: bool = False,
):
    """Critical points of the distance from ``l`` restricted to {p = 0}.

    Runs a bounded least-squares solve of :func:`lagrange_residual` in
    the tangent matrix A at ``l`` from ``n_starts`` seeded random
    tangent matrices with angles in (0.1, pi/2 - 0.1).  The Jacobian
    is a forward difference with scipy's 2-point steps (flipped at the
    box [-pi/2, pi/2]) from one stacked residual call.  A start is kept
    when its residual is below ``tol``, the largest singular value of A
    is below pi/2 - ``core.TOL_CUT`` (so A is the minimizing logarithm
    and E = exp_l(A) is off the cut locus) and the chart-free normality
    certificate is below ``cert_tol``.  Survivors are deduplicated by
    Grassmann distance, which is sound because off-cut critical points
    are isolated, and sorted by their distance value ||A||.

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
    found: list[tuple[Plane, float]] = []
    diagnostics: list[StartDiagnostic] = []
    for start in range(n_starts):
        u0 = core._signed_qr(rng.standard_normal((n - k, k)))
        v0 = core._signed_qr(rng.standard_normal((k, k)))
        mu0 = rng.uniform(0.1, math.pi / 2 - 0.1, k)
        res = least_squares(
            _residual,
            ((u0 * mu0) @ v0.T).ravel(),
            jac=_jacobian,
            args=(p, l),
            bounds=(-math.pi / 2, math.pi / 2),
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-13,
            max_nfev=100,
        )
        a = res.x.reshape(n - k, k)
        resid_norm = float(np.linalg.norm(res.fun))
        cert = math.inf
        if resid_norm >= tol:
            status = "no convergence"
        elif float(np.linalg.norm(a, 2)) >= math.pi / 2 - core.TOL_CUT:
            status = "past cut locus"
        else:
            point = core.exp(l, core.tangent(l, a))
            cert = hypersurface_normality_residual(p, l.plane, point)
            status = "converged" if cert < cert_tol else "certificate failed"
        diagnostics.append(StartDiagnostic(start, status, resid_norm, cert, int(res.nfev)))
        if status == "converged":
            found.append((point, float(np.linalg.norm(a))))
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
        return {
            "trials": self.trials,
            "counts": list(self.counts),
            "statuses": list(self.statuses),
            "max_count": self.max_count,
            "seed": self.seed,
            "n_starts": self.n_starts,
            "tol": self.tol,
        }


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
        return {
            "k": self.k,
            "n": self.n,
            "d": self.d,
            "c_param": self.c_param,
            "c1_int": self.c1_int,
            "c2": self.c2,
            "c1": self.c1,
            "log10_c1": self.log10_c1,
            "bound": self.bound,
            "log10_bound": self.log10_bound,
        }


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
