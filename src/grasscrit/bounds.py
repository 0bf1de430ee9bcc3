"""Explicit complexity bounds and the oriented G(2, 4) sphere-product model.

:func:`pfaffian_bound` evaluates the explicit degree-power upper bound
on the distance complexity of a hypersurface of degree d in G(k, n) in
exact integer arithmetic, reporting magnitudes too large for floats
through their base-10 logarithm.

The rest of the module evaluates the closed-form sphere-product
distance on the oriented double cover of G(2, 4), where a family of
linear slices yields a visibly non-algebraic critical-point system,
on Python floats and :mod:`math`; the determinant side of its identity
check is exact in rationals.  Neither part imports numpy or runs the
critical-point solver of :mod:`grasscrit.search`, so the ``bound`` and
``g24-demo`` commands start without numpy.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from numbers import Real
from typing import NamedTuple

from .errors import DimensionError, DomainError, NotUnit


# ---------------------------------------------------------------------------
# Explicit complexity bound
# ---------------------------------------------------------------------------

class BoundReport(NamedTuple):
    """Evaluation of the explicit degree-power complexity bound.

    ``c1_int`` is the exact integer value of the leading constant at
    unit undetermined factor; ``c_param`` scales it.  ``bound`` is
    c_param * c1_int * d**c2, reported as a float when representable
    and always in log10 form.  A named tuple rather than a dataclass,
    so the ``bound`` command does not import :mod:`dataclasses`.
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
        return self._asdict()


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

    Raises
    ------
    DimensionError
        If not 1 <= k <= n - k, or if d < 1.
    DomainError
        If ``c_param`` is not finite and positive.
    """
    if not (1 <= k <= n - k):
        raise DimensionError(f"need 1 <= k <= n - k, got k={k}, n={n}")
    if d < 1:
        raise DimensionError(f"degree must be >= 1, got {d}")
    if not 0 < c_param < math.inf:
        raise DomainError(f"c_param must be finite and positive, got {c_param}")
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

def _vector3(vec, name: str) -> tuple[float, float, float]:
    """``vec`` as three floats, or a DimensionError for any other shape."""
    try:
        v = tuple(vec)
    except TypeError:  # a scalar
        v = ()
    if len(v) != 3 or not all(isinstance(c, Real) for c in v):
        raise DimensionError(f"{name} must be a 3-vector of reals, got {vec!r}")
    return tuple(float(c) for c in v)


def _check_unit(vec, name: str) -> tuple[float, float, float]:
    v = _vector3(vec, name)
    norm = math.sqrt(_dot(v, v))
    if abs(norm - 1.0) > 1e-10:
        raise NotUnit(f"{name} has norm {norm!r}, expected 1 within 1e-10")
    return v


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def g24_distance(x, y, z, w) -> float:
    """Distance on the oriented double cover of G(2, 4).

    The cover embeds as the product of two unit 2-spheres; the distance
    between (x, y) and (z, w) is the l2 norm of the two spherical
    angles.
    """
    x, y, z, w = (_check_unit(v, name) for v, name in ((x, "x"), (y, "y"), (z, "z"), (w, "w")))
    ax = math.acos(min(1.0, max(-1.0, _dot(x, z))))
    ay = math.acos(min(1.0, max(-1.0, _dot(y, w))))
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
    matrix of the slice system, taken exactly in rational arithmetic on
    the float entries of M and rounded once, so it is the same on every
    platform; the right side is the product
    (x2^2 + x3^2)(y2^2 + y3^2)(alpha(y1) + beta alpha(x1))^2.

    Raises
    ------
    DimensionError
        If x or y is not a 3-vector of reals.
    DomainError
        If |x1| >= 1 or |y1| >= 1, or an input is not finite.
    """
    x, y, beta = _vector3(x, "x"), _vector3(y, "y"), float(beta)
    if abs(x[0]) >= 1.0 or abs(y[0]) >= 1.0:
        raise DomainError("need |x1| < 1 and |y1| < 1")
    if not all(map(math.isfinite, (*x, *y, beta))):
        raise DomainError(f"x, y and beta must be finite, got {x}, {y}, {beta}")
    ax, ay = g24_alpha(x[0]), g24_alpha(y[0])
    m = [
        (x[0], 0.0, ax, 1.0),
        (x[1], 0.0, 0.0, 0.0),
        (x[2], 0.0, 0.0, 0.0),
        (0.0, y[0], ay, -beta),
        (0.0, y[1], 0.0, 0.0),
        (0.0, y[2], 0.0, 0.0),
    ]
    m = [[Fraction(v) for v in row] for row in m]
    gram = [[sum(row[i] * row[j] for row in m) for j in range(4)] for i in range(4)]
    lhs = float(_exact_det(gram))
    rhs = (x[1] ** 2 + x[2] ** 2) * (y[1] ** 2 + y[2] ** 2) * (ay + beta * ax) ** 2
    return lhs, rhs


def _exact_det(a: list[list[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * _exact_det([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
    )


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """``num`` >= 2 evenly spaced points from ``lo`` to ``hi``, by the
    formula of ``np.linspace``, so the grid is the same point for point."""
    step = (hi - lo) / (num - 1)
    return [i * step + lo for i in range(num - 1)] + [hi]


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
    ys = _linspace(y1_lo, y1_hi, n_grid)
    for beta in betas:
        beta = float(beta)
        if not math.isfinite(beta):
            raise DomainError(f"beta must be finite, got {beta}")
        vals = [g24_critical_residual(y1, beta) for y1 in ys if abs(beta * y1) < 1.0]
        if not vals:
            raise DomainError(f"no grid point y1 has |beta*y1| < 1 for beta={beta!r}")
        changes = sum(a < 0.0 < b or b < 0.0 < a for a, b in zip(vals, vals[1:]))
        out["betas"].append(
            {
                "beta": beta,
                "grid_points": len(vals),
                "min_residual": min(vals),
                "max_residual": max(vals),
                "sign_changes": changes,
                "all_positive": all(v > 0.0 for v in vals),
            }
        )
    return out
