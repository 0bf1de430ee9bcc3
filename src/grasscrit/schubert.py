"""Nearest and farthest point problems for simple Schubert varieties.

The variety of k-planes meeting a fixed k-plane W in dimension at
least s is carried to the set of rank-(k-s) tangent matrices by the
exponential chart at W, so the best rank-(k-s) approximations of the
connecting matrix of a generic plane L produce constrained critical
points of the distance from L: one for each selection of k - s
singular triplets, binomial(k, s) in total.

The selection keeping the k - s largest singular values (equivalently,
dropping the s smallest principal angles) is the unique global
minimizer; its value is the l2 norm of the s smallest angles.  Global
maximizers form a whole Grassmannian inside the cut locus of L: pick
the principal directions of W realizing the s largest angles and
complete them with any (k-s)-plane orthogonal to both L and those
directions.  The maximum value is
sqrt(theta_{k-s+1}^2 + ... + theta_k^2 + (k-s) (pi/2)^2).

Tangent spaces of the variety are computed in closed form.  At a
smooth point E, with Y spanning E meet W in E's coordinates and R
spanning (W + E) / E in the normal coordinates of E's frame, the
tangent space is the set of maps E -> R^n / E sending E meet W into
(W + E) / E: the tangent matrices A with (I - R R^T) A Y = 0
(:func:`chart_tangent_basis`, one orthonormal stack of shape
(smooth_dim, n-k, k)), of dimension (k-s)(n-k) + s(k-s) =
:attr:`SchubertVariety.smooth_dim`.

All three answers for a plane L come from one decomposition of the pair
(W, L): the connecting factors N, theta, P of
:func:`core.connecting_factors`, with N diag(theta) P^T the connecting
matrix of L at W.  The same angles theta pass the genericity gate of
:func:`ey_schubert_critical_points`, :func:`global_min` and
:func:`global_max`, so the three accept and reject the same planes.

The selection critical points are certified in one stacked pass: the
smooth-stratum test, the tangent-space factors R and U, the logarithms
V toward L and the normality residuals of all binomial(k, s) points are
each one stacked evaluation (:func:`_tangent_factors`,
:func:`_normality_residuals`).  A residual is the norm of R^T V U with
its normal block R_perp^T V Y zeroed, so only :func:`chart_tangent_basis`
forms a basis, at one point.  The certificate reads only each point and
L, never the truncation that built the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, lowrank
from .core import FramedPlane, Plane, TangentMatrix
from .errors import (
    DegenerateAuxSpace,
    DimensionError,
    NonGenericL,
    NotSmoothPoint,
)

#: Separation required between angles and from {0, pi/2}; below this,
#: operations refuse rather than silently perturb.
TOL_GEN = 1e-8


@dataclass(frozen=True)
class SchubertVariety:
    """Planes meeting the reference framed plane in dimension >= s."""

    w: FramedPlane
    s: int

    def __post_init__(self):
        if not (1 <= self.s <= self.w.k - 1):
            raise DimensionError(f"need 1 <= s <= k-1, got s={self.s}, k={self.w.k}")

    @property
    def n(self) -> int:
        return self.w.n

    @property
    def k(self) -> int:
        return self.w.k

    @property
    def smooth_dim(self) -> int:
        """Dimension of the smooth stratum: (k-s)(n-k+s)."""
        r = self.k - self.s
        return r * (self.n - r)


@dataclass(frozen=True)
class SchubertStratum:
    """Membership report: ``kind`` is one of not_member / smooth / singular,
    ``depth`` the singular depth (dim of intersection minus s)."""

    kind: str
    depth: int
    intersection_dim: int


@dataclass(frozen=True)
class CriticalPointRecord:
    """One constrained critical point from a singular-triplet selection.

    ``index_set`` lists the kept triplets as 0-based positions into the
    nonincreasing singular values of the connecting matrix (position 0
    is the largest angle); the squared value is the sum of the squared
    dropped angles.  A point on the cut locus of L has no logarithm and
    raises :class:`OnCutLocus`, so every returned record is off the cut
    locus.
    """

    point: Plane
    index_set: tuple[int, ...]
    value: float
    normality_residual: float


def schubert_stratum(omega: SchubertVariety, e: Plane) -> SchubertStratum:
    """Locate a plane relative to the variety's stratification.

    Counts principal angles with the reference plane below ``TOL_GEN``;
    the count is the dimension of the intersection.
    """
    core._check_same_shape(omega.w.plane, e)
    angles = core.principal_angles(e, omega.w.plane)
    return _stratum(omega, int(np.count_nonzero(angles < TOL_GEN)))


def _stratum(omega: SchubertVariety, s_tilde: int) -> SchubertStratum:
    """Stratum of a plane meeting the reference plane in dimension ``s_tilde``."""
    if s_tilde < omega.s:
        return SchubertStratum(kind="not_member", depth=0, intersection_dim=s_tilde)
    if s_tilde == omega.s:
        return SchubertStratum(kind="smooth", depth=0, intersection_dim=s_tilde)
    return SchubertStratum(
        kind="singular", depth=s_tilde - omega.s, intersection_dim=s_tilde
    )


def _genericity_gate(angles: np.ndarray) -> None:
    if angles.size == 0:
        return
    if float(angles[0]) <= TOL_GEN:
        raise NonGenericL(f"smallest angle {angles[0]:.3e} within {TOL_GEN:.1e} of 0")
    if float(angles[-1]) >= math.pi / 2 - TOL_GEN:
        raise NonGenericL(
            f"largest angle {angles[-1]:.12f} within {TOL_GEN:.1e} of pi/2"
        )
    gaps = angles[1:] - angles[:-1]
    if gaps.size and float(gap := np.minimum.reduce(gaps)) <= TOL_GEN:
        raise NonGenericL(f"angle gap {gap:.3e} within {TOL_GEN:.1e}")


def _tangent_factors(omega: SchubertVariety, bases: np.ndarray) -> tuple[np.ndarray, ...]:
    """Factors of the variety's tangent spaces at a stack of smooth points.

    Takes point bases (..., n, k) and returns their frame complements
    (..., n, n-k) from :func:`core._frame_complements`, the left
    singular vectors R = [R_r R_perp] (..., n-k, n-k) of C_E^T B_W and
    U = [Y Y_perp] (..., k, k) of :func:`chart_tangent_basis`, from one
    stacked SVD and QR.  The singular values of C_E^T B_W are the sines
    of the principal angles between E and W, so the same SVD gives the
    intersection dimension: the angles below ``TOL_GEN``.

    Raises
    ------
    NotSmoothPoint
        If any point is not on the smooth stratum.
    """
    b_w = omega.w.plane.basis
    comp = core._frame_complements(bases)
    left, sines, vt = core._svd(comp.swapaxes(-1, -2) @ b_w)
    dims = np.add.reduce(sines < math.sin(TOL_GEN), axis=-1)
    bad = dims[dims != omega.s]
    if bad.size:
        stratum = _stratum(omega, int(bad[0]))
        raise NotSmoothPoint(f"point is {stratum.kind} (intersection {stratum.intersection_dim})")
    r = omega.k - omega.s
    u, _ = core._qr(bases.swapaxes(-1, -2) @ b_w @ vt[..., r:, :].swapaxes(-1, -2), complete=True)
    return comp, left, u


def chart_tangent_basis(omega: SchubertVariety, e: Plane) -> TangentMatrix:
    """Orthonormal basis of the variety's tangent space at a smooth point,
    as one stack of shape (smooth_dim, n-k, k).

    Closed form in the frame ``core.complete_frame(e)``.  One full SVD
    of C_E^T B_W gives R (the k - s left singular vectors with nonzero
    sines, spanning (W + E) / E), its complement R_perp, and the right
    singular vectors with zero sines, whose images under B_E^T B_W span
    E meet W as Y.  With U = [Y Y_perp] orthonormal, the products
    R_i U_j^T and R_perp_i Y_perp_j^T form an orthonormal basis of the
    tangent matrices A with R_perp^T A Y = 0; there are
    (k-s)(n-k+s) of them, stacked i-major: all R_i U_j^T first, then
    all R_perp_i Y_perp_j^T.  Y is taken through the sines rather than as
    the top left singular vectors of B_E^T B_W because cosines near 1
    cannot resolve small angles.  The factors are :func:`_tangent_factors`
    on a stack of one.

    The name dates from a construction through the exponential chart at
    the reference plane; it is kept because existing callers use it.

    Raises
    ------
    NotSmoothPoint
        If ``e`` is not on the smooth stratum.
    """
    core._check_same_shape(omega.w.plane, e)
    comp, left, u = (x[0] for x in _tangent_factors(omega, e.basis[None]))
    r = omega.k - omega.s

    def outer(x, y):  # x_i y_j^T for every column pair, i-major
        return (x.T[:, None, :, None] * y.T[None, :, None, :]).reshape(-1, len(x), len(y))

    stack = np.concatenate([outer(left[:, :r], u), outer(left[:, r:], u[:, omega.s:])])
    frame = np.concatenate([e.basis, comp], axis=1)
    return core.tangent(FramedPlane(plane=e, frame=frame), stack)


def _normality_residuals(omega: SchubertVariety, l: Plane, bases: np.ndarray) -> np.ndarray:
    """:func:`normality_residual` at a stack of points (..., n, k).

    Returns the residuals (...).  The logarithm V toward ``l`` in the
    coordinates of :func:`_tangent_factors` is R^T V U; with its normal
    block R_perp^T V Y zeroed, its norm is that of the coefficients of V
    on the basis of :func:`chart_tangent_basis`.
    """
    comp, left, u = _tangent_factors(omega, bases)
    v, _ = core._log(bases, comp, l.basis, core.TOL_CUT)
    coords = left.swapaxes(-1, -2) @ v @ u
    coords[..., omega.k - omega.s:, :omega.s] = 0.0
    return core._norm(coords, axis=(-2, -1))


def normality_residual(omega: SchubertVariety, l: Plane, e: Plane) -> float:
    """Norm of the tangential component of the geodesic direction to ``l``.

    At a smooth point off the cut locus of ``l``, criticality of the
    restricted distance is equivalent to the minimizing geodesic being
    normal to the variety, so small residuals certify critical points.
    The logarithm raises :class:`OnCutLocus` on the cut locus of ``l``.
    The work is :func:`_normality_residuals` on a stack of one.
    """
    core._check_same_shape(omega.w.plane, e)
    core._check_same_shape(e, l)
    return float(_normality_residuals(omega, l, e.basis[None])[0])


def ey_schubert_critical_points(omega: SchubertVariety, l: Plane) -> list[CriticalPointRecord]:
    """Critical points of the distance from ``l`` via singular-triplet selection.

    Truncates the connecting matrix N diag(theta) P^T of ``l`` at the
    reference plane to each rank-(k-s) selection of its singular
    triplets (:func:`lowrank._selections`, on the factors in
    nonincreasing order) and maps the truncations back through one
    stacked exponential; each value is the norm of the dropped angles.
    Exactly binomial(k, s) records are returned, in lexicographic order
    of the kept 0-based index sets; the record keeping the largest k - s
    singular values (indices 0..k-s-1) attains the minimum value and is
    :func:`global_min`.

    One SVD of B_W^T B_L (:func:`core.connecting_factors`) gives the
    angles checked for genericity and the triplets.  Every record is
    certified from its point and ``l`` alone, all of them in one stacked
    pass of :func:`_normality_residuals`: each residual equals
    :func:`normality_residual` at that point.

    Raises
    ------
    NonGenericL
        If angles to the reference plane are zero, right, or repeated
        within ``TOL_GEN``.
    NotSmoothPoint
        If a point is off the smooth stratum.
    OnCutLocus
        If a point is on the cut locus of ``l``.
    """
    ncols, theta, p = core.connecting_factors(omega.w, l)
    _genericity_gate(theta)
    rev = slice(None, None, -1)
    combos, kept, truncations = lowrank._selections(
        ncols[:, rev], theta[rev], p[:, rev], omega.k - omega.s
    )
    bases = core._geodesic_end(omega.w, truncations)
    residuals = _normality_residuals(omega, l, bases)
    values = core._norm(theta[rev] - kept, axis=-1)
    return [
        CriticalPointRecord(
            point=Plane(n=omega.n, k=omega.k, basis=basis),
            index_set=combo,
            value=float(value),
            normality_residual=float(residual),
        )
        for combo, basis, value, residual in zip(combos, bases, values, residuals)
    ]


def global_min(omega: SchubertVariety, l: Plane) -> tuple[float, Plane]:
    """Unique nearest point of the variety to a generic plane.

    The leading selection of :func:`ey_schubert_critical_points`: the
    value is the l2 norm of the s smallest principal angles between
    ``l`` and the reference plane, and the minimizer is the exponential
    of the connecting matrix with those angles dropped.  It keeps the
    first s principal directions of the reference plane and takes the
    last k - s principal directions of ``l``.  A plane already on the
    variety is its own minimizer at value 0.

    Raises
    ------
    NonGenericL
        If the angles of a plane off the variety fail the genericity gate.
    """
    ncols, theta, p = core.connecting_factors(omega.w, l)
    s = omega.s
    if np.count_nonzero(theta < TOL_GEN) >= s:
        return 0.0, l
    _genericity_gate(theta)
    kept = np.concatenate([np.zeros(s), theta[s:]])
    basis = core._geodesic_end(omega.w, (ncols * kept) @ p.T)
    return float(core._norm(theta[:s])), Plane(n=omega.n, k=omega.k, basis=basis)


def global_max(omega: SchubertVariety, l: Plane, b_seed) -> tuple[float, Plane]:
    """One global farthest point of the variety from a generic plane.

    Maximizers form a Grassmannian of (k-s)-planes inside the subspace
    orthogonal to both ``l`` and the principal directions B_W P of the
    reference plane realizing its s largest angles; ``b_seed`` selects
    one member.  Every choice attains the same value
    sqrt(sum of the s largest squared angles + (k-s)(pi/2)^2) and lies
    in the cut-locus stratum of ``l`` with k - s right angles.

    Raises
    ------
    NonGenericL
        If the angles fail the genericity gate.
    DegenerateAuxSpace
        If the auxiliary space does not have dimension n - k - s.
    """
    _, theta, p = core.connecting_factors(omega.w, l)
    _genericity_gate(theta)
    k, s, n = omega.k, omega.s, omega.n
    value = float(
        math.sqrt(float(np.add.reduce(theta[k - s:] ** 2)) + (k - s) * (math.pi / 2) ** 2)
    )
    q_top = omega.w.plane.basis @ p[:, k - s:]
    # Auxiliary space: orthogonal to l and to the chosen directions of w.
    constraints = np.concatenate([l.basis.T, q_top.T])
    u_, sing, vt_ = core._svd(constraints)
    rank = np.count_nonzero(sing > 1e-10)
    if n - rank != n - k - s:
        raise DegenerateAuxSpace(f"auxiliary space dimension {n - rank} != {n - k - s}")
    aux = vt_[rank:, :].T  # n x (n-k-s), orthonormal
    rng = np.random.default_rng(b_seed)
    coeffs = core._signed_qr(rng.standard_normal((n - k - s, k - s)))
    b_part = aux @ coeffs
    maximizer = Plane(n=n, k=k, basis=np.concatenate([b_part, q_top], axis=1))
    return value, maximizer
