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
(smooth_dim, n-k, k)).  Its dimension is checked against the flag count
(:func:`flag_formula_tangent_dim`).

The selection critical points are certified in one stacked pass: the
smooth-stratum test, the tangent spaces, the logarithms toward L and
the normality residuals of all binomial(k, s) points are each one
stacked evaluation (:func:`_tangent_spaces`,
:func:`_normality_residuals`), and the single-point
:func:`chart_tangent_basis` and :func:`normality_residual` are the same
kernels on a stack of one.  The certificate reads only each point and
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


def schubert_stratum(omega: SchubertVariety, e: Plane, tol: float = TOL_GEN) -> SchubertStratum:
    """Locate a plane relative to the variety's stratification.

    Counts principal angles with the reference plane below ``tol``; the
    count is the dimension of the intersection.
    """
    core._check_same_shape(omega.w.plane, e)
    return _stratum(omega, int(np.sum(core.principal_angles(e, omega.w.plane) < tol)))


def _stratum(omega: SchubertVariety, s_tilde: int) -> SchubertStratum:
    """Stratum of a plane meeting the reference plane in dimension ``s_tilde``."""
    if s_tilde < omega.s:
        return SchubertStratum(kind="not_member", depth=0, intersection_dim=s_tilde)
    if s_tilde == omega.s:
        return SchubertStratum(kind="smooth", depth=0, intersection_dim=s_tilde)
    return SchubertStratum(
        kind="singular", depth=s_tilde - omega.s, intersection_dim=s_tilde
    )


def _genericity_gate(angles: np.ndarray, tol_gen: float) -> None:
    if angles.size == 0:
        return
    if float(angles[0]) <= tol_gen:
        raise NonGenericL(f"smallest angle {angles[0]:.3e} within {tol_gen:.1e} of 0")
    if float(angles[-1]) >= math.pi / 2 - tol_gen:
        raise NonGenericL(
            f"largest angle {angles[-1]:.12f} within {tol_gen:.1e} of pi/2"
        )
    gaps = np.diff(angles)
    if gaps.size and float(np.min(gaps)) <= tol_gen:
        raise NonGenericL(f"angle gap {np.min(gaps):.3e} within {tol_gen:.1e}")


def _tangent_spaces(
    omega: SchubertVariety, bases: np.ndarray, tol: float = TOL_GEN
) -> tuple[np.ndarray, np.ndarray]:
    """Tangent spaces of the variety at a stack of smooth points.

    Takes point bases (..., n, k) and returns their frame complements
    (..., n, n-k) from :func:`core._frame_complements` and the tangent
    bases (..., smooth_dim, n-k, k) of :func:`chart_tangent_basis`, from
    one stacked SVD and QR.  The singular values of C_E^T B_W are the
    sines of the principal angles between E and W, so the same SVD
    gives the intersection dimension: the angles below ``tol``, plus
    the k - (n-k) angles that vanish when n - k < k.

    Raises
    ------
    NotSmoothPoint
        If any point is not on the smooth stratum.
    """
    b_w = omega.w.plane.basis
    comp = core._frame_complements(bases)
    left, sines, vt = np.linalg.svd(comp.swapaxes(-1, -2) @ b_w)
    dims = omega.k - sines.shape[-1] + np.sum(sines < math.sin(tol), axis=-1)
    bad = np.flatnonzero(dims != omega.s)
    if bad.size:
        stratum = _stratum(omega, int(dims.flat[bad[0]]))
        raise NotSmoothPoint(f"point is {stratum.kind} (intersection {stratum.intersection_dim})")
    r = omega.k - omega.s
    u, _ = np.linalg.qr(
        bases.swapaxes(-1, -2) @ b_w @ vt[..., r:, :].swapaxes(-1, -2), mode="complete"
    )

    def outer(x, y):  # x_i y_j^T for every column pair of each point, i-major
        xt, yt = x.swapaxes(-1, -2), y.swapaxes(-1, -2)
        products = xt[..., :, None, :, None] * yt[..., None, :, None, :]
        return products.reshape(x.shape[:-2] + (-1, x.shape[-2], y.shape[-2]))

    stack = np.concatenate(
        [outer(left[..., :r], u), outer(left[..., r:], u[..., omega.s:])], axis=-3
    )
    return comp, stack


def chart_tangent_basis(
    omega: SchubertVariety, e: Plane, tol: float = TOL_GEN
) -> TangentMatrix:
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
    cannot resolve small angles.  The work is :func:`_tangent_spaces`
    on a stack of one.

    The name dates from a construction through the exponential chart at
    the reference plane; it is kept because existing callers use it.

    Raises
    ------
    NotSmoothPoint
        If ``e`` is not on the smooth stratum.
    """
    core._check_same_shape(omega.w.plane, e)
    comp, stack = _tangent_spaces(omega, e.basis[None], tol=tol)
    return core.tangent(FramedPlane(plane=e, frame=np.hstack([e.basis, comp[0]])), stack[0])


def _normality_residuals(omega: SchubertVariety, l: Plane, bases: np.ndarray) -> np.ndarray:
    """:func:`normality_residual` at a stack of points (..., n, k).

    Returns the residuals (...).  One tangent-space evaluation, one
    logarithm toward ``l`` and one contraction per point.
    """
    comp, basis = _tangent_spaces(omega, bases)
    v, _ = core._log(bases, comp, l.basis, core.TOL_CUT)
    coeffs = basis.reshape(basis.shape[:-2] + (-1,)) @ v.reshape(v.shape[:-2] + (-1, 1))
    return np.linalg.norm(coeffs[..., 0], axis=-1)


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


def ey_schubert_critical_points(
    omega: SchubertVariety, l: Plane, tol_gen: float = TOL_GEN
) -> list[CriticalPointRecord]:
    """Critical points of the distance from ``l`` via singular-triplet selection.

    Truncates the connecting matrix of ``l`` at the reference plane to
    each rank-(k-s) selection of its singular triplets
    (:func:`lowrank.ey_critical_set`) and maps the truncations back
    through one stacked exponential; each value is the Frobenius
    distance from the connecting matrix to its truncation.  Exactly
    binomial(k, s) records are returned, in lexicographic order of the
    kept 0-based index sets; the record keeping the largest k - s
    singular values (indices 0..k-s-1) attains the minimum value.

    Every record is certified from its point and ``l`` alone, all of
    them in one stacked pass of :func:`_normality_residuals`: each
    residual equals :func:`normality_residual` at that point.

    Raises
    ------
    NonGenericL
        If angles to the reference plane are zero, right, or repeated
        within ``tol_gen``.
    NotSmoothPoint
        If a point is off the smooth stratum.
    OnCutLocus
        If a point is on the cut locus of ``l``.
    """
    angles = core.principal_angles(omega.w.plane, l)
    _genericity_gate(angles, tol_gen)
    a_l = core.log(omega.w, l).a
    selections = lowrank.ey_critical_set(a_l, omega.k - omega.s)
    bases = core._geodesic_end(omega.w, np.array([a for _, a in selections]))
    residuals = _normality_residuals(omega, l, bases)
    return [
        CriticalPointRecord(
            point=Plane(n=omega.n, k=omega.k, basis=basis),
            index_set=combo,
            value=float(np.linalg.norm(a_l - a_trunc)),
            normality_residual=float(residual),
        )
        for (combo, a_trunc), basis, residual in zip(selections, bases, residuals)
    ]


def global_min(
    omega: SchubertVariety, l: Plane, tol_gen: float = TOL_GEN
) -> tuple[float, Plane]:
    """Unique nearest point of the variety to a generic plane.

    The value is the l2 norm of the s smallest principal angles between
    ``l`` and the reference plane; the minimizer combines the first s
    principal directions of the reference plane with the last k - s
    principal directions of ``l``.  A plane already on the variety is
    its own minimizer at value 0.
    """
    core._check_same_shape(omega.w.plane, l)
    pd = core.principal_decomposition(l, omega.w.plane)
    angles = pd.angles
    s = omega.s
    if int(np.sum(angles < tol_gen)) >= s:
        return 0.0, l
    _genericity_gate(angles, tol_gen)
    value = float(np.linalg.norm(angles[:s]))
    basis = np.hstack([pd.q_vectors[:, :s], pd.p_vectors[:, s:]])
    return value, Plane(n=omega.n, k=omega.k, basis=basis)


def global_max(
    omega: SchubertVariety, l: Plane, b_seed, tol_gen: float = TOL_GEN
) -> tuple[float, Plane]:
    """One global farthest point of the variety from a generic plane.

    Maximizers form a Grassmannian of (k-s)-planes inside the subspace
    orthogonal to both ``l`` and the principal directions of the
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
    core._check_same_shape(omega.w.plane, l)
    pd = core.principal_decomposition(l, omega.w.plane)
    angles = pd.angles
    _genericity_gate(angles, tol_gen)
    k, s, n = omega.k, omega.s, omega.n
    value = float(
        math.sqrt(float(np.sum(angles[k - s:] ** 2)) + (k - s) * (math.pi / 2) ** 2)
    )
    q_top = pd.q_vectors[:, k - s:]
    # Auxiliary space: orthogonal to l and to the chosen directions of w.
    constraints = np.vstack([l.basis.T, q_top.T])
    u_, sing, vt_ = np.linalg.svd(constraints)
    rank = int(np.sum(sing > 1e-10))
    if n - rank != n - k - s:
        raise DegenerateAuxSpace(f"auxiliary space dimension {n - rank} != {n - k - s}")
    aux = vt_[rank:, :].T  # n x (n-k-s), orthonormal
    rng = np.random.default_rng(b_seed)
    coeffs = core._signed_qr(rng.standard_normal((n - k - s, k - s)))
    b_part = aux @ coeffs
    maximizer = Plane(n=n, k=k, basis=np.hstack([b_part, q_top]))
    return value, maximizer


def stratum_min_value(omega: SchubertVariety, l: Plane, depth: int) -> float:
    """Infimum of the distance from ``l`` over the stratum of given depth.

    Depth 0 is the smooth stratum; deeper strata force more angles to
    vanish, so the value strictly increases with depth for generic
    ``l``: it is the l2 norm of the s + depth smallest angles.
    """
    angles = core.principal_angles(omega.w.plane, l)
    return float(np.linalg.norm(angles[: omega.s + depth]))


def sample_variety_distances(
    omega: SchubertVariety, l: Plane, count: int, seed, depth: int = 0
) -> np.ndarray:
    """Monte-Carlo oracle: distances from ``l`` to sampled variety points.

    Samples rank-(k - s - depth) Gaussian factor products scaled into
    the region of singular values below pi/2 and maps them through the
    exponential at the reference plane, returning the distance of each
    image from ``l``.  Deterministic for a given seed.
    """
    n, k = omega.n, omega.k
    r = k - omega.s - depth
    if r < 1:
        raise DimensionError(f"no positive-rank stratum at depth {depth}")
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((count, n - k, r))
    g2 = rng.standard_normal((count, k, r))
    a = np.einsum("bij,bkj->bik", g1, g2)
    smax = np.linalg.svd(a, compute_uv=False)[:, 0]
    scale = (math.pi / 2) * rng.uniform(0.0, 1.0, count) / smax
    a *= scale[:, None, None]
    bases = core._geodesic_end(omega.w, a)
    return np.linalg.norm(core._hybrid_angles(l.basis, bases), axis=-1)


def flag_formula_tangent_dim(omega: SchubertVariety, e: Plane, tol: float = TOL_GEN) -> int:
    """Dimension of {maps e -> R^n / e sending e meet w into (w + e) / e}.

    Counts, from dimensions alone, the space that
    :func:`chart_tangent_basis` spans: the maps from ``e`` to its normal
    space R^n / e that send the intersection of ``e`` with the
    reference plane w into (w + e) / e, whose dimension is
    k - dim(e meet w).  At a smooth point the intersection has
    dimension s, so the count (k-s)(n-k) + s (k - s) equals
    :attr:`SchubertVariety.smooth_dim` and the length of that basis.
    """
    stratum = schubert_stratum(omega, e, tol=tol)
    if stratum.kind != "smooth":
        raise NotSmoothPoint(f"point is {stratum.kind}")
    n, k, s = omega.n, omega.k, omega.s
    return (k - s) * (n - k) + s * (k - stratum.intersection_dim)
