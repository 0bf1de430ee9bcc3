"""Cut-locus strata and the subdifferential of the distance function.

The cut locus of a plane L consists of the planes with at least one
principal angle to L equal to pi/2, stratified by the number j of right
angles.  On the stratum with j right angles the minimizing geodesics
from L form an orthogonal-group orbit: fixing one connecting matrix
``A0 = U S V^T`` with the right angles placed in the last j slots of S,
every other one is ``U S blockdiag(I, W) V^T`` for W in O(j).

The distance function from L is smooth off the cut locus with unit
gradient; at a cut point S its Clarke subdifferential is, up to sign
and normalization, the convex hull of the inward unit tangents of the
minimizing geodesics.  We realize its generators as ``-B_W / delta``
where ``B_W = U S blockdiag(I, W^T) V^T`` runs over the connecting
matrices from S back to L.  (The equivalent form pushing the orbit
through the quotient differential is not constructed separately; the
two agree and the test suite spot-checks the generator form against
limits of gradients along geodesics.)  The hull of the full orthogonal
orbit has affine dimension j^2, so sampled generator sets should reach
that rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import core
from .core import FramedPlane, Plane, TangentMatrix
from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    NotOnCut,
)
from .lowrank import SvdTriple

#: Default number of grid samples per connected component of O(2).
O2_GRID = 64


@dataclass(frozen=True)
class CutStratumReport:
    """Stratum decision for a plane against a base plane.

    ``j`` counts principal angles within ``tol`` of pi/2; ``j = 0``
    means the plane is off the cut locus.
    """

    j: int
    angles: np.ndarray
    tol: float


@dataclass(frozen=True)
class SubdiffGeneratorSet:
    """Sampled generators of the distance subdifferential at a cut point.

    Each generator is a unit-norm tangent matrix at ``base``; their
    convex hull inner-approximates the subdifferential, with Hausdorff
    error controlled by the fineness of the orthogonal-group sample.
    """

    base: FramedPlane
    delta: float
    b0_svd: SvdTriple
    j: int
    generators: list[TangentMatrix]


@dataclass(frozen=True)
class CriticalTestResult:
    """Outcome of the zero-in-projected-hull feasibility test.

    ``found`` means the weights certify a critical point (sound); a
    negative answer is inconclusive up to the generator sampling net.
    """

    found: bool
    weights: np.ndarray
    residual: float


def cut_stratum(l: Plane, e: Plane, tol: float = core.TOL_CUT) -> CutStratumReport:
    """Count principal angles equal to pi/2 within ``tol``."""
    angles = core.principal_angles(l, e)
    j = int(np.sum(angles >= math.pi / 2 - tol))
    return CutStratumReport(j=j, angles=angles, tol=tol)


def _block(k: int, j: int, w: np.ndarray) -> np.ndarray:
    blk = np.eye(k)
    blk[k - j:, k - j:] = w
    return blk


def _validate_w(w, j: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (j, j):
        raise DimensionMismatch(f"orbit element has shape {w.shape}, expected ({j}, {j})")
    if float(np.max(np.abs(w.T @ w - np.eye(j)))) > 1e-8:
        raise DimensionMismatch("orbit element is not orthogonal within 1e-8")
    return w


def geodesic_preimages(
    l: FramedPlane, s: Plane, w_list, tol: float = core.TOL_CUT
) -> list[TangentMatrix]:
    """Minimizing-geodesic velocities from ``l`` hitting a cut point ``s``.

    For each orthogonal ``W`` in ``w_list`` returns the connecting matrix
    ``A_W``; all share the singular values of the base preimage and map
    to ``s`` under the exponential.  ``W = identity`` reproduces the base
    preimage itself.

    Raises
    ------
    NotOnCut
        If ``s`` has no right angle with the base plane (use the
        logarithm instead; the preimage is unique).
    """
    report = cut_stratum(l.plane, s, tol=tol)
    if report.j == 0:
        raise NotOnCut("target is off the cut locus; log gives the unique preimage")
    ncols, theta, u_right = core.connecting_factors(l, s, snap_tol=tol)
    k = l.k
    out = []
    for w in w_list:
        w = _validate_w(w, report.j)
        a_w = ncols @ (np.diag(theta) @ _block(k, report.j, w)) @ u_right.T
        out.append(core.tangent(l, a_w))
    return out


def subdiff_generators(
    l: Plane, s: FramedPlane, w_list, tol: float = core.TOL_CUT
) -> SubdiffGeneratorSet:
    """Sampled subdifferential generators of the distance from ``l`` at ``s``.

    Builds one connecting matrix B0 from ``s`` back to ``l``, sweeps its
    orthogonal gauge orbit with the transposed orbit elements, and
    normalizes by the distance; every generator has unit norm.
    """
    report = cut_stratum(l, s.plane, tol=tol)
    if report.j == 0:
        raise NotOnCut("point is off the cut locus; the subdifferential is a singleton")
    ncols, theta, u_right = core.connecting_factors(s, l, snap_tol=tol)
    delta = float(np.linalg.norm(theta))
    k = s.k
    gens = []
    for w in w_list:
        w = _validate_w(w, report.j)
        b_w = ncols @ (np.diag(theta) @ _block(k, report.j, w.T)) @ u_right.T
        gens.append(core.tangent(s, -b_w / delta))
    # Standard nonincreasing triple for the stored base preimage.
    rev = slice(None, None, -1)
    b0 = SvdTriple(u=ncols[:, rev], sigma=theta[rev], v=u_right[:, rev])
    return SubdiffGeneratorSet(base=s, delta=delta, b0_svd=b0, j=report.j, generators=gens)


def sample_orthogonal_group(j: int, seed=0, n_grid: int = O2_GRID) -> list[np.ndarray]:
    """Deterministic sample of O(j).

    O(1) is enumerated exactly; O(2) is sampled on a uniform angle grid
    of rotations and reflections (``n_grid`` points per component);
    larger groups fall back to ``n_grid`` seeded Haar-like draws.
    """
    if j == 1:
        return [np.array([[1.0]]), np.array([[-1.0]])]
    if j == 2:
        out = []
        for t in np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False):
            c, s = math.cos(t), math.sin(t)
            out.append(np.array([[c, -s], [s, c]]))
            out.append(np.array([[c, s], [s, -c]]))
        return out
    rng = np.random.default_rng(seed)
    return [core._signed_qr(rng.standard_normal((j, j))) for _ in range(n_grid)]


def subdiff_affine_dimension(gen_set: SubdiffGeneratorSet, tol_rank: float = 1e-8) -> int:
    """Affine dimension of the sampled generator set.

    Rank of the centered, vectorized generator matrix with singular
    values thresholded at ``tol_rank`` relative to the largest; for a
    stratum with j right angles the expected value is j^2.

    Raises
    ------
    NotOnCut
        If the generator set claims stratum 0 (gradient singleton).
    InsufficientSamples
        If fewer than j^2 + 1 generators were sampled.
    """
    if gen_set.j == 0:
        raise NotOnCut("off the cut locus the subdifferential is a point")
    need = gen_set.j ** 2 + 1
    if len(gen_set.generators) < need:
        raise InsufficientSamples(
            f"{len(gen_set.generators)} generators < {need} required for stratum j={gen_set.j}"
        )
    x = np.array([g.a.ravel() for g in gen_set.generators])
    centered = x - x[0]
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals.size == 0 or svals[0] <= 0.0:
        return 0
    return int(np.sum(svals > tol_rank * svals[0]))


def restricted_critical_test(
    gen_set: SubdiffGeneratorSet, tangent_basis, tol: float = 1e-8
) -> CriticalTestResult:
    """Does zero lie in the projection of the sampled hull onto a tangent space?

    ``tangent_basis`` is an orthonormal list of tangent matrices at the
    same frame as the generators (the tangent space of the constraint
    manifold at the cut point).  Solves the linear program minimizing
    the sup-norm of a convex combination of projected generators; a
    combination with l2 residual below ``tol`` is returned as a witness.
    Extreme points of the hull of the orthogonal group are the group
    itself, so sampled group elements give a sound inner approximation:
    a witness certifies criticality, absence of one is inconclusive.
    """
    if not tangent_basis:
        raise DimensionMismatch("empty tangent basis")
    for t in tangent_basis:
        if not core.same_frame(t, gen_set.generators[0]):
            raise DimensionMismatch("tangent basis attached to a different frame")
    basis = np.array([t.a.ravel() for t in tangent_basis])
    gram = basis @ basis.T - np.eye(len(tangent_basis))
    if float(np.max(np.abs(gram))) > 1e-8:
        raise DimensionMismatch("tangent basis is not orthonormal within 1e-8")
    gens = np.array([g.a.ravel() for g in gen_set.generators])
    proj = basis @ gens.T  # (dim_T, n_gens)
    dim_t, m = proj.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    rows = []
    for d in range(dim_t):
        rows.append(np.concatenate([proj[d], [-1.0]]))
        rows.append(np.concatenate([-proj[d], [-1.0]]))
    a_ub = np.array(rows)
    b_ub = np.zeros(2 * dim_t)
    a_eq = np.array([[1.0] * m + [0.0]])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * m + [(0.0, None)],
        method="highs",
    )
    if not res.success:
        return CriticalTestResult(found=False, weights=np.full(m, np.nan), residual=math.inf)
    weights = res.x[:m]
    residual = float(np.linalg.norm(proj @ weights))
    return CriticalTestResult(found=residual <= tol, weights=weights, residual=residual)


def nearest_cut_witness(l: FramedPlane) -> Plane:
    """A point of the first cut-locus stratum at distance exactly pi/2.

    Replaces the first basis vector of the plane by the first complement
    direction; the principal angles to the base are (0, ..., 0, pi/2),
    realizing the distance from a plane to its cut locus.
    """
    basis = np.hstack([l.complement[:, :1], l.plane.basis[:, 1:]])
    return Plane(n=l.n, k=l.k, basis=basis)
