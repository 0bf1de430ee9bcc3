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
that rank.  A sample of O(j) is one (m, j, j) array; the preimages and
generators built from it are one (m, n-k, k) :class:`TangentMatrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import FramedPlane, Plane, TangentMatrix
from .errors import (
    DimensionError,
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

    ``generators`` is one stack (m, n-k, k) of unit-norm tangent
    matrices at ``base``, one per sampled orbit element; their convex
    hull inner-approximates the subdifferential, with Hausdorff error
    controlled by the fineness of the orthogonal-group sample.
    """

    base: FramedPlane
    delta: float
    b0_svd: SvdTriple
    j: int
    generators: TangentMatrix


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


def _orbit_blocks(w_sample, k: int, j: int) -> np.ndarray:
    """The stack blockdiag(I_{k-j}, W) over a nonempty sample of W in O(j),
    the whole sample checked at once."""
    w = np.asarray(w_sample, dtype=float)
    if w.size == 0:
        raise DimensionMismatch("empty orbit sample")
    if w.shape[1:] != (j, j):
        raise DimensionMismatch(f"orbit sample has shape {w.shape}, expected (m, {j}, {j})")
    if not float(np.max(np.abs(w.swapaxes(-1, -2) @ w - np.eye(j)))) <= 1e-8:
        raise DimensionMismatch("orbit element is not orthogonal within 1e-8")
    blocks = np.tile(np.eye(k), (len(w), 1, 1))
    blocks[:, k - j:, k - j:] = w
    return blocks


def geodesic_preimages(
    l: FramedPlane, s: Plane, w_sample, tol: float = core.TOL_CUT
) -> TangentMatrix:
    """Minimizing-geodesic velocities from ``l`` hitting a cut point ``s``.

    For each orthogonal ``W`` of ``w_sample`` (shape (m, j, j), or a
    sequence of j x j matrices) the stack holds the connecting matrix
    ``A_W``; all share the singular values of the base preimage and map
    to ``s`` under the exponential.  ``W = identity`` reproduces the base
    preimage itself.

    Raises
    ------
    NotOnCut
        If ``s`` has no right angle with the base plane (use the
        logarithm instead; the preimage is unique).
    DimensionMismatch
        If the sample is empty, misshapen or not orthogonal.
    """
    report = cut_stratum(l.plane, s, tol=tol)
    if report.j == 0:
        raise NotOnCut("target is off the cut locus; log gives the unique preimage")
    ncols, theta, u_right = core.connecting_factors(l, s, snap_tol=tol)
    blocks = _orbit_blocks(w_sample, l.k, report.j)
    return core.tangent(l, ncols @ (theta[:, None] * blocks) @ u_right.T)


def subdiff_generators(
    l: Plane, s: FramedPlane, w_sample, tol: float = core.TOL_CUT
) -> SubdiffGeneratorSet:
    """Sampled subdifferential generators of the distance from ``l`` at ``s``.

    Builds one connecting matrix B0 from ``s`` back to ``l``, sweeps its
    orthogonal gauge orbit with the transposed elements of ``w_sample``,
    and normalizes by the distance; every generator has unit norm.
    """
    report = cut_stratum(l, s.plane, tol=tol)
    if report.j == 0:
        raise NotOnCut("point is off the cut locus; the subdifferential is a singleton")
    ncols, theta, u_right = core.connecting_factors(s, l, snap_tol=tol)
    delta = float(np.linalg.norm(theta))
    blocks = _orbit_blocks(w_sample, s.k, report.j).swapaxes(-1, -2)
    gens = core.tangent(s, -(ncols @ (theta[:, None] * blocks) @ u_right.T) / delta)
    # Standard nonincreasing triple for the stored base preimage.
    rev = slice(None, None, -1)
    b0 = SvdTriple(u=ncols[:, rev], sigma=theta[rev], v=u_right[:, rev])
    return SubdiffGeneratorSet(base=s, delta=delta, b0_svd=b0, j=report.j, generators=gens)


def sample_orthogonal_group(j: int, seed=0, n_grid: int = O2_GRID) -> np.ndarray:
    """Deterministic sample of O(j), as one array of shape (m, j, j).

    O(1) is enumerated exactly; O(2) is sampled on a uniform angle grid
    of rotations and reflections (``n_grid`` points per component);
    larger groups fall back to ``n_grid`` seeded Haar-like draws.
    ``n_grid`` < 1 raises :class:`DimensionError`.
    """
    if n_grid < 1:
        raise DimensionError(f"n_grid must be at least 1, got {n_grid}")
    if j == 1:
        return np.array([[[1.0]], [[-1.0]]])
    if j == 2:
        out = []
        for t in np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False):
            c, s = math.cos(t), math.sin(t)
            out += [[[c, -s], [s, c]], [[c, s], [s, -c]]]
        return np.array(out)
    rng = np.random.default_rng(seed)
    return np.array([core._signed_qr(rng.standard_normal((j, j))) for _ in range(n_grid)])


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
    x = gen_set.generators.a.reshape(len(gen_set.generators.a), -1)
    if len(x) < need:
        raise InsufficientSamples(
            f"{len(x)} generators < {need} required for stratum j={gen_set.j}"
        )
    centered = x - x[0]
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals.size == 0 or svals[0] <= 0.0:
        return 0
    return int(np.sum(svals > tol_rank * svals[0]))


def restricted_critical_test(
    gen_set: SubdiffGeneratorSet, tangent_basis, tol: float = 1e-8
) -> CriticalTestResult:
    """Does zero lie in the projection of the sampled hull onto a tangent space?

    ``tangent_basis`` is a stacked :class:`TangentMatrix` (d, n-k, k) of
    orthonormal tangent matrices at the same frame as the generators
    (the tangent space of the constraint manifold at the cut point).
    Solves the linear program minimizing the sup-norm of a convex
    combination of projected generators; a combination with l2 residual
    below ``tol`` is returned as a witness.  Extreme points of the hull
    of the orthogonal group are the group itself, so sampled group
    elements give a sound inner approximation: a witness certifies
    criticality, absence of one is inconclusive.
    """
    if not np.array_equal(tangent_basis.frame.frame, gen_set.generators.frame.frame):
        raise DimensionMismatch("tangent basis attached to a different frame")
    gens = gen_set.generators.a.reshape(len(gen_set.generators.a), -1)
    basis = tangent_basis.a.reshape(-1, gens.shape[1])
    if len(basis) == 0:
        raise DimensionMismatch("empty tangent basis")
    gram = basis @ basis.T - np.eye(len(basis))
    if float(np.max(np.abs(gram))) > 1e-8:
        raise DimensionMismatch("tangent basis is not orthonormal within 1e-8")
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
    from scipy.optimize import linprog  # on first use: keeps scipy off the import path

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
