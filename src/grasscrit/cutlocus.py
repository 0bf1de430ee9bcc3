"""Cut-locus strata and the subdifferential of the distance function.

The cut locus of a plane L consists of the planes with at least one
principal angle to L equal to pi/2, stratified by the number j of right
angles.  On the stratum with j right angles the minimizing geodesics
from L form an orthogonal-group orbit: fixing one connecting matrix
``A0 = U S V^T`` with the right angles placed in the last j slots of S,
every other one is ``U S blockdiag(I, W) V^T`` for W in O(j).  These
are the factors of :func:`core.connecting_factors`, in its order, with
each angle within ``core.TOL_CUT`` of pi/2 set here to exactly pi/2.

The distance function from L is smooth off the cut locus with unit
gradient; at a cut point S its Clarke subdifferential is, up to sign
and normalization, the convex hull of the inward unit tangents of the
minimizing geodesics.  We realize its generators as ``-B_W / delta``
where ``B_W = U S blockdiag(I, W^T) V^T`` runs over the connecting
matrices from S back to L.  (The equivalent form pushing the orbit
through the quotient differential is not constructed separately; the
two agree and the test suite spot-checks the generator form against
limits of gradients along geodesics.)  The convex hull of O(j) is the
unit ball of the spectral norm (Saunderson, Parrilo and Willsky, SIAM
J. Optim. 2015), so the subdifferential is exactly
``{G0 + L(Q) : ||Q||_2 <= 1}``: G0 carries the non-right angles and the
injective linear map L puts Q into the right-angle block.  The zero
test of :func:`restricted_critical_test` works on that description.
Sampled generator sets remain for the affine dimension, which for the
full orbit is j^2.  A sample of O(j) is one (m, j, j) array, built in
one pass (the O(2) grid from one cosine and one sine over its angles,
larger groups from one stacked QR of seeded Gaussian draws), and
:func:`subdiff_generators` keeps it, not the orbit: the centered
generators ``-(pi / 2 delta) N2 (W_i^T - W_0^T) P2^T`` are the centered
sample under the isometry ``X -> N2 X^T P2^T`` (N2, P2 the orthonormal
right-angle columns) times pi / (2 delta), so a relative threshold gives
both the same rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import FramedPlane, Plane
from .errors import (
    DimensionError,
    DimensionMismatch,
    DomainError,
    InsufficientSamples,
    NotOnCut,
)

#: Default number of grid samples per connected component of O(2).
O2_GRID = 64

#: Singular values of the zero test's matrix M below this fraction of
#: pi / (2 delta), the largest one possible, count as zero.
RANK_RTOL = 1e-10

#: Round cap of the zero test's alternating projections when M has
#: rank below j^2.
ALTERNATING_ROUNDS = 200


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

    ``sample`` is the read-only (m, j, j) sample of O(j); an element W
    stands for the unit-norm generator -N diag(theta) blockdiag(I, W^T)
    P^T / delta at ``base``, and the hull of those inner-approximates the
    subdifferential, with Hausdorff error controlled by the fineness of
    the sample.  No generator is formed (see the module docstring).
    ``factors`` (N, theta, P) of the base preimage B0 = N diag(theta) P^T
    are in the order of :func:`core.connecting_factors`, the j right
    angles (exactly pi/2) last; with ``delta`` and ``j`` they fix the
    whole subdifferential, which :func:`restricted_critical_test` uses.
    """

    base: FramedPlane
    delta: float
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    j: int
    sample: np.ndarray


@dataclass(frozen=True)
class CriticalTestResult:
    """Outcome of the zero-in-projected-subdifferential test.

    ``witness`` is a j x j matrix Q with spectral norm at most 1; the
    subdifferential element G0 + L(Q) projects onto the tangent space
    with l2 norm ``residual``.  ``found`` means that residual is within
    the tolerance, which certifies a critical point.  ``outcome`` is
    ``"witness"`` when found, ``"refuted"`` when no point of the
    projected subdifferential lies within the tolerance of zero, and
    ``"inconclusive"`` when the search ended without either.
    """

    found: bool
    witness: np.ndarray
    residual: float
    outcome: str


def cut_stratum(l: Plane, e: Plane, tol: float = core.TOL_CUT) -> CutStratumReport:
    """Count principal angles equal to pi/2 within ``tol``.

    A ``tol`` at or above pi/2 would count every angle, and a negative
    one no angle, not even an exact right angle: either raises
    :class:`DomainError`.
    """
    if not 0.0 <= tol < math.pi / 2:
        raise DomainError(f"tol must lie in [0, pi/2), got {tol}")
    angles = core.principal_angles(l, e)
    j = int(np.count_nonzero(angles >= math.pi / 2 - tol))
    return CutStratumReport(j=j, angles=angles, tol=tol)


def _cut_factors(at: FramedPlane, target: Plane):
    """(N, theta, P) of :func:`core.connecting_factors` from ``at`` to ``target``
    with every angle within ``core.TOL_CUT`` of pi/2 set to exactly pi/2 (the
    last j, as the angles are nondecreasing), and j; NotOnCut when j = 0."""
    ncols, theta, p = core.connecting_factors(at, target)
    theta[theta >= math.pi / 2 - core.TOL_CUT] = math.pi / 2
    j = int(np.count_nonzero(theta == math.pi / 2))
    if j == 0:
        raise NotOnCut("point is off the cut locus; the subdifferential is a singleton")
    return (ncols, theta, p), j


def subdiff_generators(l: Plane, s: FramedPlane, w_sample) -> SubdiffGeneratorSet:
    """Sampled subdifferential generators of the distance from ``l`` at ``s``.

    Builds one connecting matrix B0 from ``s`` back to ``l`` and keeps a
    read-only copy of ``w_sample``, checked whole, whose elements W sweep
    the gauge orbit of B0 as W^T (:class:`SubdiffGeneratorSet`).  The
    stratum j is read from the same factors.

    Raises
    ------
    NotOnCut
        If ``s`` has no right angle with ``l`` (the distance is smooth
        there and its gradient unique).
    DimensionMismatch
        If the sample is empty, misshapen or not orthogonal.
    """
    factors, j = _cut_factors(s, l)
    w = np.array(w_sample, dtype=float)
    if w.size == 0:
        raise DimensionMismatch("empty orbit sample")
    if w.shape[1:] != (j, j):
        raise DimensionMismatch(f"orbit sample has shape {w.shape}, expected (m, {j}, {j})")
    if not np.maximum.reduce(np.abs(w.swapaxes(-1, -2) @ w - core._eye(j)), axis=None) <= 1e-8:
        raise DimensionMismatch("orbit element is not orthogonal within 1e-8")
    w.flags.writeable = False
    delta = float(core._norm(factors[1]))
    return SubdiffGeneratorSet(base=s, delta=delta, factors=factors, j=j, sample=w)


def sample_orthogonal_group(j: int, seed=0, n_grid: int = O2_GRID) -> np.ndarray:
    """Deterministic sample of O(j), as one array of shape (m, j, j).

    O(1) is enumerated exactly; O(2) is sampled on a uniform angle grid
    of rotations and reflections (``n_grid`` points per component), each
    rotation followed by the reflection of the same angle; larger groups
    take ``n_grid`` seeded draws, the sign-fixed QR factors of Gaussian
    matrices, which are exactly Haar-distributed on O(j) (Mezzadri,
    Notices AMS 2007).  ``n_grid`` < 1 raises :class:`DimensionError`.
    """
    if n_grid < 1:
        raise DimensionError(f"n_grid must be at least 1, got {n_grid}")
    if j == 1:
        return np.array([[[1.0]], [[-1.0]]])
    if j == 2:
        t = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
        c, s = np.cos(t), np.sin(t)
        return np.stack([c, -s, s, c, c, s, s, -c], axis=-1).reshape(-1, 2, 2)
    return core._signed_qr(np.random.default_rng(seed).standard_normal((n_grid, j, j)))


def subdiff_affine_dimension(gen_set: SubdiffGeneratorSet, tol_rank: float = 1e-8) -> int:
    """Affine dimension of the sampled generator set.

    Rank of the centered, vectorized sample (m, j^2), which is that of
    the centered generators (module docstring), with singular values
    thresholded at ``tol_rank`` relative to the largest; for a stratum
    with j right angles the expected value is j^2.

    Raises
    ------
    DomainError
        If ``tol_rank`` is not in (0, 1): at 1 or above even the largest
        singular value would count as zero.
    NotOnCut
        If the generator set claims stratum 0 (gradient singleton).
    InsufficientSamples
        If fewer than j^2 + 1 generators were sampled.
    """
    if not 0.0 < tol_rank < 1.0:
        raise DomainError(f"tol_rank must lie in (0, 1), got {tol_rank}")
    if gen_set.j == 0:
        raise NotOnCut("off the cut locus the subdifferential is a point")
    need = gen_set.j ** 2 + 1
    x = gen_set.sample.reshape(len(gen_set.sample), -1)
    if len(x) < need:
        raise InsufficientSamples(
            f"{len(x)} generators < {need} required for stratum j={gen_set.j}"
        )
    svals = core._svdvals(x - x[0])
    if svals[0] <= 0.0:
        return 0
    return int(np.count_nonzero(svals > tol_rank * svals[0]))


def _clip_spectral_norm(q: np.ndarray) -> np.ndarray:
    """Nearest matrix of spectral norm at most 1: singular values clipped at 1."""
    u, s, vt = core._svd(q)
    return (u * np.minimum(s, 1.0)) @ vt


def restricted_critical_test(
    gen_set: SubdiffGeneratorSet, tangent_basis, tol: float = 1e-8
) -> CriticalTestResult:
    """Does zero lie in the projection of the subdifferential onto a tangent space?

    ``tangent_basis`` is a stacked :class:`TangentMatrix` (D, n-k, k) of
    orthonormal tangent matrices at the generator set's base (the
    tangent space of the constraint manifold at the cut point).  The
    subdifferential is built exactly from the stored base preimage, not
    from the sampled generators: with N1, theta1, P1 the first k - j
    columns of its factors (the non-right angles) and N2, P2 the last j
    (the right angles, which the orbit samples act on), it is
    ``{G0 + L(Q) : ||Q||_2 <= 1}`` where
    ``G0 = -N1 diag(theta1) P1^T / delta`` and
    ``L(Q) = -(pi / 2 delta) N2 Q P2^T``.  For orthogonal Q, G0 + L(Q) is
    the generator that the sample element W = Q^T stands for.

    Projecting onto the basis gives g = <T_d, G0> and the D x j^2 matrix
    M of <T_d, L(.)>; the test asks for Q in the spectral unit ball with
    g + M vec(Q) = 0.  The least-squares solution Q* is found from one
    SVD of M, whose rank is decided relative to pi / (2 delta).  When M
    has rank j^2, Q* is the only candidate: its singular values are
    clipped at 1 and the residual taken there.  Otherwise the test
    alternates between the affine set of least-squares solutions and
    clipping, for at most ``ALTERNATING_ROUNDS`` rounds, and reports the
    clipped Q with the smallest residual.

    A witness below ``tol`` certifies criticality.  A negative answer
    is a refutation when M has rank j^2 or when even Q* misses ``tol``;
    otherwise it is inconclusive.  ``outcome`` names which of the three
    happened.
    """
    frame = gen_set.base
    if not core._same_frame(tangent_basis.frame.frame, frame.frame):
        raise DimensionMismatch("tangent basis attached to a different frame")
    basis = tangent_basis.a.reshape(-1, frame.n - frame.k, frame.k)
    if len(basis) == 0:
        raise DimensionMismatch("empty tangent basis")
    flat = basis.reshape(len(basis), -1)
    gram = flat @ flat.T - core._eye(len(basis))
    if np.maximum.reduce(np.abs(gram), axis=None) > 1e-8:
        raise DimensionMismatch("tangent basis is not orthonormal within 1e-8")
    (ncols, theta, p), j, delta = gen_set.factors, gen_set.j, gen_set.delta
    scale = math.pi / (2.0 * delta)
    r = frame.k - j  # the non-right angles come first, the right ones last
    g0 = -(ncols[:, :r] * theta[:r]) @ p[:, :r].T / delta
    g = flat @ g0.reshape(-1)
    m = -scale * (ncols[:, r:].T @ basis @ p[:, r:]).reshape(len(basis), j * j)
    u, sv, vt = core._svd(m, full_matrices=False)
    rank = np.count_nonzero(sv > RANK_RTOL * scale)
    vr = vt[:rank]
    q_star = -vr.T @ ((u[:, :rank].T @ g) / sv[:rank])
    # one round decides when Q* is the only candidate or no Q at all reaches tol
    decided = rank == j * j or float(core._norm(g + m @ q_star)) > tol
    q = q_star
    best_q, best = None, math.inf
    for _ in range(1 if decided else ALTERNATING_ROUNDS):
        clipped = _clip_spectral_norm(q.reshape(j, j)).reshape(-1)
        residual = float(core._norm(g + m @ clipped))
        if residual < best:
            best_q, best = clipped, residual
        if residual <= tol:
            break
        q = clipped - vr.T @ (vr @ clipped) + q_star
    found = best <= tol
    outcome = "witness" if found else "refuted" if decided else "inconclusive"
    return CriticalTestResult(
        found=found, witness=best_q.reshape(j, j), residual=best, outcome=outcome
    )
