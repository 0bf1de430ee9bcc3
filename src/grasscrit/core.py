"""Geometry of the real Grassmannian G(k, n).

A point of G(k, n) is a k-dimensional subspace of R^n, stored as an
n x k matrix with orthonormal columns (:class:`Plane`).  Attaching a
full orthogonal matrix whose first k columns span the plane
(:class:`FramedPlane`) fixes an isomorphism between tangent vectors and
(n-k) x k matrices: the tangent matrix ``A`` acts by rotating the i-th
right singular direction of the plane toward the i-th left singular
direction of the complement with speed equal to the i-th singular
value.  Under the orthogonally invariant metric the inner product of
two tangent vectors is the plain Frobenius product of their matrices.

Conventions used throughout (and by every caller of this module):

* SVD routines return singular values in nonincreasing order; principal
  angles are reported nondecreasing, the order of the cosines from the
  SVD of B_1^T B_2 (the sines alone are reversed in
  :func:`_hybrid_angles`).  A caller that indexes the singular values
  of a connecting matrix nonincreasing reverses the factors itself.
* Two angle formulas, each accurate at both ends (a plain arccos of the
  cosine SVD has a noise floor of about sqrt(machine eps) near zero
  angles, which would dominate round-trip checks).
  :func:`_hybrid_angles` serves bare pairs of planes
  (:func:`principal_angles`, :func:`grassmann_distance`): two singular
  value calls, cosines and sines, no vectors.
  :func:`_connecting_factors` serves every construction that also needs
  the principal vectors (the logarithm, the Schubert answers, the
  cut-locus orbit): one SVD with vectors, whose sines are the column
  norms of C^T B_2 Q and whose angles are atan2(sin, cos).
* Frame completion and orthonormalization fix signs deterministically,
  so identical inputs give bit-identical outputs for a given build.
* :func:`_hybrid_angles` (angles of bare pairs),
  :func:`_geodesic_end` (the exponential), :func:`_frame_complements`
  (frame completion), :func:`_connecting_factors` (angles with
  principal vectors) and :func:`_log` are the only copies of their
  formulas; all take stacks ``(..., rows, cols)`` whose leading
  axes broadcast, and a single plane runs the same operations.
* exp_L(A) has the basis B cos(sqrt M) + C A sinc(sqrt M), M = A^T A,
  which is (B V cos(mu) + C U sin(mu)) V^T for A = U diag(mu) V^T:
  continuous in A, with no singular-vector sign choice.
* log_L(E) is one formula, C^T B_E Q diag(theta / sin theta) P^T
  from the SVD B^T B_E = P diag(cos theta) Q^T, in every regime from
  coincident planes to the cut locus, built from the factors of
  :func:`connecting_factors`.  Off the cut locus the tangent matrix in
  a given frame is unique, so it may be compared entrywise.
* A set of tangent vectors is one :class:`TangentMatrix` stack.

All operations are pure functions of their inputs plus an explicit
seed; values are safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    FrameMismatch,
    GrasscritError,
    OnCutLocus,
    RankDeficient,
    StepTooSmall,
)

#: Orthonormality tolerance for stored bases and frames.
TOL_ORTH = 1e-12

#: Default absolute tolerance (radians) for "angle equals pi/2" decisions.
TOL_CUT = 1e-9

#: Silent clamping slack for arccos arguments slightly above 1.
CLAMP_SLACK = 1e-12

_EPS = float(np.finfo(float).eps)


def _as_matrix(raw, name: str) -> np.ndarray:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError(f"{name} contains non-finite entries")
    return a


def _check_orthonormal(b: np.ndarray, tol: float, what: str) -> None:
    g = b.T @ b - np.eye(b.shape[1])
    dev = float(np.max(np.abs(g))) if g.size else 0.0
    if dev > tol:
        raise DimensionError(f"{what} not orthonormal: max deviation {dev:.3e} > {tol:.1e}")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plane:
    """A k-plane in R^n, stored as an n x k orthonormal basis.

    The standing assumption k <= n - k is enforced; swap a plane with
    its orthogonal complement if you need the other range.
    """

    n: int
    k: int
    basis: np.ndarray

    def __post_init__(self):
        b = _as_matrix(self.basis, "basis")
        if b.shape != (self.n, self.k):
            raise DimensionError(f"basis shape {b.shape} != ({self.n}, {self.k})")
        if not (1 <= self.k <= self.n - self.k):
            raise DimensionError(f"need 1 <= k <= n - k, got k={self.k}, n={self.n}")
        _check_orthonormal(b, TOL_ORTH * max(1.0, self.k), "plane basis")
        object.__setattr__(self, "basis", _frozen(b))

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the plane (basis independent)."""
        return self.basis @ self.basis.T


@dataclass(frozen=True)
class FramedPlane:
    """A plane together with a full orthogonal n x n representative.

    The first k columns of ``frame`` are exactly ``plane.basis``; the
    remaining n - k columns are an orthonormal basis of the complement.
    The frame fixes the identification of tangent vectors with
    (n-k) x k matrices, so tangent data is only comparable between
    identical frames.
    """

    plane: Plane
    frame: np.ndarray

    def __post_init__(self):
        f = _as_matrix(self.frame, "frame")
        n = self.plane.n
        if f.shape != (n, n):
            raise DimensionError(f"frame shape {f.shape} != ({n}, {n})")
        _check_orthonormal(f, TOL_ORTH * max(1.0, n), "frame")
        if not np.array_equal(f[:, : self.plane.k], self.plane.basis):
            raise FrameMismatch("first k frame columns must equal the plane basis exactly")
        object.__setattr__(self, "frame", _frozen(f))

    @property
    def n(self) -> int:
        return self.plane.n

    @property
    def k(self) -> int:
        return self.plane.k

    @property
    def complement(self) -> np.ndarray:
        """The n x (n-k) orthonormal basis of the orthogonal complement."""
        return self.frame[:, self.plane.k:]


@dataclass(frozen=True)
class TangentMatrix:
    """One (n-k) x k tangent matrix at a framed plane, or a stack
    (..., n-k, k) of them at that frame, validated once as a whole."""

    a: np.ndarray
    frame: FramedPlane

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        n, k = self.frame.n, self.frame.k
        if a.shape[-2:] != (n - k, k):
            raise DimensionError(f"tangent shape {a.shape} != (..., {n - k}, {k})")
        if not np.all(np.isfinite(a)):
            raise DimensionError("tangent matrix contains non-finite entries")
        object.__setattr__(self, "a", _frozen(a))

    @property
    def norm(self) -> float | np.ndarray:
        """Frobenius norm of each matrix: a float for a single matrix,
        an array over the leading axes for a stack."""
        norms = np.linalg.norm(self.a, axis=(-2, -1))
        return float(norms) if norms.ndim == 0 else norms


@dataclass(frozen=True)
class PluckerPoint:
    """Normalized Plucker coordinate vector of a plane.

    Coordinates are the k x k minors of the basis matrix in
    lexicographic multi-index order, scaled to unit Euclidean norm with
    the first nonzero coordinate positive.
    """

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen(np.asarray(self.coords, dtype=float)))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def make_plane(raw, tol: float = 1e-10) -> Plane:
    """Orthonormalize the columns of ``raw`` into a :class:`Plane`.

    Uses a QR factorization with the sign convention that the diagonal
    of the triangular factor is positive, so the result is a
    deterministic function of the input.  The span is preserved.

    Raises
    ------
    RankDeficient
        If the smallest singular value of ``raw`` is <= ``tol``.
    DimensionError
        If k > n - k.
    """
    a = _as_matrix(raw, "raw")
    n, k = a.shape
    if not (1 <= k <= n - k):
        raise DimensionError(f"need 1 <= k <= n - k, got k={k}, n={n}")
    smin = float(np.linalg.svd(a, compute_uv=False)[-1])
    if smin <= tol:
        raise RankDeficient(f"smallest singular value {smin:.3e} <= {tol:.1e}")
    q = _signed_qr(a)
    return Plane(n=n, k=k, basis=q)


def _signed_qr(a: np.ndarray) -> np.ndarray:
    """Q factor of each matrix of a stack (..., m, k), with the diagonal
    of the triangular factor made nonnegative."""
    q, r = np.linalg.qr(a)
    signs = np.sign(r.diagonal(0, -2, -1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def _frame_complements(b: np.ndarray) -> np.ndarray:
    """Complement bases (..., n, n-k) of a stack of orthonormal bases
    (..., n, k): the body of :func:`complete_frame`, one stack at a time."""
    n, k = b.shape[-2:]
    resid = np.eye(n) - b @ b.swapaxes(-1, -2)
    norms = np.linalg.norm(resid, axis=-2)
    order = np.argsort(-norms, axis=-1, kind="stable")[..., None, : n - k]
    # columns ``order`` of each matrix, gathered through flat indices:
    # np.take_along_axis costs a single plane 15 % more
    rows = np.arange(0, resid.size, n).reshape(resid.shape[:-1] + (1,))
    return _signed_qr(resid.reshape(-1)[rows + order])


def complete_frame(plane: Plane) -> FramedPlane:
    """Extend a plane to a full orthogonal frame, deterministically.

    The complement is built from the standard basis vectors with the
    largest residual after projecting out the plane (ties broken by
    index), orthonormalized with the fixed QR sign convention.
    Repeated calls give identical frames, and each plane of a stack
    passed to :func:`_frame_complements` gets the same complement.
    """
    b = plane.basis
    return FramedPlane(plane=plane, frame=np.concatenate([b, _frame_complements(b)], axis=1))


def tangent(at: FramedPlane, a) -> TangentMatrix:
    """Attach an (n-k) x k matrix to a frame as a tangent vector."""
    return TangentMatrix(a=np.asarray(a, dtype=float), frame=at)


def random_plane(n: int, k: int, seed) -> Plane:
    """Seeded random plane: orthonormalized standard normal n x k matrix.

    The same seed always yields the same plane.  ``seed`` may be an
    int, a ``SeedSequence`` or a ``Generator``.
    """
    rng = np.random.default_rng(seed)
    return make_plane(rng.standard_normal((n, k)))


# ---------------------------------------------------------------------------
# Principal angles
# ---------------------------------------------------------------------------

def _hybrid_angles(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Nondecreasing principal angles with full accuracy at both ends.

    Cosines come from the SVD of b1^T b2; sines from the SVD of the
    complement product b2 - b1 (b1^T b2).  The sine branch is used where
    cos^2 >= 1/2 (small angles), the cosine branch elsewhere.  Either
    argument may be a stack of bases; the leading axes broadcast and the
    clamp is checked on every largest cosine.
    """
    m = b1.swapaxes(-1, -2) @ b2
    c = np.linalg.svd(m, compute_uv=False)
    if c.size and c.max() > 1.0 + CLAMP_SLACK:
        raise GrasscritError(f"cosine {c.max()!r} exceeds 1 beyond clamping slack")
    c = np.clip(c, 0.0, 1.0)
    s = np.linalg.svd(b2 - b1 @ m, compute_uv=False)[..., ::-1]
    s = np.clip(s, 0.0, 1.0)
    return np.where(c * c >= 0.5, np.arcsin(s), np.arccos(c))


def principal_angles(e1: Plane, e2: Plane) -> np.ndarray:
    """Nondecreasing principal angles between two k-planes."""
    _check_same_shape(e1, e2)
    return _hybrid_angles(e1.basis, e2.basis)


def grassmann_distance(e1: Plane, e2: Plane) -> float:
    """Riemannian distance: l2 norm of the principal angle vector."""
    return float(np.linalg.norm(principal_angles(e1, e2)))


def _check_same_shape(e1: Plane, e2: Plane) -> None:
    if (e1.n, e1.k) != (e2.n, e2.k):
        raise DimensionError(
            f"planes live on different Grassmannians: ({e1.n},{e1.k}) vs ({e2.n},{e2.k})"
        )


# ---------------------------------------------------------------------------
# Metric, exponential, logarithm
# ---------------------------------------------------------------------------

def metric(at: FramedPlane, v1: TangentMatrix, v2: TangentMatrix) -> float:
    """Riemannian inner product: Frobenius product of tangent matrices.

    The half-rescaled bi-invariant metric upstairs on the orthogonal
    group is chosen precisely so that no extra factor appears here;
    compare against conventions without that rescaling with care.
    Takes single tangent matrices; a stack raises :class:`DimensionError`.
    """
    for v in (v1, v2):
        if not np.array_equal(v.frame.frame, at.frame):
            raise FrameMismatch("tangent vector not attached to the given frame")
        if v.a.ndim != 2:
            raise DimensionError(f"metric takes single tangent matrices, got shape {v.a.shape}")
    return float(np.sum(v1.a * v2.a))


def _psd_functions(m: np.ndarray, f) -> np.ndarray:
    """Matrix functions of a stack of symmetric PSD matrices from one
    ``eigh``: ``f`` maps the eigenvalues (clipped at 0) to those of the
    result, or to several such arrays stacked on a new leading axis."""
    s, q = np.linalg.eigh(m)
    return (q * f(np.maximum(s, 0.0))[..., None, :]) @ q.swapaxes(-1, -2)


def _geodesic_end(at: FramedPlane, a: np.ndarray, velocity: bool = False):
    """Basis Y of exp_at(A) for a stack ``a`` of tangent matrices of
    shape (..., n-k, k); with ``velocity`` the pair (Y, Ydot), Ydot the
    geodesic velocity at Y.

    Y = B cos(sqrt M) + C A sinc(sqrt M) and
    Ydot = -B sqrt(M) sin(sqrt M) + C A cos(sqrt M) with M = A^T A and
    [B C] the frame.  Both are power series in M, so they carry no
    singular-vector gauge and stay smooth at repeated singular values.
    Y is orthonormal to rounding and is not re-orthonormalized.
    """

    def functions(s):
        root = np.sqrt(s)
        out = [np.cos(root), np.sinc(root / math.pi)]
        if velocity:
            out.append(-root * np.sin(root))
        return np.array(out)

    f = _psd_functions(a.swapaxes(-1, -2) @ a, functions)
    b, ca = at.plane.basis, at.complement @ a
    y = b @ f[0] + ca @ f[1]
    if not velocity:
        return y
    return y, b @ f[2] + ca @ f[0]


def _check_exp_range(at: FramedPlane, peak: float, what: str) -> None:
    """Raise :class:`DomainError` when a tangent matrix whose largest
    entry is ``peak`` in absolute value overflows the exponential kernel:
    each entry of A^T A sums n - k products of entries of A.  Python
    floats overflow to inf here without a numpy warning."""
    if not math.isfinite((at.n - at.k) * peak * peak):
        raise DomainError(f"{what} overflows the exponential kernel")


def exp(at: FramedPlane, a: TangentMatrix) -> Plane:
    """Riemannian exponential at a framed plane.

    With ``a.a = U diag(mu) V^T`` a compact SVD, the image plane is
    spanned, in the frame's coordinates, by the columns
    cos(mu_i) v_i over sin(mu_i) u_i.  The returned basis is that one
    rotated by V^T, the matrix function computed by
    :func:`_geodesic_end`, so it depends continuously on ``a``.
    Takes a single tangent matrix; a stack raises :class:`DimensionError`.
    A tangent matrix whose A^T A overflows raises :class:`DomainError`.
    """
    if not np.array_equal(a.frame.frame, at.frame):
        raise FrameMismatch("tangent vector not attached to the given frame")
    if a.a.ndim != 2:
        raise DimensionError(f"exp takes a single tangent matrix, got shape {a.a.shape}")
    _check_exp_range(at, float(np.abs(a.a).max()), "tangent matrix")
    return Plane(n=at.n, k=at.k, basis=_geodesic_end(at, a.a))


def geodesic_point(at: FramedPlane, a: TangentMatrix, t: float) -> Plane:
    """Point at parameter ``t`` of the geodesic with initial velocity ``a``.

    Takes a single tangent matrix; a stack raises :class:`DimensionError`.
    A non-finite ``t``, or one for which :func:`exp` rejects t A, raises
    :class:`DomainError`.
    """
    if a.a.ndim != 2:
        raise DimensionError(
            f"geodesic_point takes a single tangent matrix, got shape {a.a.shape}"
        )
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"geodesic parameter t must be finite, got {t}")
    # exp's range check on t A, before t A is formed: a finite product of
    # Python floats bounds every entry of t A
    peak = abs(t) * float(np.abs(a.a).max())
    _check_exp_range(at, peak, f"geodesic parameter t = {t} times the tangent")
    return exp(at, tangent(at, t * a.a))


def _connecting_factors(
    b: np.ndarray, c: np.ndarray, targets: np.ndarray, snap_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`connecting_factors` on stacks: base bases ``b`` (..., n, k)
    with complements ``c`` (..., n, n-k) and target bases ``targets``
    (..., n, k), leading axes broadcast.  Returns N (..., n-k, k),
    theta (..., k) and U (..., k, k)."""
    p, cos, qt = np.linalg.svd(b.swapaxes(-1, -2) @ targets)
    top = cos[..., 0].max()
    if top > 1.0 + CLAMP_SLACK:
        raise GrasscritError(f"cosine {top!r} exceeds 1 beyond clamping slack")
    s = c.swapaxes(-1, -2) @ targets @ qt.swapaxes(-1, -2)
    sin = np.linalg.norm(s, axis=-2, keepdims=True)
    ncols = np.divide(s, sin, out=np.zeros_like(s), where=sin > 0.0)
    theta = np.arctan2(sin[..., 0, :], cos)
    if snap_tol is not None:
        theta[theta >= math.pi / 2 - snap_tol] = math.pi / 2
    return ncols, theta, p


def connecting_factors(
    at: FramedPlane, target: Plane, snap_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors (N, theta, U) of a minimizing connecting matrix N diag(theta) U^T.

    One SVD B^T B_t = P diag(cos theta) Q^T gives all three: ``U = P``
    is the principal-vector gauge of the base plane, ``N`` holds the
    columns of C^T B_t Q divided by their norms (the sines; zero columns
    where no rotation happens) and ``theta = atan2(sin, cos)``, accurate
    at both ends and nondecreasing, so right angles sit in the last
    slots.  Total construction: on the cut locus it fixes one choice of
    minimizing geodesic; sweeping the gauge orbit of the right-angle
    block then recovers all of them.

    Parameters
    ----------
    snap_tol:
        If given, angles within ``snap_tol`` of pi/2 are snapped to
        exactly pi/2 (cut-locus constructions place right angles
        exactly).
    """
    _check_same_shape(at.plane, target)
    return _connecting_factors(at.plane.basis, at.complement, target.basis, snap_tol)


def _log(
    b: np.ndarray, c: np.ndarray, targets: np.ndarray, tol_cut: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`log` on stacks, with the arrays of :func:`_connecting_factors`:
    the tangent matrices (..., n-k, k) and their angles theta (..., k).
    Raises :class:`OnCutLocus` if any pair is on the cut locus."""
    ncols, theta, u_right = _connecting_factors(b, c, targets)
    top = float(theta.max())
    if top >= math.pi / 2 - tol_cut:
        raise OnCutLocus(f"largest principal angle {top:.12f} within {tol_cut:.1e} of pi/2")
    return (ncols * theta[..., None, :]) @ u_right.swapaxes(-1, -2), theta


def log(at: FramedPlane, target: Plane, tol_cut: float = TOL_CUT) -> TangentMatrix:
    """Riemannian logarithm at a framed plane.

    Defined off the cut locus only: the largest principal angle must be
    below pi/2 - tol_cut, otherwise the minimizing geodesic is not
    unique and :class:`OnCutLocus` is raised.  At the base point this
    degenerates to the zero matrix.  Off the cut locus the tangent
    matrix in a fixed frame is unique, repeated angles included, so it
    may be compared entrywise: for a target spanned by
    B V cos(theta) + C U sin(theta) it is U diag(theta) V^T.

    One formula serves every regime (Bendokat, Zimmermann and Absil,
    *A Grassmann manifold handbook*, 2024, sec. 5).  With
    B^T B_t = P diag(cos theta) Q^T, the polar factor Q P^T aligns the
    target basis, S = C^T B_t Q P^T = U sin(theta) P^T, and
    A = S g(S^T S) with g = theta / sin(theta), 1 at sin = 0.  The SVD
    already diagonalizes S^T S, so A = N diag(theta) P^T with N, theta
    and P from :func:`connecting_factors`.
    """
    _check_same_shape(at.plane, target)
    a, _ = _log(at.plane.basis, at.complement, target.basis, tol_cut)
    return tangent(at, a)


# ---------------------------------------------------------------------------
# Plucker coordinates
# ---------------------------------------------------------------------------

@functools.cache
def plucker_index_table(n: int, k: int) -> np.ndarray:
    """Lexicographically ordered k-subsets of {0, ..., n-1}, one per row
    of a read-only (binomial(n, k), k) index array built once per (n, k)."""
    table = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    table.setflags(write=False)
    return table


@functools.cache
def _laplace_table(n: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of one Laplace level: the j-minors of the first j
    columns from the (j-1)-minors of the first j - 1, expanded along
    column j - 1.  Entry (t, S) is for slot t of the j-subset S
    (lexicographic, as in :func:`plucker_index_table`): the row S_t, the
    lexicographic position of S without S_t among the (j-1)-subsets,
    and the sign (-1)^(t + j - 1).  Three read-only (j, binomial(n, j))
    arrays, built once per (n, j); positions are ranks in the
    combinatorial number system."""
    subsets = plucker_index_table(n, j)
    others = np.array([[i for i in range(j) if i != t] for t in range(j)], dtype=np.intp)
    binom = np.array([[math.comb(a, b) for b in range(j)] for a in range(n)], dtype=np.intp)
    rest = subsets.T[others]
    rank = binom[n - 1 - rest, np.arange(j - 1, 0, -1)[:, None]].sum(axis=1)
    rows = np.ascontiguousarray(subsets.T)
    drop = math.comb(n, j - 1) - 1 - rank
    sign = np.repeat(np.where((np.arange(j) + j - 1) % 2, -1.0, 1.0)[:, None], len(subsets), axis=1)
    for table in (rows, drop, sign):
        table.setflags(write=False)
    return rows, drop, sign


@functools.cache
def _reverse_laplace_table(n: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The slots (t, S) of :func:`_laplace_table` level j, as flat
    positions t binomial(n, j) + S, grouped by what they feed: one
    column per (j-1)-subset D (the n - j + 1 slots whose S without S_t
    is D) and one row per basis row r (the binomial(n - 1, j - 1) slots
    with S_t = r), each in increasing position.  Two read-only index
    arrays, (n - j + 1, binomial(n, j - 1)) and (n, binomial(n - 1, j - 1)),
    built once per (n, j)."""
    rows, drop, _ = _laplace_table(n, j)
    by_lower = np.argsort(drop, axis=None, kind="stable").reshape(-1, n - j + 1).T.copy()
    by_row = np.argsort(rows, axis=None, kind="stable").reshape(n, -1)
    for table in (by_lower, by_row):
        table.setflags(write=False)
    return by_lower, by_row


def _laplace_sweep(b: np.ndarray):
    """All j-minors of the first j columns of a stack of n x k matrices
    (..., n, k), for j = 1..k, by one Laplace expansion per column, and
    the same sweep run backward.

    The 1-minors are column 0; each j-subset's minor is the sum over its
    slots t of (-1)^(t + j - 1) b[S_t, j - 1] times the (j-1)-minor on S
    without S_t (:func:`_laplace_table`): one gather, product and sum per
    level.  The sum runs over the slot axis, slot by slot, so every
    minor is rounded in the same order whatever the stack.  Exact for
    k = 1, ad - bc for k = 2, and exact on integer matrices whose
    partial sums stay below 2^53.

    Returns the k-minors (..., binomial(n, k)) and their pullback: the
    function that takes the gradient of a scalar function of the minors
    (..., binomial(n, k)) to its gradient in ``b`` (..., n, k).  It runs
    the levels backward (reverse-mode accumulation): the adjoint of
    level j pulls back to column j - 1 through the lower minors and to
    level j - 1 through the entries, each a gather by
    :func:`_reverse_laplace_table` and a fixed-order sum; column 0
    receives the adjoint of level 1.
    """
    n, k = b.shape[-2:]
    minors = b[..., 0].copy()
    levels = []
    for j in range(2, k + 1):
        rows, drop, sign = _laplace_table(n, j)
        entries = b[..., j - 1].take(rows, axis=-1) * sign
        lower = minors.take(drop, axis=-1)
        minors = (entries * lower).sum(axis=-2)
        levels.append((entries, lower))

    def pullback(adjoint: np.ndarray) -> np.ndarray:
        grad = np.empty_like(b)
        lead = adjoint.shape[:-1]
        for j in range(k, 1, -1):
            entries, lower = levels[j - 2]
            by_lower, by_row = _reverse_laplace_table(n, j)
            weight = adjoint[..., None, :]
            pull = weight * _laplace_table(n, j)[2] * lower
            grad[..., j - 1] = pull.reshape(lead + (-1,)).take(by_row, axis=-1).sum(axis=-1)
            adjoint = (weight * entries).reshape(lead + (-1,)).take(by_lower, axis=-1).sum(axis=-2)
        grad[..., 0] = adjoint
        return grad

    return minors, pullback


def plucker_minors(plane_or_basis) -> np.ndarray:
    """Raw k x k minors of a basis matrix, lexicographic index order.

    Takes a plane or a stack of basis matrices (..., n, k) and returns
    the minors (..., binomial(n, k)), the last level of
    :func:`_laplace_sweep`.  For an orthonormal basis the minor vector
    has unit norm; this function does not normalize, so the chart
    identity c_{first k rows} = cos(mu_1)...cos(mu_k) of an :func:`exp`
    image at a coordinate frame is visible directly.
    """
    b = plane_or_basis.basis if isinstance(plane_or_basis, Plane) else plane_or_basis
    return _laplace_sweep(np.asarray(b, dtype=float))[0]


def plucker_coords(e: Plane) -> PluckerPoint:
    """Normalized Plucker coordinates of a plane."""
    v = plucker_minors(e)
    v = v / np.linalg.norm(v)
    scale = np.max(np.abs(v))
    nz = np.nonzero(np.abs(v) > 1e-14 * scale)[0]
    if nz.size and v[nz[0]] < 0:
        v = -v
    return PluckerPoint(coords=v)


# ---------------------------------------------------------------------------
# Pullback metric distortion
# ---------------------------------------------------------------------------

def pullback_metric_error(
    w: FramedPlane, eps: float, n_samples: int = 12, seed=0
) -> float:
    """Distortion of the rescaled exponential-chart metric at scale ``eps``.

    Samples tangent matrices A in the unit Frobenius disk and unit-norm
    tangent pairs (B1, B2), approximates the pulled-back rescaled metric
    g_eps(B1, B2) by central finite differences of the exponential basis
    Y(eps A + h B), projected onto the normal space of Y(eps A), and
    returns the maximum absolute deviation from the flat value
    <B1, B2>_F over all samples (including the diagonal pairs).  All
    exponentials are one stacked kernel call.  The deviation shrinks
    like eps^2 as the chart scale goes to zero.

    Raises
    ------
    StepTooSmall
        If ``eps`` is so small that the finite-difference step cannot be
        separated from it.
    """
    if not (0.0 < eps < math.pi / 4):
        raise DimensionError(f"eps must lie in (0, pi/4), got {eps}")
    n, k = w.n, w.k
    rng = np.random.default_rng(seed)
    h0 = _EPS ** (1.0 / 3.0)
    if eps <= 4.0 * h0:
        raise StepTooSmall(f"eps={eps:.3e} not separated from FD step {h0:.3e}")
    centers, directions, steps = [], [], []
    for _ in range(n_samples):
        a = rng.standard_normal((n - k, k))
        a *= eps * rng.uniform(0.0, 1.0) / np.linalg.norm(a)
        b = rng.standard_normal((2, n - k, k))
        centers.append(a)
        directions.append(b / np.linalg.norm(b, axis=(1, 2), keepdims=True))
        steps.append(h0 * max(1.0, float(np.linalg.norm(a))))
    a = np.array(centers)[:, None]
    b = np.array(directions)
    h = np.array(steps)[:, None, None, None]
    y = _geodesic_end(w, np.concatenate([a, a + h * b, a - h * b], axis=1))
    y0 = y[:, :1]
    diff = (y[:, 1:3] - y[:, 3:]) / (2.0 * h)
    velocity = diff - y0 @ (y0.swapaxes(-1, -2) @ diff)
    gram = np.einsum("sixy,sjxy->sij", velocity, velocity)
    flat = np.einsum("sixy,sjxy->sij", b, b)
    return float(np.max(np.abs(gram - flat)))
