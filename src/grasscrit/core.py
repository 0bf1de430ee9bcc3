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
  norms of C^T B_2 Q and whose angles are atan2(sin, cos), unsnapped
  (:mod:`cutlocus` decides which of them are right angles).
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
* Per-call paths use ufuncs, ufunc reductions, numpy's C constructors
  and :func:`_norm` in place of numpy's Python-level wrappers and
  methods (``np.linalg.norm``, ``np.clip``, ``np.zeros_like``,
  ``np.hstack``, ``ndarray.max`` through ``np.maximum.reduce``, ...):
  the same arithmetic, so the same bits, without the wrappers' per-call
  cost.  A boolean array that only decides an ``if`` is tested by
  ``np.count_nonzero`` (any: nonzero; all: equal to its size), about a
  third of the cost of a ``logical_or`` or ``logical_and`` reduction.
  LAPACK runs through :func:`_svd`, :func:`_svdvals`,
  :func:`_eigh` and :func:`_qr`: the gufuncs that ``np.linalg``'s
  wrappers call, under the wrappers' error handling, so a failure
  raises numpy's ``LinAlgError``.

All operations are pure functions of their inputs plus an explicit
seed; values are safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
from numpy.linalg import _umath_linalg
from numpy.linalg._linalg import (
    _raise_linalgerror_eigenvalues_nonconvergence,
    _raise_linalgerror_qr,
    _raise_linalgerror_svd_nonconvergence,
)

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

#: :func:`make_plane` rejects a basis whose smallest singular value is at most this.
TOL_SPAN = 1e-10

#: Silent clamping slack for arccos arguments slightly above 1.
CLAMP_SLACK = 1e-12

_EPS = float(np.finfo(float).eps)


def _as_matrix(raw, name: str) -> np.ndarray:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise DimensionError(f"{name} contains non-finite entries")
    return a


def _norm(x: np.ndarray, axis=None, keepdims: bool = False):
    """``np.linalg.norm(x, axis=axis, keepdims=keepdims)`` (the 2-norm of
    the flattened array, or the Euclidean or Frobenius norm along
    ``axis``) by the same arithmetic, without the wrapper's dispatch."""
    if axis is None:
        x = x.ravel(order="K")
        return np.sqrt(x.dot(x))
    return np.sqrt(np.add.reduce(x * x, axis=axis, keepdims=keepdims))


@functools.cache
def _eye(n: int) -> np.ndarray:
    """Read-only n x n identity, built once per n."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _same_frame(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether two frame matrices are equal entrywise; frames are frozen,
    so an object is equal to itself without a comparison."""
    return x is y or np.array_equal(x, y)


# LAPACK through the gufuncs that numpy.linalg's svd, eigh and qr call,
# with the same signatures and under the same error handling, so the
# results are theirs bit for bit and a failure raises numpy's
# LinAlgError; they take float64 stacks (..., m, n).  The error state of
# each callback is built once, as np.errstate builds it (a failure flag
# calls the callback, which raises LinAlgError; over/divide/underflow
# ignored), and set around each call through the context variable
# np.errstate sets, so a call builds no errstate object; the state's
# buffer size, read at import, is unused: gufuncs do not buffer

def _lapack_state(call):
    return _make_extobj(call=call, invalid="call", over="ignore", divide="ignore", under="ignore")


_SVD_STATE = _lapack_state(_raise_linalgerror_svd_nonconvergence)
_EIGH_STATE = _lapack_state(_raise_linalgerror_eigenvalues_nonconvergence)
_QR_STATE = _lapack_state(_raise_linalgerror_qr)


def _svd(a: np.ndarray, full_matrices: bool = True):
    """``np.linalg.svd(a, full_matrices)``: the factors (U, s, Vh)."""
    gufunc = _umath_linalg.svd_f if full_matrices else _umath_linalg.svd_s
    token = _extobj_contextvar.set(_SVD_STATE)
    try:
        return gufunc(a, signature="d->ddd")
    finally:
        _extobj_contextvar.reset(token)


def _svdvals(a: np.ndarray) -> np.ndarray:
    """``np.linalg.svd(a, compute_uv=False)``: the singular values."""
    token = _extobj_contextvar.set(_SVD_STATE)
    try:
        return _umath_linalg.svd(a, signature="d->d")
    finally:
        _extobj_contextvar.reset(token)


def _eigh(a: np.ndarray):
    """``np.linalg.eigh(a)``: eigenvalues ascending and eigenvectors,
    from the lower triangle."""
    token = _extobj_contextvar.set(_EIGH_STATE)
    try:
        return _umath_linalg.eigh_lo(a, signature="d->dd")
    finally:
        _extobj_contextvar.reset(token)


def _qr(a: np.ndarray, complete: bool = False):
    """Q of ``np.linalg.qr(a, "complete" if complete else "reduced")``
    and the diagonal of its R."""
    a = a.astype(float, copy=True)  # qr_r_raw overwrites it with R and the reflectors
    m, n = a.shape[-2:]
    q_of = _umath_linalg.qr_complete if complete and m > n else _umath_linalg.qr_reduced
    token = _extobj_contextvar.set(_QR_STATE)
    try:
        tau = _umath_linalg.qr_r_raw(a, signature="d->d")
        q = q_of(a, tau, signature="dd->d")
    finally:
        _extobj_contextvar.reset(token)
    return q, a.diagonal(0, -2, -1)


def _check_orthonormal(b: np.ndarray, tol: float, what: str) -> None:
    g = b.T @ b - _eye(b.shape[1])
    dev = float(np.maximum.reduce(np.abs(g), axis=None)) if g.size else 0.0
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
        same = f[:, : self.plane.k] == self.plane.basis
        if np.count_nonzero(same) < same.size:
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
        if np.count_nonzero(np.isfinite(a)) < a.size:
            raise DimensionError("tangent matrix contains non-finite entries")
        object.__setattr__(self, "a", _frozen(a))

    @property
    def norm(self) -> float | np.ndarray:
        """Frobenius norm of each matrix: a float for a single matrix,
        an array over the leading axes for a stack."""
        norms = _norm(self.a, axis=(-2, -1))
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

def make_plane(raw) -> Plane:
    """Orthonormalize the columns of ``raw`` into a :class:`Plane`.

    Uses a QR factorization with the sign convention that the diagonal
    of the triangular factor is positive, so the result is a
    deterministic function of the input.  The span is preserved.

    Raises
    ------
    RankDeficient
        If the smallest singular value of ``raw`` is <= ``TOL_SPAN``.
    DimensionError
        If k > n - k.
    """
    a = _as_matrix(raw, "raw")
    n, k = a.shape
    if not (1 <= k <= n - k):
        raise DimensionError(f"need 1 <= k <= n - k, got k={k}, n={n}")
    smin = float(_svdvals(a)[-1])
    if smin <= TOL_SPAN:
        raise RankDeficient(f"smallest singular value {smin:.3e} <= {TOL_SPAN:.1e}")
    q = _signed_qr(a)
    return Plane(n=n, k=k, basis=q)


def _signed_qr(a: np.ndarray) -> np.ndarray:
    """Q factor of each matrix of a stack (..., m, k), with the diagonal
    of the triangular factor made nonnegative."""
    q, r_diagonal = _qr(a)
    signs = np.sign(r_diagonal)
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def _frame_complements(b: np.ndarray) -> np.ndarray:
    """Complement bases (..., n, n-k) of a stack of orthonormal bases
    (..., n, k): the body of :func:`complete_frame`, one stack at a time."""
    n, k = b.shape[-2:]
    resid = _eye(n) - b @ b.swapaxes(-1, -2)
    norms = _norm(resid, axis=-2)
    order = (-norms).argsort(axis=-1, kind="stable")[..., None, : n - k]
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
    c = _svdvals(m)
    top = np.maximum.reduce(c, axis=None) if c.size else 0.0
    if top > 1.0 + CLAMP_SLACK:
        raise GrasscritError(f"cosine {top!r} exceeds 1 beyond clamping slack")
    # np.clip(x, 0, 1); on a tie np.maximum returns its second argument,
    # so a -0.0 passes through as it does through np.clip
    c = np.minimum(np.maximum(0.0, c), 1.0)
    s = _svdvals(b2 - b1 @ m)[..., ::-1]
    s = np.minimum(np.maximum(0.0, s), 1.0)
    return np.where(c * c >= 0.5, np.arcsin(s), np.arccos(c))


def principal_angles(e1: Plane, e2: Plane) -> np.ndarray:
    """Nondecreasing principal angles between two k-planes."""
    _check_same_shape(e1, e2)
    return _hybrid_angles(e1.basis, e2.basis)


def grassmann_distance(e1: Plane, e2: Plane) -> float:
    """Riemannian distance: l2 norm of the principal angle vector."""
    return float(_norm(principal_angles(e1, e2)))


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
        if not _same_frame(v.frame.frame, at.frame):
            raise FrameMismatch("tangent vector not attached to the given frame")
        if v.a.ndim != 2:
            raise DimensionError(f"metric takes single tangent matrices, got shape {v.a.shape}")
    return float(np.add.reduce(v1.a * v2.a, axis=None))


def _psd_functions(m: np.ndarray, f) -> np.ndarray:
    """Matrix functions of a stack of symmetric PSD matrices from one
    ``eigh``: ``f`` maps the eigenvalues (clipped at 0) to those of the
    result, or to several such arrays stacked on a new leading axis."""
    s, q = _eigh(m)
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
        out = np.empty((3 if velocity else 2,) + s.shape)
        root = np.sqrt(s)
        np.cos(root, out=out[0])
        # np.sinc(root / pi), in np.sinc's own arithmetic
        y = math.pi * (root / math.pi)
        y = np.where(y, y, _EPS)
        np.divide(np.sin(y), y, out=out[1])
        if velocity:
            np.multiply(-root, np.sin(root), out=out[2])
        return out

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


def _exp_tangent(at: FramedPlane, a: np.ndarray, what: str) -> np.ndarray:
    """The tangent matrix (n-k, k) whose :func:`_geodesic_end` is the
    basis of exp_at(``a``): ``a`` itself, or U diag(mu mod pi) V^T from
    its compact SVD U diag(mu) V^T when its largest singular value is at
    least pi.  Raises :class:`DomainError`, naming ``what``, when
    A^T A overflows the kernel."""
    peak = float(np.maximum.reduce(np.abs(a), axis=None))
    _check_exp_range(at, peak, what)
    # ||A||_2 >= pi needs ||A||_F >= pi; a peak entry >= pi gives both
    # and would overflow the Frobenius sum first
    if peak >= math.pi or _norm(a) >= math.pi:
        u, mu, vt = _svd(a, full_matrices=False)
        if mu[0] >= math.pi:
            return (u * np.mod(mu, math.pi)) @ vt
    return a


def exp(at: FramedPlane, a: TangentMatrix) -> Plane:
    """Riemannian exponential at a framed plane.

    With ``a.a = U diag(mu) V^T`` a compact SVD, the image plane is
    spanned, in the frame's coordinates, by the columns
    cos(mu_i) v_i over sin(mu_i) u_i.  The returned basis is that one
    rotated by V^T, the matrix function computed by
    :func:`_geodesic_end`, so it depends continuously on ``a`` while its
    largest singular value stays below pi.

    Every finite tangent matrix is in range: one whose largest singular
    value is at least pi is first replaced by U diag(mu mod pi) V^T,
    which spans the same plane (a column whose angle drops by a multiple
    m of pi changes sign (-1)^m), so the kernel keeps its accuracy and
    the basis stays orthonormal at any norm (:func:`_exp_tangent`).  Below
    that, no SVD is taken.  Takes a single tangent matrix; a stack raises
    :class:`DimensionError`.  A tangent matrix whose A^T A overflows
    raises :class:`DomainError`.
    """
    if not _same_frame(a.frame.frame, at.frame):
        raise FrameMismatch("tangent vector not attached to the given frame")
    if a.a.ndim != 2:
        raise DimensionError(f"exp takes a single tangent matrix, got shape {a.a.shape}")
    return Plane(n=at.n, k=at.k, basis=_geodesic_end(at, _exp_tangent(at, a.a, "tangent matrix")))


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
    peak = abs(t) * float(np.maximum.reduce(np.abs(a.a), axis=None))
    _check_exp_range(at, peak, f"geodesic parameter t = {t} times the tangent")
    return exp(at, tangent(at, t * a.a))


def _connecting_factors(
    b: np.ndarray, c: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`connecting_factors` on stacks: base bases ``b`` (..., n, k)
    with complements ``c`` (..., n, n-k) and target bases ``targets``
    (..., n, k), leading axes broadcast.  Returns N (..., n-k, k),
    theta (..., k) and U (..., k, k)."""
    p, cos, qt = _svd(b.swapaxes(-1, -2) @ targets)
    top = np.maximum.reduce(cos[..., 0], axis=None)
    if top > 1.0 + CLAMP_SLACK:
        raise GrasscritError(f"cosine {top!r} exceeds 1 beyond clamping slack")
    s = c.swapaxes(-1, -2) @ targets @ qt.swapaxes(-1, -2)
    sin = _norm(s, axis=-2, keepdims=True)
    ncols = np.divide(s, sin, out=np.zeros(s.shape), where=sin > 0.0)
    theta = np.arctan2(sin[..., 0, :], cos)
    return ncols, theta, p


def connecting_factors(at: FramedPlane, target: Plane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors (N, theta, U) of a minimizing connecting matrix N diag(theta) U^T.

    One SVD B^T B_t = P diag(cos theta) Q^T gives all three: ``U = P``
    is the principal-vector gauge of the base plane, ``N`` holds the
    columns of C^T B_t Q divided by their norms (the sines; zero columns
    where no rotation happens) and ``theta = atan2(sin, cos)``, accurate
    at both ends and nondecreasing, so right angles sit in the last
    slots.  Total construction: on the cut locus it fixes one choice of
    minimizing geodesic; sweeping the gauge orbit of the right-angle
    block then recovers all of them.  No angle is snapped to pi/2: the
    cut-locus constructions decide which are right angles.
    """
    _check_same_shape(at.plane, target)
    return _connecting_factors(at.plane.basis, at.complement, target.basis)


def _log(
    b: np.ndarray, c: np.ndarray, targets: np.ndarray, tol_cut: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`log` on stacks, with the arrays of :func:`_connecting_factors`:
    the tangent matrices (..., n-k, k) and their angles theta (..., k).
    Raises :class:`OnCutLocus` if any pair is on the cut locus."""
    ncols, theta, u_right = _connecting_factors(b, c, targets)
    top = float(np.maximum.reduce(theta, axis=None))
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

    A ``tol_cut`` at or above pi/2 would put every plane on the cut
    locus, and a negative one would let a cut-locus plane through with
    one of its many preimages: either raises :class:`DomainError`.
    """
    if not 0.0 <= tol_cut < math.pi / 2:
        raise DomainError(f"tol_cut must lie in [0, pi/2), got {tol_cut}")
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
        minors = np.add.reduce(entries * lower, axis=-2)
        levels.append((entries, lower))

    def pullback(adjoint: np.ndarray) -> np.ndarray:
        grad = np.empty_like(b)
        lead = adjoint.shape[:-1]
        for j in range(k, 1, -1):
            entries, lower = levels[j - 2]
            by_lower, by_row = _reverse_laplace_table(n, j)
            weight = adjoint[..., None, :]
            pull = weight * _laplace_table(n, j)[2] * lower
            pull = pull.reshape(lead + (-1,)).take(by_row, axis=-1)
            grad[..., j - 1] = np.add.reduce(pull, axis=-1)
            adjoint = (weight * entries).reshape(lead + (-1,)).take(by_lower, axis=-1)
            adjoint = np.add.reduce(adjoint, axis=-2)
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
    v = v / _norm(v)
    magnitude = np.abs(v)
    nz = (magnitude > 1e-14 * np.maximum.reduce(magnitude, axis=None)).nonzero()[0]
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
