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
  angles are reported nondecreasing.  The conversion happens in exactly
  one place (:func:`principal_decomposition`).
* Angle values use a hybrid cosine/sine evaluation so that angles near 0
  are as accurate as angles near pi/2; a plain arccos of the cosine SVD
  has a noise floor of about sqrt(machine eps) near zero angles, which
  would dominate round-trip checks.
* Frame completion and orthonormalization fix signs deterministically,
  so identical inputs give bit-identical outputs for a given build.
* :func:`_hybrid_angles` (angles) and :func:`_geodesic_end` (the
  exponential) are the only copies of their formulas; both take stacks
  ``(..., rows, cols)`` whose leading axes broadcast.
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
class PrincipalDecomposition:
    """Paired principal vectors and nondecreasing principal angles.

    ``p_vectors[:, i]`` lies in the first plane, ``q_vectors[:, i]`` in
    the second, and the pairs realize the i-th principal angle.  With
    repeated angles the vectors are unique only up to a common rotation
    of the tied block; compare spans or angles, never raw columns.
    """

    angles: np.ndarray
    p_vectors: np.ndarray
    q_vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", _frozen(np.asarray(self.angles, dtype=float)))
        object.__setattr__(self, "p_vectors", _frozen(self.p_vectors))
        object.__setattr__(self, "q_vectors", _frozen(self.q_vectors))


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
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def complete_frame(plane: Plane) -> FramedPlane:
    """Extend a plane to a full orthogonal frame, deterministically.

    The complement is built from the standard basis vectors with the
    largest residual after projecting out the plane (ties broken by
    index), orthonormalized with the fixed QR sign convention.
    Repeated calls give identical frames.
    """
    b = plane.basis
    resid = np.eye(plane.n) - b @ b.T
    norms = np.linalg.norm(resid, axis=0)
    order = np.argsort(-norms, kind="stable")[: plane.n - plane.k]
    comp = _signed_qr(resid[:, order])
    return FramedPlane(plane=plane, frame=np.hstack([b, comp]))


def tangent(at: FramedPlane, a) -> TangentMatrix:
    """Attach an (n-k) x k matrix to a frame as a tangent vector."""
    return TangentMatrix(a=np.asarray(a, dtype=float), frame=at)


def zero_tangent(at: FramedPlane) -> TangentMatrix:
    return tangent(at, np.zeros((at.n - at.k, at.k)))


def random_plane(n: int, k: int, seed) -> Plane:
    """Seeded random plane: orthonormalized standard normal n x k matrix.

    The same seed always yields the same plane.  ``seed`` may be an
    int, a ``SeedSequence`` or a ``Generator``.
    """
    rng = np.random.default_rng(seed)
    return make_plane(rng.standard_normal((n, k)))


def random_orthogonal(dim: int, seed) -> np.ndarray:
    """Seeded random orthogonal matrix (QR of a Gaussian, signed)."""
    rng = np.random.default_rng(seed)
    return _signed_qr(rng.standard_normal((dim, dim)))


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


def principal_decomposition(e1: Plane, e2: Plane) -> PrincipalDecomposition:
    """Principal angles and paired principal vectors between two planes.

    The SVD of ``e1.basis^T e2.basis`` has nonincreasing singular values
    (the cosines), so the angles come out nondecreasing and aligned with
    the returned vector columns.
    """
    _check_same_shape(e1, e2)
    u, _, vt = np.linalg.svd(e1.basis.T @ e2.basis)
    return PrincipalDecomposition(
        angles=_hybrid_angles(e1.basis, e2.basis),
        p_vectors=e1.basis @ u,
        q_vectors=e2.basis @ vt.T,
    )


def principal_angles(e1: Plane, e2: Plane) -> np.ndarray:
    """Nondecreasing principal angles between two k-planes."""
    _check_same_shape(e1, e2)
    return _hybrid_angles(e1.basis, e2.basis)


def principal_angles_rect(e: Plane, f: Plane) -> np.ndarray:
    """Principal angles between planes of different dimensions.

    ``f`` may have smaller dimension than ``e``; the result has
    ``f.k`` nondecreasing entries.  With ``ft`` a subspace of ``f`` the
    angles interlace: theta_i(e, f) <= theta_i(e, ft)
    <= theta_{i + f.k - ft.k}(e, f).
    """
    if e.n != f.n:
        raise DimensionError(f"ambient dimensions differ: {e.n} != {f.n}")
    if f.k > e.k:
        raise DimensionError(f"second plane dimension {f.k} exceeds first {e.k}")
    return _hybrid_angles(e.basis, f.basis)


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


def _geodesic_end(at: FramedPlane, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis Y of exp_at(A) and the geodesic velocity Ydot at it, for a
    stack ``a`` of tangent matrices of shape (..., n-k, k).

    Y = B cos(sqrt M) + C A sinc(sqrt M) and
    Ydot = -B sqrt(M) sin(sqrt M) + C A cos(sqrt M) with M = A^T A and
    [B C] the frame.  Both are power series in M, so they carry no
    singular-vector gauge and stay smooth at repeated singular values.
    Y is orthonormal to rounding and is not re-orthonormalized.
    """

    def functions(s):
        root = np.sqrt(s)
        return np.array([np.cos(root), np.sinc(root / math.pi), -root * np.sin(root)])

    cos, sinc, minus_root_sin = _psd_functions(a.swapaxes(-1, -2) @ a, functions)
    b, ca = at.plane.basis, at.complement @ a
    return b @ cos + ca @ sinc, b @ minus_root_sin + ca @ cos


def exp(at: FramedPlane, a: TangentMatrix) -> Plane:
    """Riemannian exponential at a framed plane.

    With ``a.a = U diag(mu) V^T`` a compact SVD, the image plane is
    spanned, in the frame's coordinates, by the columns
    cos(mu_i) v_i over sin(mu_i) u_i.  The returned basis is that one
    rotated by V^T, the matrix function computed by
    :func:`_geodesic_end`, so it depends continuously on ``a``.
    """
    if not np.array_equal(a.frame.frame, at.frame):
        raise FrameMismatch("tangent vector not attached to the given frame")
    basis, _ = _geodesic_end(at, a.a)
    return Plane(n=at.n, k=at.k, basis=basis)


def geodesic_point(at: FramedPlane, a: TangentMatrix, t: float) -> Plane:
    """Point at parameter ``t`` of the geodesic with initial velocity ``a``."""
    return exp(at, tangent(at, float(t) * a.a))


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
    p, cos, qt = np.linalg.svd(at.plane.basis.T @ target.basis)
    if cos[0] > 1.0 + CLAMP_SLACK:
        raise GrasscritError(f"cosine {cos[0]!r} exceeds 1 beyond clamping slack")
    s = at.complement.T @ target.basis @ qt.T
    sin = np.linalg.norm(s, axis=0)
    ncols = np.divide(s, sin, out=np.zeros_like(s), where=sin > 0.0)
    theta = np.arctan2(sin, cos)
    if snap_tol is not None:
        theta[theta >= math.pi / 2 - snap_tol] = math.pi / 2
    return ncols, theta, p


def connecting_tangent(
    at: FramedPlane, target: Plane, snap_tol: float | None = None
) -> TangentMatrix:
    """Tangent matrix of a minimizing geodesic from ``at`` to ``target``.

    Total construction: it also works on the cut locus, where it returns
    one of the minimizing geodesics (the one induced by the principal
    vector gauge of the SVD).  Singular values of the result equal the
    principal angles; its Frobenius norm equals the distance.
    """
    ncols, theta, u_right = connecting_factors(at, target, snap_tol=snap_tol)
    return tangent(at, (ncols * theta) @ u_right.T)


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
    ncols, theta, u_right = connecting_factors(at, target)
    top = float(np.max(theta))
    if top >= math.pi / 2 - tol_cut:
        raise OnCutLocus(f"largest principal angle {top:.12f} within {tol_cut:.1e} of pi/2")
    return tangent(at, (ncols * theta) @ u_right.T)


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


def plucker_minors(plane_or_basis) -> np.ndarray:
    """Raw k x k minors of a basis matrix, lexicographic index order.

    Takes a plane or a stack of basis matrices (..., n, k) and returns
    the minors (..., binomial(n, k)).  For an orthonormal basis the
    minor vector has unit norm; this function does not normalize, so
    the chart identity c_{first k rows} = cos(mu_1)...cos(mu_k) of an
    :func:`exp` image at a coordinate frame is visible directly.
    """
    b = plane_or_basis.basis if isinstance(plane_or_basis, Plane) else np.asarray(plane_or_basis)
    n, k = b.shape[-2:]
    return np.linalg.det(b[..., plucker_index_table(n, k), :])


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
    y, _ = _geodesic_end(w, np.concatenate([a, a + h * b, a - h * b], axis=1))
    y0 = y[:, :1]
    diff = (y[:, 1:3] - y[:, 3:]) / (2.0 * h)
    velocity = diff - y0 @ (y0.swapaxes(-1, -2) @ diff)
    gram = np.einsum("sixy,sjxy->sij", velocity, velocity)
    flat = np.einsum("sixy,sjxy->sij", b, b)
    return float(np.max(np.abs(gram - flat)))
