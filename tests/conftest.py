import math

import numpy as np
import pytest

from grasscrit import core
from grasscrit.errors import DimensionError


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Live counts of the LAPACK calls made during the test: "svd" counts
    core._svd and core._svdvals, "qr" counts core._qr, and
    "np.linalg.svd" and "np.linalg.qr" count numpy's wrappers, which the
    per-call paths do not call."""
    counts = {"svd": 0, "qr": 0, "np.linalg.svd": 0, "np.linalg.qr": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for owner, attr, name in (
        (core, "_svd", "svd"),
        (core, "_svdvals", "svd"),
        (core, "_qr", "qr"),
        (np.linalg, "svd", "np.linalg.svd"),
        (np.linalg, "qr", "np.linalg.qr"),
    ):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    return counts


def calls_since(counts, before):
    """The calls of each kind counted by ``linalg_calls`` since ``before``."""
    return {name: counts[name] - before[name] for name in counts}


def random_pair(n, k, seed):
    """Two independent random planes on the same Grassmannian."""
    ss = np.random.SeedSequence(seed).spawn(2)
    return core.random_plane(n, k, ss[0]), core.random_plane(n, k, ss[1])


def framed(plane):
    return core.complete_frame(plane)


def plane_from_columns(*cols):
    return core.make_plane(np.column_stack(cols))


def e_basis(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def random_orthogonal(dim, seed):
    """Seeded random orthogonal matrix (QR of a Gaussian, signed)."""
    rng = np.random.default_rng(seed)
    return core._signed_qr(rng.standard_normal((dim, dim)))


#: An angle 1e-11 below pi/2: a right angle within core.TOL_CUT.
NEAR_RIGHT = math.pi / 2 - 1e-11


def connecting_cases(n, k):
    """A framed random plane of G(k, n) and targets at prescribed angles
    to it, as (theta, target) pairs: generic, zero, repeated, near-right
    (``NEAR_RIGHT``) and exactly right angles, each target spanned by
    B V cos(theta) + C U sin(theta) in a random basis."""
    rng = np.random.default_rng(100 + n)
    f = core.complete_frame(core.random_plane(n, k, n))
    cases = [
        np.sort(rng.uniform(0.05, 1.5, k)),
        np.r_[0.0, np.sort(rng.uniform(0.1, 1.4, k - 1))],
        np.full(k, rng.uniform(0.1, 1.4)),
        np.r_[np.full(k - 1, 0.7), NEAR_RIGHT],
        np.r_[0.0, np.full(k - 2, 0.5), math.pi / 2],
        np.r_[np.sort(rng.uniform(0.1, 1.4, k - 2)), NEAR_RIGHT, math.pi / 2],
        np.full(k, math.pi / 2),
    ]
    out = []
    for theta in cases:
        u = core._signed_qr(rng.standard_normal((n - k, k)))
        v = core._signed_qr(rng.standard_normal((k, k)))
        r = core._signed_qr(rng.standard_normal((k, k)))
        basis = f.frame @ np.vstack([v * np.cos(theta), u * np.sin(theta)]) @ r
        out.append((theta, core.Plane(n=n, k=k, basis=basis)))
    return f, out


def zero_tangent(at):
    return core.tangent(at, np.zeros((at.n - at.k, at.k)))


def fixed_rank_tangent_basis(a, r):
    """Frobenius-orthonormal basis u_i v_j^T (i < r or j < r) of the
    tangent space of the rank-r matrices at ``a``, which must have
    numerical rank r; its size is r (m + n - r)."""
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    assert int(np.sum(s > 1e-10 * s[0])) == r
    m, n = a.shape
    return [
        np.outer(u[:, i], vt[j]) for i in range(m) for j in range(n) if i < r or j < r
    ]


# ---------------------------------------------------------------------------
# Oracles and test constructions: they check the library from outside it
# ---------------------------------------------------------------------------

class StepTooSmall(Exception):
    """Finite-difference step cannot resolve the requested scale."""


def pullback_metric_error(w, eps, n_samples=12, seed=0):
    """Distortion of the rescaled exponential-chart metric at scale ``eps``.

    Samples tangent matrices A in the unit Frobenius disk and unit-norm
    tangent pairs (B1, B2), approximates the pulled-back rescaled metric
    g_eps(B1, B2) by central finite differences of the exponential basis
    Y(eps A + h B), projected onto the normal space of Y(eps A), and
    returns the maximum absolute deviation from the flat value
    <B1, B2>_F over all samples (including the diagonal pairs).  All
    exponentials are one stacked kernel call.  The deviation shrinks
    like eps^2 as the chart scale goes to zero.  Raises
    :class:`StepTooSmall` if ``eps`` is so small that the
    finite-difference step cannot be separated from it.
    """
    if not (0.0 < eps < math.pi / 4):
        raise DimensionError(f"eps must lie in (0, pi/4), got {eps}")
    n, k = w.n, w.k
    rng = np.random.default_rng(seed)
    h0 = core._EPS ** (1.0 / 3.0)
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
    y = core._geodesic_end(w, np.concatenate([a, a + h * b, a - h * b], axis=1))
    y0 = y[:, :1]
    diff = (y[:, 1:3] - y[:, 3:]) / (2.0 * h)
    velocity = diff - y0 @ (y0.swapaxes(-1, -2) @ diff)
    gram = np.einsum("sixy,sjxy->sij", velocity, velocity)
    flat = np.einsum("sixy,sjxy->sij", b, b)
    return float(np.max(np.abs(gram - flat)))


def sample_variety_distances(omega, l, count, seed, depth=0):
    """Monte-Carlo oracle: distances from ``l`` to sampled points of the
    Schubert variety ``omega``.

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


def nearest_cut_witness(l):
    """A point of the first cut-locus stratum of the framed plane ``l`` at
    distance exactly pi/2: the first basis vector replaced by the first
    complement direction, so the principal angles to the base are
    (0, ..., 0, pi/2), realizing the distance from a plane to its cut
    locus."""
    basis = np.concatenate([l.complement[:, :1], l.plane.basis[:, 1:]], axis=1)
    return core.Plane(n=l.n, k=l.k, basis=basis)
