import math

import numpy as np
import pytest

from grasscrit import core


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
