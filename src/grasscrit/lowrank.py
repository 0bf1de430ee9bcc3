"""Rank-constrained matrix sets and best low-rank approximation.

The distance function from a fixed matrix to the manifold of rank-r
matrices (Frobenius metric) has exactly binomial(m, r) constrained
critical points when the singular values are distinct and positive:
one for each selection of r singular triplets.  The selection keeping
the r largest singular values is the global minimizer.  This module
computes the full critical set, certifies criticality through the
tangent/normal split of the fixed-rank manifold, and classifies
matrices against the region of singular values bounded by pi/2.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionError,
    IndexOutOfRange,
    RankCollapse,
)

#: Relative tolerance deciding when two singular values coincide.  Far
#: above double-precision SVD backward error at the matrix sizes this
#: library targets.
TOL_SV = 1e-10


@dataclass(frozen=True)
class SvdTriple:
    """Compact SVD ``a = u @ diag(sigma) @ v.T`` with fixed signs.

    ``u`` is rows x m column-orthonormal, ``v`` is cols x m
    column-orthonormal, ``sigma`` has the m = min(rows, cols)
    nonincreasing singular values.  The first nonzero entry of every
    left singular vector is positive, which pins the decomposition for
    simple spectra.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        if np.any(np.diff(s) > 0):
            raise DimensionError("singular values must be nonincreasing")

    def reconstruct(self) -> np.ndarray:
        return self.u @ np.diag(self.sigma) @ self.v.T


@dataclass(frozen=True)
class RankRegion:
    """The set of m x n matrices with rank at most r."""

    r: int
    m: int
    n: int

    def __post_init__(self):
        if not (0 <= self.r <= min(self.m, self.n)):
            raise DimensionError(f"need 0 <= r <= min(m, n), got r={self.r}")

    def contains(self, a, tol: float = TOL_SV) -> bool:
        s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
        scale = max(float(s[0]), 1e-300)
        return int(np.sum(s > tol * scale)) <= self.r

    def tangent_basis_at(self, a) -> list[np.ndarray]:
        """Orthonormal basis of the tangent space of the rank-r manifold.

        Requires numerical rank exactly r.  The basis consists of the
        Frobenius-orthonormal matrices u_i v_j^T with at least one index
        in the top-r block; its size is r (m + n - r).
        """
        a = np.asarray(a, dtype=float)
        u, s, vt = np.linalg.svd(a, full_matrices=True)
        scale = max(float(s[0]), 1e-300) if s.size else 1e-300
        rank = int(np.sum(s > TOL_SV * scale))
        if rank != self.r:
            raise RankCollapse(f"numerical rank {rank} != r={self.r}")
        v = vt.T
        basis = []
        for i in range(self.m):
            for j in range(self.n):
                if i < self.r or j < self.r:
                    basis.append(np.outer(u[:, i], v[:, j]))
        return basis


def svd(a) -> SvdTriple:
    """Compact SVD with the deterministic sign convention.

    Reconstruction is exact to a few ulps; signs chosen so the first
    entry of each left singular vector with magnitude above 1e-12 of
    the column maximum is positive.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T
    u = u.copy()
    v = v.copy()
    for i in range(s.size):
        col = u[:, i]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(float(np.max(np.abs(col))), 1e-300))[0]
        if nz.size and col[nz[0]] < 0:
            u[:, i] = -u[:, i]
            v[:, i] = -v[:, i]
    return SvdTriple(u=u, sigma=s, v=v)


def spectrum_is_degenerate(sigma, tol_sv: float = TOL_SV) -> bool:
    """Whether consecutive singular values coincide (or the smallest
    vanishes) within relative tolerance."""
    s = np.asarray(sigma, dtype=float)
    if s.size == 0:
        return False
    scale = max(float(s[0]), 1e-300)
    if float(s[-1]) <= tol_sv * scale:
        return True
    return bool(np.any(np.diff(s) >= -tol_sv * scale))


def truncate(a, index_set) -> np.ndarray:
    """Keep the singular triplets selected by ``index_set``, zero the rest.

    Indices are 0-based positions into the nonincreasing singular value
    sequence; ``{0, ..., r-1}`` keeps the r largest.  The squared
    Frobenius distance to the input is the sum of the squared dropped
    singular values.
    """
    a = np.asarray(a, dtype=float)
    t = svd(a)
    m = t.sigma.size
    idx = sorted(set(int(i) for i in index_set))
    if any(i < 0 or i >= m for i in idx):
        raise IndexOutOfRange(f"indices {idx} outside range(0, {m})")
    if spectrum_is_degenerate(t.sigma):
        warnings.warn(
            "singular values coincide within tolerance; the critical-point "
            "classification does not apply to this matrix",
            UserWarning,
            stacklevel=2,
        )
    mask = np.zeros(m)
    mask[idx] = 1.0
    return t.u @ np.diag(t.sigma * mask) @ t.v.T


def ey_critical_set(a, r: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All critical points of the distance from ``a`` to the rank-r manifold.

    Returns the binomial(m, r) pairs ``(index_set, truncated_matrix)``
    in lexicographic order of the (0-based) index sets; the entry
    ``(0, ..., r-1)`` is the global minimizer.

    Raises
    ------
    DegenerateSpectrum
        If the singular values are not distinct and positive within
        relative tolerance; see :func:`perturb_degenerate` for the
        jitter helper.
    """
    a = np.asarray(a, dtype=float)
    t = svd(a)
    m = t.sigma.size
    if not (1 <= r <= m):
        raise IndexOutOfRange(f"need 1 <= r <= {m}, got r={r}")
    if spectrum_is_degenerate(t.sigma):
        raise DegenerateSpectrum(
            "singular values coincide or vanish within tolerance "
            f"{TOL_SV:.1e}; perturb the input to classify critical points"
        )
    combos, _, truncations = _selections(t.u, t.sigma, t.v, r)
    return list(zip(combos, truncations))


def _selections(u, sigma, v, r: int):
    """Every selection of r of the m triplets of ``u @ diag(sigma) @ v.T``.

    Returns the binomial(m, r) index sets in lexicographic order, the
    kept singular values (binomial(m, r), m), zero at the dropped
    positions, and the truncations ``u @ diag(kept) @ v.T`` as one
    stack (binomial(m, r), rows, cols).  Positions index the columns as
    given; for nonincreasing ``sigma`` the set ``(0, ..., r-1)`` keeps
    the r largest.
    """
    m = sigma.shape[-1]
    combos = list(itertools.combinations(range(m), r))
    kept = sigma * np.array([[i in combo for i in range(m)] for combo in combos])
    return combos, kept, (u * kept[:, None, :]) @ v.T


def perturb_degenerate(a, seed=0, scale: float = 1e-8) -> np.ndarray:
    """Add Frobenius-norm-relative Gaussian jitter to split tied singular
    values.  This changes the instance; the returned matrix is a nearby
    problem, not the original one."""
    a = np.asarray(a, dtype=float)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(a.shape)
    return a + scale * float(np.linalg.norm(a)) * g / float(np.linalg.norm(g))


def ey_normality_residual(a, a_trunc, expected_rank: int | None = None) -> float:
    """Certify criticality of a truncation through the tangent split.

    For ``a_trunc = U1 S1 V1^T`` of rank r, the residual is
    ``max(||U1^T (a - a_trunc)||_F, ||(a - a_trunc) V1||_F)``; it
    vanishes exactly when the difference is normal to the rank-r
    manifold at ``a_trunc``.

    Raises
    ------
    RankCollapse
        If ``a_trunc`` has smaller numerical rank than ``expected_rank``.
    """
    a = np.asarray(a, dtype=float)
    a_trunc = np.asarray(a_trunc, dtype=float)
    t = svd(a_trunc)
    scale = max(float(t.sigma[0]), 1e-300) if t.sigma.size else 1e-300
    rank = int(np.sum(t.sigma > TOL_SV * scale))
    if expected_rank is not None and rank < expected_rank:
        raise RankCollapse(f"numerical rank {rank} < expected {expected_rank}")
    if rank == 0:
        raise RankCollapse("truncation is numerically zero")
    u1 = t.u[:, :rank]
    v1 = t.v[:, :rank]
    resid = a - a_trunc
    return max(
        float(np.linalg.norm(u1.T @ resid)),
        float(np.linalg.norm(resid @ v1)),
    )


def in_R_half_pi(a, tol: float = 1e-9) -> str:
    """Classify a matrix against the region of singular values <= pi/2.

    Returns ``"interior"``, ``"boundary"`` or ``"outside"`` according to
    the largest singular value versus pi/2 with absolute tolerance
    ``tol``.
    """
    a = np.asarray(a, dtype=float)
    smax = float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0
    if smax < math.pi / 2 - tol:
        return "interior"
    if smax > math.pi / 2 + tol:
        return "outside"
    return "boundary"
