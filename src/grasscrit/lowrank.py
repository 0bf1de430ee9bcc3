"""Best low-rank approximation and its critical set.

The distance function from a fixed matrix to the manifold of rank-r
matrices (Frobenius metric) has exactly binomial(m, r) constrained
critical points when the singular values are distinct and positive:
one for each selection of r singular triplets.  The selection keeping
the r largest singular values is the global minimizer.

The critical set is built from numpy's compact SVD as it comes, with no
sign convention on the singular vectors: negating a column of U and the
same column of V leaves every truncation U diag(kept) V^T unchanged bit
for bit, so no output can see the signs.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DegenerateSpectrum, DimensionError, IndexOutOfRange

#: Relative tolerance deciding when two singular values coincide.  Far
#: above double-precision SVD backward error at the matrix sizes this
#: library targets.
TOL_SV = 1e-10


def spectrum_is_degenerate(sigma) -> bool:
    """Whether consecutive singular values coincide (or the smallest
    vanishes) within relative tolerance ``TOL_SV``."""
    s = np.asarray(sigma, dtype=float)
    if s.size == 0:
        return False
    scale = max(float(s[0]), 1e-300)
    if float(s[-1]) <= TOL_SV * scale:
        return True
    return bool(np.any(np.diff(s) >= -TOL_SV * scale))


def ey_critical_set(a, r: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All critical points of the distance from ``a`` to the rank-r manifold.

    Returns the binomial(m, r) pairs ``(index_set, truncated_matrix)``
    in lexicographic order of the (0-based) index sets; the entry
    ``(0, ..., r-1)`` is the global minimizer.

    Raises
    ------
    DimensionError
        If ``a`` is not a 2-d matrix of finite entries.
    IndexOutOfRange
        If ``r`` is not in 1..m, m = min(rows, cols).
    DegenerateSpectrum
        If the singular values are not distinct and positive within
        relative tolerance.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix contains non-finite entries")
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    m = sigma.size
    if not (1 <= r <= m):
        raise IndexOutOfRange(f"need 1 <= r <= {m}, got r={r}")
    if spectrum_is_degenerate(sigma):
        raise DegenerateSpectrum(
            "singular values coincide or vanish within tolerance "
            f"{TOL_SV:.1e}; perturb the input to classify critical points"
        )
    combos, _, truncations = _selections(u, sigma, vt.T, r)
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
