"""Independent recall oracle for critical points on conics in G(1, 3).

A line E in R^3 off the cut locus of the base line L = span(b) is the
span of b + C y for a unique y in R^2, where C is an orthonormal basis
of the complement of b.  The angle between E and L is arctan |y|, so the
off-cut critical points of the distance from L on the conic
{x : x^T Q x = 0} are the critical points of |y|^2 on the affine conic

    p~(y) = y^T A y + 2 g^T y + c,   A = C^T Q C,  g = C^T Q b,  c = b^T Q b.

The Lagrange condition y = lam (A y + g) gives y(lam) = lam (I - lam A)^-1 g.
Substituting into p~ and clearing the denominators (1 - lam alpha_i)^2,
with alpha_i the eigenvalues of A, leaves a quartic in lam: the
Euclidean-distance degree of a generic conic is 4 (Draisma, Horobet,
Ottaviani, Sturmfels and Thomas, FoCM 2016).  Its real roots are found
as companion-matrix eigenvalues and polished by Newton's method on the
square system in (y, lam).

Only numpy is used; nothing here calls into grasscrit.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

#: Newton steps applied to each real quartic root.
NEWTON_STEPS = 8

#: Residual of the polished (y, lam) system above which a root is dropped.
ACCEPT_RESIDUAL = 1e-9

#: Angle below which two oracle lines count as one.
MERGE_ANGLE = 1e-9


def complement_basis(b: np.ndarray) -> np.ndarray:
    """Orthonormal 3 x 2 basis of the orthogonal complement of unit b."""
    u, _, _ = np.linalg.svd(b.reshape(3, 1), full_matrices=True)
    return u[:, 1:]


def line_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi/2] between the lines spanned by unit vectors u, v."""
    c = abs(float(u @ v))
    s = float(np.linalg.norm(v - (u @ v) * u))
    return float(np.arctan2(s, c))


def _quartic(alpha: np.ndarray, beta: np.ndarray, c: float) -> np.ndarray:
    """Coefficients (low to high) of the cleared Lagrange quartic in lam."""
    d = [np.array([1.0, -a]) for a in alpha]  # 1 - lam alpha_i
    d2 = [P.polymul(di, di) for di in d]
    total = c * P.polymul(d2[0], d2[1])
    for i, j in ((0, 1), (1, 0)):
        # lam beta_i^2 (2 - alpha_i lam) (1 - lam alpha_j)^2
        term = P.polymul(np.array([0.0, 2.0 * beta[i] ** 2, -alpha[i] * beta[i] ** 2]), d2[j])
        total = P.polyadd(total, term)
    return total


def _polish(a: np.ndarray, g: np.ndarray, c: float, y: np.ndarray, lam: float):
    for _ in range(NEWTON_STEPS):
        grad = a @ y + g
        f = np.concatenate([y - lam * grad, [y @ a @ y + 2.0 * g @ y + c]])
        jac = np.zeros((3, 3))
        jac[:2, :2] = np.eye(2) - lam * a
        jac[:2, 2] = -grad
        jac[2, :2] = 2.0 * grad
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        y = y + step[:2]
        lam = lam + float(step[2])
    grad = a @ y + g
    f = np.concatenate([y - lam * grad, [y @ a @ y + 2.0 * g @ y + c]])
    scale = 1.0 + float(np.linalg.norm(y)) ** 2
    return y, float(np.linalg.norm(f)) / scale


def conic_critical_lines(q: np.ndarray, b: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Off-cut critical points of the distance from span(b) on {x^T q x = 0}.

    Returns (unit vector, angle to span(b)) pairs sorted by angle.  ``q``
    is a symmetric 3 x 3 matrix; ``b`` a unit vector off the conic.
    """
    q = 0.5 * (q + q.T)
    cmat = complement_basis(b)
    a = cmat.T @ q @ cmat
    g = cmat.T @ q @ b
    c = float(b @ q @ b)
    alpha, vecs = np.linalg.eigh(a)
    beta = vecs.T @ g
    coeffs = _quartic(alpha, beta, c)
    roots = np.roots(coeffs[::-1])
    out: list[tuple[np.ndarray, float]] = []
    for lam in roots:
        if abs(lam.imag) > 1e-6 * (1.0 + abs(lam)):
            continue
        lam = float(lam.real)
        denom = 1.0 - lam * alpha
        if np.any(np.abs(denom) < 1e-14):
            continue
        y0 = vecs @ (lam * beta / denom)
        y, resid = _polish(a, g, c, y0, lam)
        if resid > ACCEPT_RESIDUAL:
            continue
        x = b + cmat @ y
        x /= np.linalg.norm(x)
        if any(line_angle(x, u) < MERGE_ANGLE for u, _ in out):
            continue
        out.append((x, float(np.arctan(np.linalg.norm(y)))))
    out.sort(key=lambda t: t[1])
    return out


def match_found(
    oracle: list[tuple[np.ndarray, float]], found: list[np.ndarray], tol: float
) -> tuple[int, int]:
    """(oracle points matched, found points matching no oracle point)."""
    matched = sum(
        1 for u, _ in oracle if any(line_angle(u, v) <= tol for v in found)
    )
    unmatched = sum(
        1 for v in found if not any(line_angle(u, v) <= tol for u, _ in oracle)
    )
    return matched, unmatched


def self_test() -> None:
    """Check the oracle on a circle whose critical points are known.

    With b = e1, the conic (x2 - m1 x1)^2 + (x3 - m2 x1)^2 - r^2 x1^2 = 0
    reads |y - m|^2 = r^2 in the chart, and the critical points of |y|^2
    on it are y = m (1 +- r / |m|), at angles arctan(|m| +- r).  The
    centre is off the chart origin, so the generic quartic path is
    exercised.  Raises ValueError on mismatch.
    """
    m, r = np.array([0.8, -0.5]), 0.3
    w1 = np.array([-m[0], 1.0, 0.0])
    w2 = np.array([-m[1], 0.0, 1.0])
    q = np.outer(w1, w1) + np.outer(w2, w2) - r * r * np.diag([1.0, 0.0, 0.0])
    b = np.array([1.0, 0.0, 0.0])
    got = conic_critical_lines(q, b)
    mn = float(np.linalg.norm(m))
    want = [np.concatenate([[1.0], m * (1.0 + sign * r / mn)]) for sign in (1.0, -1.0)]
    want = [w / np.linalg.norm(w) for w in want]
    matched, extra = match_found([(w, 0.0) for w in want], [u for u, _ in got], 1e-12)
    if len(got) != 2 or matched != 2 or extra:
        raise ValueError(f"oracle self-test: {len(got)} lines, matched {matched}/2, {extra} extra")
    angles = [a for _, a in got]
    ref = [float(np.arctan(mn - r)), float(np.arctan(mn + r))]
    if max(abs(x - y) for x, y in zip(angles, ref)) > 1e-12:
        raise ValueError(f"oracle self-test: angles {angles} != {ref}")
