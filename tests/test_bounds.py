"""The G(2, 4) model of ``bounds``, on Python floats and ``math``, against
numpy evaluations of the same formulas as an independent reference."""

import math

import numpy as np
import pytest

from grasscrit import bounds
from grasscrit.errors import DimensionError, DomainError, NotUnit


def unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def np_alpha(w):
    return np.arccos(w) / np.sqrt(1.0 - w * w)


def np_residual_scan(betas, n_grid, y1_lo=-0.999, y1_hi=0.999):
    """The scan with numpy's grid, extrema and signs."""
    ys = np.linspace(y1_lo, y1_hi, n_grid)
    out = {"y1_lo": y1_lo, "y1_hi": y1_hi, "n_grid": n_grid, "betas": []}
    for beta in betas:
        vals = np.array([bounds.g24_critical_residual(float(y), beta) for y in ys if abs(beta * y) < 1.0])
        signs = np.sign(vals)
        out["betas"].append(
            {
                "beta": beta,
                "grid_points": int(vals.size),
                "min_residual": float(np.min(vals)),
                "max_residual": float(np.max(vals)),
                "sign_changes": int(np.sum(signs[1:] * signs[:-1] < 0)),
                "all_positive": bool(np.all(vals > 0.0)),
            }
        )
    return out


@pytest.mark.parametrize("num", [2, 3, 7, 201, 1001, 2001])
@pytest.mark.parametrize("lo, hi", [(-0.999, 0.999), (0.25, 0.25), (-1e-3, 0.5), (0.6, -0.2)])
def test_grid_is_linspace_bit_for_bit(num, lo, hi):
    grid = bounds._linspace(lo, hi, num)
    assert np.array_equal(np.array(grid), np.linspace(lo, hi, num))
    assert grid[-1] == hi


@pytest.mark.parametrize("n_grid", [2, 3, 201, 2001])
def test_scan_matches_numpy_scan(n_grid):
    # the CLI's default betas and grid, a negative beta whose residual
    # changes sign, and betas that drop grid points (|beta y1| >= 1)
    for betas in ([0.5, 1.0, 2.0], [-0.5, 3.3], [0.7, 2.5], [-1.7, 1.05]):
        try:
            expected = np_residual_scan(betas, n_grid)
        except ValueError:  # no grid point left: numpy's min of nothing
            with pytest.raises(DomainError):
                bounds.g24_residual_scan(betas, n_grid=n_grid)
            continue
        assert bounds.g24_residual_scan(betas, n_grid=n_grid) == expected


def test_scan_counts_sign_changes():
    # alpha(y1) - alpha(-y1) changes sign once, at y1 = 0
    scan = bounds.g24_residual_scan([-1.0], n_grid=200)
    assert scan["betas"][0]["sign_changes"] == 1
    assert not scan["betas"][0]["all_positive"]


def test_residual_and_distance_match_numpy(rng):
    for _ in range(100):
        y1 = rng.uniform(-0.999, 0.999)
        beta = rng.uniform(-0.99, 0.99)
        ref = np_alpha(y1) + beta * np_alpha(beta * y1)
        assert abs(bounds.g24_critical_residual(y1, beta) - ref) <= 1e-14 * abs(ref)
        x, y, z, w = (unit(rng) for _ in range(4))
        ax = np.arccos(np.clip(x @ z, -1.0, 1.0))
        ay = np.arccos(np.clip(y @ w, -1.0, 1.0))
        ref = np.hypot(ax, ay)
        assert abs(bounds.g24_distance(x, y, z, w) - ref) <= 1e-14 * ref
        # sequences of Python floats give the same value as arrays
        assert bounds.g24_distance(list(x), tuple(y), z.tolist(), w) == bounds.g24_distance(x, y, z, w)


def test_identity_lhs_matches_numpy_det(rng):
    for _ in range(100):
        x, y = unit(rng), unit(rng)
        beta = rng.uniform(0.2, 3.0)
        ax, ay = np_alpha(x[0]), np_alpha(y[0])
        m = np.array(
            [
                [x[0], 0.0, ax, 1.0],
                [x[1], 0.0, 0.0, 0.0],
                [x[2], 0.0, 0.0, 0.0],
                [0.0, y[0], ay, -beta],
                [0.0, y[1], 0.0, 0.0],
                [0.0, y[2], 0.0, 0.0],
            ]
        )
        ref = np.linalg.det(m.T @ m)
        lhs, _ = bounds.g24_det_identity_check(x, y, beta)
        assert abs(lhs - ref) <= 1e-13 * abs(ref)


def test_identity_spot_checks_are_exact():
    # the two spot checks of g24-demo, exact in rationals
    lhs, rhs = bounds.g24_det_identity_check((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), 2.0)
    assert lhs == rhs == 22.206609902451056
    x = (0.3, math.sqrt(1 - 0.09), 0.0)
    y = (-0.2, 0.0, math.sqrt(1 - 0.04))
    assert bounds.g24_det_identity_check(x, y, 0.7)[0] == 6.54793664274454


@pytest.mark.parametrize(
    "vec", [np.eye(3), np.ones((3, 1)), [1.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0, np.array(1.0)]
)
def test_malformed_vectors_are_dimension_errors(vec):
    e = (1.0, 0.0, 0.0)
    with pytest.raises(DimensionError):
        bounds.g24_distance(vec, e, e, e)
    with pytest.raises(DimensionError):
        bounds.g24_det_identity_check(vec, (0.0, 1.0, 0.0), 1.0)
    with pytest.raises(DimensionError):
        bounds.g24_det_identity_check((0.0, 1.0, 0.0), vec, 1.0)


def test_malformed_values_are_typed_errors():
    e = (0.0, 1.0, 0.0)
    with pytest.raises(NotUnit):
        bounds.g24_distance((0.0, 2.0, 0.0), e, e, e)
    for x in ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1.5, 0.0, 0.0)):
        with pytest.raises(DomainError):
            bounds.g24_det_identity_check(x, e, 1.0)
        with pytest.raises(DomainError):
            bounds.g24_det_identity_check(e, x, 1.0)
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            bounds.g24_det_identity_check(e, e, beta)
        with pytest.raises(DomainError):
            bounds.g24_residual_scan([beta], n_grid=11)
    with pytest.raises(DimensionError):
        bounds.g24_residual_scan([1.0], n_grid=1)
