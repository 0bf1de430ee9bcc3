"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  Desk scale throughout (n <= 8, k <= 3).
"""

import json
import math

import numpy as np
import pytest

from grasscrit import bounds, cli, core, cutlocus, lowrank, schubert, serialize

from conftest import (
    framed,
    nearest_cut_witness,
    pullback_metric_error,
    sample_variety_distances,
)


def _report(num, text):
    print(f"[criterion {num:02d}] PASS: {text}")


def _random_sv_tangent(rng, n, k):
    """Tangent matrix with singular values drawn strictly inside (0, pi/2)."""
    u = core._signed_qr(rng.standard_normal((n - k, k)))
    v = core._signed_qr(rng.standard_normal((k, k)))
    sv = rng.uniform(1e-6, math.pi / 2 - 1e-6, k)
    return u @ np.diag(sv) @ v.T, np.sort(sv)


def test_criterion_01_angles_match_singular_values():
    rng = np.random.default_rng(101)
    shapes = [(4, 2), (5, 2), (7, 3), (2, 1)]
    worst = 0.0
    for trial in range(500):
        n, k = shapes[trial % len(shapes)]
        e = framed(core.random_plane(n, k, rng))
        a, sv_sorted = _random_sv_tangent(rng, n, k)
        image = core.exp(e, core.tangent(e, a))
        angles = core.principal_angles(e.plane, image)
        worst = max(worst, float(np.max(np.abs(angles - sv_sorted))))
    assert worst < 1e-9
    _report(1, f"500 exp images, max |angles - sorted sv| = {worst:.3e} < 1e-9")


def test_criterion_02_exp_log_consistency():
    rng = np.random.default_rng(202)
    shapes = [(5, 2), (7, 3), (4, 2), (6, 3)]
    worst_rt, worst_norm = 0.0, 0.0
    for trial in range(500):
        n, k = shapes[trial % len(shapes)]
        e = core.random_plane(n, k, rng)
        f = core.random_plane(n, k, rng)
        fr = framed(e)
        t = core.log(fr, f)
        worst_rt = max(worst_rt, core.grassmann_distance(core.exp(fr, t), f))
        worst_norm = max(worst_norm, abs(t.norm - core.grassmann_distance(e, f)))
    assert worst_rt < 1e-9
    assert worst_norm < 1e-10
    _report(2, f"500 pairs, roundtrip {worst_rt:.3e} < 1e-9, norm gap {worst_norm:.3e} < 1e-10")


def test_criterion_03_metric_axioms():
    rng = np.random.default_rng(303)
    worst_sym, worst_tri = 0.0, math.inf
    for _ in range(1000):
        a = core.random_plane(5, 2, rng)
        b = core.random_plane(5, 2, rng)
        c = core.random_plane(5, 2, rng)
        dab = core.grassmann_distance(a, b)
        worst_sym = max(worst_sym, abs(dab - core.grassmann_distance(b, a)))
        slack = core.grassmann_distance(a, c) + core.grassmann_distance(c, b) - dab
        worst_tri = min(worst_tri, slack)
    assert worst_sym < 1e-12
    assert worst_tri >= -1e-10
    _report(3, f"1000 triples in G(2,5): symmetry {worst_sym:.2e}, triangle slack >= {worst_tri:.2e}")


def test_criterion_04_eckart_young():
    rng = np.random.default_rng(404)
    worst_dist_err, worst_margin = 0.0, math.inf
    for _ in range(200):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        m = min(rows, cols)
        r = int(rng.integers(1, m)) if m > 1 else 1
        a = rng.standard_normal((rows, cols))
        points = lowrank.ey_critical_set(a, r)
        assert len(points) == math.comb(m, r)
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
        d_min = math.sqrt(float(np.sum(sigma[r:] ** 2)))
        a_min = dict(points)[tuple(range(r))]
        worst_dist_err = max(worst_dist_err, abs(np.linalg.norm(a - a_min) - d_min))
        # 1e4 rank-r candidates: half perturbations of the minimizer,
        # half random factor products
        u1, s1, v1 = u[:, :r], sigma[:r], vt[:r].T
        half = 5000
        eps = rng.uniform(0.0, 0.5, half)[:, None, None]
        cand1 = np.einsum(
            "bir,r,bjr->bij",
            u1 + eps * rng.standard_normal((half, rows, r)),
            s1,
            v1 + eps * rng.standard_normal((half, cols, r)),
        )
        x = rng.standard_normal((half, rows, r))
        y = rng.standard_normal((half, cols, r))
        cand2 = np.einsum("bir,bjr->bij", x, y)
        cand2 *= (np.linalg.norm(a) / np.linalg.norm(cand2, axis=(1, 2)))[:, None, None]
        dists = np.concatenate(
            [
                np.linalg.norm(cand1 - a, axis=(1, 2)),
                np.linalg.norm(cand2 - a, axis=(1, 2)),
            ]
        )
        worst_margin = min(worst_margin, float(np.min(dists)) - d_min)
    assert worst_dist_err < 1e-12
    assert worst_margin >= -1e-9
    _report(4, f"200 matrices: set sizes exact, min dist err {worst_dist_err:.2e}, "
               f"candidate margin >= {worst_margin:.2e}")


def test_criterion_05_schubert_critical_points():
    rng = np.random.default_rng(505)
    w = framed(core.random_plane(7, 3, rng))
    worst_resid = 0.0
    for s, expected in ((1, 3), (2, 3)):
        omega = schubert.SchubertVariety(w=w, s=s)
        for _ in range(50):
            l = core.random_plane(7, 3, rng)
            records = schubert.ey_schubert_critical_points(omega, l)
            assert len(records) == expected == math.comb(3, s)
            for record in records:
                assert record.normality_residual < 1e-7
                worst_resid = max(worst_resid, record.normality_residual)
    _report(5, f"50 L x s in {{1,2}} in G(3,7): 3 records each, "
               f"worst residual {worst_resid:.2e} < 1e-7")


def test_criterion_06_global_min():
    rng = np.random.default_rng(606)
    omega = schubert.SchubertVariety(w=framed(core.random_plane(7, 3, rng)), s=1)
    l = core.random_plane(7, 3, rng)
    theta = core.principal_angles(omega.w.plane, l)
    value, minimizer = schubert.global_min(omega, l)
    formula = float(np.linalg.norm(theta[: omega.s]))
    assert abs(value - formula) < 1e-12
    assert abs(core.grassmann_distance(l, minimizer) - value) < 1e-10
    dists = sample_variety_distances(omega, l, 10_000, seed=607)
    assert float(np.min(dists)) >= value - 1e-6
    assert cutlocus.cut_stratum(l, minimizer).j == 0
    _report(6, f"min value {value:.6f} matches formula, 1e4-sample oracle min "
               f"{float(np.min(dists)):.6f} >= value - 1e-6, minimizer off cut")


def test_criterion_07_global_max():
    rng = np.random.default_rng(707)
    omega = schubert.SchubertVariety(w=framed(core.random_plane(7, 3, rng)), s=1)
    l = core.random_plane(7, 3, rng)
    theta = core.principal_angles(omega.w.plane, l)
    k, s = omega.k, omega.s
    formula = math.sqrt(
        float(np.sum(theta[k - s:] ** 2)) + (k - s) * (math.pi / 2) ** 2
    )
    v1, m1 = schubert.global_max(omega, l, b_seed=1)
    v2, m2 = schubert.global_max(omega, l, b_seed=2)
    assert abs(core.grassmann_distance(l, m1) - formula) < 1e-9
    assert abs(v1 - formula) < 1e-9
    assert abs(v1 - v2) < 1e-10
    assert core.grassmann_distance(m1, m2) > 1e-3
    assert cutlocus.cut_stratum(l, m1).j == k - s
    dists = sample_variety_distances(omega, l, 10_000, seed=708)
    assert float(np.max(dists)) <= v1 + 1e-6
    _report(7, f"max value {v1:.6f} matches formula, stratum j = {k - s}, "
               f"two seeds distinct with equal value, oracle max below")


def test_criterion_08_subdifferential_dimension():
    # stratum with one right angle in G(2,4)
    l4 = core.random_plane(4, 2, 808)
    lf4 = framed(l4)
    rng = np.random.default_rng(809)
    u = core._signed_qr(rng.standard_normal((2, 2)))
    v = core._signed_qr(rng.standard_normal((2, 2)))
    s_point = core.exp(lf4, core.tangent(lf4, u @ np.diag([0.6, math.pi / 2]) @ v.T))
    gens = cutlocus.subdiff_generators(l4, framed(s_point), cutlocus.sample_orthogonal_group(1))
    dim1 = cutlocus.subdiff_affine_dimension(gens, tol_rank=1e-8)
    assert gens.j == 1 and dim1 == 1
    # stratum with two right angles in G(2,5)
    l5 = core.random_plane(5, 2, 810)
    lf5 = framed(l5)
    u = core._signed_qr(rng.standard_normal((3, 2)))
    v = core._signed_qr(rng.standard_normal((2, 2)))
    s_point = core.exp(lf5, core.tangent(lf5, u @ np.diag([math.pi / 2, math.pi / 2]) @ v.T))
    gens = cutlocus.subdiff_generators(l5, framed(s_point), cutlocus.sample_orthogonal_group(2))
    dim2 = cutlocus.subdiff_affine_dimension(gens, tol_rank=1e-8)
    assert gens.j == 2 and dim2 == 4
    _report(8, "sampled affine dimensions: j=1 (G(2,4)) -> 1, j=2 (G(2,5)) -> 4")


def test_criterion_09_cut_locus_distance():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        lf = framed(core.random_plane(5, 2, rng))
        witness = nearest_cut_witness(lf)
        assert cutlocus.cut_stratum(lf.plane, witness).j == 1
        worst = max(worst, abs(core.grassmann_distance(lf.plane, witness) - math.pi / 2))
    assert worst < 1e-9
    _report(9, f"100 constructed first-stratum witnesses at distance pi/2, max err {worst:.2e}")


def test_criterion_10_pfaffian_constants():
    assert bounds.pfaffian_bound(2, 4, 1).c2 == 18
    assert bounds.pfaffian_bound(3, 8, 1).c2 == 39
    for k, n in ((2, 4), (3, 8)):
        rep = bounds.pfaffian_bound(k, n, 1)
        # independent big-integer reimplementation of the printed product
        c2 = k * (n + 5)
        c1_ref = (
            2 * k
            * 2 ** (8 * k * k - 2 * k)
            * (math.comb(n * k, k * (k + 1) + 1) + (k + 1) ** 2) ** (k * (n + 1))
            * (2 * k * k * (n + 1)) ** c2
        )
        assert rep.c1_int == c1_ref
        assert abs(rep.log10_c1 - math.log10(float(c1_ref))) < 1e-12
    _report(10, "c2(2,4)=18, c2(3,8)=39, c1 equals the independent "
                "big-integer product (log10 within 1e-12)")


def test_criterion_11_g24_identity_and_scan():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        beta = rng.uniform(0.2, 3.0)
        lhs, rhs = bounds.g24_det_identity_check(x, y, beta)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    assert worst < 1e-10
    scan1 = bounds.g24_residual_scan([0.5, 1.0, 2.0], n_grid=1001)
    scan2 = bounds.g24_residual_scan([0.5, 1.0, 2.0], n_grid=1001)
    assert serialize.canonical_dumps(scan1) == serialize.canonical_dumps(scan2)
    _report(11, f"100 random triples: worst relative determinant gap {worst:.2e} < 1e-10; "
                "scan report deterministic")


def test_criterion_12_metric_convergence():
    for seed in range(5):
        w = framed(core.random_plane(4, 2, 1200 + seed))
        errors = [
            pullback_metric_error(w, eps, n_samples=8, seed=seed)
            for eps in (0.2, 0.1, 0.05, 0.01)
        ]
        assert all(errors[i] > errors[i + 1] for i in range(len(errors) - 1)), errors
    _report(12, "pullback metric distortion strictly decreases across "
                "eps in {0.2, 0.1, 0.05, 0.01} for 5 seeds")


def test_criterion_13_determinism(capsys):
    phi = 0.8
    slice_doc = json.dumps(
        {
            "n": 2,
            "k": 1,
            "terms": [
                {"idx": [2, 0], "coef": math.cos(phi) * -math.sin(phi)},
                {"idx": [1, 1], "coef": math.cos(phi) ** 2 - math.sin(phi) ** 2},
                {"idx": [0, 2], "coef": math.sin(phi) * math.cos(phi)},
            ],
        }
    )
    w = core.random_plane(5, 2, 1)
    l = core.random_plane(5, 2, 2)
    schubert_doc = json.dumps(
        {"w": serialize.plane_to_json(w), "s": 1, "l": serialize.plane_to_json(l)}
    )
    commands = [
        ["gdc-sample", "--trials", "2", "--starts", "6", "--seed", "13", "--json", slice_doc],
        ["schubert-max", "--seed", "5", "--json", schubert_doc],
        ["g24-demo", "--beta", "0.5", "--grid", "301"],
    ]
    for argv in commands:
        code1 = cli.main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli.main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
    _report(13, "3 randomized commands emit byte-identical reports on repeat runs")
