"""Tests of the benchmark's own tooling: span arithmetic, the oracle and
the criticality check.

Run with ``python -m pytest bench``.
"""

import types

import numpy as np
import pytest

import oracle
import workloads
from run import Grasscrit
from spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_call_tree():
    # root (10) -> [a (3) -> [leaf (2)], leaf (4)], each number the time
    # the function itself advances the clock.
    clock = FakeClock()
    mod = types.ModuleType("fake")

    def leaf(t):
        clock.now += t

    def a():
        clock.now += 1
        mod.leaf(2)

    def root():
        clock.now += 4
        mod.a()
        clock.now += 6
        mod.leaf(4)

    mod.leaf, mod.a, mod.root = leaf, a, root
    rec = SpanRecorder(clock=clock)
    for fn in (leaf, a, root):
        rec.replace(mod, fn.__name__, rec.span("m." + fn.__name__, fn))
    with rec.active():
        mod.root()

    assert rec.durations["m.root"] == [17]
    assert rec.durations["m.a"] == [3]
    assert rec.durations["m.leaf"] == [2, 4]
    assert rec.self_ns["m.root"] == 10
    assert rec.self_ns["m.a"] == 1
    assert rec.self_ns["m.leaf"] == 6
    # self times partition the root span
    assert sum(rec.self_ns.values()) == 17
    assert rec.module_self_ms() == {"m": 17 / 1e6}
    assert rec.module_calls() == {"m": 4}
    assert mod.leaf is leaf and mod.a is a and mod.root is root


def test_span_closes_and_restores_on_exception():
    clock = FakeClock()
    mod = types.ModuleType("fake")

    def boom():
        clock.now += 5
        raise ValueError("x")

    mod.boom = boom
    rec = SpanRecorder(clock=clock)
    rec.replace(mod, "boom", rec.span("m.boom", boom))
    with pytest.raises(ValueError):
        with rec.active():
            mod.boom()
    assert rec.durations["m.boom"] == [5]
    assert mod.boom is boom
    assert not rec._stack


def test_counter_inside_span():
    rec = SpanRecorder(clock=FakeClock())
    mod = types.ModuleType("fake")
    mod.f = lambda: None
    mod.g = lambda: mod.f()
    rec.replace(mod, "f", rec.counter("m.f", mod.f, inside="m.g"))
    rec.replace(mod, "g", rec.span("m.g", mod.g))
    with rec.active():
        mod.f()
        mod.g()
    assert rec.counts["m.f"] == 2
    assert rec.counts["m.f@m.g"] == 1


def test_oracle_self_test():
    oracle.self_test()


def test_oracle_points_satisfy_lagrange_system():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = rng.standard_normal((3, 3))
        q = q + q.T
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        for x, angle in oracle.conic_critical_lines(q, b):
            assert abs(x @ q @ x) < 1e-9
            # the geodesic direction from span(x) toward span(b) is normal
            # to the conic: the tangent line of the conic at x lies in
            # the plane orthogonal to both the gradient q x and x
            grad = q @ x
            toward = b - (b @ x) * x
            assert abs(np.linalg.det(np.stack([x, grad, toward]))) < 1e-9
            assert abs(angle - oracle.line_angle(x, b)) < 1e-12


def _stationary_slopes(p, base, point, h=1e-5):
    """Slopes of the squared distance to ``base`` along a basis of the
    tangent space of {p = 0} at ``point``, by central differences in the
    horizontal chart Y + C A (C the complement of the point's basis)."""
    n, k = point.shape
    comp = workloads.complement(point)

    def moved(a):
        y, _ = np.linalg.qr(point + comp @ a.reshape(n - k, k))
        return y

    def p_at(a):
        return workloads.poly_value(p, workloads.minors(moved(a), n, k))

    def dist2(a):
        return float(np.sum(workloads.reference_angles(base, moved(a)) ** 2))

    eye = np.eye((n - k) * k)
    normal = np.array([(p_at(h * e) - p_at(-h * e)) / (2 * h) for e in eye])
    _, _, vt = np.linalg.svd(normal.reshape(1, -1))
    return [(dist2(h * t) - dist2(-h * t)) / (2 * h) for t in vt[1:]]


def test_criticality_residual_on_conic_oracle_points():
    gc = Grasscrit()
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = rng.standard_normal((3, 3))
        q = q + q.T
        b = workloads.orthonormal(rng, 3, 1)
        other = workloads.orthonormal(rng, 3, 1)
        p = workloads.quadric(gc.search, 3, 1, q)
        for x, _ in oracle.conic_critical_lines(q, b[:, 0]):
            x = x.reshape(3, 1)
            assert workloads.criticality_residual(p, b, x) < 1e-9
            assert workloads.criticality_residual(p, other, x) > 1e-3


def test_criticality_residual_k2_matches_first_order_condition():
    gc = Grasscrit()
    # a hyperplane on which 6 starts find a point (on many they find none)
    rng = np.random.default_rng(13)
    p = gc.search.linear_form(4, 2, rng.standard_normal(6))
    base = gc.core.complete_frame(gc.core.make_plane(workloads.orthonormal(rng, 4, 2)))
    other = workloads.orthonormal(rng, 4, 2)
    points = gc.search.find_critical_points(p, base, 6, 0)
    assert points
    for point, _ in points:
        y = point.basis
        assert workloads.criticality_residual(p, base.plane.basis, y) < 1e-8
        assert max(abs(s) for s in _stationary_slopes(p, base.plane.basis, y)) < 1e-6
        assert workloads.criticality_residual(p, other, y) > 1e-3
        assert max(abs(s) for s in _stationary_slopes(p, other, y)) > 1e-3
