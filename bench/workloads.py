"""The benchmark's workloads.

Each workload builds its inputs in ``setup`` (from the run's seed, except
``CriticalSearch``, which runs a fixed suite), exposes them as a list of
operations, runs one operation in ``call`` (the timed part) and verifies
its output in ``account`` (untimed).  ``account`` raises
:class:`CheckFailed` when an output is wrong; a wrong output is never
averaged away.  The run loop lives in ``run.py``.

Every operation is a closed-loop call: the next starts when the
previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from itertools import combinations

import numpy as np

import oracle


SUITE_SEED = 20241125


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def reference_angles(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Principal angles by plain numpy: atan2 of the sines and cosines.

    Used to check grasscrit's angles, so it shares no code with them.
    Cosines descend and sines ascend with the angle, so the two SVDs
    pair up after reversing the sines.
    """
    m = b1.T @ b2
    c = np.linalg.svd(m, compute_uv=False)
    s = np.linalg.svd(b2 - b1 @ m, compute_uv=False)[::-1]
    return np.arctan2(s, c)


def orthonormal(rng, n: int, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def complement(b: np.ndarray) -> np.ndarray:
    u, _, _ = np.linalg.svd(b, full_matrices=True)
    return u[:, b.shape[1]:]


def plane_at_angles(b1: np.ndarray, theta: np.ndarray, rng) -> np.ndarray:
    """Orthonormal basis of a plane at principal angles ``theta`` from b1."""
    n, k = b1.shape
    v = orthonormal(rng, k, k)
    u = complement(b1) @ orthonormal(rng, n - k, k)
    return b1 @ v * np.cos(theta) + u * np.sin(theta)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

class Primitives:
    """core on seeded plane pairs of one size class.

    Thirds of the pool are nearly coincident (angles 1e-7..1e-3), generic
    (largest angle uniform in (0.5, 1.5)) and near the cut locus (largest
    angle in (1, pi/2 - 1e-6), log-uniform in its distance to pi/2).
    ``log`` takes its graph-chart branch below 1 rad and its
    principal-vector branch above, so the pool runs each branch on half
    of the pairs.
    """

    tail_pct = 90
    unit = "pairs"
    warm_ops = 6
    POOL = 240

    def __init__(self, gc, name: str, n: int, k: int):
        self.gc = gc
        self.name = name
        self.n, self.k = n, k

    def setup(self, seed: int) -> None:
        core = self.gc.core
        rng = np.random.default_rng([seed, self.n, self.k])
        ops = []
        for i in range(self.POOL):
            kind = i % 3
            if kind == 0:
                theta = 10.0 ** rng.uniform(-7.0, -3.0, self.k)
            elif kind == 1:
                top = rng.uniform(0.5, 1.5)
                theta = np.append(rng.uniform(0.0, top, self.k - 1), top)
            else:
                top = math.pi / 2 - 10.0 ** -rng.uniform(-math.log10(math.pi / 2 - 1.0), 6.0)
                theta = np.append(rng.uniform(0.0, top, self.k - 1), top)
            e1 = core.make_plane(orthonormal(rng, self.n, self.k))
            e2 = core.make_plane(plane_at_angles(e1.basis, np.sort(theta), rng))
            ref = reference_angles(e1.basis, e2.basis)
            ops.append((e1, e2, ref))
        self.ops = ops
        self.checked = 0

    def call(self, op):
        core = self.gc.core
        e1, e2, _ = op
        frame = core.complete_frame(e1)
        angles = core.principal_angles(e1, e2)
        dist = core.grassmann_distance(e1, e2)
        back = core.exp(frame, core.log(frame, e2))
        minors = core.plucker_minors(e2)
        return angles, dist, back, minors

    def account(self, op, out, first_pass: bool) -> tuple[int, bool]:
        if isinstance(out, Exception):
            raise CheckFailed(f"{type(out).__name__}: {out}")
        e1, e2, ref = op
        angles, dist, back, minors = out
        if float(np.max(np.abs(angles - ref))) > 1e-9:
            raise CheckFailed(f"angles {angles} differ from reference {ref}")
        if abs(dist - float(np.linalg.norm(ref))) > 1e-9:
            raise CheckFailed(f"distance {dist} != |angles| {np.linalg.norm(ref)}")
        trip = float(np.max(reference_angles(e2.basis, back.basis)))
        if trip > 1e-8:
            raise CheckFailed(f"exp(log) round trip misses by {trip:.3e} rad")
        if abs(float(minors @ minors) - 1.0) > 1e-10:
            raise CheckFailed("Plucker minors of an orthonormal basis lack unit norm")
        if first_pass:
            self.checked += 1
        return 1, True

    def quality(self) -> dict:
        return {"recall": 1.0, "found_points": float(self.checked)}


# ---------------------------------------------------------------------------
# critical_search
# ---------------------------------------------------------------------------

def quadric(search, n: int, k: int, q: np.ndarray):
    """PluckerPolynomial c^T q c for a symmetric q."""
    size = q.shape[0]
    terms = []
    for i in range(size):
        for j in range(i, size):
            e = [0] * size
            e[i] += 1
            e[j] += 1
            terms.append((tuple(e), float(q[i, i] if i == j else 2.0 * q[i, j])))
    return search.PluckerPolynomial(n=n, k=k, terms=tuple(terms))


def minors(basis: np.ndarray, n: int, k: int) -> np.ndarray:
    """Plucker coordinates by plain numpy, for checks independent of core."""
    return np.array([np.linalg.det(basis[list(r), :]) for r in combinations(range(n), k)])


def poly_value(p, coords: np.ndarray) -> float:
    return float(sum(c * np.prod(coords ** np.array(e)) for e, c in p.terms))


def poly_gradient(p, coords: np.ndarray) -> np.ndarray:
    """Gradient of p in the Plucker coordinates, by plain numpy."""
    grad = np.zeros(len(coords))
    for e, c in p.terms:
        e = np.array(e)
        for m in np.flatnonzero(e):
            lower = e.copy()
            lower[m] -= 1
            grad[m] += c * e[m] * np.prod(coords ** lower)
    return grad


def cofactors(a: np.ndarray) -> np.ndarray:
    """Matrix of cofactors, the derivative of det(a) in each entry."""
    k = a.shape[0]
    out = np.empty_like(a)
    for i in range(k):
        for j in range(k):
            sub = np.delete(np.delete(a, i, axis=0), j, axis=1)
            out[i, j] = (-1) ** (i + j) * np.linalg.det(sub)
    return out


def criticality_residual(p, base: np.ndarray, point: np.ndarray) -> float:
    """How far ``point`` on {p = 0} is from critical for the distance to ``base``.

    Both are n x k bases.  The point is critical when the geodesic
    direction from it toward the base plane, the Grassmann logarithm
    U arctan(S) V^T of the SVD of (I - Y Y^T) B (Y^T B)^-1, is parallel to
    the hypersurface normal there, the horizontal part (I - Y Y^T) G of
    the gradient G of p(minors(Y)).  Returns the norm of the component
    of the unit direction orthogonal to the normal line.  Plain numpy,
    independent of grasscrit's certificate.
    """
    n, k = point.shape
    y, _ = np.linalg.qr(point)
    grad_c = poly_gradient(p, minors(y, n, k))
    g = np.zeros_like(y)
    for rows, d in zip(combinations(range(n), k), grad_c):
        rows = list(rows)
        g[rows, :] += d * cofactors(y[rows, :])
    normal = g - y @ (y.T @ g)
    m = (base - y @ (y.T @ base)) @ np.linalg.inv(y.T @ base)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    toward = u @ np.diag(np.arctan(s)) @ vt
    normal /= np.linalg.norm(normal)
    toward /= np.linalg.norm(toward)
    return float(np.linalg.norm(toward - np.sum(toward * normal) * normal))


class CriticalSearch:
    """find_critical_points and gdc_estimate on a fixed suite.

    The suite: CONICS G(1,3) conics with real points, scored against the
    independent oracle, every FOUR_POINT_EVERY-th with four real critical
    points and the rest with two (about one random indefinite conic in
    seven has four); one positive-definite conic with no real points,
    where NoConvergence is the right answer; a G(2,4) and a G(2,5)
    hyperplane and quadric, each quadric built to pass through a random
    plane so that it has real points; and one single-trial gdc_estimate
    per k = 2 hypersurface, spread evenly through the conics.

    The suite and every solver start come from SUITE_SEED, not from the
    run's seed: the solver's cost is heavy-tailed in its starts (a k = 2
    query takes 0.3 s to 6 s), and with seeded starts one run's median
    and tail moved by 15-40 % between seeds.  Quality (recall, distinct
    points, failures) is therefore exact and the same on every run.

    Every found point must lie on p = 0, pass grasscrit's certificate
    and, by :func:`criticality_residual`, be critical within
    CRITICAL_TOL.  Distinct points are counted here, not taken from the
    solver's deduplication: a point within DISTINCT_TOL (largest
    principal angle) of one already counted in the same query counts
    once.  Two copies of one point found from different starts lie far
    closer than that, and distinct critical points far apart.
    """

    tail_pct = 75
    unit = "starts"
    warm_ops = 2
    CONICS = 60
    FOUR_POINT_EVERY = 6
    CONIC_STARTS = 4
    K2_STARTS = 3
    GDC_STARTS = 2
    MATCH_TOL = 1e-6
    CRITICAL_TOL = 1e-6
    DISTINCT_TOL = 1e-4

    def __init__(self, gc):
        self.gc = gc
        self.name = "critical_search"

    def _conic(self, rng, points: int):
        """A conic whose oracle finds ``points`` real critical points;
        with 0, a positive-definite conic, which has no real points."""
        core, search = self.gc.core, self.gc.search
        while True:
            q = rng.standard_normal((3, 3))
            q = q @ q.T + 0.1 * np.eye(3) if points == 0 else q + q.T
            ev = np.linalg.eigvalsh(q)
            b = rng.standard_normal(3)
            b /= np.linalg.norm(b)
            if (points == 0 or ev[0] < 0.0 < ev[-1]) and abs(b @ q @ b) > 1e-3:
                pts = oracle.conic_critical_lines(q, b) if points else []
                if len(pts) == points:
                    break
        base = core.complete_frame(core.make_plane(b.reshape(3, 1)))
        return quadric(search, 3, 1, q), base, pts

    def _k2(self, rng, n: int, degree: int):
        core, search = self.gc.core, self.gc.search
        size = math.comb(n, 2)
        if degree == 1:
            p = search.linear_form(n, 2, rng.standard_normal(size))
        else:
            # c^T q c - (c0^T q c0) |c|^2 vanishes at the seeded plane c0
            q = rng.standard_normal((size, size))
            q = q + q.T
            c0 = minors(orthonormal(rng, n, 2), n, 2)
            p = quadric(search, n, 2, q - (c0 @ q @ c0) * np.eye(size))
        while True:
            base = core.make_plane(orthonormal(rng, n, 2))
            c = minors(base.basis, n, 2)
            if abs(poly_value(p, c)) > 1e-3 * max(abs(t) for _, t in p.terms):
                return p, core.complete_frame(base)

    def setup(self, seed: int) -> None:
        del seed  # the suite is fixed; see the class docstring
        oracle.self_test()
        rng = np.random.default_rng([SUITE_SEED, 13])
        conics = [
            ("conic",) + self._conic(rng, 4 if i % self.FOUR_POINT_EVERY == 0 else 2)
            for i in range(self.CONICS)
        ]
        empty = ("empty",) + self._conic(rng, 0)
        k2 = []
        for n, degree in ((4, 1), (4, 2), (5, 1), (5, 2)):
            p, base = self._k2(rng, n, degree)
            k2.append(("k2", p, base, []))
            k2.append(("gdc", p, None, []))
        extra = [empty] + k2
        step = len(conics) // len(extra)
        ops = []
        for i, op in enumerate(extra):
            ops.extend(conics[i * step:(i + 1) * step])
            ops.append(op)
        ops.extend(conics[len(extra) * step:])
        seeds = rng.integers(0, 2**31, len(ops))
        self.ops = [op + (int(s),) for op, s in zip(ops, seeds)]
        self.oracle_points = sum(len(op[3]) for op in self.ops)
        self.matched = 0
        self.distinct = 0
        self.starts = 0
        self.converged = 0

    def call(self, op):
        search = self.gc.search
        kind, p, base, _, seed = op
        if kind == "gdc":
            return search.gdc_estimate(p, trials=1, n_starts=self.GDC_STARTS, seed=seed)
        return search.find_critical_points(
            p, base, self._starts(kind), seed, return_diagnostics=True
        )

    def _starts(self, kind: str) -> int:
        return {"gdc": self.GDC_STARTS, "k2": self.K2_STARTS}.get(kind, self.CONIC_STARTS)

    def account(self, op, out, first_pass: bool) -> tuple[int, bool]:
        search = self.gc.search
        kind, p, base, expected, _ = op
        units = self._starts(kind)
        if kind == "gdc":
            if isinstance(out, Exception):
                raise CheckFailed(f"gdc_estimate raised {type(out).__name__}: {out}")
            if len(out.counts) != 1 or out.statuses[0] not in ("ok", "no_convergence"):
                raise CheckFailed(f"unexpected gdc report {out.to_dict()}")
            return units, out.statuses[0] == "ok"
        if isinstance(out, self.gc.errors.NoConvergence):
            diags, points = out.diagnostics, []
        elif isinstance(out, Exception):
            raise CheckFailed(f"{kind} query raised {type(out).__name__}: {out}")
        else:
            points, diags = out
        if len(diags) != units:
            raise CheckFailed(f"{len(diags)} start diagnostics for {units} starts")
        scale = max(abs(c) for _, c in p.terms)
        distinct = []
        for point, _ in points:
            value = poly_value(p, minors(point.basis, p.n, p.k))
            if abs(value) > 1e-8 * scale:
                raise CheckFailed(f"found point off the hypersurface: p = {value:.3e}")
            cert = search.hypersurface_normality_residual(p, base.plane, point)
            if not cert < search.CERT_TOL:
                raise CheckFailed(f"found point fails the normality certificate: {cert:.3e}")
            resid = criticality_residual(p, base.plane.basis, point.basis)
            if not resid < self.CRITICAL_TOL:
                raise CheckFailed(f"found point is not critical: residual {resid:.3e}")
            if all(float(np.max(reference_angles(point.basis, q))) > self.DISTINCT_TOL
                   for q in distinct):
                distinct.append(point.basis)
        if kind != "k2":
            matched, unmatched = oracle.match_found(
                expected, [pt.basis[:, 0] for pt, _ in points], self.MATCH_TOL
            )
            if unmatched:
                raise CheckFailed(f"{unmatched} found point(s) match no oracle point")
        if first_pass:
            self.starts += len(diags)
            self.converged += sum(d.status == "converged" for d in diags)
            self.distinct += len(distinct)
            if kind == "conic":
                self.matched += matched
        # a conic without real points has no critical point to find
        return units, bool(points) or kind == "empty"

    def quality(self) -> dict:
        return {
            "recall": self.matched / self.oracle_points,
            "found_points": float(self.distinct),
            "converged_start_share": self.converged / self.starts,
            "distinct_per_converged": self.distinct / max(self.converged, 1),
        }


# ---------------------------------------------------------------------------
# nearest_point
# ---------------------------------------------------------------------------

class NearestPoint:
    """Schubert nearest/farthest points and the cut-locus subdifferential.

    One query runs the binomial(k, s) selection critical points, the
    global min and max, the stratum of the maximizer, its sampled
    subdifferential and affine dimension, and the LP zero test against
    the variety's tangent space there.  One operation is a round of four
    queries, on G(3,7) s=1, G(3,7) s=2, G(2,8) s=1 and G(4,9) s=2: their
    costs differ by up to 5x, and a median over single queries would
    fall between two of them and jump with the mix.
    """

    tail_pct = 90
    unit = "queries"
    warm_ops = 1
    ROUNDS = 12
    CASES = ((7, 3, 1), (7, 3, 2), (8, 2, 1), (9, 4, 2))
    GAP = 1e-3

    def __init__(self, gc):
        self.gc = gc
        self.name = "nearest_point"

    def setup(self, seed: int) -> None:
        core, schubert = self.gc.core, self.gc.schubert
        rng = np.random.default_rng([seed, 17])
        rounds = []
        for _ in range(self.ROUNDS):
            queries = []
            for n, k, s in self.CASES:
                while True:
                    w = orthonormal(rng, n, k)
                    l = orthonormal(rng, n, k)
                    theta = reference_angles(w, l)
                    gaps = np.diff(np.concatenate([[0.0], theta, [math.pi / 2]]))
                    if float(np.min(gaps)) > self.GAP:
                        break
                omega = schubert.SchubertVariety(w=core.complete_frame(core.make_plane(w)), s=s)
                queries.append((omega, core.make_plane(l), theta, int(rng.integers(0, 2**31))))
            rounds.append(tuple(queries))
        self.ops = rounds
        self.records = 0

    def call(self, op):
        return [self._query(q) for q in op]

    def _query(self, query):
        core, cutlocus, schubert = self.gc.core, self.gc.cutlocus, self.gc.schubert
        omega, l, _, b_seed = query
        records = schubert.ey_schubert_critical_points(omega, l)
        vmin, _ = schubert.global_min(omega, l)
        vmax, maximizer = schubert.global_max(omega, l, b_seed=b_seed)
        j = cutlocus.cut_stratum(l, maximizer).j
        frame = core.complete_frame(maximizer)
        gens = cutlocus.subdiff_generators(l, frame, cutlocus.sample_orthogonal_group(j))
        dim = cutlocus.subdiff_affine_dimension(gens)
        basis = schubert.chart_tangent_basis(omega, maximizer)
        lp = cutlocus.restricted_critical_test(gens, basis)
        return records, vmin, vmax, maximizer, j, dim, lp

    def account(self, op, out, first_pass: bool) -> tuple[int, bool]:
        if isinstance(out, Exception):
            raise CheckFailed(f"{type(out).__name__}: {out}")
        for query, result in zip(op, out):
            self._check(query, result)
            if first_pass:
                self.records += len(result[0])
        return len(op), True

    def _check(self, query, result) -> None:
        omega, l, theta, _ = query
        records, vmin, vmax, maximizer, j, dim, lp = result
        k, s = omega.k, omega.s
        if len(records) != math.comb(k, s):
            raise CheckFailed(f"{len(records)} records, expected binomial({k},{s})")
        worst = max(r.normality_residual for r in records)
        if not worst < 1e-8:
            raise CheckFailed(f"critical record normality residual {worst:.3e}")
        want_min = float(np.linalg.norm(theta[:s]))
        if abs(vmin - want_min) > 1e-10 or abs(min(r.value for r in records) - want_min) > 1e-10:
            raise CheckFailed(f"global min {vmin} != |theta[:s]| = {want_min}")
        want_max = math.sqrt(float(np.sum(theta[k - s:] ** 2)) + (k - s) * (math.pi / 2) ** 2)
        if abs(vmax - want_max) > 1e-10:
            raise CheckFailed(f"global max {vmax} != {want_max}")
        right = int(np.sum(reference_angles(l.basis, maximizer.basis) >= math.pi / 2 - 1e-9))
        if j != k - s or right != k - s:
            raise CheckFailed(f"maximizer stratum {j} (reference {right}), expected {k - s}")
        if dim != j * j:
            raise CheckFailed(f"subdifferential affine dimension {dim} != j^2 = {j * j}")
        if not lp.found:
            raise CheckFailed(f"LP zero test found no witness (residual {lp.residual:.3e})")

    def quality(self) -> dict:
        return {"recall": 1.0, "found_points": float(self.records)}


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

class CliCold:
    """Cold ``python -m grasscrit.cli`` processes, one at a time.

    Cycles ``distance``, ``angles``, ``bound`` and a small ``g24-demo``
    with seeded arguments.  The expected report of each command is taken
    from an in-process ``cli.main`` call at set-up, and every cold
    process must reproduce it byte for byte with exit code 0.
    """

    tail_pct = 60
    unit = "processes"
    warm_ops = 2
    VARIANTS = 2

    def __init__(self, gc, src_dir: str):
        self.gc = gc
        self.name = "cli_cold"
        self.env = dict(os.environ, PYTHONPATH=src_dir)

    @staticmethod
    def _plane_json(rng, n: int, k: int) -> dict:
        return {"n": n, "k": k, "basis": orthonormal(rng, n, k).tolist()}

    def trace_call(self, op):
        """In-process ``cli.main``: the form of the call a traced run can see."""
        return self.main_output(op[0])

    def main_output(self, argv) -> tuple[int, bytes]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.gc.cli.main(list(argv))
        return code, buf.getvalue().encode()

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 19])
        argvs = []
        for _ in range(self.VARIANTS):
            pair = {"e1": self._plane_json(rng, 5, 2), "e2": self._plane_json(rng, 5, 2)}
            argvs.append(["distance", "--json", json.dumps(pair)])
            pair = {"e1": self._plane_json(rng, 7, 3), "e2": self._plane_json(rng, 7, 3)}
            argvs.append(["angles", "--json", json.dumps(pair)])
            k = int(rng.integers(1, 4))
            argvs.append(["bound", "--k", str(k), "--n", str(int(rng.integers(2 * k, 9))),
                          "--d", str(int(rng.integers(1, 6)))])
            betas = rng.uniform(0.2, 3.0, 2)
            argvs.append(["g24-demo", "--grid", "201",
                          "--beta", repr(float(betas[0])), "--beta", repr(float(betas[1]))])
        self.ops = []
        for argv in argvs:
            code, text = self.main_output(argv)
            if code != 0:
                raise CheckFailed(f"in-process {argv[0]} exited {code}: {text[:200]!r}")
            self.ops.append((tuple(argv), text))
        self.checked = 0

    def call(self, op):
        argv, _ = op
        proc = subprocess.run(
            [sys.executable, "-m", "grasscrit.cli", *argv],
            env=self.env, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def account(self, op, out, first_pass: bool) -> tuple[int, bool]:
        if isinstance(out, Exception):
            raise CheckFailed(f"{type(out).__name__}: {out}")
        argv, expected = op
        code, stdout = out
        if code != 0 or stdout != expected:
            raise CheckFailed(f"cold {argv[0]} exited {code} with a report that differs")
        if first_pass:
            self.checked += 1
        return 1, True

    def quality(self) -> dict:
        return {"recall": 1.0, "found_points": float(self.checked)}
