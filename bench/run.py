"""grasscrit benchmark: one workload per run, or all of them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; grasscrit is imported from
``src/`` beside this directory.  With ``--trace 0`` the run measures the
end-to-end metrics with the library untouched.  With ``--trace 1`` every
operation runs twice, once plain and once with span recorders wrapped
around the public functions of every grasscrit module; the traced copy
gives the per-layer metrics and the pair gives the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only if every correctness check passed.

See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

# The workloads are single-process and pinned to one CPU; pin BLAS to
# one thread, whatever the caller's environment says, before numpy is
# imported anywhere.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS settings)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Seed of record for claims, and the held-out seed a claim must also hold on.
WORKLOAD_SEED = 1
HELD_OUT_SEED = 7919

#: Set-up is repeated this many times per run; setup_s takes the median.
SETUP_REPEATS = 3

#: Timings are reported at the machine speed at which the reference
#: kernel takes KERNEL_REF_MS.  The kernel runs between operations at
#: least every KERNEL_EVERY_S, and each operation's time is rescaled by
#: KERNEL_REF_MS / (median kernel time within KERNEL_WINDOW_S of it, or
#: within its own duration if longer).
#: On shared virtual machines processor speed drifts by up to 2x within
#: seconds; the ratio of operation time to nearby kernel time drifts by
#: a tenth as much.
KERNEL_REF_MS = 0.4
KERNEL_EVERY_S = 0.01
KERNEL_WINDOW_S = 0.05

WORKLOADS = ("primitives_small", "primitives_large", "critical_search", "nearest_point", "cli_cold")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "share", "higher"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("recall", "share", "higher"),
    ("found_points", "count", "higher"),
)

MODULES = ("core", "lowrank", "cutlocus", "schubert", "search", "serialize", "cli")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def median(values) -> float:
    return percentile(values, 50)


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------

def _span_p50(name: str, scale: float):
    return lambda rec, ctx: median(rec.durations.get(name, ())) / scale


def _calls_per_op(name: str):
    return lambda rec, ctx: len(rec.durations.get(name, ())) / ctx["ops"]


def _starts(rec) -> int:
    return len(rec.durations.get("search.least_squares", ()))


def _per_start(values):
    return sum(values) / len(values) if values else 0.0


US, MS = 1e3, 1e6  # nanoseconds per unit

PER_LAYER = [
    (f"core.{fn}.us_p50", "us", "lower", _span_p50(f"core.{fn}", US))
    for fn in ("principal_angles", "grassmann_distance", "log", "exp", "complete_frame", "plucker_minors")
] + [
    ("search.start_ms_p50", "ms", "lower", _span_p50("search.least_squares", MS)),
    ("search.start_ms_p90", "ms", "lower",
     lambda rec, ctx: percentile(rec.durations.get("search.least_squares", ()), 90) / MS),
    ("search.nfev_per_start", "count", "lower", lambda rec, ctx: _per_start(ctx["nfev"])),
    ("search.njev_per_start", "count", "lower", lambda rec, ctx: _per_start(ctx["njev"])),
    ("search.eval_grad_per_start", "count", "lower",
     lambda rec, ctx: rec.counts.get("search.eval_grad@search.least_squares", 0) / max(_starts(rec), 1)),
    ("search.converged_start_share", "share", "higher",
     lambda rec, ctx: ctx["quality"].get("converged_start_share", 0.0)),
    ("search.distinct_per_converged", "share", "higher",
     lambda rec, ctx: ctx["quality"].get("distinct_per_converged", 0.0)),
    ("search.certificate_ms_p50", "ms", "lower", _span_p50("search.hypersurface_normality_residual", MS)),
    ("search.lagrange_residual_ms_p50", "ms", "lower", _span_p50("search.lagrange_residual", MS)),
    ("schubert.ey_critical_ms_p50", "ms", "lower", _span_p50("schubert.ey_schubert_critical_points", MS)),
    ("schubert.chart_tangent_basis_ms_p50", "ms", "lower", _span_p50("schubert.chart_tangent_basis", MS)),
    ("schubert.chart_tangent_basis.calls_per_op", "count", "lower", _calls_per_op("schubert.chart_tangent_basis")),
    ("schubert.normality_residual_ms_p50", "ms", "lower", _span_p50("schubert.normality_residual", MS)),
    ("schubert.global_max_ms_p50", "ms", "lower", _span_p50("schubert.global_max", MS)),
    ("cutlocus.subdiff_ms_p50", "ms", "lower", _span_p50("cutlocus.subdiff_generators", MS)),
    ("cutlocus.lp_ms_p50", "ms", "lower", _span_p50("cutlocus.restricted_critical_test", MS)),
    ("cutlocus.cut_stratum.calls_per_op", "count", "lower", _calls_per_op("cutlocus.cut_stratum")),
    ("lowrank.svd.calls_per_op", "count", "lower", _calls_per_op("lowrank.svd")),
    ("lowrank.svd.us_p50", "us", "lower", _span_p50("lowrank.svd", US)),
    ("cli.interp_ms", "ms", "lower", lambda rec, ctx: ctx["cli"].get("interp_ms", 0.0)),
    ("cli.import_ms", "ms", "lower", lambda rec, ctx: ctx["cli"].get("import_ms", 0.0)),
    ("cli.scipy_import_ms", "ms", "lower", lambda rec, ctx: ctx["cli"].get("scipy_import_ms", 0.0)),
    ("cli.main_ms_p50", "ms", "lower", _span_p50("cli.main", MS)),
    ("serialize.dumps_us_p50", "us", "lower", _span_p50("serialize.canonical_dumps", US)),
] + [
    (f"{mod}.self_ms_per_op", "ms", "lower",
     (lambda m: lambda rec, ctx: rec.module_self_ms().get(m, 0.0) / ctx["ops"])(mod))
    for mod in MODULES
] + [
    (f"{mod}.calls_per_op", "count", "lower",
     (lambda m: lambda rec, ctx: rec.module_calls().get(m, 0) / ctx["ops"])(mod))
    for mod in MODULES
] + [
    ("trace_overhead_share", "share", "lower", lambda rec, ctx: ctx["overhead"]),
]


def make_recorder(gc, nfev: list, njev: list):
    from spans import SpanRecorder

    def start_done(res):
        nfev.append(res.nfev)
        njev.append(res.njev or 0)

    rec = SpanRecorder(on_result={"search.least_squares": start_done})
    rec.wrap_public_functions([getattr(gc, m) for m in MODULES], "grasscrit")
    search = gc.search
    rec.replace(search, "least_squares", rec.span("search.least_squares", search.least_squares))
    poly = search.PluckerPolynomial
    rec.replace(poly, "eval_grad",
                rec.counter("search.eval_grad", poly.eval_grad, inside="search.least_squares"))
    return rec


def cli_probes() -> dict:
    """Cold-start pieces of the CLI, each from fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def wall(args) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True, timeout=120)
        return (time.perf_counter() - t0) * 1e3

    interp = median([wall(["-c", "pass"]) for _ in range(5)])
    imported = median([wall(["-c", "import grasscrit.cli"]) for _ in range(5)])
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import grasscrit.cli"],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.optimize":
            scipy_us = int(parts[1])
    return {"interp_ms": interp, "import_ms": imported - interp, "scipy_import_ms": scipy_us / 1e3}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

class Grasscrit:
    """The grasscrit modules, imported from this checkout's src/."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "grasscrit", "__init__.py")):
            fail(f"no grasscrit sources under {SRC}")
        sys.path.insert(0, SRC)
        import grasscrit
        from grasscrit import cli, core, cutlocus, errors, lowrank, schubert, search, serialize

        if not os.path.abspath(grasscrit.__file__).startswith(SRC + os.sep):
            fail(f"imported grasscrit from {grasscrit.__file__}, not from {SRC}")
        self.core, self.lowrank, self.cutlocus = core, lowrank, cutlocus
        self.schubert, self.search, self.serialize = schubert, search, serialize
        self.cli, self.errors = cli, errors


def build_workload(name: str, gc):
    import workloads as w

    if name == "primitives_small":
        return w.Primitives(gc, name, 4, 2)
    if name == "primitives_large":
        return w.Primitives(gc, name, 12, 5)
    if name == "critical_search":
        return w.CriticalSearch(gc)
    if name == "nearest_point":
        return w.NearestPoint(gc)
    return w.CliCold(gc, SRC)


def environment(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "seed": seed,
        "workload_seed": WORKLOAD_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


KERNEL_MATRIX = np.random.default_rng(0).standard_normal((6, 3))


def reference_kernel() -> float:
    """Fixed work outside grasscrit, like the library's own mix: small
    dense factorizations called from Python plus interpreter arithmetic.
    Returns its wall time in ms."""
    a = KERNEL_MATRIX
    t0 = time.perf_counter()
    for _ in range(8):
        q, _r = np.linalg.qr(a)
        np.linalg.det(q[:3])
        np.linalg.svd(q.T @ a, compute_uv=False)
        acc = 0
        for j in range(50):
            acc += j * j
    return (time.perf_counter() - t0) * 1e3


def timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # the workload's account() judges it
        out = exc
    return out, time.perf_counter() - t0


def speed_factors(op_start, op_dt, kernel_at, kernel_ms):
    """Per operation, KERNEL_REF_MS over the median kernel time measured
    within KERNEL_WINDOW_S of the operation, or within its own duration
    of it if that is longer (the kernel cannot run during an operation)."""
    op_start, op_dt = np.asarray(op_start), np.asarray(op_dt)
    kernel_at, kernel_ms = np.asarray(kernel_at), np.asarray(kernel_ms)
    half = np.maximum(op_dt, KERNEL_WINDOW_S)
    lo = np.searchsorted(kernel_at, op_start - half)
    hi = np.searchsorted(kernel_at, op_start + op_dt + half)
    return np.array([KERNEL_REF_MS / np.median(kernel_ms[a:b]) for a, b in zip(lo, hi)])


class Loop:
    """What the closed loop measured, per operation in order."""

    def __init__(self):
        self.times, self.starts, self.units, self.traced_times = [], [], [], []
        self.kernel_ms, self.kernel_at, self.errors = [], [], []
        self.ok = 0

    def kernel(self) -> None:
        self.kernel_ms.append(reference_kernel())
        self.kernel_at.append(time.perf_counter())

    def scaled_times(self) -> np.ndarray:
        factors = speed_factors(self.starts, self.times, self.kernel_at, self.kernel_ms)
        return np.asarray(self.times) * factors


def run_loop(wl, seconds: float, rec, check_failed) -> Loop:
    """Run whole passes over the workload's operations until another
    half pass would not fit in ``seconds``; with a recorder, run each
    operation plain and traced, alternating which goes first."""
    loop = Loop()
    call = getattr(wl, "trace_call", wl.call) if rec else wl.call
    ops = wl.ops
    start = pass_start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if i and i % len(ops) == 0:
            pass_s, pass_start = now - pass_start, now
            if now - start + pass_s / 2 >= seconds:
                break
        if not loop.kernel_at or now - loop.kernel_at[-1] >= KERNEL_EVERY_S:
            loop.kernel()
        op, first = ops[i % len(ops)], i < len(ops)
        loop.starts.append(time.perf_counter())
        if rec and i % 2:
            with rec.active():
                traced_out, traced_dt = timed(call, op)
        out, dt = timed(call, op)
        if rec and not i % 2:
            with rec.active():
                traced_out, traced_dt = timed(call, op)
        loop.times.append(dt)
        if rec:
            loop.traced_times.append(traced_dt)
        try:
            n_units, good = wl.account(op, out, first)
            if rec:
                wl.account(op, traced_out, False)
        except check_failed as exc:
            loop.errors.append(str(exc))
            n_units, good = 0, False
        loop.units.append(n_units)
        loop.ok += good and first
        i += 1
    loop.kernel()
    return loop


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    t0 = time.perf_counter()
    gc = Grasscrit()
    import_s = time.perf_counter() - t0
    import_s *= KERNEL_REF_MS / median([reference_kernel() for _ in range(5)])
    import workloads

    wl = build_workload(name, gc)
    setups = []
    for _ in range(SETUP_REPEATS):
        kernels = [reference_kernel() for _ in range(3)]
        t0 = time.perf_counter()
        wl.setup(seed)
        for op in wl.ops[: wl.warm_ops]:
            wl.call(op)
        dt = time.perf_counter() - t0
        kernels += [reference_kernel() for _ in range(3)]
        setups.append(dt * KERNEL_REF_MS / median(kernels))

    nfev, njev = [], []
    rec = make_recorder(gc, nfev, njev) if trace else None
    cli = cli_probes() if trace and name == "cli_cold" else {}
    loop = run_loop(wl, seconds, rec, workloads.CheckFailed)
    for msg in loop.errors[:5]:
        print(f"check failed: {msg}", file=sys.stderr)

    quality = wl.quality()
    scaled = loop.scaled_times()
    speed = median(scaled / np.asarray(loop.times))
    attempted = len(loop.times)
    if trace:
        ctx = {
            "ops": attempted, "nfev": nfev, "njev": njev, "quality": quality, "cli": cli,
            "overhead": sum(loop.traced_times) / sum(loop.times) - 1.0,
        }
        metrics = {
            m: (fn(rec, ctx) * (speed if unit in ("us", "ms") else 1.0), unit)
            for m, unit, _, fn in PER_LAYER
        }
        better = {m: b for m, _, b, _ in PER_LAYER}
    else:
        who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
        values = {
            "setup_s": import_s + median(setups),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "ok_share": loop.ok / len(wl.ops),
            "ops_per_s": sum(loop.units) / float(np.sum(scaled)),
            "op_ms_p50": median(scaled) * 1e3,
            "op_ms_tail": percentile(scaled, wl.tail_pct) * 1e3,
            "recall": quality["recall"],
            "found_points": quality["found_points"],
        }
        metrics = {m: (values[m], unit) for m, unit, _ in END_TO_END}
        better = {m: b for m, _, b in END_TO_END}

    print(f"workload {name}: {attempted} operations over {len(wl.ops)} distinct inputs, "
          f"ops_per_s counts {wl.unit}, op_ms_tail is p{wl.tail_pct} of {attempted} samples")
    print(f"reference kernel: median {median(loop.kernel_ms):.4f} ms over {len(loop.kernel_ms)} runs; "
          f"times are scaled to a {KERNEL_REF_MS} ms kernel by a median factor {speed:.4f} "
          f"(raw op p50 {median(loop.times) * 1e3:.6g} ms)")
    for m, (value, unit) in metrics.items():
        print(f"  {m:<44} {value:>14.6g} {unit:<6} {better[m]} is better")
    if not trace:
        for m, value, unit, b in workload_names(name, metrics):
            print(f"  [{m}] {value:.6g} {unit} ({b} is better)")
    print("env " + json.dumps(environment(seed), sort_keys=True))
    failed = len(loop.errors)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def workload_names(name: str, metrics: dict):
    """The workload's metrics under their per-workload names."""
    v = {m: value for m, (value, _) in metrics.items()}
    out = [("setup_s", v["setup_s"], "s", "lower"),
           ("peak_rss_mb", v["peak_rss_mb"], "MB", "lower"),
           ("failed_share", 1.0 - v["ok_share"], "share", "lower")]
    if name.startswith("primitives"):
        size = name.split("_")[1]
        out.append((f"{size}_pairs_per_s", v["ops_per_s"], "1/s", "higher"))
    elif name == "critical_search":
        out += [("query_s_p50", v["op_ms_p50"] / 1e3, "s", "lower"),
                ("starts_per_s", v["ops_per_s"], "1/s", "higher"),
                ("recall", v["recall"], "share", "higher"),
                ("distinct_points", v["found_points"], "count", "higher")]
    elif name == "nearest_point":
        out += [("nearest_ms_p50", v["op_ms_p50"], "ms", "lower"),
                ("nearest_ms_p90", v["op_ms_tail"], "ms", "lower")]
    else:
        out += [("cli_ms_p50", v["op_ms_p50"], "ms", "lower"),
                ("cli_ms_p60", v["op_ms_tail"], "ms", "lower")]
    return out


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=WORKLOAD_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the run and every process it starts, so that the
    # reference kernel and the operations it scales share a processor.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
