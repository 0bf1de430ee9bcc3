"""Command-line front end.

Every subcommand reads JSON (inline via ``--json`` or from ``--in``),
writes a canonical JSON report to stdout (or ``--out``), and embeds the
schema version.  Randomized commands require an explicit ``--seed`` and
produce byte-identical reports for identical inputs, seed and version.

Exit codes: 0 success, 2 validation error (domain preconditions, and
a count option or a report's record count above ``MAX_COUNT``), 3 parse
error (bad command line or malformed/unschematic JSON), 4 solver error.
Errors are reported as ``{"code", "message", "path"}``.

Each handler imports the library modules it runs, numpy included, so a
cold process compiles and runs only those: ``bound`` and ``g24-demo``
load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import serialize
from .errors import DimensionError, DomainError, GrasscritError, NoConvergence, SchemaError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_SOLVER = 4

#: Largest value of the count options ``--trials``, ``--starts`` and
#: ``--grid``, and of the number of records of an ``ey`` report
#: (binomial(m, r), m = min(rows, cols)) and of a ``schubert-critical``
#: report (binomial(k, s)): each builds arrays or Python lists of that
#: length, so a larger count could fail to allocate or exhaust memory.
#: At this value a cold process peaks (its maximum RSS) at about 49 MB
#: for a G(1,3) conic ``gdc-sample --trials 1`` and at about 34 MB and
#: 41 MB for a ``subdiff-dim`` with two and three right angles.  It
#: bounds the count, not the size of one item: the per-start work of a
#: larger hypersurface and the size of one record (an m x n matrix, or
#: a plane of G(k, n) with its tangent space) grow with the input.
MAX_COUNT = 10_000


class _CliParseError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grasscrit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_doc=True):
        p = sub.add_parser(name, help=help_text)
        if needs_doc:
            p.add_argument("--json", help="inline JSON input")
            p.add_argument("--in", dest="in_path", help="path to JSON input file")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        return p

    add("angles", "principal angles between two planes")
    add("distance", "Grassmann distance between two planes")
    add("exp", "Riemannian exponential of a tangent matrix")
    p = add("log", "Riemannian logarithm toward a target plane")
    p.add_argument("--tol-cut", type=float)
    p = add("geodesic", "point along a geodesic")
    p.add_argument("--t", type=float, required=True)
    add("plucker", "normalized Plucker coordinates of a plane")
    p = add("cut-stratum", "cut locus stratum of a plane relative to a base")
    p.add_argument("--tol-cut", type=float)
    p = add("subdiff-dim", "affine dimension of the sampled subdifferential")
    p.add_argument("--grid", type=int)
    p.add_argument("--tol-rank", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p = add("subdiff-zero-test", "zero-in-projected-subdifferential test")
    p.add_argument("--tol", type=float, default=1e-8)
    p = add("ey", "full critical set of the rank-r approximation problem")
    p.add_argument("--rank", type=int, required=True)
    add("schubert-critical", "selection critical points for a Schubert variety")
    add("schubert-min", "global nearest point on a Schubert variety")
    p = add("schubert-max", "one global farthest point on a Schubert variety")
    p.add_argument("--seed", type=int, required=True)
    p = add("gdc-sample", "empirical distance-complexity lower bound")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--starts", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float)
    p = add("bound", "explicit complexity bound constants", needs_doc=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p = add("g24-demo", "sphere-product slice family scan", needs_doc=False)
    p.add_argument("--beta", type=float, action="append")
    p.add_argument("--grid", type=int, default=2001)
    return parser


def _load_doc(args) -> dict:
    if getattr(args, "json", None):
        text = args.json
        src = "-"
    elif getattr(args, "in_path", None):
        try:
            with open(args.in_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _CliParseError(f"cannot read {args.in_path}: {exc}") from None
        src = args.in_path
    else:
        raise _CliParseError("one of --json or --in is required")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliParseError(f"malformed JSON in {src}: {exc}") from None
    if not isinstance(doc, dict):
        raise _CliParseError(f"top-level JSON value in {src} must be an object")
    return doc


def _plane(doc, key):
    return serialize.plane_from_json(serialize._require(doc, key, "input"), path=key)


def _check_record_count(m: int, r: int, what: str) -> None:
    """Refuse a report of binomial(m, r) records above ``MAX_COUNT`` with
    :class:`DomainError`, before any array is built.  An r outside 1..m
    is left to the library's own error."""
    if 1 <= r <= m and (count := math.comb(m, r)) > MAX_COUNT:
        raise DomainError(
            f"{what} has binomial({m}, {r}) = {count} records, more than {MAX_COUNT}"
        )


def _given(**options) -> dict:
    """The options given on the command line, as keyword arguments: an
    option left out keeps the library function's own default."""
    return {name: value for name, value in options.items() if value is not None}


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_angles(args):
    from . import core

    doc = _load_doc(args)
    e1, e2 = _plane(doc, "e1"), _plane(doc, "e2")
    return {"angles": core.principal_angles(e1, e2).tolist()}


def _cmd_distance(args):
    from . import core

    doc = _load_doc(args)
    e1, e2 = _plane(doc, "e1"), _plane(doc, "e2")
    return {"delta": core.grassmann_distance(e1, e2)}


def _framed_with_tangent(doc):
    from . import core

    plane = _plane(doc, "plane")
    frame = core.complete_frame(plane)
    a = serialize.matrix_from_json(
        serialize._require(doc, "tangent", "input"), path="tangent"
    )
    return frame, core.tangent(frame, a)


def _cmd_exp(args):
    from . import core

    doc = _load_doc(args)
    frame, tan = _framed_with_tangent(doc)
    return {"plane": serialize.plane_to_json(core.exp(frame, tan))}


def _cmd_log(args):
    from . import core

    doc = _load_doc(args)
    plane = _plane(doc, "plane")
    target = _plane(doc, "target")
    frame = core.complete_frame(plane)
    tan = core.log(frame, target, **_given(tol_cut=args.tol_cut))
    return {"tangent": serialize.matrix_to_json(tan.a), "delta": tan.norm}


def _cmd_geodesic(args):
    from . import core

    doc = _load_doc(args)
    frame, tan = _framed_with_tangent(doc)
    return {"plane": serialize.plane_to_json(core.geodesic_point(frame, tan, args.t))}


def _cmd_plucker(args):
    from . import core

    doc = _load_doc(args)
    plane = _plane(doc, "plane")
    return {"coords": core.plucker_coords(plane).tolist()}


def _cmd_cut_stratum(args):
    from . import cutlocus

    doc = _load_doc(args)
    l, e = _plane(doc, "l"), _plane(doc, "e")
    report = cutlocus.cut_stratum(l, e, **_given(tol=args.tol_cut))
    return {"j": report.j, "angles": report.angles.tolist(), "tol": report.tol}


def _cut_point(doc):
    """Base plane, framed cut point and its stratum j, at least 1
    (``subdiff_generators`` rejects points off the cut locus)."""
    from . import core, cutlocus

    l, s = _plane(doc, "l"), _plane(doc, "s")
    return l, core.complete_frame(s), max(cutlocus.cut_stratum(l, s).j, 1)


def _cmd_subdiff_dim(args):
    from . import cutlocus

    doc = _load_doc(args)
    l, s_frame, j = _cut_point(doc)
    w_list = cutlocus.sample_orthogonal_group(j, seed=args.seed, **_given(n_grid=args.grid))
    gens = cutlocus.subdiff_generators(l, s_frame, w_list)
    dim = cutlocus.subdiff_affine_dimension(gens, tol_rank=args.tol_rank)
    return {"j": gens.j, "dimension": dim}


def _cmd_subdiff_zero_test(args):
    import numpy as np

    from . import core, cutlocus

    doc = _load_doc(args)
    l, s_frame, j = _cut_point(doc)
    gens = cutlocus.subdiff_generators(l, s_frame, np.eye(j)[None])
    shape = (s_frame.n - s_frame.k, s_frame.k)
    if "tangent_basis" in doc:
        mats = []
        for i, m in enumerate(serialize._list(doc["tangent_basis"], "tangent_basis")):
            a = serialize.matrix_from_json(m, path=f"tangent_basis[{i}]")
            if a.shape != shape:
                raise DimensionError(f"tangent_basis[{i}] shape {a.shape} != {shape}")
            mats.append(a)
        stack = np.reshape(mats, (-1, *shape))
    else:
        stack = np.eye(math.prod(shape)).reshape(-1, *shape)
    basis = core.tangent(s_frame, stack)
    result = cutlocus.restricted_critical_test(gens, basis, tol=args.tol)
    return {
        "j": gens.j,
        "found": result.found,
        "outcome": result.outcome,
        "witness": result.witness.tolist() if result.found else None,
        "residual": result.residual,
    }


def _cmd_ey(args):
    import numpy as np

    from . import lowrank

    doc = _load_doc(args)
    a = serialize.matrix_from_json(doc, path="matrix")
    _check_record_count(min(a.shape), args.rank, f"ey --rank {args.rank}")
    points = lowrank.ey_critical_set(a, args.rank)
    records = []
    for index_set, a_i in points:
        records.append(
            {
                "index_set": list(index_set),
                "distance": float(np.linalg.norm(a - a_i)),
                "matrix": serialize.matrix_to_json(a_i),
            }
        )
    return {"rank": args.rank, "critical_points": records}


def _schubert_inputs(doc):
    from . import core, schubert

    w = _plane(doc, "w")
    l = _plane(doc, "l")
    s = serialize._integer(serialize._require(doc, "s", "input"), "input.s")
    omega = schubert.SchubertVariety(w=core.complete_frame(w), s=s)
    return omega, l


def _cmd_schubert_critical(args):
    from . import schubert

    doc = _load_doc(args)
    omega, l = _schubert_inputs(doc)
    _check_record_count(omega.k, omega.s, "schubert-critical")
    records = schubert.ey_schubert_critical_points(omega, l)
    return {
        "records": [
            {
                "index_set": list(r.index_set),
                "value": r.value,
                "normality_residual": r.normality_residual,
                "point": serialize.plane_to_json(r.point),
            }
            for r in records
        ]
    }


def _cmd_schubert_min(args):
    from . import cutlocus, schubert

    doc = _load_doc(args)
    omega, l = _schubert_inputs(doc)
    value, minimizer = schubert.global_min(omega, l)
    return {
        "value": value,
        "minimizer": serialize.plane_to_json(minimizer),
        "on_cut_j": cutlocus.cut_stratum(l, minimizer).j,
    }


def _cmd_schubert_max(args):
    from . import cutlocus, schubert

    doc = _load_doc(args)
    omega, l = _schubert_inputs(doc)
    value, maximizer = schubert.global_max(omega, l, b_seed=args.seed)
    return {
        "value": value,
        "maximizer": serialize.plane_to_json(maximizer),
        "stratum_j": cutlocus.cut_stratum(l, maximizer).j,
        "seed": args.seed,
    }


def _cmd_gdc_sample(args):
    from . import search

    doc = _load_doc(args)
    poly = serialize.polynomial_from_json(doc)
    report = search.gdc_estimate(
        poly,
        trials=args.trials,
        n_starts=args.starts,
        seed=args.seed,
        **_given(tol=args.tol),
    )
    return report.to_dict()


def _cmd_bound(args):
    from . import bounds

    report = bounds.pfaffian_bound(args.k, args.n, args.d, c_param=args.c)
    return report.to_dict()


def _cmd_g24_demo(args):
    from . import bounds

    betas = args.beta if args.beta else [0.5, 1.0, 2.0]
    scan = bounds.g24_residual_scan(betas, n_grid=args.grid)
    spots = []
    for x, y, beta in (
        ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), 2.0),
        ((0.3, math.sqrt(1 - 0.09), 0.0), (-0.2, 0.0, math.sqrt(1 - 0.04)), 0.7),
    ):
        lhs, rhs = bounds.g24_det_identity_check(x, y, beta)
        spots.append({"x": list(x), "y": list(y), "beta": beta, "lhs": lhs, "rhs": rhs})
    return {"scan": scan, "identity_spot_checks": spots}


_HANDLERS = {
    "angles": _cmd_angles,
    "distance": _cmd_distance,
    "exp": _cmd_exp,
    "log": _cmd_log,
    "geodesic": _cmd_geodesic,
    "plucker": _cmd_plucker,
    "cut-stratum": _cmd_cut_stratum,
    "subdiff-dim": _cmd_subdiff_dim,
    "subdiff-zero-test": _cmd_subdiff_zero_test,
    "ey": _cmd_ey,
    "schubert-critical": _cmd_schubert_critical,
    "schubert-min": _cmd_schubert_min,
    "schubert-max": _cmd_schubert_max,
    "gdc-sample": _cmd_gdc_sample,
    "bound": _cmd_bound,
    "g24-demo": _cmd_g24_demo,
}


def _emit(payload: dict, out_path: str | None) -> None:
    text = serialize.canonical_dumps(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_payload(code: str, message: str, path: str) -> dict:
    return {"error": {"code": code, "message": message, "path": path}}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            return EXIT_OK
        _emit(_error_payload("ParseError", "invalid command line", "-"), None)
        return EXIT_PARSE
    handler = _HANDLERS[args.command]
    src = getattr(args, "in_path", None) or "-"
    try:
        for name in ("tol_cut", "tol", "tol_rank"):
            value = getattr(args, name, None)
            if value is not None and not 0 < value < math.inf:
                raise DomainError(
                    f"--{name.replace('_', '-')} must be finite and positive, got {value}"
                )
        # every angle lies within pi/2 of pi/2, so such a tolerance puts
        # every plane on the cut locus
        if getattr(args, "tol_cut", None) is not None and not args.tol_cut < math.pi / 2:
            raise DomainError(f"--tol-cut must lie in (0, pi/2), got {args.tol_cut}")
        for name in ("trials", "starts", "grid"):
            value = getattr(args, name, None)
            if value is not None and value > MAX_COUNT:
                raise DomainError(f"--{name} must be at most {MAX_COUNT}, got {value}")
        if getattr(args, "seed", 0) < 0:
            raise DomainError(f"--seed must be nonnegative, got {args.seed}")
        payload = handler(args)
    except (_CliParseError, SchemaError) as exc:
        _emit(_error_payload("ParseError", str(exc), src), getattr(args, "out", None))
        return EXIT_PARSE
    except NoConvergence as exc:
        _emit(_error_payload(exc.code, str(exc), src), getattr(args, "out", None))
        return EXIT_SOLVER
    except GrasscritError as exc:
        _emit(_error_payload(exc.code, str(exc), src), getattr(args, "out", None))
        return EXIT_VALIDATION
    report = {"schema_version": serialize.SCHEMA_VERSION, "command": args.command}
    report.update(payload)
    _emit(report, getattr(args, "out", None))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
