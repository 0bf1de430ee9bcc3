"""Command-line front end.

Every subcommand reads JSON (inline via ``--json`` or from ``--in``),
writes a canonical JSON report to stdout (or ``--out``), and embeds the
schema version.  Randomized commands require an explicit ``--seed`` and
produce byte-identical reports for identical inputs, seed and version.

Exit codes: 0 success, 2 validation error (domain preconditions), 3
parse error (bad command line or malformed/unschematic JSON), 4 solver
error.  Errors are reported as ``{"code", "message", "path"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import core, cutlocus, lowrank, schubert, search, serialize
from .errors import DimensionError, GrasscritError, NoConvergence, SchemaError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_SOLVER = 4


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
    p.add_argument("--tol-cut", type=float, default=core.TOL_CUT)
    p = add("geodesic", "point along a geodesic")
    p.add_argument("--t", type=float, required=True)
    add("plucker", "normalized Plucker coordinates of a plane")
    p = add("cut-stratum", "cut locus stratum of a plane relative to a base")
    p.add_argument("--tol-cut", type=float, default=core.TOL_CUT)
    p = add("subdiff-dim", "affine dimension of the sampled subdifferential")
    p.add_argument("--grid", type=int, default=cutlocus.O2_GRID)
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
    p.add_argument("--tol", type=float, default=search.SOLVER_TOL)
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


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_angles(args):
    doc = _load_doc(args)
    e1, e2 = _plane(doc, "e1"), _plane(doc, "e2")
    return {"angles": core.principal_angles(e1, e2).tolist()}


def _cmd_distance(args):
    doc = _load_doc(args)
    e1, e2 = _plane(doc, "e1"), _plane(doc, "e2")
    return {"delta": core.grassmann_distance(e1, e2)}


def _framed_with_tangent(doc):
    plane = _plane(doc, "plane")
    frame = core.complete_frame(plane)
    a = serialize.matrix_from_json(
        serialize._require(doc, "tangent", "input"), path="tangent"
    )
    return frame, core.tangent(frame, a)


def _cmd_exp(args):
    doc = _load_doc(args)
    frame, tan = _framed_with_tangent(doc)
    return {"plane": serialize.plane_to_json(core.exp(frame, tan))}


def _cmd_log(args):
    doc = _load_doc(args)
    plane = _plane(doc, "plane")
    target = _plane(doc, "target")
    frame = core.complete_frame(plane)
    tan = core.log(frame, target, tol_cut=args.tol_cut)
    return {"tangent": serialize.matrix_to_json(tan.a), "delta": tan.norm}


def _cmd_geodesic(args):
    doc = _load_doc(args)
    frame, tan = _framed_with_tangent(doc)
    return {"plane": serialize.plane_to_json(core.geodesic_point(frame, tan, args.t))}


def _cmd_plucker(args):
    doc = _load_doc(args)
    plane = _plane(doc, "plane")
    return {"coords": core.plucker_coords(plane).coords.tolist()}


def _cmd_cut_stratum(args):
    doc = _load_doc(args)
    l, e = _plane(doc, "l"), _plane(doc, "e")
    report = cutlocus.cut_stratum(l, e, tol=args.tol_cut)
    return {"j": report.j, "angles": report.angles.tolist(), "tol": report.tol}


def _cut_point(doc):
    """Base plane, framed cut point and its stratum j, at least 1
    (``subdiff_generators`` rejects points off the cut locus)."""
    l, s = _plane(doc, "l"), _plane(doc, "s")
    return l, core.complete_frame(s), max(cutlocus.cut_stratum(l, s).j, 1)


def _cmd_subdiff_dim(args):
    doc = _load_doc(args)
    l, s_frame, j = _cut_point(doc)
    w_list = cutlocus.sample_orthogonal_group(j, seed=args.seed, n_grid=args.grid)
    gens = cutlocus.subdiff_generators(l, s_frame, w_list)
    dim = cutlocus.subdiff_affine_dimension(gens, tol_rank=args.tol_rank)
    return {"j": gens.j, "dimension": dim}


def _cmd_subdiff_zero_test(args):
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
    doc = _load_doc(args)
    a = serialize.matrix_from_json(doc, path="matrix")
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
    w = _plane(doc, "w")
    l = _plane(doc, "l")
    s = serialize._integer(serialize._require(doc, "s", "input"), "input.s")
    omega = schubert.SchubertVariety(w=core.complete_frame(w), s=s)
    return omega, l


def _cmd_schubert_critical(args):
    doc = _load_doc(args)
    omega, l = _schubert_inputs(doc)
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
    doc = _load_doc(args)
    omega, l = _schubert_inputs(doc)
    value, minimizer = schubert.global_min(omega, l)
    return {
        "value": value,
        "minimizer": serialize.plane_to_json(minimizer),
        "on_cut_j": cutlocus.cut_stratum(l, minimizer).j,
    }


def _cmd_schubert_max(args):
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
    doc = _load_doc(args)
    poly = serialize.polynomial_from_json(doc)
    report = search.gdc_estimate(
        poly,
        trials=args.trials,
        n_starts=args.starts,
        seed=args.seed,
        tol=args.tol,
    )
    return report.to_dict()


def _cmd_bound(args):
    report = search.pfaffian_bound(args.k, args.n, args.d, c_param=args.c)
    return report.to_dict()


def _cmd_g24_demo(args):
    betas = args.beta if args.beta else [0.5, 1.0, 2.0]
    scan = search.g24_residual_scan(betas, n_grid=args.grid)
    spots = []
    for x, y, beta in (
        ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), 2.0),
        ((0.3, math.sqrt(1 - 0.09), 0.0), (-0.2, 0.0, math.sqrt(1 - 0.04)), 0.7),
    ):
        lhs, rhs = search.g24_det_identity_check(np.array(x), np.array(y), beta)
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
            if value is not None and not value > 0:
                raise GrasscritError(f"--{name.replace('_', '-')} must be positive, got {value}")
        if getattr(args, "seed", 0) < 0:
            raise GrasscritError(f"--seed must be nonnegative, got {args.seed}")
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
