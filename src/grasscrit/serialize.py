"""JSON schemas and canonical serialization.

Documents:

* Plane: ``{"n": int, "k": int, "basis": [[k floats] x n rows]}``
* Tangent matrix / generic matrix: ``{"rows": int, "cols": int,
  "a": [[...]]}``
* Hypersurface: ``{"n": int, "k": int, "terms": [{"idx": [exponents
  over the binomial(n, k) coordinates], "coef": float}]}``

All floating point output is decimal with 17 significant digits, which
round-trips IEEE doubles exactly; dictionaries are emitted with sorted
keys so identical values produce byte-identical documents.  Non-finite
floats serialize as the strings "inf", "-inf" and "nan".
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import Plane, make_plane
from .errors import SchemaError
from .search import PluckerPolynomial

SCHEMA_VERSION = "3"


# ---------------------------------------------------------------------------
# Canonical JSON output
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON: sorted keys, 17-digit floats."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise SchemaError(f"non-string key {key!r}")
            out.append(json.dumps(key))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise SchemaError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------

def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing field {path}.{key}")
    return obj[key]


def plane_to_json(plane: Plane) -> dict:
    return {"n": plane.n, "k": plane.k, "basis": plane.basis.tolist()}


def plane_from_json(obj, path: str = "plane") -> Plane:
    n = _require(obj, "n", path)
    k = _require(obj, "k", path)
    basis = _require(obj, "basis", path)
    try:
        raw = np.asarray(basis, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}.basis is not a numeric matrix: {exc}") from None
    if raw.shape != (int(n), int(k)):
        raise SchemaError(f"{path}.basis shape {raw.shape} != ({n}, {k})")
    return make_plane(raw)


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=float)
    return {"rows": a.shape[0], "cols": a.shape[1], "a": a.tolist()}


def matrix_from_json(obj, path: str = "matrix") -> np.ndarray:
    rows = _require(obj, "rows", path)
    cols = _require(obj, "cols", path)
    data = _require(obj, "a", path)
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}.a is not a numeric matrix: {exc}") from None
    if a.shape != (int(rows), int(cols)):
        raise SchemaError(f"{path}.a shape {a.shape} != ({rows}, {cols})")
    return a


def polynomial_to_json(p: PluckerPolynomial) -> dict:
    return {
        "n": p.n,
        "k": p.k,
        "terms": [{"idx": list(exps), "coef": coef} for exps, coef in p.terms],
    }


def polynomial_from_json(obj, path: str = "hypersurface") -> PluckerPolynomial:
    n = int(_require(obj, "n", path))
    k = int(_require(obj, "k", path))
    raw_terms = _require(obj, "terms", path)
    if not isinstance(raw_terms, list):
        raise SchemaError(f"{path}.terms must be a list")
    terms = []
    for i, term in enumerate(raw_terms):
        idx = _require(term, "idx", f"{path}.terms[{i}]")
        coef = _require(term, "coef", f"{path}.terms[{i}]")
        terms.append((tuple(int(e) for e in idx), float(coef)))
    return PluckerPolynomial(n=n, k=k, terms=tuple(terms))
