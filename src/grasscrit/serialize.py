"""JSON schemas and canonical serialization.

Documents:

* Plane: ``{"n": int, "k": int, "basis": [[k floats] x n rows]}``
* Tangent matrix / generic matrix: ``{"rows": int, "cols": int,
  "a": [[...]]}``
* Hypersurface: ``{"n": int, "k": int, "terms": [{"idx": [exponents
  over the binomial(n, k) coordinates], "coef": float}]}``, homogeneous
  of positive total degree at most 100 (``search.MAX_DEGREE``), with
  finite coefficients that are not all zero; else a :class:`SchemaError`

All floating point output is decimal with 17 significant digits, which
round-trips IEEE doubles exactly; dictionaries are emitted with sorted
keys so identical values produce byte-identical documents.  Non-finite
floats serialize as the strings "inf", "-inf" and "nan".  Numpy scalars
and arrays are written as their ``tolist()``; the module imports numpy
only in the readers and writers of matrices.
"""

from __future__ import annotations

import io
import json
import math
from typing import TYPE_CHECKING

from .errors import SchemaError

if TYPE_CHECKING:  # imported where used, so a command loads only what it runs
    import numpy as np

    from .core import Plane
    from .search import PluckerPolynomial

SCHEMA_VERSION = "15"


# ---------------------------------------------------------------------------
# Canonical JSON output
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


#: Pieces :func:`dump` holds before it writes them to its stream.  The
#: count is checked only where a list or an object closes, off the
#: per-token path, so the buffer can exceed it by the pieces of one
#: list or object of scalars.
_FLUSH_PIECES = 4096


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON: sorted keys, 17-digit floats."""
    buf = io.StringIO()
    dump(obj, buf)
    return buf.getvalue()


def dump(obj, stream) -> None:
    """Write the :func:`canonical_dumps` text of ``obj`` to the text
    ``stream`` in chunks, so that the whole text is never held at once."""
    pieces: list[str] = []
    _write(obj, pieces, stream)
    stream.write("".join(pieces))


def _write(obj, out: list[str], stream) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise SchemaError(f"non-string key {key!r}")
            out.append(json.dumps(key))
            out.append(":")
            _write(obj[key], out, stream)
        out.append("}")
        if len(out) > _FLUSH_PIECES:
            stream.write("".join(out))
            out.clear()
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out, stream)
        out.append("]")
        if len(out) > _FLUSH_PIECES:
            stream.write("".join(out))
            out.clear()
    elif hasattr(obj, "tolist"):  # a numpy scalar or array, as Python values
        _write(obj.tolist(), out, stream)
    else:
        raise SchemaError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------

def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing field {path}.{key}")
    return obj[key]


def _integer(value, path: str) -> int:
    """``value`` if it is a JSON integer, else a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path} must be an integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    """``value`` as a float if it is a JSON number, else a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path} must be a number, got {value!r}")
    return float(value)


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path} must be a list, got {value!r}")
    return value


def plane_to_json(plane: Plane) -> dict:
    return {"n": plane.n, "k": plane.k, "basis": plane.basis.tolist()}


def plane_from_json(obj, path: str = "plane") -> Plane:
    from .core import make_plane

    return make_plane(_shaped_matrix(obj, path, "n", "k", "basis"))


def matrix_to_json(a: np.ndarray) -> dict:
    import numpy as np

    a = np.asarray(a, dtype=float)
    return {"rows": a.shape[0], "cols": a.shape[1], "a": a.tolist()}


def matrix_from_json(obj, path: str = "matrix") -> np.ndarray:
    return _shaped_matrix(obj, path, "rows", "cols", "a")


def _shaped_matrix(obj, path: str, rows_key: str, cols_key: str, data_key: str) -> np.ndarray:
    """The numeric matrix ``obj[data_key]``, checked against the integer
    shape fields ``obj[rows_key]`` and ``obj[cols_key]``."""
    import numpy as np

    rows = _integer(_require(obj, rows_key, path), f"{path}.{rows_key}")
    cols = _integer(_require(obj, cols_key, path), f"{path}.{cols_key}")
    try:
        a = np.asarray(_require(obj, data_key, path), dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}.{data_key} is not a numeric matrix: {exc}") from None
    if a.shape != (rows, cols):
        raise SchemaError(f"{path}.{data_key} shape {a.shape} != ({rows}, {cols})")
    return a


def polynomial_from_json(obj, path: str = "hypersurface") -> PluckerPolynomial:
    n = _integer(_require(obj, "n", path), f"{path}.n")
    k = _integer(_require(obj, "k", path), f"{path}.k")
    raw_terms = _list(_require(obj, "terms", path), f"{path}.terms")
    terms = []
    for i, term in enumerate(raw_terms):
        where = f"{path}.terms[{i}]"
        idx = _list(_require(term, "idx", where), f"{where}.idx")
        coef = _number(_require(term, "coef", where), f"{where}.coef")
        terms.append((tuple(_integer(e, f"{where}.idx[{j}]") for j, e in enumerate(idx)), coef))
    from .search import PluckerPolynomial

    return PluckerPolynomial(n=n, k=k, terms=tuple(terms))
