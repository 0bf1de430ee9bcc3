"""The CLI's cold start: no command loads scipy, solving ones included,
each command imports only the grasscrit modules it runs, and the two
scalar commands (``bound`` and ``g24-demo``) load neither numpy nor
dataclasses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grasscrit import core, serialize

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the cli_cold benchmark's commands, the cut-locus zero test (at a
# point with two right angles) and a solving gdc-sample on a G(2,4)
# hyperplane in one fresh interpreter and prints their exit codes and
# the scipy modules loaded afterwards
PROBE = """
import contextlib, io, json, sys
import numpy as np
from grasscrit import cli, core, serialize

def plane(n, k, seed):
    return serialize.plane_to_json(core.random_plane(n, k, seed))

def columns(*idx):  # coordinate plane of R^7
    return serialize.plane_to_json(core.make_plane(np.eye(7)[:, list(idx)]))

weights = [0.3, -1.1, 0.7, 0.2, -0.5, 0.9]
hyperplane = {
    "n": 4, "k": 2,
    "terms": [{"idx": [int(i == j) for i in range(6)], "coef": w} for j, w in enumerate(weights)],
}

argvs = [
    ["distance", "--json", json.dumps({"e1": plane(5, 2, 1), "e2": plane(5, 2, 2)})],
    ["angles", "--json", json.dumps({"e1": plane(7, 3, 3), "e2": plane(7, 3, 4)})],
    ["bound", "--k", "2", "--n", "5", "--d", "3"],
    ["g24-demo", "--grid", "201", "--beta", "0.7", "--beta", "2.5"],
    ["subdiff-zero-test", "--json", json.dumps({"l": columns(0, 1, 2), "s": columns(0, 3, 4)})],
    ["gdc-sample", "--trials", "1", "--starts", "2", "--seed", "0",
     "--json", json.dumps(hyperplane)],
]
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )


def test_cli_commands_load_no_scipy():
    result = json.loads(_python("-c", PROBE).stdout)
    assert result["codes"] == [0, 0, 0, 0, 0, 0]
    assert result["scipy"] == []


def _plane(n, k, seed):
    return serialize.plane_to_json(core.random_plane(n, k, seed))


def _columns(n, *idx):
    return serialize.plane_to_json(core.make_plane(np.eye(n)[:, list(idx)]))


def _command_argvs():
    pair = json.dumps({"e1": _plane(5, 2, 1), "e2": _plane(5, 2, 2)})
    e = core.random_plane(4, 2, 5)
    a = core.log(core.complete_frame(e), core.random_plane(4, 2, 6)).a
    tangent = json.dumps({"plane": serialize.plane_to_json(e), "tangent": serialize.matrix_to_json(a)})
    target = json.dumps({"plane": _plane(4, 2, 5), "target": _plane(4, 2, 6)})
    cut = json.dumps({"l": _columns(4, 0, 1), "s": _columns(4, 0, 2)})
    schubert = json.dumps({"w": _plane(5, 2, 3), "s": 1, "l": _plane(5, 2, 4)})
    conic = json.dumps({"n": 3, "k": 1, "terms": [
        {"idx": [2, 0, 0], "coef": 1.0}, {"idx": [0, 2, 0], "coef": -2.0},
        {"idx": [0, 0, 2], "coef": 0.5}, {"idx": [1, 1, 0], "coef": 0.3},
    ]})
    return {
        "angles": ["angles", "--json", pair],
        "distance": ["distance", "--json", pair],
        "exp": ["exp", "--json", tangent],
        "log": ["log", "--json", target],
        "geodesic": ["geodesic", "--t", "0.5", "--json", tangent],
        "plucker": ["plucker", "--json", json.dumps({"plane": _plane(5, 2, 1)})],
        "cut-stratum": ["cut-stratum", "--json", json.dumps({"l": _plane(4, 2, 5), "e": _plane(4, 2, 6)})],
        "subdiff-dim": ["subdiff-dim", "--json", cut],
        "subdiff-zero-test": ["subdiff-zero-test", "--json", cut],
        "ey": ["ey", "--rank", "1", "--json", '{"rows": 2, "cols": 2, "a": [[3, 0], [0, 1]]}'],
        "schubert-critical": ["schubert-critical", "--json", schubert],
        "schubert-min": ["schubert-min", "--json", schubert],
        "schubert-max": ["schubert-max", "--seed", "4", "--json", schubert],
        "gdc-sample": ["gdc-sample", "--trials", "1", "--starts", "2", "--seed", "0", "--json", conic],
        "bound": ["bound", "--k", "2", "--n", "5", "--d", "3"],
        "g24-demo": ["g24-demo", "--grid", "201", "--beta", "0.7", "--beta", "2.5"],
    }


# every command loads the package, its errors and serialize, plus these
_PLANES = {"core"}
_CUT_LOCUS = {"core", "cutlocus"}
_SCHUBERT = {"core", "lowrank", "schubert"}
COMMAND_MODULES = {
    "angles": _PLANES,
    "distance": _PLANES,
    "exp": _PLANES,
    "log": _PLANES,
    "geodesic": _PLANES,
    "plucker": _PLANES,
    "cut-stratum": _CUT_LOCUS,
    "subdiff-dim": _CUT_LOCUS,
    "subdiff-zero-test": _CUT_LOCUS,
    "ey": {"lowrank"},
    "schubert-critical": _SCHUBERT,
    "schubert-min": _SCHUBERT | {"cutlocus"},
    "schubert-max": _SCHUBERT | {"cutlocus"},
    "gdc-sample": {"core", "search"},
    "bound": {"bounds"},
    "g24-demo": {"bounds"},
}
# the commands that compute on Python floats and integers alone
NUMPY_FREE = {"bound", "g24-demo"}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_imports_only_the_modules_it_runs(command):
    # a cold `python -m grasscrit.cli` process, its imports read from
    # -X importtime on stderr ("import time: self | cumulative | name")
    proc = _python("-X", "importtime", "-m", "grasscrit.cli", *_command_argvs()[command])
    assert json.loads(proc.stdout)["command"] == command
    names = set()
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[0].startswith("import time:"):
            names.add(parts[2])
    grasscrit = {name for name in names if name.split(".")[0] == "grasscrit"}
    expected = {"grasscrit", "grasscrit.errors", "grasscrit.serialize"}
    assert grasscrit == expected | {f"grasscrit.{m}" for m in COMMAND_MODULES[command]}
    assert not {name for name in names if name.split(".")[0] == "scipy"}
    numpy = {name for name in names if name.split(".")[0] == "numpy"}
    assert bool(numpy) == (command not in NUMPY_FREE), sorted(numpy)[:5]
    if command in NUMPY_FREE:
        # dataclasses pulls in inspect, about half of the bounds import
        assert "dataclasses" not in names


BOUND_REFUSAL_PROBE = """
import contextlib, io, json, sys
from grasscrit import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["bound", "--k", "50", "--n", "100", "--d", "2"])
numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
print(json.dumps({"code": code, "error": json.loads(out.getvalue())["error"]["code"], "numpy": numpy}))
"""


def test_bound_refusal_loads_no_numpy():
    result = json.loads(_python("-c", BOUND_REFUSAL_PROBE).stdout)
    assert result == {"code": 2, "error": "DomainError", "numpy": []}


LAZY_PROBE = """
import json, sys
import grasscrit
loaded = sorted(m for m in sys.modules if m.startswith("grasscrit."))
modules = [grasscrit.search.__name__, grasscrit.bounds.__name__]
from grasscrit import core
namespace = {}
exec("from grasscrit import *", namespace)
try:
    grasscrit.solver
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "loaded": loaded, "modules": modules, "core": core.__name__,
    "star": sorted(k for k in namespace if k != "__builtins__"),
    "missing": missing,
}))
"""


def test_package_import_loads_no_submodule():
    result = json.loads(_python("-c", LAZY_PROBE).stdout)
    assert result["loaded"] == []
    assert result["modules"] == ["grasscrit.search", "grasscrit.bounds"]
    assert result["core"] == "grasscrit.core"
    assert result["star"] == [
        "bounds", "core", "cutlocus", "errors", "lowrank", "schubert", "search", "serialize",
    ]
    assert result["missing"] == "module 'grasscrit' has no attribute 'solver'"


SERIALIZE_PROBE = """
import json, sys
from grasscrit import serialize
text = serialize.canonical_dumps({"a": [1, 2.5, None, True, "x", (float("inf"),)], "b": {"c": -0.0}})
print(json.dumps({"text": text, "numpy": sorted(m for m in sys.modules if m.split(".")[0] == "numpy")}))
"""


def test_serialize_plain_values_load_no_numpy():
    result = json.loads(_python("-c", SERIALIZE_PROBE).stdout)
    assert result["text"] == '{"a":[1,2.5,null,true,"x",["inf"]],"b":{"c":-0}}'
    assert result["numpy"] == []
