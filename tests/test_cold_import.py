"""The CLI's cold start: commands that never solve load no scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the cli_cold benchmark's commands and the cut-locus zero test (at
# a point with two right angles) in one fresh interpreter and prints
# their exit codes and the scipy modules loaded afterwards
PROBE = """
import contextlib, io, json, sys
import numpy as np
from grasscrit import cli, core, serialize

def plane(n, k, seed):
    return serialize.plane_to_json(core.random_plane(n, k, seed))

def columns(*idx):  # coordinate plane of R^7
    return serialize.plane_to_json(core.make_plane(np.eye(7)[:, list(idx)]))

argvs = [
    ["distance", "--json", json.dumps({"e1": plane(5, 2, 1), "e2": plane(5, 2, 2)})],
    ["angles", "--json", json.dumps({"e1": plane(7, 3, 3), "e2": plane(7, 3, 4)})],
    ["bound", "--k", "2", "--n", "5", "--d", "3"],
    ["g24-demo", "--grid", "201", "--beta", "0.7", "--beta", "2.5"],
    ["subdiff-zero-test", "--json", json.dumps({"l": columns(0, 1, 2), "s": columns(0, 3, 4)})],
]
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_cli_commands_without_solver_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["scipy"] == []
