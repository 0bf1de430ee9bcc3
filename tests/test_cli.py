import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grasscrit import cli, core, search, serialize

from conftest import framed


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def plane_json(plane):
    return serialize.plane_to_json(plane)


@pytest.fixture
def g25_pair():
    e1 = core.random_plane(5, 2, 1)
    e2 = core.random_plane(5, 2, 2)
    return e1, e2


class TestBasicCommands:
    def test_distance_report(self, capsys, g25_pair):
        e1, e2 = g25_pair
        doc = json.dumps({"e1": plane_json(e1), "e2": plane_json(e2)})
        code, out = run(capsys, "distance", "--json", doc)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == "13"
        assert abs(report["delta"] - core.grassmann_distance(e1, e2)) < 1e-12

    def test_angles(self, capsys, g25_pair):
        e1, e2 = g25_pair
        doc = json.dumps({"e1": plane_json(e1), "e2": plane_json(e2)})
        code, out = run(capsys, "angles", "--json", doc)
        assert code == 0
        angles = json.loads(out)["angles"]
        assert np.allclose(angles, core.principal_angles(e1, e2), atol=1e-12)

    def test_exp_log_roundtrip_through_json(self, capsys, g25_pair):
        e1, e2 = g25_pair
        doc = json.dumps({"plane": plane_json(e1), "target": plane_json(e2)})
        code, out = run(capsys, "log", "--json", doc)
        assert code == 0
        rep = json.loads(out)
        doc2 = json.dumps({"plane": plane_json(e1), "tangent": rep["tangent"]})
        code2, out2 = run(capsys, "exp", "--json", doc2)
        assert code2 == 0
        back = serialize.plane_from_json(json.loads(out2)["plane"])
        assert core.grassmann_distance(back, e2) < 1e-9

    def test_geodesic_midpoint(self, capsys, g25_pair):
        e1, e2 = g25_pair
        frame = framed(e1)
        tan = core.log(frame, e2)
        doc = json.dumps(
            {"plane": plane_json(e1), "tangent": serialize.matrix_to_json(tan.a)}
        )
        code, out = run(capsys, "geodesic", "--t", "0.5", "--json", doc)
        assert code == 0
        mid = serialize.plane_from_json(json.loads(out)["plane"])
        d = core.grassmann_distance(e1, mid)
        assert abs(d - 0.5 * core.grassmann_distance(e1, e2)) < 1e-9

    @pytest.mark.parametrize("t", ["inf", "-inf", "nan", "1e308"])
    def test_geodesic_rejects_non_finite_or_overflowing_t(self, capsys, g25_pair, t):
        # a non-finite t, or one whose exponential overflows, is a typed
        # validation error with no numpy warning (the suite turns
        # warnings into errors); "--t=-inf" keeps argparse from reading
        # "-inf" as an option
        e1, e2 = g25_pair
        tan = core.log(framed(e1), e2)
        doc = json.dumps({"plane": plane_json(e1), "tangent": serialize.matrix_to_json(tan.a)})
        code = cli.main(["geodesic", f"--t={t}", "--json", doc])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        payload = json.loads(captured.out)
        assert set(payload) == {"error"}
        assert payload["error"]["code"] == "DomainError"
        assert captured.err == ""

    def test_exp_rejects_overflowing_tangent_under_warnings_as_errors(self):
        # on G(1,3) the tangent [[1e200], [0]] overflows A^T A in the
        # exponential kernel: a cold process run with -W error reports a
        # typed DomainError (exit 2) instead of dying on a numpy
        # RuntimeWarning (exit 1)
        doc = json.dumps({
            "plane": plane_json(core.make_plane(np.eye(3)[:, :1])),
            "tangent": serialize.matrix_to_json(np.array([[1e200], [0.0]])),
        })
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "grasscrit.cli", "exp", "--json", doc],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == cli.EXIT_VALIDATION
        assert json.loads(proc.stdout)["error"]["code"] == "DomainError"
        assert proc.stderr == ""

    def test_plucker_and_cut_stratum(self, capsys, g25_pair):
        e1, e2 = g25_pair
        code, out = run(capsys, "plucker", "--json", json.dumps({"plane": plane_json(e1)}))
        assert code == 0
        assert abs(np.linalg.norm(json.loads(out)["coords"]) - 1.0) < 1e-12
        code, out = run(
            capsys, "cut-stratum", "--json", json.dumps({"l": plane_json(e1), "e": plane_json(e2)})
        )
        assert code == 0
        assert json.loads(out)["j"] == 0

    def test_ey_command(self, capsys):
        a = np.diag([3.0, 1.0])
        doc = json.dumps(serialize.matrix_to_json(a))
        code, out = run(capsys, "ey", "--rank", "1", "--json", doc)
        assert code == 0
        rep = json.loads(out)
        assert len(rep["critical_points"]) == 2
        dists = sorted(r["distance"] for r in rep["critical_points"])
        assert np.allclose(dists, [1.0, 3.0], atol=1e-12)

    def test_bound_command(self, capsys):
        code, out = run(capsys, "bound", "--k", "2", "--n", "4", "--d", "3")
        assert code == 0
        rep = json.loads(out)
        assert rep["c2"] == 18
        assert rep["c1_int"] == 2 * 2 * 2**28 * 17**10 * 40**18


class TestSchubertCommands:
    def setup_method(self):
        self.w = core.random_plane(5, 2, 3)
        self.l = core.random_plane(5, 2, 4)
        self.doc = json.dumps(
            {"w": plane_json(self.w), "s": 1, "l": plane_json(self.l)}
        )

    def test_min_value_formula(self, capsys):
        code, out = run(capsys, "schubert-min", "--json", self.doc)
        assert code == 0
        rep = json.loads(out)
        theta = core.principal_angles(self.w, self.l)
        assert abs(rep["value"] - float(theta[0])) < 1e-10
        assert rep["on_cut_j"] == 0

    def test_critical_records(self, capsys):
        code, out = run(capsys, "schubert-critical", "--json", self.doc)
        assert code == 0
        rep = json.loads(out)
        assert len(rep["records"]) == 2
        for record in rep["records"]:
            assert record["normality_residual"] < 1e-7

    def test_max_requires_seed_and_reports_stratum(self, capsys):
        code, out = run(capsys, "schubert-max", "--seed", "9", "--json", self.doc)
        assert code == 0
        rep = json.loads(out)
        assert rep["stratum_j"] == 1
        theta = core.principal_angles(self.w, self.l)
        expected = math.sqrt(float(theta[-1]) ** 2 + (math.pi / 2) ** 2)
        assert abs(rep["value"] - expected) < 1e-9


class TestSubdiffCommands:
    def test_dim_j1(self, capsys):
        l = core.random_plane(4, 2, 5)
        lf = framed(l)
        rng = np.random.default_rng(6)
        u = core._signed_qr(rng.standard_normal((2, 2)))
        v = core._signed_qr(rng.standard_normal((2, 2)))
        s = core.exp(lf, core.tangent(lf, u @ np.diag([0.5, math.pi / 2]) @ v.T))
        doc = json.dumps({"l": plane_json(l), "s": plane_json(s)})
        code, out = run(capsys, "subdiff-dim", "--json", doc)
        assert code == 0
        rep = json.loads(out)
        assert rep["j"] == 1 and rep["dimension"] == 1

    def test_zero_test_antipodal_circle(self, capsys):
        l = core.make_plane([[1.0], [0.0]])
        s = core.make_plane([[0.0], [1.0]])
        doc = json.dumps({"l": plane_json(l), "s": plane_json(s)})
        code, out = run(capsys, "subdiff-zero-test", "--json", doc)
        assert code == 0
        rep = json.loads(out)
        assert rep["found"] is True and rep["outcome"] == "witness"
        assert rep["witness"] == [[0.0]]


class TestErrorPaths:
    def test_malformed_json_is_parse_error(self, capsys):
        code, out = run(capsys, "distance", "--json", "{not json")
        assert code == cli.EXIT_PARSE
        assert json.loads(out)["error"]["code"] == "ParseError"

    def test_missing_input_is_parse_error(self, capsys):
        code, out = run(capsys, "distance")
        assert code == cli.EXIT_PARSE

    def test_rank_deficient_basis_is_validation_error(self, capsys):
        bad = {"n": 4, "k": 2, "basis": [[1, 1], [1, 1], [0, 0], [0, 0]]}
        doc = json.dumps({"e1": bad, "e2": bad})
        code, out = run(capsys, "distance", "--json", doc)
        assert code == cli.EXIT_VALIDATION
        assert json.loads(out)["error"]["code"] == "RankDeficient"

    def test_on_cut_log_is_validation_error(self, capsys):
        e1 = {"n": 4, "k": 2, "basis": [[1, 0], [0, 1], [0, 0], [0, 0]]}
        e2 = {"n": 4, "k": 2, "basis": [[0, 0], [0, 1], [1, 0], [0, 0]]}
        code, out = run(capsys, "log", "--json", json.dumps({"plane": e1, "target": e2}))
        assert code == cli.EXIT_VALIDATION
        assert json.loads(out)["error"]["code"] == "OnCutLocus"

    def test_unknown_command_is_parse_error(self, capsys):
        code, _ = run(capsys, "frobnicate")
        assert code == cli.EXIT_PARSE

    def test_nonpositive_tolerance_is_validation_error(self, capsys, g25_pair):
        e1, e2 = g25_pair
        doc = json.dumps({"plane": plane_json(e1), "target": plane_json(e2)})
        code, out = run(capsys, "log", "--tol-cut=-1e-9", "--json", doc)
        assert code == cli.EXIT_VALIDATION

    def test_inhomogeneous_hypersurface_rejected(self, capsys):
        doc = json.dumps(
            {
                "n": 2,
                "k": 1,
                "terms": [
                    {"idx": [1, 0], "coef": 1.0},
                    {"idx": [2, 0], "coef": 1.0},
                ],
            }
        )
        code, out = run(
            capsys, "gdc-sample", "--trials", "1", "--starts", "2", "--seed", "0",
            "--json", doc,
        )
        assert code == cli.EXIT_PARSE
        assert json.loads(out)["error"]["code"] == "ParseError"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--grid", "0"], "DimensionError"),
        (["--grid", "1"], "DimensionError"),
        (["--grid", "-3"], "DimensionError"),
        # no grid point with |beta * y1| < 1 (beta = 2 is a default beta)
        (["--grid", "2"], "DomainError"),
        (["--beta", "1e6", "--grid", "200"], "DomainError"),
        (["--beta", "nan"], "DomainError"),
        (["--beta", "inf"], "DomainError"),
    ],
)
def test_g24_demo_without_finite_scan_is_validation_error(capsys, argv, error):
    code = cli.main(["g24-demo", *argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    assert json.loads(captured.out)["error"]["code"] == error
    assert "Traceback" not in captured.err


def _bad_seed_and_grid_inputs():
    w = plane_json(core.random_plane(5, 2, 3))
    l = plane_json(core.random_plane(5, 2, 4))
    hyper = {"n": 2, "k": 1, "terms": [{"idx": [1, 0], "coef": 1.0}]}

    def orthogonal_pair(k):  # every principal angle a right angle: j = k
        eye = np.eye(2 * k)
        return {
            "l": plane_json(core.make_plane(eye[:, :k])),
            "s": plane_json(core.make_plane(eye[:, k:])),
        }

    j2, j3 = orthogonal_pair(2), orthogonal_pair(3)
    valid, parse = cli.EXIT_VALIDATION, cli.EXIT_PARSE
    # subdiff-zero-test samples no orthogonal group, so it has no
    # --seed or --grid option: those are command-line errors
    return {
        "schubert-max-seed": (["schubert-max", "--seed", "-1"], {"w": w, "s": 1, "l": l}, valid),
        "gdc-sample-seed": (
            ["gdc-sample", "--trials", "1", "--starts", "2", "--seed", "-1"], hyper, valid
        ),
        "subdiff-dim-seed": (["subdiff-dim", "--seed", "-2"], j3, valid),
        "subdiff-zero-test-seed": (["subdiff-zero-test", "--seed", "-2"], j3, parse),
        "subdiff-dim-grid": (["subdiff-dim", "--grid", "-3"], j2, valid),
        "subdiff-zero-test-grid": (["subdiff-zero-test", "--grid", "-3"], j2, parse),
        "subdiff-zero-test-grid-0": (["subdiff-zero-test", "--grid", "0"], j2, parse),
    }


@pytest.mark.parametrize("case", sorted(_bad_seed_and_grid_inputs()))
def test_negative_seed_or_empty_grid_is_validation_error(capsys, case):
    argv, doc, exit_code = _bad_seed_and_grid_inputs()[case]
    code = cli.main([*argv, "--json", json.dumps(doc)])
    captured = capsys.readouterr()
    assert code == exit_code
    error = json.loads(captured.out)["error"]
    assert set(error) == {"code", "message", "path"}
    if exit_code == cli.EXIT_PARSE:
        assert error["code"] == "ParseError"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "tangent_basis, error",
    [
        ([], "DimensionMismatch"),
        ([{"rows": 2, "cols": 1, "a": [[1.0], [0.0]]}], "DimensionError"),
        ([{"rows": 1, "cols": 1, "a": [[1.0]]}, {"rows": 1, "cols": 2, "a": [[1.0, 0.0]]}],
         "DimensionError"),
        ([{"rows": 1, "cols": 1, "a": [[float("nan")]]}], "DimensionError"),
        ([{"rows": 1, "cols": 1, "a": [[2.0]]}], "DimensionMismatch"),
        ([{"rows": 1, "cols": 1, "a": [[1.0]]}, {"rows": 1, "cols": 1, "a": [[1.0]]}],
         "DimensionMismatch"),
    ],
    ids=["empty", "wrong-shape", "ragged", "non-finite", "not-unit", "not-orthogonal"],
)
def test_bad_tangent_basis_is_validation_error(capsys, tangent_basis, error):
    doc = {
        "l": {"n": 2, "k": 1, "basis": [[1], [0]]},
        "s": {"n": 2, "k": 1, "basis": [[0], [1]]},
        "tangent_basis": tangent_basis,
    }
    code, out = run(capsys, "subdiff-zero-test", "--json", json.dumps(doc))
    assert code == cli.EXIT_VALIDATION
    assert json.loads(out)["error"]["code"] == error


def test_default_and_explicit_identity_basis_agree(capsys):
    # the default basis is the stacked identity in row-major order
    l = core.random_plane(4, 2, 5)
    lf = framed(l)
    rng = np.random.default_rng(6)
    u = core._signed_qr(rng.standard_normal((2, 2)))
    v = core._signed_qr(rng.standard_normal((2, 2)))
    s = core.exp(lf, core.tangent(lf, u @ np.diag([0.5, math.pi / 2]) @ v.T))
    doc = {"l": plane_json(l), "s": plane_json(s)}
    _, default = run(capsys, "subdiff-zero-test", "--json", json.dumps(doc))
    basis = [serialize.matrix_to_json(e.reshape(2, 2)) for e in np.eye(4)]
    _, explicit = run(
        capsys, "subdiff-zero-test", "--json", json.dumps(dict(doc, tangent_basis=basis))
    )
    assert json.loads(default)["j"] == 1
    assert default == explicit


def _malformed_inputs():
    w = plane_json(core.random_plane(5, 2, 3))
    l = plane_json(core.random_plane(5, 2, 4))
    plane = {"n": 4, "k": 2, "basis": [[1, 0], [0, 1], [0, 0], [0, 0]]}
    line = {"n": 2, "k": 1, "basis": [[1], [0]]}
    hyper = {"n": 2, "k": 1, "terms": [{"idx": [1, 0], "coef": 1.0}]}
    gdc = ["gdc-sample", "--trials", "1", "--starts", "2", "--seed", "0"]

    def with_term(**field):
        return dict(hyper, terms=[dict(hyper["terms"][0], **field)])

    def conic(*exponents):
        return {"n": 3, "k": 1, "terms": [{"idx": e, "coef": 1.0} for e in exponents]}

    return {
        "s-string": (["schubert-min"], {"w": w, "s": "one", "l": l}),
        "s-list": (["schubert-critical"], {"w": w, "s": [1], "l": l}),
        "plane-n-string": (["distance"], {"e1": dict(plane, n="four"), "e2": plane}),
        "plane-n-fraction": (["distance"], {"e1": dict(plane, n=4.5), "e2": plane}),
        "hypersurface-n-string": (gdc, dict(hyper, n="x")),
        "hypersurface-idx-number": (gdc, with_term(idx=5)),
        "hypersurface-idx-huge": (gdc, with_term(idx=[10**20, 0])),
        # exponents that fit numpy's index type, but whose index tables
        # would not fit in memory, or whose degree sum overflows it
        "hypersurface-degree-huge": (gdc, conic([10**18, 0, 0], [0, 10**18, 0])),
        "hypersurface-degree-overflow": (gdc, conic([2**62, 2**62, 0], [0, 2**62, 2**62])),
        "hypersurface-coef-string": (gdc, with_term(coef="abc")),
        "tangent-basis-number": (
            ["subdiff-zero-test"],
            {"l": line, "s": {"n": 2, "k": 1, "basis": [[0], [1]]}, "tangent_basis": 5},
        ),
    }


@pytest.mark.parametrize("case", sorted(_malformed_inputs()))
def test_malformed_field_is_parse_error(capsys, case):
    argv, doc = _malformed_inputs()[case]
    code, out = run(capsys, *argv, "--json", json.dumps(doc))
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"]["code"] == "ParseError"


def _bad_polynomials():
    def hyper(n=3, k=1, coefs=(1.0, 2.0)):  # three coordinates, as on G(1,3) and G(2,3)
        terms = [{"idx": [int(i == j) for j in range(3)], "coef": c} for i, c in enumerate(coefs)]
        return {"n": n, "k": k, "terms": terms}

    valid, parse = cli.EXIT_VALIDATION, cli.EXIT_PARSE
    return {
        "n-negative": (hyper(n=-3), valid, "DimensionError"),
        "k-above-half": (hyper(n=3, k=2), valid, "DimensionError"),
        "coef-nan": (hyper(coefs=(math.nan, 1.0)), parse, "ParseError"),
        "coef-infinity": (hyper(coefs=(math.inf, 1.0)), parse, "ParseError"),
        "coefs-all-zero": (hyper(coefs=(0.0, 0.0)), parse, "ParseError"),
    }


@pytest.mark.parametrize("case", sorted(_bad_polynomials()))
def test_bad_polynomial_is_typed_error(capsys, case):
    # JSON accepts NaN and Infinity; such a hypersurface, an all-zero one
    # and one off the standing range 1 <= k <= n - k are rejected before
    # any trial runs
    doc, exit_code, error = _bad_polynomials()[case]
    argv = ["gdc-sample", "--trials", "1", "--starts", "2", "--seed", "0"]
    code = cli.main([*argv, "--json", json.dumps(doc)])
    captured = capsys.readouterr()
    assert code == exit_code
    payload = json.loads(captured.out)
    assert set(payload) == {"error"}
    assert payload["error"]["code"] == error
    assert "Traceback" not in captured.err


def _infinite_positive_options():
    l = plane_json(core.random_plane(4, 2, 5))
    s = plane_json(core.random_plane(4, 2, 6))
    pair = json.dumps({"l": l, "s": s})
    hyper = json.dumps({"n": 3, "k": 1, "terms": [
        {"idx": [2, 0, 0], "coef": 1.0}, {"idx": [0, 2, 0], "coef": -2.0},
        {"idx": [0, 0, 2], "coef": 0.5},
    ]})
    return {
        "gdc-sample-tol": (
            ["gdc-sample", "--trials", "1", "--starts", "2", "--seed", "0", "--tol", "inf",
             "--json", hyper],
            "DomainError",
        ),
        "log-tol-cut": (
            ["log", "--tol-cut", "inf", "--json", json.dumps({"plane": l, "target": s})],
            "DomainError",
        ),
        "cut-stratum-tol-cut": (["cut-stratum", "--tol-cut", "inf", "--json", pair], "DomainError"),
        "subdiff-dim-tol-rank": (["subdiff-dim", "--tol-rank", "inf", "--json", pair], "DomainError"),
        "subdiff-zero-test-tol": (
            ["subdiff-zero-test", "--tol", "inf", "--json", pair], "DomainError"
        ),
        "bound-c": (["bound", "--k", "2", "--n", "4", "--d", "3", "--c", "inf"], "DomainError"),
        "bound-c-nan": (["bound", "--k", "2", "--n", "4", "--d", "3", "--c", "nan"], "DomainError"),
    }


@pytest.mark.parametrize("case", sorted(_infinite_positive_options()))
def test_infinite_positive_option_is_validation_error(capsys, case):
    # an infinite tolerance would let every finite residual through, and
    # an infinite bound factor gives a report of "inf" values
    argv, error = _infinite_positive_options()[case]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    payload = json.loads(captured.out)
    assert set(payload) == {"error"}
    assert payload["error"]["code"] == error
    assert "finite and positive" in payload["error"]["message"]


@pytest.mark.parametrize("command", ["log", "cut-stratum"])
@pytest.mark.parametrize("value", ["2", repr(math.pi / 2), "1e300"])
def test_tol_cut_at_or_above_right_angle_is_validation_error(capsys, command, value):
    # every principal angle lies within pi/2 of pi/2, so such a tolerance
    # would put every plane on the cut locus, the base plane itself too
    l = plane_json(core.random_plane(4, 2, 5))
    doc = {"log": {"plane": l, "target": l}, "cut-stratum": {"l": l, "e": l}}[command]
    code, out = run(capsys, command, "--tol-cut", value, "--json", json.dumps(doc))
    assert code == cli.EXIT_VALIDATION
    assert json.loads(out)["error"]["code"] == "DomainError"


class TestDeterminism:
    def _slice_doc(self):
        phi = 0.8
        a = [math.cos(phi), math.sin(phi)]
        b = [-math.sin(phi), math.cos(phi)]
        return json.dumps(
            {
                "n": 2,
                "k": 1,
                "terms": [
                    {"idx": [2, 0], "coef": a[0] * b[0]},
                    {"idx": [1, 1], "coef": a[0] * b[1] + a[1] * b[0]},
                    {"idx": [0, 2], "coef": a[1] * b[1]},
                ],
            }
        )

    def test_gdc_sample_byte_identical(self, capsys):
        argv = ["gdc-sample", "--trials", "2", "--starts", "6", "--seed", "3",
                "--json", self._slice_doc()]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["max_count"] == 2

    def test_g24_demo_byte_identical(self, capsys):
        code1, out1 = run(capsys, "g24-demo", "--beta", "1.0", "--grid", "201")
        code2, out2 = run(capsys, "g24-demo", "--beta", "1.0", "--grid", "201")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_schubert_max_byte_identical(self, capsys):
        w = core.random_plane(5, 2, 3)
        l = core.random_plane(5, 2, 4)
        doc = json.dumps({"w": plane_json(w), "s": 1, "l": plane_json(l)})
        _, out1 = run(capsys, "schubert-max", "--seed", "11", "--json", doc)
        _, out2 = run(capsys, "schubert-max", "--seed", "11", "--json", doc)
        assert out1 == out2

    def test_float_roundtrip_17_digits(self, capsys, g25_pair):
        e1, e2 = g25_pair
        doc = json.dumps({"e1": plane_json(e1), "e2": plane_json(e2)})
        _, out = run(capsys, "distance", "--json", doc)
        value = json.loads(out)["delta"]
        assert value == core.grassmann_distance(e1, e2)


class TestSerialization:
    def test_numpy_values_write_as_python_values(self):
        # numpy scalars and 0-d, 1-d and 2-d arrays, nested in dicts and
        # lists, are written as the Python values of their tolist()
        cases = [
            (np.int64(-7), "-7"),
            (np.float64(0.1), "0.10000000000000001"),
            (np.float32(0.1), "0.10000000149011612"),
            (np.array(2.5), "2.5"),
            (np.array(3), "3"),
            (np.array([1.0, np.inf, -0.0]), '[1,"inf",-0]'),
            (np.array([[1, 2], [3, 4]], dtype=np.int32), "[[1,2],[3,4]]"),
            (
                np.arange(6, dtype=np.float32).reshape(2, 3) / 3,
                "[[0,0.3333333432674408,0.66666668653488159],"
                "[1,1.3333333730697632,1.6666666269302368]]",
            ),
            (np.array([True, False]), "[true,false]"),
            (
                [{"a": np.float64(np.nan), "b": [np.int8(3), np.array([np.float32(1e-8)])]},
                 (np.uint64(2**63),)],
                '[{"a":"nan","b":[3,[9.9999999392252903e-09]]},[9223372036854775808]]',
            ),
        ]
        for value, text in cases:
            assert serialize.canonical_dumps(value) == text
            assert serialize.canonical_dumps({"v": [value]}) == '{"v":[' + text + "]}"
        assert serialize.canonical_dumps([np.bool_(True), np.False_]) == "[true,false]"

    def test_canonical_floats(self):
        text = serialize.canonical_dumps({"x": 0.1, "y": float("inf"), "z": 1.0})
        assert '"x":0.10000000000000001' in text
        assert '"y":"inf"' in text

    def test_sorted_keys(self):
        assert serialize.canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_plane_roundtrip(self):
        p = core.random_plane(6, 2, 9)
        q = serialize.plane_from_json(json.loads(json.dumps(serialize.plane_to_json(p))))
        assert core.grassmann_distance(p, q) < 1e-12

    def test_schema_errors(self):
        with pytest.raises(Exception):
            serialize.plane_from_json({"n": 4, "k": 2})

    def test_polynomial_roundtrip(self):
        # a G(2,4) quadric through its canonical JSON text and back gives
        # the same terms and the same gdc_estimate report
        rng = np.random.default_rng(4)
        terms = {}
        for i, j in rng.integers(0, 6, (8, 2)):
            e = [0] * 6
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = float(rng.standard_normal())
        p = search.PluckerPolynomial(n=4, k=2, terms=tuple(terms.items()))
        doc = {"n": p.n, "k": p.k, "terms": [{"idx": list(e), "coef": c} for e, c in p.terms]}
        text = serialize.canonical_dumps(doc)
        q = serialize.polynomial_from_json(json.loads(text))
        assert (q.n, q.k, q.terms) == (p.n, p.k, p.terms)
        report = search.gdc_estimate(p, trials=2, n_starts=4, seed=3).to_dict()
        assert search.gdc_estimate(q, trials=2, n_starts=4, seed=3).to_dict() == report
