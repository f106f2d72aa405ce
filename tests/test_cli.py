"""CLI surface: symbol parsing, subcommands, config runner, determinism."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargspec.bargmann import MonomialSymbol
from bargspec.cli import ParseError, main, parse_symbol
from bargspec.spectral import multiwell_compare

# (1 + 0.3i) |z^2 - 1|^2: wells at z = +-1 sharing the level 0
TWO_WELL = '{"2,2": [1, 0.3], "2,0": [-1, -0.3], "0,2": [-1, -0.3], "0,0": [1, 0.3]}'


class TestParseSymbol:
    def test_json_map(self):
        sym = parse_symbol('{"1,1":[1,0]}')
        assert sym.coeffs == {(1, 1): 1.0}

    def test_shorthand_pq(self):
        sym = parse_symbol("p^2+q^2")
        assert sym.coeffs == {(1, 1): 2.0}

    def test_shorthand_builtin_units(self):
        assert parse_symbol("|z|^2").coeffs == {(1, 1): 1.0}
        assert parse_symbol("z*zbar").coeffs == {(1, 1): 1.0}
        assert parse_symbol("|z|^4").coeffs == {(2, 2): 1.0}

    def test_shorthand_coefficients(self):
        sym = parse_symbol("2*|z|^2 - 0.5*z^2")
        assert sym.coeffs[(1, 1)] == 2.0
        assert sym.coeffs[(2, 0)] == -0.5

    def test_complex_coefficient(self):
        sym = parse_symbol("(1+0.3j)*|z|^4")
        assert sym.coeffs[(2, 2)] == 1 + 0.3j

    def test_leading_sign(self):
        assert parse_symbol("-p^2-q^2").coeffs == {(1, 1): -2.0}
        assert parse_symbol("+z^2").coeffs == {(2, 0): 1.0}

    @pytest.mark.parametrize("text", ["--p^2", "p^2 +- q^2", "p^2 -+ q^2", "p^2 + -q^2", "p^2+", "-"])
    def test_run_of_signs_raises(self, text):
        with pytest.raises(ParseError, match="sign"):
            parse_symbol(text)

    def test_malformed_complex_raises(self):
        with pytest.raises(ParseError):
            parse_symbol('{"1,1":[1]}')

    def test_unknown_unit_raises(self):
        with pytest.raises(ParseError):
            parse_symbol("p^3+q^2")

    def test_bad_json_raises_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_symbol('{"1,1": [1, 0')
        assert "line" in str(err.value)

    def test_round_trip(self):
        sym = parse_symbol("p^2+q^2")
        assert parse_symbol(sym.to_json()).coeffs == sym.coeffs


class TestSubcommands:
    def test_spectrum_stdout(self, capsys):
        rc = main(["spectrum", "--symbol", "p^2+q^2", "--hbar", "0.1", "--count", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "0.2,0.0"

    def test_spectrum_to_file(self, tmp_path, capsys):
        out = tmp_path / "eig.csv"
        rc = main(
            ["spectrum", "--symbol", "|z|^2", "--hbar", "0.1", "--count", "2", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().splitlines() == ["0.1,0.0", "0.2,0.0"]

    def test_action_exit_codes(self, capsys):
        assert main(["action", "--d", "1,0", "--energy", "0.3,0", "--winding", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"][0] == pytest.approx(2 * np.pi * 0.3)
        # the closed-form check is relative: |value| ~ 1.8e9 here
        assert main(["action", "--d", "1e-9,2e-9", "--energy", "0.3,-0.1", "--winding", "2"]) == 0

    def test_normal_form_json(self, capsys):
        rc = main(["normal-form", "--symbol", "p^2+q^2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d0"] == [pytest.approx(2.0), pytest.approx(0.0, abs=1e-12)]
        assert doc["zeta"][0] == pytest.approx(1.0)
        assert len(doc["kappa1"]) == 2  # row-major 2x2

    def test_normal_form_rejects_nonquadratic(self, capsys):
        assert main(["normal-form", "--symbol", "|z|^4"]) == 1

    def test_normal_form_hyperbolic_tolerance_exit(self, capsys):
        sym = '{"2,0":[1,0],"0,2":[1,0]}'  # p^2 - q^2 in z coordinates
        assert main(["normal-form", "--symbol", sym]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["pseudospec", "--symbol", "|z|^2+z^2", "--hbar", "0.1", "--rect", "-0.5,0.5,0,1", "--res", "3,3"],
            ["normal-form", "--symbol", "-p^2-q^2"],
            ["action", "--d", "-1,0", "--energy", "-0.3,0.1"],
            # a shift operator: the iterates of the normal equations once overflowed
            ["pseudospec", "--symbol", "z^2", "--hbar", "1", "--rect=0.51,-0.0,-0.0,-0.109", "--res", "2,2"],
        ],
        ids=["rect", "symbol", "action", "shift-operator"],
    )
    def test_values_starting_with_dash(self, argv, capsys):
        assert main(argv) == 0, capsys.readouterr().err

    def test_pseudospec_csv(self, tmp_path):
        out = tmp_path / "field.csv"
        rc = main(
            [
                "pseudospec",
                "--symbol",
                "|z|^2",
                "--hbar",
                "0.1",
                "--rect",
                "0.0,0.3,-0.1,0.1",
                "--res",
                "4,3",
                "--c",
                "0.2",
                "--n-max",
                "32",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_birkhoff_and_moser(self, capsys):
        assert main(["birkhoff", "--symbol", "|z|^2+|z|^4", "--degree", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mu0"][1] == [pytest.approx(1.0), pytest.approx(0.0)]
        assert doc["mu0"][2] == [pytest.approx(1.0), pytest.approx(0.0)]
        assert main(["moser", "--symbol", "z", "--order", "2", "--degree", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert max(abs(x[0]) + abs(x[1]) for p in doc["r_final"] for x in p) < 1e-12

    def test_multiwell_json_is_the_report(self, capsys):
        argv = ["multiwell", "--symbol", TWO_WELL, "--hbar", "0.1", "--wells", "1,-1", "--order", "2", "--degree", "8"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        rep = multiwell_compare(MonomialSymbol.from_json(TWO_WELL), 0.1, [1, -1], order=2, degree=8)

        def pairs(values):
            return [[z.real, z.imag] for z in np.asarray(values).tolist()]

        # every float round-trips through repr, so == is equality to the bit
        assert doc["wells"] == [
            {"location": [w.location.real, w.location.imag], "level": [w.level.real, w.level.imag],
             "d0": [w.d0.real, w.d0.imag], "corrected": w.corrected, "lattice": pairs(w.lattice)}
            for w in rep.wells
        ]
        assert doc["eigenvalues"] == pairs(rep.eigenvalues)
        assert doc["matches"] == [list(m) for m in rep.matches]
        assert doc["residuals"] == rep.residuals.tolist()
        assert doc["jordan_pairs"] == [list(j) for j in rep.jordan_pairs]
        assert doc["window_radius"] == rep.window_radius
        assert doc["n_max_used"] == rep.spectrum.n_max_used
        assert doc["convergence_gap"] == rep.spectrum.convergence_gap
        assert len(doc) == 8 and len(doc["matches"]) == 8

    def test_birkhoff_tiny_d0_prints_finite_json(self, capsys):
        # d0^10 underflows to 0; the zero coefficients of mu0 stay 0, not NaN
        assert main(["birkhoff", "--symbol", '{"1,1":[1e-40,0],"2,2":[1,0]}', "--degree", "10"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert doc["mu0"][2] == [pytest.approx(1e80), 0.0]
        assert doc["mu0"][3:] == [[0.0, 0.0]] * 8

    def test_birkhoff_pinned_output(self, capsys):
        # a well with a non-diagonal Hessian; the values of the classical
        # degree-by-degree loop with its Poisson Lie series
        sym = '{"1,1":[1,0.2],"2,0":[0.2,0.1],"0,2":[-0.1,0.05],"3,0":[0.3,0],"2,1":[0.1,-0.2],"1,3":[0,0.1],"2,2":[0.05,0]}'
        assert main(["birkhoff", "--symbol", sym, "--degree", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        mu0 = [
            [0.0, 0.0],
            [1.0000000000000004, 0.0],
            [0.07583571455774536, -0.06442215503711947],
            [0.032450918924785604, -0.0630367514683322],
            [-0.018310634744134996, 0.007815601362532487],
        ] + [[0.0, 0.0]] * 4
        linear_map = [
            [[-0.8196620256432064, 0.5384365636654485], [0.03481238090505498, -0.09929273644028773]],
            [[-0.1390378840578403, -0.16295811818292988], [-0.8297843919075881, -0.5550077156498451]],
        ]
        np.testing.assert_allclose(doc["mu0"], mu0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(doc["d0"], [1.0471295820149202, 0.1909983286071945], rtol=0, atol=1e-14)
        np.testing.assert_allclose(doc["linear_map"], linear_map, rtol=0, atol=1e-14)


class TestConfigRunner:
    def make_config(self, tmp_path, tasks):
        cfg = {
            "seed": 0,
            "out_dir": str(tmp_path / "out"),
            "hbar": [0.1],
            "n_max": 32,
            "symbol": {"shorthand": "p^2+q^2"},
            "tasks": tasks,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_spectrum_task_and_manifest(self, tmp_path, capsys):
        path = self.make_config(
            tmp_path,
            [
                {"type": "spectrum", "count": 3, "out": "eig.csv"},
                {"type": "action", "d": [1.0, 0.0], "energy": [0.2, 0.0], "out": "action.json"},
            ],
        )
        assert main(["run", "--config", str(path)]) == 0
        out_dir = tmp_path / "out"
        eig = (out_dir / "eig.csv").read_text()
        assert eig.splitlines()[0] == "0.2,0.0"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["artifacts"]) == 2
        for item in manifest["artifacts"]:
            data = (tmp_path / item["path"]).read_bytes() if not item["path"].startswith("/") else open(item["path"], "rb").read()
            assert hashlib.sha256(data).hexdigest() == item["sha256"]
        # the run's action artifact is the document the subcommand prints
        capsys.readouterr()
        assert main(["action", "--d", "1.0,0.0", "--energy", "0.2,0.0"]) == 0
        assert (out_dir / "action.json").read_text() == capsys.readouterr().out

    def test_determinism_byte_identical(self, tmp_path):
        p1 = self.make_config(tmp_path, [{"type": "spectrum", "count": 4, "out": "eig.csv"}])
        main(["run", "--config", str(p1)])
        first = (tmp_path / "out" / "eig.csv").read_bytes()
        main(["run", "--config", str(p1)])
        assert (tmp_path / "out" / "eig.csv").read_bytes() == first

    def test_tolerance_failure_runs_remaining_tasks(self, tmp_path, capsys):
        # the first task fails a tolerance, the action task still runs and
        # the manifest lists its artifact
        cases = [
            # p^2 - q^2 has no normal form
            ({"2,0": [1, 0], "0,2": [1, 0]}, {"type": "normal-form"}, "nf.json"),
            # one of two wells: the other well's eigenvalues have no prediction
            (json.loads(TWO_WELL), {"type": "multiwell", "wells": [1]}, "multiwell.json"),
        ]
        for case, (symbol, task, artifact) in enumerate(cases):
            cfg = json.loads(self.make_config(tmp_path, []).read_text())
            out_dir = tmp_path / f"out{case}"
            cfg.update(out_dir=str(out_dir), symbol={"inline": symbol}, hbar=[0.05], tasks=[task, {"type": "action"}])
            path = tmp_path / "config.json"
            path.write_text(json.dumps(cfg))
            assert main(["run", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith("tolerance failure:")
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert [item["path"] for item in manifest["artifacts"]] == [str(out_dir / "action.json")]
            assert not (out_dir / artifact).exists()


def _config(doc):
    return ("config", doc)


_BASE = {"out_dir": "out", "hbar": [0.1], "n_max": 32, "symbol": {"shorthand": "p^2+q^2"}}
_SPECTRUM = [{"type": "spectrum"}]

# every input exits with its documented code and a one-line message
_PREFIX = {1: "config error: ", 2: "tolerance failure: ", 3: "convergence failure: "}
EXIT_CONTRACT = {
    "action-d-three-parts": (["action", "--d", "1,2,3", "--energy", "0.3,0"], 1),
    "action-d-nan": (["action", "--d", "nan", "--energy", "1"], 1),
    "action-d-inf": (["action", "--d", "inf", "--energy", "1"], 1),
    "action-energy-inf": (["action", "--d", "1,0", "--energy", "inf,0"], 1),
    # E/d overflows, so the closed form leaves the double range
    "action-root-overflow": (["action", "--d=1e-320,0", "--energy=1,0"], 3),
    "action-closed-form-overflow": (["action", "--d=1,0", "--energy=1e308,0", "--winding=3"], 3),
    "action-winding-past-doubles": (["action", "--d=1,0", "--energy=1,0", "--winding=1" + "0" * 400], 1),
    # 2 pi winding overflows, so the quadrature's angles are not finite
    "action-angle-overflow": (["action", "--d=1,0", "--energy=0,0", "--winding=1" + "0" * 308], 3),
    "pseudospec-inf-coefficient": (
        ["pseudospec", "--symbol", "1e400*p^2", "--hbar", "0.1", "--rect", "0,1,0,1", "--res", "2,2"], 1
    ),
    "symbol-is-directory": (["spectrum", "--symbol", ".", "--hbar", "0.1"], 1),
    "moser-negative-order": (["moser", "--symbol", "z", "--order", "-1"], 1),
    "birkhoff-negative-degree": (["birkhoff", "--symbol", "|z|^2+|z|^4", "--degree", "-1"], 1),
    "birkhoff-nonzero-constant": (["birkhoff", "--symbol", "1+|z|^2"], 1),
    # no normal form for the quadratic part: a tolerance failure, as in normal-form
    "birkhoff-non-elliptic": (["birkhoff", "--symbol", "p^2-q^2"], 2),
    # the Lie terms reach 2e17 and cancel to a residual of the result's size
    "birkhoff-digits-lost": (["birkhoff", "--symbol", '{"1,1":[1,0],"3,0":[1e3,0],"0,4":[1e5,0]}', "--degree", "8"], 3),
    "birkhoff-non-finite-term": (["birkhoff", "--symbol", '{"1,1":[1,0],"3,0":[1e300,0],"0,4":[1e300,0]}'], 3),
    "moser-non-finite": (["moser", "--order", "3", "--degree", "6", "--symbol", '{"1,0":[1e200,0]}'], 3),
    # mu0 at degree 5 is 1 / d0^5 = 1e350
    "birkhoff-mu0-out-of-range": (["birkhoff", "--symbol", '{"1,1":[1e-70,0],"5,5":[1,0]}', "--degree", "10"], 3),
    "symbol-run-of-signs": (["normal-form", "--symbol=--p^2"], 1),
    # "--" is the end-of-options marker in the = form too, so the option has no value
    "option-value-double-dash": (
        ["pseudospec", "--symbol", "p^2+q^2", "--hbar", "0.1", "--rect", "0,0,0,0", "--res", "2,2", "--n-max=--"], 1
    ),
    "symbol-sign-pair": (["normal-form", "--symbol", "p^2 +- q^2"], 1),
    # the reduction squares the entries of a form scaled to unit size
    "normal-form-large-coefficients": (["normal-form", "--symbol", '{"1,1":[1e200,0],"2,0":[1e155,0]}'], 0),
    # the trapezoid sum runs on E / d scaled to unit size, so it cannot overflow
    # below the closed form 6.3e307
    "action-large-mean": (["action", "--d=1,0", "--energy=1e307,0"], 0),
    # E and d are scaled to unit size first, so no digit is lost in the
    # subnormal range: not in E and d, nor in E / d = 1e-315 (1 - i)
    "action-subnormal": (["action", "--d=1e-320,1e-320", "--energy=1e-320,0"], 0),
    "action-subnormal-ratio": (["action", "--d=1,1e36", "--energy=1e-279,1e-279"], 0),
    "verify-index-13": (["verify", "--only", "13"], 1),
    # past the factorial-safe range of the band entries: rejected before any allocation
    "spectrum-n-max-oversized": (["spectrum", "--symbol", "p^2+q^2", "--hbar", "0.1", "--n-max", "20000000"], 1),
    "symbol-exponent-oversized": (["spectrum", "--symbol", '{"10000000,0":[1,0]}', "--hbar", "0.1"], 1),
    "missing-argument": (["spectrum", "--hbar", "0.1"], 1),
    # pq is hyperbolic: its truncations' eigenvalues keep moving up to the cap, n = 4096
    "spectrum-pq-at-the-cap": (["spectrum", "--symbol", "p*q", "--hbar", "0.1", "--count", "3"], 3),
    "run-symbol-path-missing": (_config({**_BASE, "symbol": {"path": "missing.json"}, "tasks": _SPECTRUM}), 1),
    "run-hbar-string": (_config({**_BASE, "hbar": ["a"], "tasks": _SPECTRUM}), 1),
    "run-hbar-out-of-range": (_config({**_BASE, "hbar": [1.5], "tasks": _SPECTRUM}), 1),
    "run-pseudospec-without-rect": (_config({**_BASE, "tasks": [{"type": "pseudospec", "res": [3, 3]}]}), 1),
    "run-action-d-three-parts": (_config({**_BASE, "tasks": [{"type": "action", "d": [1, 2, 3]}]}), 1),
    "run-tasks-object": (_config({**_BASE, "tasks": {"type": "spectrum"}}), 1),
    "run-top-level-list": (_config([{**_BASE, "tasks": _SPECTRUM}]), 1),
    "run-empty-tasks": (_config({**_BASE, "tasks": []}), 1),
    "run-unknown-task": (_config({**_BASE, "tasks": [{"type": "frobnicate"}]}), 1),
    "run-verify-index-99": (_config({**_BASE, "tasks": [{"type": "verify", "only": [99]}]}), 1),
    "run-n-max-oversized": (_config({**_BASE, "n_max": 20000000, "tasks": _SPECTRUM}), 1),
    # the birkhoff tolerance failure does not stop the run: the action task runs
    "run-birkhoff-non-elliptic": (
        _config({**_BASE, "symbol": {"shorthand": "p^2-q^2"}, "tasks": [{"type": "birkhoff"}, {"type": "action"}]}), 2
    ),
    "multiwell-well-not-critical": (["multiwell", "--symbol", TWO_WELL, "--hbar", "0.05", "--wells", "0.5"], 1),
    "multiwell-well-inf": (["multiwell", "--symbol", TWO_WELL, "--hbar", "0.05", "--wells", "inf"], 1),
    # finite wells whose recentred symbol leaves the double range: through
    # Python's complex power (1e200) and through a product (1e100)
    "multiwell-well-1e200": (["multiwell", "--symbol", TWO_WELL, "--hbar", "0.05", "--wells", "1e200"], 1),
    "multiwell-well-1e100": (["multiwell", "--symbol", TWO_WELL, "--hbar", "0.05", "--wells", "1e100"], 1),
    "run-multiwell-no-wells": (_config({**_BASE, "tasks": [{"type": "multiwell", "wells": []}]}), 1),
    # the quadratic part at the well has no normal form, as in normal-form
    "multiwell-hyperbolic-well": (["multiwell", "--symbol", "p^2-q^2", "--hbar", "0.1", "--wells", "0"], 2),
    # the eigenvalues near -1 have no prediction
    "multiwell-one-of-two-wells": (["multiwell", "--symbol", TWO_WELL, "--hbar", "0.05", "--wells", "1"], 2),
    "run-multiwell-unmatched": (
        _config({**_BASE, "hbar": [0.05], "symbol": {"inline": json.loads(TWO_WELL)},
                 "tasks": [{"type": "multiwell", "wells": [1]}, {"type": "action"}]}), 2
    ),
}


def test_one_class_per_exit_code():
    from bargspec.bargmann import NoConvergence, QuadratureError
    from bargspec.cli import TOLERANCE_FAILURES
    from bargspec.contours import NewtonDiverged
    from bargspec.quadratic import NoDeltaFound
    from bargspec.spectral import InversionFailed, NonClosedContour, UnmatchedEigenvalue
    from bargspec.symbols import NonEllipticHessian

    assert all(issubclass(cls, NoConvergence) for cls in (QuadratureError, InversionFailed, NonClosedContour,
                                                          NewtonDiverged))
    assert issubclass(NonEllipticHessian, NoDeltaFound)
    # exit 2: a missing normal form, or an eigenvalue with no predicted level
    assert TOLERANCE_FAILURES == (NoDeltaFound, UnmatchedEigenvalue)
    assert not issubclass(UnmatchedEigenvalue, (NoConvergence, ValueError))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a second stderr line
@pytest.mark.parametrize("argv, code", EXIT_CONTRACT.values(), ids=EXIT_CONTRACT.keys())
def test_exit_code_contract(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths in argv and configs resolve here
    if argv[0] == "config":
        (tmp_path / "config.json").write_text(json.dumps(argv[1]))
        argv = ["run", "--config", "config.json"]
    assert main(argv) == code  # returns: no exception escapes main
    err = capsys.readouterr().err
    if code == 0:
        assert err == "", err
    else:
        assert err.startswith(_PREFIX[code]) and err.count("\n") == 1, err


_QUAD = json.dumps({"2,0": [0.3, 0.1], "1,1": [1.0, 0.0], "0,2": [0.3, -0.1]})
_TEXT = st.text(max_size=8)
_JOINED = st.lists(st.floats(), max_size=5).map(lambda v: ",".join(map(repr, v)))
# option -> (valid values, malformed values); n_max stays small
_VALUES = {
    "--symbol": (
        st.sampled_from(["p^2+q^2", "|z|^2+0.3*z^2", _QUAD, "(1+0.3j)*|z|^4 - z^2", "z^2", "p^2 + 2*q^2",
                         "-p^2-q^2"]),
        st.sampled_from(["p^3", "{", '{"1,1": [1]}', "", "2*", "nan*|z|^2", "1e400*p^2", '{"a,b": [1, 0]}',
                         '{"-1,2": [1, 0]}', '{"1,1": [NaN, 0]}', "p^2+", "((p^2"]) | _TEXT,
    ),
    "--hbar": (st.sampled_from(["0.1", "0.05", "0.3", "1", "1e-3"]), st.floats().map(repr) | _TEXT),
    "--count": (st.integers(1, 6).map(str), st.integers(-3, 0).map(str) | _TEXT),
    "--n-max": (st.integers(1, 40).map(str), st.integers(-3, 0).map(str) | st.floats().map(repr) | _TEXT),
    "--rect": (st.lists(st.floats(-1, 1), min_size=4, max_size=4).map(lambda v: ",".join(map(repr, v))),
               _JOINED | _TEXT),
    "--res": (st.lists(st.integers(2, 6), min_size=2, max_size=2).map(lambda v: ",".join(map(str, v))),
              st.lists(st.integers(-2, 6), max_size=3).map(lambda v: ",".join(map(str, v))) | _TEXT),
    "--order": (st.integers(0, 3).map(str), st.integers(-3, -1).map(str) | _TEXT),
}
# a number from 1e-320 (below the normal range) to 1e308, either sign, or 0
_WIDE = st.tuples(st.floats(-320, 308), st.booleans()).map(lambda v: (-1) ** v[1] * 10.0 ** v[0]) | st.just(0.0)
_WIDE_PAIR = st.lists(_WIDE, min_size=1, max_size=2).map(lambda v: ",".join(map(repr, v)))
_VALUES["--d"] = _VALUES["--energy"] = (_WIDE_PAIR, _JOINED | _TEXT)
_VALUES["--winding"] = (
    (st.integers(-3, 3) | st.integers(-(10**308), 10**308)).map(str),
    st.floats().map(repr) | _TEXT,
)
# a well z zbar + ... with coefficients from 1e-300 to 1e300, where the
# normal forms lose every digit or overflow, and its quadratic part alone
_COEFF = st.tuples(st.floats(-300, 300), st.floats(-300, 300), st.booleans()).map(
    lambda v: [10.0 ** v[0], (-1) ** v[2] * 10.0 ** v[1]]
)
_SCALED_WELL = st.fixed_dictionaries(
    {"1,1": _COEFF}, optional={key: _COEFF for key in ("2,0", "0,2", "1,0", "3,0", "2,1", "1,2", "0,4", "2,2")}
).map(json.dumps)
_SCALED_QUADRATIC = st.fixed_dictionaries({"1,1": _COEFF}, optional={"2,0": _COEFF, "0,2": _COEFF}).map(json.dumps)
# options whose draw depends on the subcommand
_COMMAND_VALUES = {
    ("normal-form", "--symbol"): (_VALUES["--symbol"][0] | _SCALED_QUADRATIC, _VALUES["--symbol"][1]),
    ("birkhoff", "--symbol"): (_VALUES["--symbol"][0] | _SCALED_WELL, _VALUES["--symbol"][1]),
    ("moser", "--symbol"): (_VALUES["--symbol"][0] | _SCALED_WELL, _VALUES["--symbol"][1]),
    ("birkhoff", "--degree"): (st.integers(2, 10).map(str), st.integers(-3, 1).map(str) | _TEXT),
    ("moser", "--degree"): (st.integers(0, 6).map(str), st.integers(-9, -1).map(str) | _TEXT),
    # families that settle within n 256 at these hbar; a symbol whose wells
    # need n 4096 (the two-well at hbar 1e-3) would crawl
    ("multiwell", "--symbol"): (
        st.sampled_from(["p^2+q^2", "|z|^2+0.3*z^2", _QUAD, "p^2 + 2*q^2", "-p^2-q^2", "|z|^2+|z|^4", TWO_WELL]),
        _VALUES["--symbol"][1],
    ),
    ("multiwell", "--hbar"): (
        st.sampled_from(["0.05", "0.1", "0.3", "1"]),
        st.floats().filter(lambda h: not 0 < h <= 1).map(repr) | _TEXT,
    ),
    ("multiwell", "--wells"): (
        st.sampled_from(["0", "1,-1", "-1,1", "1", "-1"]),
        st.sampled_from(["", "inf", "nan", "1,,-1", "-inf,1", "1,nan"]) | _TEXT,
    ),
    ("multiwell", "--degree"): (st.integers(2, 12).map(str), st.integers(-3, 1).map(str) | _TEXT),
}
_OPTIONS = {
    "spectrum": ["--symbol", "--hbar", "--count", "--n-max"],
    "pseudospec": ["--symbol", "--hbar", "--rect", "--res", "--n-max"],
    "normal-form": ["--symbol"],
    "birkhoff": ["--symbol", "--degree"],
    "moser": ["--symbol", "--order", "--degree"],
    "action": ["--d", "--energy", "--winding"],
    "multiwell": ["--symbol", "--hbar", "--wells", "--order", "--degree", "--n-max"],
}


@st.composite
def _argv(draw):
    """A subcommand with every option valid but at most one, which is
    malformed or missing, as (option, value) pairs."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    bad = draw(st.sampled_from([None, *_OPTIONS[command]]))
    pairs = []
    for opt in _OPTIONS[command]:
        valid, malformed = _COMMAND_VALUES.get((command, opt)) or _VALUES[opt]
        if opt != bad:
            pairs.append((opt, draw(valid)))
        elif draw(st.booleans()):
            pairs.append((opt, draw(malformed)))
    return command, pairs


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_exit_code_contract_fuzzed(argv):
    # every value is passed in the space form (--rect -0.5,...) and in the
    # = form (--rect=-0.5,...); a value that starts with "-" is a value in both
    command, pairs = argv
    codes = []
    for spaced in (True, False):
        tokens = [t for o, v in pairs for t in ((o, v) if spaced else (f"{o}={v}",))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main([command, *tokens]))  # an exception escaping main fails the test
        # no non-finite number in an artifact: repr's nan and inf, JSON's NaN and Infinity
        assert not re.search(r"\bnan\b|\binf\b|NaN|Infinity", out.getvalue()), out.getvalue()
    assert codes[0] in (0, 1, 2, 3)
    assert codes[0] == codes[1]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bargspec.cli", "action", "--d", "1,0", "--energy", "0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_cli_tasks_leave_scipy_unloaded(tmp_path):
    # scipy costs more start-up time than the rest of the package, and no CLI
    # task needs it: the package imports it only inside the functions that
    # call it.  One fresh interpreter runs the job mix of the benchmark's cli
    # workload in process.
    quad = json.dumps({"2,0": [0.3, 0.1], "1,1": [1.0, 0.0], "0,2": [0.3, -0.1]})
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "out_dir": str(tmp_path / "run"), "hbar": [0.1], "n_max": 64, "symbol": {"inline": json.loads(quad)},
        "tasks": [{"type": "spectrum", "count": 4}, {"type": "normal-form"},
                  {"type": "action", "d": [1.0, 0.0], "energy": [0.3, 0.0]}],
    }))
    runs = [
        ["spectrum", "--symbol", quad, "--hbar", "0.1", "--count", "5"],
        ["normal-form", "--symbol", quad],
        ["birkhoff", "--symbol", '{"1,1": [1, 0], "2,2": [0.2, 0], "2,1": [0.1, 0.05], "1,2": [0.1, -0.05]}',
         "--degree", "8"],
        ["moser", "--symbol", '{"1,0": [0.5, 0.2], "2,1": [0.1, 0.3]}', "--order", "3", "--degree", "4"],
        ["action", "--d", "1,0", "--energy", "0.3,0.1"],
        ["pseudospec", "--symbol", quad, "--hbar", "0.1", "--rect", "0.05,0.2,0.05,0.17", "--res", "6,6",
         "--n-max", "64", "--c", "0.3"],
        # its grid points take the inverse iteration's dense-SVD fallback
        ["pseudospec", "--symbol", '{"1,0":[-0.5,0],"0,1":[0.5,0],"3,0":[0.5,0],"0,3":[-0.5,0]}', "--hbar", "0.1",
         "--n-max", "54", "--rect=-3.7,-3.69,0.3,0.31", "--res", "2,2"],
        ["multiwell", "--symbol", TWO_WELL, "--hbar", "0.1", "--wells", "1,-1", "--order", "1", "--degree", "4",
         "--n-max", "32"],
        ["run", "--config", str(config)],
    ]
    code = (
        "import json, sys\n"
        "from bargspec import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "assert codes == [0] * len(codes), codes\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' and m.count('.') <= 1)\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_spectrum_arnoldi_route_leaves_scipy_and_numpy_random_unloaded():
    # at --n-max 64 the first truncation's 32 x 32 blocks are too small for
    # the Arnoldi route and go to a dense eigvals; the second truncation's
    # 64 x 64 blocks take it, through np.linalg.inv, and neither scipy nor
    # numpy.random (about 9 ms on first import) is loaded
    quad = json.dumps({"2,0": [0.3, 0.1], "1,1": [1.0, 0.0], "0,2": [0.3, -0.1]})
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from bargspec import cli\n"
        "sizes = {'eigvals': [], 'inv': []}\n"
        "def spy(name):\n"
        "    call = getattr(np.linalg, name)\n"
        "    return lambda a: sizes[name].append(len(a)) or call(a)\n"
        "np.linalg.eigvals, np.linalg.inv = spy('eigvals'), spy('inv')\n"
        "assert cli.main(['spectrum', '--symbol', sys.argv[1], '--hbar', '0.1', '--count', '5', '--n-max', '64']) == 0\n"
        "assert sizes == {'eigvals': [32, 32], 'inv': [64, 64]}, sizes\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.random'))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, quad], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
