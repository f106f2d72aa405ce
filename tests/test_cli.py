"""CLI surface: symbol parsing, subcommands, config runner, determinism."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from bargspec.cli import ParseError, main, parse_symbol


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
        # p^2 - q^2 has no normal form: that task fails, the action task
        # still runs and the manifest lists its artifact
        cfg = json.loads(self.make_config(tmp_path, []).read_text())
        cfg["symbol"] = {"inline": {"2,0": [1, 0], "0,2": [1, 0]}}
        cfg["tasks"] = [{"type": "normal-form"}, {"type": "action"}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("tolerance failure:")
        out_dir = tmp_path / "out"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert [item["path"] for item in manifest["artifacts"]] == [str(out_dir / "action.json")]
        assert not (out_dir / "nf.json").exists()


def _config(doc):
    return ("config", doc)


_BASE = {"out_dir": "out", "hbar": [0.1], "n_max": 32, "symbol": {"shorthand": "p^2+q^2"}}
_SPECTRUM = [{"type": "spectrum"}]

# every input exits with its documented code and a one-line message
EXIT_CONTRACT = {
    "action-d-three-parts": (["action", "--d", "1,2,3", "--energy", "0.3,0"], 1),
    "action-d-nan": (["action", "--d", "nan", "--energy", "1"], 1),
    "action-d-inf": (["action", "--d", "inf", "--energy", "1"], 1),
    "action-energy-inf": (["action", "--d", "1,0", "--energy", "inf,0"], 1),
    "symbol-is-directory": (["spectrum", "--symbol", ".", "--hbar", "0.1"], 1),
    "moser-negative-order": (["moser", "--symbol", "z", "--order", "-1"], 1),
    "birkhoff-negative-degree": (["birkhoff", "--symbol", "|z|^2+|z|^4", "--degree", "-1"], 1),
    "birkhoff-nonzero-constant": (["birkhoff", "--symbol", "1+|z|^2"], 1),
    "verify-index-13": (["verify", "--only", "13"], 1),
    "missing-argument": (["spectrum", "--hbar", "0.1"], 1),
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
}


@pytest.mark.parametrize("argv, code", EXIT_CONTRACT.values(), ids=EXIT_CONTRACT.keys())
def test_exit_code_contract(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths in argv and configs resolve here
    if argv[0] == "config":
        (tmp_path / "config.json").write_text(json.dumps(argv[1]))
        argv = ["run", "--config", "config.json"]
    assert main(argv) == code  # returns: no exception escapes main
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bargspec.cli", "action", "--d", "1,0", "--energy", "0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # each of these costs start-up time in every fresh CLI process
    code = (
        "import sys\n"
        "import bargspec.cli\n"
        "loaded = [m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.signal') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
