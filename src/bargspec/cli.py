"""Command-line front end and experiment runner.

Subcommands: spectrum, pseudospec, normal-form, action, birkhoff, moser,
multiwell, verify, run (config-file runner).  Every subcommand but run is a
task in TASKS; `run` executes the same tasks from a JSON config, writes one
artifact per task and then a manifest of SHA-256 hashes.

Exit codes: 0 success, 1 config error (bad argument, config, symbol or file),
2 tolerance failure, 3 convergence failure.  A tolerance failure does not
stop `run`: the remaining tasks run, the manifest is written and the run
exits 2.  `action` exits 2 when the quadrature misses the closed form by more
than 1e-8 relative, and 1 on a non-finite d or energy; `verify --only` takes
criterion indices 1 to 12.  `birkhoff` exits 2, as `normal-form` does, on a
symbol whose quadratic part has no normal form (p^2 - q^2), and 3 when a Lie
term or a coefficient of mu0 is not finite, or when the cancellations of the
Lie transport leave a non-radial residual (the message names the hbar-order,
the degree and the digits lost); `moser` exits 3 when a(1) or r(1) is not
finite, and names the hbar-order.  `multiwell` exits 2 when an eigenvalue in
the window has no prediction within half the lattice spacing, as when a
two-well symbol is given one well, and 1 on an empty or non-finite `--wells`
or a well that is not a critical point.  Every exception that exits 3 is a
`NoConvergence`, and every one that exits 2 a `NoDeltaFound` or an
`UnmatchedEigenvalue`.  A symbol with a run of signs (--p^2, p^2 +- q^2) or a
trailing sign exits 1.

Floats are printed with repr (shortest round-trip representation); identical
config + seed therefore yields byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bargmann import MonomialSymbol, NoConvergence, assemble_toeplitz, check_hbar, check_truncation
from .quadratic import (
    ComplexQuadraticForm,
    NoDeltaFound,
    phase_and_weights,
    reduce_quadratic,
)
from .spectral import UnmatchedEigenvalue, action_integral, eigen_spectrum, multiwell_compare, resolvent_grid
from . import acceptance, symbols

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2
EXIT_CONVERGENCE = 3
# the exceptions that are tolerance failures: they exit 2 and do not stop `run`
TOLERANCE_FAILURES = (NoDeltaFound, UnmatchedEigenvalue)


class ParseError(ValueError):
    def __init__(self, msg: str, line: int = 1, column: int = 0):
        super().__init__(f"{msg} (line {line}, column {column})")
        self.line = line
        self.column = column


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# symbol parsing

_UNITS = {
    "p^2": {(2, 0): 0.5, (1, 1): 1.0, (0, 2): 0.5},
    "q^2": {(2, 0): -0.5, (1, 1): 1.0, (0, 2): -0.5},
    "p*q": {(2, 0): -0.5j, (0, 2): 0.5j},
    "|z|^2": {(1, 1): 1.0},
    "|z|^4": {(2, 2): 1.0},
    "z*zbar": {(1, 1): 1.0},
    "z": {(1, 0): 1.0},
    "zbar": {(0, 1): 1.0},
    "z^2": {(2, 0): 1.0},
    "zbar^2": {(0, 2): 1.0},
    "1": {(0, 0): 1.0},
}


def parse_symbol(text: str) -> MonomialSymbol:
    """JSON map {"alpha,beta": [re, im]} or shorthand sums of the documented
    built-ins (p^2, q^2, p*q, |z|^2, |z|^4, z, zbar, z^2, zbar^2, 1), each with
    an optional complex coefficient prefix like 2* or (1+0.3j)*.  One sign
    separates two terms and may lead the first; a run of signs (--p^2,
    p^2 +- q^2) or a trailing sign is a ParseError."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return MonomialSymbol.from_json(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc)) from exc
    coeffs: dict[tuple[int, int], complex] = {}
    # split into signed terms at top level (not inside parentheses)
    terms: list[tuple[complex, str, int]] = []
    sign = 1.0
    depth = 0
    cur = ""
    start = 0
    for i, ch in enumerate(text + "+"):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and (i == 0 or text[i - 1] not in "eE({*"):
            if cur.strip():
                terms.append((sign, cur.strip(), start))
            elif i > 0:  # only the first term may go without one before its sign
                raise ParseError("a sign with no term after it", 1, start - 1)
            sign = 1.0 if ch == "+" else -1.0
            cur = ""
            start = i + 1
        else:
            cur += ch if i < len(text) else ""
    if cur.strip():
        terms.append((sign, cur.strip(), start))
    if not terms:
        raise ParseError("empty symbol expression", 1, 0)
    for sgn, term, tstart in terms:
        coef = complex(sgn)
        unit = term
        if "*" in term and term not in _UNITS:
            head, _, tail = term.partition("*")
            combined = f"{head}*{tail}"
            if combined in _UNITS:
                unit = combined
            else:
                try:
                    coef *= complex(head.replace("i", "j").strip("() "))
                except ValueError as exc:
                    raise ParseError(f"bad coefficient {head!r}", 1, tstart) from exc
                unit = tail.strip()
        if unit not in _UNITS:
            try:
                coef *= complex(unit.replace("i", "j").strip("() "))
                unit = "1"
            except ValueError:
                raise ParseError(f"unknown unit {unit!r}", 1, tstart) from None
        for key, val in _UNITS[unit].items():
            coeffs[key] = coeffs.get(key, 0.0) + coef * val
    return MonomialSymbol(coeffs)


def _config_symbol(cfg: dict) -> MonomialSymbol:
    spec = cfg.get("symbol")
    if spec is None:
        raise ConfigError("config needs a 'symbol' entry")
    kinds = [k for k in ("inline", "path", "shorthand") if isinstance(spec, dict) and k in spec]
    if not kinds:
        raise ConfigError("symbol entry needs 'inline', 'path' or 'shorthand'")
    kind = kinds[0]
    value = spec[kind]
    if not isinstance(value, dict if kind == "inline" else str):
        raise ConfigError(f"symbol.{kind} has the wrong JSON type: {value!r}")
    if kind == "inline":
        value = json.dumps(value)
    elif kind == "path":
        value = Path(value).read_text()
    return parse_symbol(value)


# ---------------------------------------------------------------------------
# output: JSON encoding (complex numbers as [re, im], matrices row-major)


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()] if obj.ndim == 1 else [
            [_jsonable(x) for x in row] for row in obj.tolist()
        ]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _json(doc, indent: int | None = 2) -> str:
    return json.dumps(_jsonable(doc), indent=indent) + "\n"


def _emit(text: str, out: str | Path | None) -> None:
    """The one writer: text goes to the file `out` (its directory is created)
    or, when `out` is empty, to stdout."""
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# task parameters: every value from argparse or a config passes through here,
# and a malformed one raises ConfigError naming its field


def _convert(convert, name: str, value):
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _get(params: dict, name: str, convert, default=None):
    value = params.get(name)
    return _convert(convert, name, default if value is None else value)


def _list(params: dict, name: str, convert, sizes: tuple[int, ...] = (), default=None) -> list:
    value = params.get(name)
    value = default if value is None else value
    if not isinstance(value, list) or (sizes and len(value) not in sizes):
        want = " or ".join(map(str, sizes)) + " numbers" if sizes else "a list"
        raise ConfigError(f"{name} needs {want}, got {value!r}")
    return [_convert(convert, name, v) for v in value]


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise ConfigError(msg)


# ---------------------------------------------------------------------------
# tasks: (symbol, params) -> (artifact text, exit status).  The tasks that
# assemble a matrix read `hbar` (a list) and `n_max`; assemble_toeplitz
# range-checks both.


def _spectrum(sym: MonomialSymbol, p: dict) -> tuple[str, int]:
    count, tol = _get(p, "count", int, 5), _get(p, "tol", float, 1e-8)
    _require(count >= 1 and tol > 0, f"spectrum needs count >= 1 and tol > 0, got {count} and {tol}")
    rows = []
    for hbar in p["hbar"]:
        spec = eigen_spectrum(assemble_toeplitz(sym, hbar, p["n_max"]), count, tol=tol)
        rows += [f"{float(ev.real)!r},{float(ev.imag)!r}" for ev in spec.eigenvalues]
    return "\n".join(rows) + "\n", EXIT_OK


def _pseudospec(sym: MonomialSymbol, p: dict) -> tuple[str, int]:
    rect, res = _list(p, "rect", float, (4,)), _list(p, "res", int, (2,))
    c = None if p.get("c") is None else _get(p, "c", float)
    field = resolvent_grid(assemble_toeplitz(sym, p["hbar"][0], p["n_max"]), tuple(rect), tuple(res))
    return field.to_csv(c), EXIT_OK


def _normal_form(sym: MonomialSymbol, p: dict) -> tuple[str, int]:
    quad_keys = {(2, 0), (1, 1), (0, 2)}
    if any(k not in quad_keys for k in sym.coeffs):
        raise ConfigError("normal-form expects a purely quadratic symbol")
    form = ComplexQuadraticForm.from_zv_coefficients(
        sym.coeffs.get((2, 0), 0.0), sym.coeffs.get((1, 1), 0.0), sym.coeffs.get((0, 2), 0.0)
    )
    nf = reduce_quadratic(form)
    phase, weights = phase_and_weights(nf)
    doc = {
        "delta": nf.delta,
        "kappa1": nf.kappa1,
        "kappa2": nf.kappa2,
        "kappa3": nf.kappa3,
        "composed": nf.composed,
        "zeta": nf.zeta,
        "Delta": nf.Delta,
        "d0": nf.d0,
        "alpha": nf.alpha,
        "beta": nf.beta,
        "gamma": nf.gamma,
        "phase": {
            "x2": phase.coeff_x2,
            "xv": phase.coeff_xv,
            "v2": phase.coeff_v2,
            "b_over_d": phase.b_over_d,
        },
        "weights": {"r": weights.r, "j": weights.j},
    }
    return _json(doc), EXIT_OK


def _birkhoff(sym: MonomialSymbol, p: dict) -> tuple[str, int]:
    degree = _get(p, "degree", int, 8)
    _require(degree >= 2, f"birkhoff needs degree >= 2, got {degree}")
    br = symbols.birkhoff_normal_form(symbols.table_from_dict(sym.coeffs, degree), degree)
    return _json({"mu0": list(br.mu0), "d0": br.d0, "linear_map": br.linear_map}), EXIT_OK


def _moser(sym: MonomialSymbol, p: dict) -> tuple[str, int]:
    order = _get(p, "order", int, 3)
    degree = _get(p, "degree", int, 4) + 2 * order
    _require(order >= 0 and degree >= 2,
             f"moser needs order >= 0 and degree + 2*order >= 2, got order {order}, total {degree}")
    mu = symbols.FormalSymbol([symbols.radial_table(np.array([0.0, 1.0]), degree)])
    g = symbols.FormalSymbol([symbols.table_from_dict(sym.coeffs, degree)])
    res = symbols.moser_normal_form(mu, g, order, degree)
    doc = {"a_final": json.loads(res.a_final.to_json()), "r_final": [list(prof) for prof in res.r_final]}
    return _json(doc), EXIT_OK


def _action(sym: MonomialSymbol | None, p: dict) -> tuple[str, int]:
    d = complex(*_list(p, "d", float, (1, 2), [1.0, 0.0]))
    energy = complex(*_list(p, "energy", float, (1, 2), [0.1, 0.0]))
    res = action_integral(d, energy, _get(p, "winding", int, 1))
    doc = {key: res[key] for key in ("value", "closed_form", "nodes")}
    ok = abs(res["value"] - res["closed_form"]) <= 1e-8 * abs(res["closed_form"])
    return _json(doc, indent=None), EXIT_OK if ok else EXIT_TOLERANCE


def _multiwell(sym: MonomialSymbol, p: dict) -> tuple[str, int]:
    wells = _list(p, "wells", complex)
    order, degree = _get(p, "order", int, 3), _get(p, "degree", int, 12)
    _require(bool(wells) and all(np.isfinite(w) for w in wells),
             f"wells needs one or more finite complex numbers, got {wells}")
    _require(order >= 0 and degree >= 2, f"multiwell needs order >= 0 and degree >= 2, got {order} and {degree}")
    rep = multiwell_compare(sym, p["hbar"][0], wells, order, degree, n_start=p["n_max"])
    doc = {
        "wells": [
            {"location": w.location, "level": w.level, "d0": w.d0, "corrected": w.corrected, "lattice": w.lattice}
            for w in rep.wells
        ],
        "eigenvalues": rep.eigenvalues,
        "matches": rep.matches,
        "residuals": rep.residuals,
        "jordan_pairs": rep.jordan_pairs,
        "window_radius": rep.window_radius,
        "n_max_used": rep.spectrum.n_max_used,
        "convergence_gap": rep.spectrum.convergence_gap,
    }
    return _json(doc), EXIT_OK


def _verify(sym: MonomialSymbol | None, p: dict) -> tuple[str, int]:
    """Prints each criterion's line as it finishes; the artifact holds them all."""
    only = _list(p, "only", int, default=[])
    n = len(acceptance.CRITERIA)
    _require(all(1 <= i <= n for i in only), f"only: criterion indices run from 1 to {n}, got {only}")
    results = acceptance.run_all(only, seed=_get(p, "seed", int, 0))
    ok = all(r.passed for r in results)
    return "\n".join(r.line() for r in results) + "\n", EXIT_OK if ok else EXIT_TOLERANCE


class Task(NamedTuple):
    run: Callable[[MonomialSymbol | None, dict], tuple[str, int]]
    artifact: str  # file name in the run's out_dir unless the task sets "out"
    needs_symbol: bool = True


TASKS = {
    "spectrum": Task(_spectrum, "eig.csv"),
    "pseudospec": Task(_pseudospec, "field.csv"),
    "normal-form": Task(_normal_form, "nf.json"),
    "action": Task(_action, "action.json", needs_symbol=False),
    "birkhoff": Task(_birkhoff, "birkhoff.json"),
    "moser": Task(_moser, "moser.json"),
    "multiwell": Task(_multiwell, "multiwell.json"),
    "verify": Task(_verify, "verify.txt", needs_symbol=False),
}


# ---------------------------------------------------------------------------
# the two front ends of TASKS


def cmd_task(args) -> int:
    """A subcommand: argparse values are the params; --symbol is a file path
    when one exists, else the symbol text."""
    params = vars(args)
    task = TASKS[params.pop("command")]
    sym = None
    if task.needs_symbol:
        spec = params.pop("symbol")
        sym = parse_symbol(Path(spec).read_text() if os.path.exists(spec) else spec)
    text, status = task.run(sym, params)
    _emit(text, params.get("out"))
    return status


def cmd_verify(args) -> int:
    text, status = TASKS["verify"].run(None, vars(args))
    lines = text.splitlines()
    print(f"{sum(line.startswith('[PASS]') for line in lines)}/{len(lines)} criteria passed")
    return status


def cmd_run(args) -> int:
    config = Path(args.config)
    cfg = json.loads(config.read_text())
    _require(isinstance(cfg, dict), "config must be a JSON object")
    tasks = cfg.get("tasks", [])
    _require(isinstance(tasks, list) and bool(tasks), f"tasks must be a non-empty list, got {tasks!r}")
    out_dir = _get(cfg, "out_dir", Path, "out")
    jobs = []
    for task in tasks:
        _require(isinstance(task, dict), f"a task must be a JSON object, got {task!r}")
        kind = task.get("type")
        _require(isinstance(kind, str) and kind in TASKS, f"unknown task type {kind!r}")
        jobs.append((kind, task, out_dir / _convert(Path, "out", task.get("out") or TASKS[kind].artifact)))
    seed = _get(cfg, "seed", int, 0)
    hbars = cfg.get("hbar", [0.1])
    hbars = [_convert(check_hbar, "hbar", h) for h in (hbars if isinstance(hbars, list) else [hbars])]
    _require(bool(hbars), "hbar needs at least one value")
    n_max = _get(cfg, "n_max", check_truncation, 64)
    tolerances = cfg.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances must be a JSON object")
    sym = _config_symbol(cfg) if any(TASKS[kind].needs_symbol for kind, _, _ in jobs) else None

    artifacts: list[Path] = []
    status = EXIT_OK
    tolerance_failure = None
    for kind, task, path in jobs:
        # top-level values win: a task's own hbar, n_max, tol or seed is ignored
        params = {**task, "hbar": hbars, "n_max": n_max, "tol": tolerances.get(kind), "seed": seed}
        try:
            text, task_status = TASKS[kind].run(sym, params)
        except TOLERANCE_FAILURES as exc:  # the remaining tasks still run
            tolerance_failure = tolerance_failure or exc
            continue
        _emit(text, path)
        artifacts.append(path)
        status = max(status, task_status)

    manifest = {
        "config": str(config),
        "seed": seed,
        "artifacts": [
            {"path": str(p), "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for p in artifacts
        ],
    }
    _emit(json.dumps(manifest, indent=2) + "\n", out_dir / "manifest.json")
    if tolerance_failure is not None:
        raise tolerance_failure  # reported by main, with exit 2
    return status


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (exit 1), not argparse's exit 2,
    which is the tolerance-failure code here."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _csv(text: str) -> list[str]:
    return text.split(",") if text else []


# options whose value may start with "-" without being a plain number, as in
# --rect -0.5,0.5,0,1 or --symbol -p^2-q^2, which argparse would read as an
# unknown option; such a value is attached to its option, --rect=-0.5,...
_DASH_VALUE_OPTIONS = ("--symbol", "--rect", "--res", "--d", "--energy", "--wells")


def _attach_dash_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _DASH_VALUE_OPTIONS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        elif tok.startswith("--") and tok.endswith("=--"):
            # "--" ends the options and is never a value: argparse would strip
            # it from --n-max=-- and hand the option an empty list
            out += [tok[:-3], "--"]
        else:
            out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="bargspec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def symbol_task(name: str, help: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--symbol", required=True, help="JSON map, shorthand, or file path")
        sp.add_argument("--out")
        return sp

    sp = symbol_task("spectrum", "adaptive eigenvalues of T(f)")
    sp.add_argument("--hbar", type=float, nargs=1, required=True)
    sp.add_argument("--count", type=int)
    sp.add_argument("--n-max", type=int, default=64)
    sp.add_argument("--tol", type=float)

    ps = symbol_task("pseudospec", "sigma_min grid of (T(f) - lambda)")
    ps.add_argument("--hbar", type=float, nargs=1, required=True)
    ps.add_argument("--rect", type=_csv, required=True, help="x0,x1,y0,y1")
    ps.add_argument("--res", type=_csv, required=True, help="NX,NY")
    ps.add_argument("--c", type=float)
    ps.add_argument("--n-max", type=int, default=128)

    symbol_task("normal-form", "quadratic normal-form data as JSON")

    ac = sub.add_parser("action", help="loop action integral vs closed form")
    ac.add_argument("--d", type=_csv, required=True, help="RE,IM")
    ac.add_argument("--energy", type=_csv, required=True, help="RE,IM")
    ac.add_argument("--winding", type=int)

    bk = symbol_task("birkhoff", "classical radial normal form")
    bk.add_argument("--degree", type=int)

    ms = symbol_task("moser", "Moser conjugation of id + hbar^2 g")
    ms.add_argument("--order", type=int)
    ms.add_argument("--degree", type=int)

    mw = symbol_task("multiwell", "spectrum near a common well level matched to per-well lattices")
    mw.add_argument("--hbar", type=float, nargs=1, required=True)
    mw.add_argument("--wells", type=_csv, required=True, help="comma-separated complex critical points")
    mw.add_argument("--order", type=int)
    mw.add_argument("--degree", type=int)
    mw.add_argument("--n-max", type=int, default=256)

    vf = sub.add_parser("verify", help="run the acceptance suite")
    vf.add_argument("--only", type=_csv, help="comma-separated criterion indices, 1 to 12")
    vf.add_argument("--seed", type=int, help="seed for randomised corpora")

    rn = sub.add_parser("run", help="execute a JSON experiment config")
    rn.add_argument("--config", required=True)
    return p


def main(argv: list[str] | None = None) -> int:
    """The one place where failures become exit codes."""
    try:
        args = build_parser().parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
        return {"run": cmd_run, "verify": cmd_verify}.get(args.command, cmd_task)(args)
    except NoConvergence as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except TOLERANCE_FAILURES as exc:  # NoDeltaFound is a ValueError, so this must come first
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
