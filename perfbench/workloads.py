"""The four job streams of the benchmark, their inputs and their arbiters.

Each workload yields *passes*: a fixed mix of job slots with parameters
drawn from the seeded generator, so every pass does a comparable amount of
work and only the inputs change with the seed.  A slot is a job's place in
that mix; it is the same in every pass, and the order of a pass is shuffled.
`run(job)` is the timed call into bargspec; `check(job, out)` is the untimed
comparison with an arbiter the package already has.  A check returns (ok, detail, known):
`known` names a defect of the program that the failure is an instance of
(see README.md); every other failed check makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from bargspec import bargmann, contours, quadratic, spectral, symbols

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WINDOW = (0.02, 0.34, 0.01, 0.30)  # criterion-10 window
TWO_WELL_C = 1.0 + 0.3j

# a sampled grid point agrees with the dense SVD when it is within this
# relative error, or both sit at the roundoff floor of the matrix
SIGMA_RTOL = 1e-6
SIGMA_FLOOR = 1e-12
# largest relative error that still counts as the known unconverged-iterate
# defect of the LU route (README.md); up to 7 % has been seen
KNOWN_SIGMA_RTOL = 0.1
# The sub-rectangle of the one grid that shows that defect: the 5x5 grid on it
# holds the points (0.3154, 0.01) and (0.2662, 0.1885) of the 14x14 window
# grid, where the two-well symbol at hbar = 0.05, n = 256 is 6.8 % and 6.5 %
# off.  Its geometry is fixed and those grid points are always checked, so
# every pass fails there exactly once.
DEFECT_RECT = (0.2661538461538462, 0.3153846153846154, 0.01, 0.18846153846153846)
DEFECT_SAMPLES = [(4, 0), (0, 4)]


@dataclass
class Job:
    family: str
    params: dict
    expect: str | None = None  # exception type name that is the documented outcome
    # (defect name, exception type) this job is known to hit in the program
    known_defect: tuple[str, str] | None = None
    extra: dict = field(default_factory=dict)


def _shuffle_slots(rng, jobs: list[Job]) -> None:
    """Number the jobs of a pass by their place in its fixed mix (the slot,
    the same in every pass), then shuffle their order in place."""
    for i, job in enumerate(jobs):
        job.extra["slot"] = i
    rng.shuffle(jobs)


def _two_well(c: complex) -> bargmann.MonomialSymbol:
    return bargmann.MonomialSymbol({(2, 2): c, (2, 0): -c, (0, 2): -c, (0, 0): c})


def _rotated_oscillator(theta: float) -> quadratic.ComplexQuadraticForm:
    return quadratic.ComplexQuadraticForm(1.0, np.exp(1j * theta), 0.0)


def _random_elliptic_form(rng) -> quadratic.ComplexQuadraticForm:
    theta = rng.uniform(0.1, 0.9 * np.pi / 2)
    c = 0.15 * complex(rng.normal(), rng.normal())
    return quadratic.ComplexQuadraticForm(
        rng.uniform(0.7, 1.3), rng.uniform(0.7, 1.3) * np.exp(1j * theta), c
    )


def _dense_sigma_check(mat: np.ndarray, lam: complex, value: float) -> tuple[bool, str, float]:
    """(ok, detail, relative error) of one sigma_min value against the
    smallest singular value of the dense SVD, computed here with scipy."""
    ref = float(sla.svdvals(mat - lam * np.eye(mat.shape[0]))[-1])
    floor = SIGMA_FLOOR * float(np.abs(mat).sum(axis=0).max())
    ok = abs(value - ref) <= SIGMA_RTOL * ref + floor
    rel = abs(value - ref) / ref if ref > 0 else float("inf")
    return ok, f"sigma_min({lam:.4f}) = {value:.6e}, dense SVD {ref:.6e}", rel


# ---------------------------------------------------------------------------
# pseudospectrum


class Pseudospectrum:
    PASS_S = 3.0  # nominal seconds of a pass (see worker.n_passes)
    SYMBOLS = ("oscillator-0.9pi/2", "oscillator-pi/4", "two-well")

    def _symbol(self, kind: str) -> bargmann.MonomialSymbol:
        if kind == "two-well":
            return _two_well(TWO_WELL_C)
        theta = 0.9 * np.pi / 2 if kind == "oscillator-0.9pi/2" else np.pi / 4
        return _rotated_oscillator(theta).to_symbol()

    def _subgrid(self, rng, kind, hbar, n, res) -> Job:
        x0, x1, y0, y1 = WINDOW
        w, h = rng.uniform(0.06, 0.16), rng.uniform(0.06, 0.15)
        xa, ya = rng.uniform(x0, x1 - w), rng.uniform(y0, y1 - h)
        rect = (xa, xa + w, ya, ya + h)
        samples = [(int(rng.integers(res)), int(rng.integers(res)))]
        if (kind, hbar, n) == ("two-well", 0.05, 256) and res == 5:
            # the defect grid: fixed geometry, its known points plus a seeded one
            rect = DEFECT_RECT
            samples = DEFECT_SAMPLES + samples
        return Job(
            "subgrid",
            {"symbol": kind, "hbar": hbar, "n": n, "rect": rect, "res": (res, res)},
            extra={"samples": samples},
        )

    def _closing(self, rng, res) -> Job:
        samples = [(int(rng.integers(res)), int(rng.integers(res))) for _ in range(2)]
        return Job(
            "closing-scan",
            {"symbol": "oscillator-0.9pi/2", "hbar": 0.05, "n": 256, "rect": WINDOW, "res": (res, res)},
            extra={"samples": samples},
        )

    def warmup(self, rng) -> list[Job]:
        return [self._subgrid(rng, "two-well", 0.1, 128, 2), self._closing(rng, 3)]

    def pass_jobs(self, rng, tiny: bool) -> list[Job]:
        combos = [(k, h, n) for k in self.SYMBOLS for h in (0.1, 0.05) for n in (128, 256)]
        if tiny:
            combos = combos[:2]
        # the closing scan is the slowest slot and the defect grid the next,
        # so from six passes on the tail job is the defect grid, whose work
        # does not change with the seed
        jobs = [self._subgrid(rng, k, h, n, 3 if tiny else 5) for k, h, n in combos]
        _shuffle_slots(rng, jobs)
        closing = self._closing(rng, 12)
        closing.extra["slot"] = len(jobs)
        return jobs + [closing]

    def run(self, job: Job):
        p = job.params
        m = bargmann.assemble_toeplitz(self._symbol(p["symbol"]), p["hbar"], p["n"])
        t0 = time.perf_counter()
        field_ = spectral.resolvent_grid(m, p["rect"], p["res"])
        job.extra["grid_s"] = time.perf_counter() - t0
        scan = None
        if job.family == "closing-scan":
            form = _rotated_oscillator(0.9 * np.pi / 2)
            lam = quadratic.exact_quadratic_spectrum(form, p["hbar"], 6)
            scan = spectral.scan_isolating_c(field_, lam, np.linspace(0.05, 0.8, 31), p["hbar"])
        return m, field_, scan

    def check(self, job: Job, out):
        m, field_, scan = out
        p = job.params
        details, bad = [], []
        for ix, iy in job.extra["samples"]:
            lam = field_.xs[ix] + 1j * field_.ys[iy]
            ok, d, rel = _dense_sigma_check(m.entries, lam, float(field_.sigma[iy, ix]))
            details.append(d if ok else f"{d} (relative error {rel:.2e})")
            if not ok:
                bad.append(rel)
        if scan is not None and not (scan["c_min"] is not None and scan["n_eigenvalues"] >= 3):
            return False, f"closing scan: c_min {scan['c_min']}, {scan['n_eigenvalues']} eigenvalues", None
        if not bad:
            return True, "; ".join(details), None
        # grids switch to LU + block inverse iteration above n = 192; on the
        # two-well symbol at hbar = 0.05 that route returns its last iterate
        # unconverged, a few percent off.  Any other mismatch is unknown.
        known = (
            p["symbol"] == "two-well" and p["hbar"] == 0.05 and p["n"] == 256 and max(bad) <= KNOWN_SIGMA_RTOL
        )
        return False, "; ".join(details), ("sigma_min-unconverged-iterate" if known else None)

    def points(self, job: Job) -> int:
        nx, ny = job.params["res"]
        return nx * ny


# ---------------------------------------------------------------------------
# symbol calculus


def _random_formal_symbol(rng, order: int, degree: int, pad: int) -> symbols.FormalSymbol:
    terms = []
    for _ in range(order + 1):
        t = np.zeros((pad + 1, pad + 1), dtype=complex)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                t[a, b] = rng.normal() + 1j * rng.normal()
        terms.append(symbols.TaylorTable2D(t))
    return symbols.FormalSymbol(terms)


def _random_well(rng, degree: int, diagonal_hessian: bool) -> dict:
    """Coefficients of a symbol with f(0) = 0, df(0) = 0 and an elliptic
    Hessian, plus decaying random terms of degree 3..degree."""
    coeffs = {(1, 1): complex(1.0, rng.uniform(-0.3, 0.3))}
    if not diagonal_hessian:
        coeffs[(2, 0)] = 0.15 * complex(rng.normal(), rng.normal())
        coeffs[(0, 2)] = 0.15 * complex(rng.normal(), rng.normal())
    for m in range(3, degree + 1):
        for a in range(m + 1):
            coeffs[(a, m - a)] = 0.3 ** (m - 2) * complex(rng.normal(), rng.normal())
    return coeffs


class SymbolCalculus:
    PASS_S = 3.0  # nominal seconds of a pass (see worker.n_passes)
    def _job(self, rng, family: str, **kw) -> Job:
        if family == "sharp":
            k, d = kw["order"], kw["degree"]
            deg = d // 2
            f = _random_formal_symbol(rng, k, deg, d)
            g = _random_formal_symbol(rng, k, deg, d)
            return Job(family, {"f": f, "g": g, "rho": float(rng.choice([0.1, 0.3])), "degree": d})
        if family == "moser":
            return Job(family, {"g": _random_formal_symbol(rng, 0, 4, 10), "order": 3, "degree": 10})
        if family == "birkhoff":
            d = kw["degree"]
            return Job(family, {"coeffs": _random_well(rng, d, False), "degree": d})
        if family == "qnf":
            k, d = kw["order"], kw["degree"]
            return Job(family, {"coeffs": _random_well(rng, d, True), "order": k, "degree": d})
        if family == "theta":
            d = int(rng.integers(2, 9))
            t = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
            t[np.add.outer(np.arange(d + 1), np.arange(d + 1)) > d] = 0.0
            mu_prime = np.array([1.0, complex(rng.normal(), rng.normal()) * 0.3, 0.1])
            return Job(family, {"t": t, "mu_prime": mu_prime})
        if family == "gaussian":
            a = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
            b = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
            return Job(family, {"a": a, "b": b, "hbar": float(rng.choice([0.2, 0.1, 0.05]))})
        if family == "contour":
            return Job(family, {"phi": float(rng.uniform(-1.4, 1.4))})
        if family == "sqrt":
            while True:
                d = int(rng.integers(1, 5))
                h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                h = 0.5 * (h + h.T)
                if abs(np.linalg.det(h)) >= 1e-4:
                    return Job(family, {"h": h})
        raise ValueError(family)

    def warmup(self, rng) -> list[Job]:
        return [
            self._job(rng, "sharp", order=1, degree=4),
            self._job(rng, "moser", order=3, degree=10),
            self._job(rng, "birkhoff", degree=4),
            self._job(rng, "qnf", order=1, degree=4),
            self._job(rng, "theta"),
            self._job(rng, "gaussian"),
            self._job(rng, "contour"),
            self._job(rng, "sqrt"),
        ]

    def pass_jobs(self, rng, tiny: bool) -> list[Job]:
        if tiny:
            specs = [("sharp", {"order": 1, "degree": 6}), ("birkhoff", {"degree": 6}),
                     ("qnf", {"order": 2, "degree": 6}), ("moser", {}), ("theta", {}),
                     ("gaussian", {}), ("contour", {}), ("sqrt", {})]
        else:
            # Sizes are fixed per pass and a run makes a fixed number of
            # passes, so every run has the same mix.  The 24 D = 8 Birkhoff
            # slots hold the median job.  The two order-3 quantum normal form
            # slots are the slowest; with six passes or more they hold more
            # than ten jobs, so the tail job is the faster of the two.
            specs = [("sharp", {"order": k, "degree": d}) for k, d in ((1, 6), (2, 8), (2, 10), (3, 6), (3, 10))]
            specs += [("birkhoff", {"degree": d}) for d in (6,) + (8,) * 24 + (10,)]
            specs += [("moser", {})] * 2
            specs += [("qnf", {"order": 2, "degree": 8})] + [("qnf", {"order": 3, "degree": 8})] * 2
            specs += [("theta", {})] * 2 + [("gaussian", {}), ("contour", {}), ("sqrt", {})]
        jobs = [self._job(rng, fam, **kw) for fam, kw in specs]
        _shuffle_slots(rng, jobs)
        return jobs

    def run(self, job: Job):
        p = job.params
        fam = job.family
        if fam == "sharp":
            f, g, d, rho = p["f"], p["g"], p["degree"], p["rho"]
            smax = 2 * max(f.order, g.order) + 2 * d
            fg = symbols.sharp_product(f, g, f.order + g.order, d)
            tail = symbols.sharp_bracket_tail(f, g, 2, f.order + g.order + 1, d)
            norms = [symbols.formal_norm(x, rho, smax).cumulative for x in (f, g, fg, tail)]
            return norms
        if fam == "moser":
            mu = symbols.FormalSymbol([symbols.radial_table(np.array([0, 1.0]), p["degree"])])
            return mu, symbols.moser_normal_form(mu, p["g"], p["order"], p["degree"])
        if fam == "birkhoff":
            tab = symbols.table_from_dict(p["coeffs"], p["degree"])
            return tab, symbols.birkhoff_normal_form(tab, p["degree"])
        if fam == "qnf":
            f = symbols.FormalSymbol.from_monomials(bargmann.MonomialSymbol(p["coeffs"]), p["degree"])
            return symbols.quantum_normal_form(f, p["order"], p["degree"])
        if fam == "theta":
            f = symbols.TaylorTable2D(p["t"])
            b, r = symbols.cohomology_solve(f, p["mu_prime"])
            off = p["t"].copy()
            np.fill_diagonal(off, 0.0)
            g = symbols.theta_antiderivative(symbols.TaylorTable2D(off))
            return b, r, g
        if fam == "gaussian":
            a, b = p["a"], p["b"]
            coeffs = {
                (i, j): a**i * b**j / (factorial(i) * factorial(j))
                for i in range(15)
                for j in range(15 - i)
            }
            tab = symbols.table_from_dict(coeffs, 14)
            return contours.gaussian_expansion(tab, p["hbar"], rho=0.8, eta=0.4, delta=0.85)
        if fam == "contour":
            ph = contours.QuadraticPhase(np.array([[1.0]]), np.array([0.0]))
            cont = contours.AffineContour([[np.exp(1j * p["phi"])]], [0.0])
            return contours.affine_contour_is_good(cont, ph)
        if fam == "sqrt":
            return contours.complex_sym_sqrt(p["h"])
        raise ValueError(fam)

    def check(self, job: Job, out):
        p = job.params
        fam = job.family
        if fam == "sharp":
            nf, ng, nfg, ntail = out
            sub = bool(np.all(nfg <= nf * ng * (1 + 1e-12) + 1e-12))
            sf = np.concatenate([[0.0, 0.0], nf[:-2]])
            sg = np.concatenate([[0.0, 0.0], ng[:-2]])
            brk = bool(np.all(ntail <= 2 * sf * sg * (1 + 1e-12) + 1e-12))
            return sub and brk, f"submultiplicative {sub}, bracket bound {brk}", None
        if fam == "moser":
            mu, res = out
            order, deg = p["order"], p["degree"]
            one = symbols.FormalSymbol.constant(1.0, order, deg)
            g = p["g"]
            worst = 0.0
            for tau in (0.5, 1.0):
                a_t = res.a_at(tau)
                lhs = symbols.sharp_product(
                    mu.resized(order, deg) + tau * g.shift_up(2).resized(order, deg), one + a_t, order, deg
                )
                rhs = symbols.sharp_product(
                    one + a_t, mu.resized(order, deg) + res.r_symbol(tau).shift_up(2).resized(order, deg),
                    order, deg,
                )
                worst = max(worst, (lhs - rhs).norm_inf())
            lead = float(np.abs(res.r_final[0] - np.diagonal(g.term(0).t)).max())
            return worst <= 1e-10 and lead <= 1e-12, f"identity residual {worst:.2e}, leading r {lead:.2e}", None
        if fam == "birkhoff":
            tab, br = out
            deg = p["degree"]
            cur = symbols.pullback_linear(tab, np.linalg.inv(br.linear_map), deg)
            for gen in br.generators:
                cur = symbols.lie_transport(cur, gen, deg)
            off = cur.t.copy()
            np.fill_diagonal(off, 0.0)
            radial = np.diagonal(cur.t)
            expect = np.array([br.mu0[a] * br.d0**a for a in range(len(radial))])
            scale = max(1.0, float(np.abs(cur.t).max()))
            resid = max(float(np.abs(off).max()), float(np.abs(radial - expect).max())) / scale
            return resid <= 1e-9, f"radial residual {resid:.2e}", None
        if fam == "qnf":
            profiles, _ = out
            tab = symbols.table_from_dict(p["coeffs"], p["degree"])
            br = symbols.birkhoff_normal_form(tab, p["degree"])
            classical = np.array([br.mu0[a] * br.d0**a for a in range(len(profiles[0]))])
            err = float(np.abs(profiles[0] - classical).max())
            ok = err <= 1e-9 and len(profiles) == p["order"] + 1
            return ok, f"order-0 profile vs Birkhoff {err:.2e}", None
        if fam == "theta":
            b, r, g = out
            deg = p["t"].shape[0] - 1
            lhs = symbols.table_product(
                symbols.radial_table(p["mu_prime"], deg), symbols.theta_derivative(b), deg
            )
            rhs = symbols.TaylorTable2D(p["t"]) - symbols.radial_table(r, deg)
            coh = (lhs - rhs).norm_inf()
            off = p["t"].copy()
            np.fill_diagonal(off, 0.0)
            rt = (symbols.theta_derivative(g) - symbols.TaylorTable2D(off)).norm_inf()
            return coh <= 1e-10 and rt <= 1e-13, f"cohomology {coh:.2e}, round trip {rt:.2e}", None
        if fam == "gaussian":
            x = p["a"] * p["b"] * p["hbar"]
            n = out.n_used
            exact = np.exp(x)
            bound = abs(x) ** n / factorial(n) * np.exp(abs(x)) + 1e-13
            err = abs(out.value - exact)
            return err <= bound, f"error {err:.2e} vs Taylor remainder {bound:.2e}", None
        if fam == "contour":
            expect = abs(np.tan(p["phi"]))
            ok = abs(out["contraction"] - expect) <= 1e-12 * max(1.0, expect) and out["good"] == (expect < 1)
            return ok, f"contraction {out['contraction']:.6f} vs |tan phi| {expect:.6f}", None
        if fam == "sqrt":
            h = p["h"]
            sq = float(np.abs(out @ out - h).max() / np.abs(h).max())
            sym = float(np.abs(out - out.T).max() / max(np.abs(out).max(), 1e-30))
            return sq <= 1e-12 and sym <= 1e-12, f"|P^2-H|/|H| {sq:.2e}, asymmetry {sym:.2e}", None
        raise ValueError(fam)


# ---------------------------------------------------------------------------
# spectra


class Spectra:
    PASS_S = 2.6  # nominal seconds of a pass (see worker.n_passes)
    # hbar 0.015 needs a 512 truncation and triples the cost of a job; at
    # 0.02 an order-2, degree-8 normal form keeps the residuals at about half
    # the 1e-3 hbar limit for every c the generator draws
    MULTIWELL_HBAR = 0.02

    def _eigen(self, rng, hbar: float, at_cap: bool) -> Job:
        form = _random_elliptic_form(rng)
        if at_cap:
            # starting truncation already equals n_cap: the documented outcome
            # is NoConvergence
            return Job("eigen-at-cap", {"form": form, "hbar": hbar, "n": 64, "n_cap": 64},
                       expect="NoConvergence",
                       known_defect=("eigen_spectrum-start-at-cap", "UnboundLocalError"))
        # start at n = 128 so that one doubling makes a job of about 0.2 s:
        # much shorter jobs pick up the machine's sub-second stalls whole and
        # make the tail job a matter of chance
        return Job("eigen", {"form": form, "hbar": hbar, "n": 128, "n_cap": 4096})

    def _multiwell(self, rng, hbar: float, order=2, degree=8, n_start=128) -> Job:
        c = complex(rng.uniform(0.8, 1.1) * np.exp(1j * rng.uniform(0.1, 0.35)))
        return Job("multiwell", {"c": c, "hbar": hbar, "order": order, "degree": degree, "n_start": n_start})

    def warmup(self, rng) -> list[Job]:
        return [self._eigen(rng, 0.1, False), self._eigen(rng, 0.1, True),
                self._multiwell(rng, 0.1, order=1, degree=4, n_start=32)]

    def pass_jobs(self, rng, tiny: bool) -> list[Job]:
        if tiny:
            jobs = [self._eigen(rng, 0.1, False), self._eigen(rng, 0.1, True),
                    self._multiwell(rng, self.MULTIWELL_HBAR)]
        else:
            # the two multiwell slots are the slowest and hold more than ten
            # jobs from six passes on, so the tail job is the faster of them;
            # the eigen slots hold the median
            jobs = [self._eigen(rng, h, False) for h in (0.1, 0.05) for _ in range(2)]
            jobs += [self._eigen(rng, h, True) for h in (0.1, 0.05)]
            jobs += [self._multiwell(rng, self.MULTIWELL_HBAR) for _ in range(2)]
        _shuffle_slots(rng, jobs)
        return jobs

    def run(self, job: Job):
        p = job.params
        if job.family == "multiwell":
            return spectral.multiwell_compare(
                _two_well(p["c"]), p["hbar"], wells=[1.0, -1.0], order=p["order"], degree=p["degree"],
                n_start=p["n_start"],
            )
        form = p["form"]
        quadratic.reduce_quadratic(form)
        lam = quadratic.exact_quadratic_spectrum(form, p["hbar"], 5)
        m = bargmann.assemble_toeplitz(form.to_symbol(), p["hbar"], p["n"])
        spec = spectral.eigen_spectrum(m, 5, tol=1e-8, n_cap=p["n_cap"])
        return lam, spec

    def check(self, job: Job, out):
        p = job.params
        if job.family == "multiwell":
            worst = float(out.residuals.max())
            limit = 1e-3 * p["hbar"]
            ok = worst <= limit and len(out.eigenvalues) > 0
            return ok, f"{len(out.eigenvalues)} matched, max residual {worst:.2e} (limit {limit:.1e})", None
        lam, spec = out
        rel = float(np.max(np.abs((spec.eigenvalues - lam) / lam)))
        return rel <= 1e-6, f"relative error vs exact spectrum {rel:.2e}", None


# ---------------------------------------------------------------------------
# cli


RUNNER = HERE / "cli_runner.py"
REPORT_MARK = "@perfbench "


def run_cli(argv: list[str], trace: bool) -> tuple[int, str, dict]:
    """One fresh interpreter through the runner; returns (exit code, stdout,
    runner report).  The report line is the runner's last stderr line."""
    proc = subprocess.run(
        [sys.executable, str(RUNNER), *argv],
        cwd=ROOT,
        env=dict(os.environ, PERFBENCH_TRACE="1" if trace else "0"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    report = {}
    for line in reversed(proc.stderr.splitlines()):
        if line.startswith(REPORT_MARK):
            report = json.loads(line[len(REPORT_MARK):])
            break
    report["stderr_tail"] = proc.stderr[-400:]
    return proc.returncode, proc.stdout, report


class Cli:
    PASS_S = 9.0  # nominal seconds of a pass (see worker.n_passes)
    BAD = ("unknown-unit", "non-quadratic", "empty-tasks", "hbar-range", "unknown-task")

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.counter = 0
        self.passes = 0

    def _job(self, rng, family: str, bad: str | None = None) -> Job:
        self.counter += 1
        tag = f"{os.getpid()}-{self.counter}"
        if family == "spectrum":
            form = _random_elliptic_form(rng)
            hbar = float(rng.choice([0.1, 0.05]))
            argv = ["spectrum", "--symbol", form.to_symbol().to_json(), "--hbar", repr(hbar), "--count", "5"]
            return Job(family, {"argv": argv, "form": form, "hbar": hbar})
        if family == "normal-form":
            form = _random_elliptic_form(rng)
            return Job(family, {"argv": ["normal-form", "--symbol", form.to_symbol().to_json()], "form": form})
        if family == "birkhoff":
            coeffs = {(1, 1): 1.0, (2, 2): float(rng.uniform(0.05, 0.5)),
                      (2, 1): 0.1 * complex(rng.normal(), rng.normal())}
            coeffs[(1, 2)] = coeffs[(2, 1)].conjugate()
            sym = bargmann.MonomialSymbol(coeffs)
            return Job(family, {"argv": ["birkhoff", "--symbol", sym.to_json(), "--degree", "8"], "coeffs": coeffs})
        if family == "moser":
            coeffs = {(1, 0): complex(rng.normal(), rng.normal()), (2, 1): 0.3 * complex(rng.normal(), rng.normal())}
            sym = bargmann.MonomialSymbol(coeffs)
            argv = ["moser", "--symbol", sym.to_json(), "--order", "3", "--degree", "4"]
            return Job(family, {"argv": argv, "coeffs": coeffs})
        if family == "action":
            d = complex(rng.normal(), rng.normal())
            d += 0.5 if abs(d) < 0.3 else 0.0
            energy = 0.3 * complex(rng.normal(), rng.normal())
            w = int(rng.integers(1, 3))
            argv = ["action", f"--d={d.real!r},{d.imag!r}", f"--energy={energy.real!r},{energy.imag!r}",
                    f"--winding={w}"]
            return Job(family, {"argv": argv, "d": d, "energy": energy, "winding": w})
        if family == "pseudospec":
            form = _random_elliptic_form(rng)
            x0 = rng.uniform(0.0, 0.2)
            y0 = rng.uniform(0.0, 0.2)
            rect = (x0, x0 + 0.15, y0, y0 + 0.12)
            argv = ["pseudospec", "--symbol", form.to_symbol().to_json(), "--hbar", "0.1",
                    "--rect", ",".join(repr(v) for v in rect), "--res", "6,6", "--n-max", "64", "--c", "0.3"]
            return Job(family, {"argv": argv, "form": form, "hbar": 0.1, "sample": int(rng.integers(36))})
        if family == "run":
            form = _random_elliptic_form(rng)
            out_dir = OUT / "cli-run" / tag
            cfg = {
                "seed": int(rng.integers(1000)),
                "out_dir": str(out_dir),
                "hbar": [0.1],
                "n_max": 64,
                "symbol": {"inline": json.loads(form.to_symbol().to_json())},
                "tasks": [
                    {"type": "spectrum", "count": 4, "out": "eig.csv"},
                    {"type": "normal-form", "out": "nf.json"},
                    {"type": "action", "d": [1.0, 0.0], "energy": [float(rng.uniform(0.1, 0.5)), 0.0],
                     "out": "action.json"},
                ],
            }
            return Job(family, {"cfg": cfg, "tag": tag, "form": form})
        if family == "bad-input":
            return Job(family, {"bad": bad, "tag": tag})
        raise ValueError(family)

    def _argv(self, job: Job) -> list[str]:
        p = job.params
        if job.family == "run" or (job.family == "bad-input" and p["bad"] in self.BAD[2:]):
            cfg = p.get("cfg")
            if job.family == "bad-input":
                cfg = {"out_dir": str(OUT / "cli-run" / p["tag"]), "symbol": {"shorthand": "p^2+q^2"},
                       "tasks": [{"type": "spectrum"}]}
                if p["bad"] == "empty-tasks":
                    cfg["tasks"] = []
                elif p["bad"] == "hbar-range":
                    cfg["hbar"] = [1.5]
                else:
                    cfg["tasks"] = [{"type": "no-such-task"}]
            path = OUT / "cli-run" / f"{p['tag']}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(cfg))
            return ["run", "--config", str(path)]
        if job.family == "bad-input":
            if p["bad"] == "unknown-unit":
                return ["spectrum", "--symbol", "p^3+q^2", "--hbar", "0.1"]
            return ["normal-form", "--symbol", "|z|^4+z^2"]
        return p["argv"]

    def warmup(self, rng) -> list[Job]:
        return [self._job(rng, "action")]

    def pass_jobs(self, rng, tiny: bool) -> list[Job]:
        fams = ["spectrum", "normal-form", "birkhoff", "moser", "action", "pseudospec", "run"]
        if tiny:
            fams = ["action", "run"]
        jobs = [self._job(rng, f) for f in fams]
        # three bad inputs per pass, taking the five kinds in turn; they all
        # fail at argument or config parsing and cost about the same
        k = 1 if tiny else 3
        bad = [self.BAD[(k * self.passes + i) % len(self.BAD)] for i in range(k)]
        self.passes += 1
        jobs += [self._job(rng, "bad-input", b) for b in bad]
        _shuffle_slots(rng, jobs)
        return jobs

    def prepare(self, job: Job) -> None:
        job.extra["argv"] = self._argv(job)

    def run(self, job: Job):
        return run_cli(job.extra["argv"], self.trace)

    def check(self, job: Job, out):
        rc, stdout, report = out
        p = job.params
        fam = job.family
        if fam == "bad-input":
            return rc == 1, f"exit {rc} (want 1)", None
        if rc != 0:
            return False, f"exit {rc} (want 0): {report.get('stderr_tail', '')[-200:]}", None
        try:
            if fam == "spectrum":
                ev = np.array([complex(float(a), float(b)) for a, b in
                               (line.split(",") for line in stdout.strip().splitlines())])
                lam = quadratic.exact_quadratic_spectrum(p["form"], p["hbar"], 5)
                rel = float(np.max(np.abs((ev - lam) / lam)))
                return rel <= 1e-6, f"relative error {rel:.2e}", None
            if fam == "normal-form":
                doc = json.loads(stdout)
                d0 = complex(*doc["d0"])
                ref = quadratic.reduce_quadratic(p["form"]).d0
                return abs(d0 - ref) <= 1e-12 * abs(ref), f"d0 {d0} vs {ref}", None
            if fam == "birkhoff":
                doc = json.loads(stdout)
                mu0 = np.array([complex(*v) if isinstance(v, list) else v for v in doc["mu0"]])
                tab = symbols.table_from_dict(p["coeffs"], 8)
                ref = symbols.birkhoff_normal_form(tab, 8).mu0
                err = float(np.abs(mu0 - ref).max())
                return err <= 1e-12, f"mu0 vs in-process {err:.2e}", None
            if fam == "moser":
                doc = json.loads(stdout)
                r_final = [np.array([complex(*v) if isinstance(v, list) else v for v in prof])
                           for prof in doc["r_final"]]
                degree = 4 + 2 * 3
                mu = symbols.FormalSymbol([symbols.radial_table(np.array([0.0, 1.0]), degree)])
                g = symbols.FormalSymbol([symbols.table_from_dict(p["coeffs"], degree)])
                ref = symbols.moser_normal_form(mu, g, 3, degree).r_final
                err = max(float(np.abs(a - b).max()) for a, b in zip(r_final, ref))
                ok = len(r_final) == len(ref) and err <= 1e-12
                return ok, f"{len(r_final)} radial profiles, vs in-process {err:.2e}", None
            if fam == "action":
                doc = json.loads(stdout)
                value = complex(*doc["value"])
                closed = 2 * np.pi * p["energy"] * p["winding"] / p["d"]
                err = abs(value - closed)
                return err <= 1e-8, f"closed-form error {err:.2e}", None
            if fam == "pseudospec":
                rows = [line.split(",") for line in stdout.strip().splitlines()]
                if len(rows) != 36 or any(len(r) != 4 for r in rows):
                    return False, f"{len(rows)} rows", None
                x, y, s, _ = rows[p["sample"]]
                m = bargmann.assemble_toeplitz(p["form"].to_symbol(), p["hbar"], 64)
                ok, d, _ = _dense_sigma_check(m.entries, complex(float(x), float(y)), float(s))
                return ok, d, None
            if fam == "run":
                out_dir = Path(p["cfg"]["out_dir"])
                manifest = json.loads((out_dir / "manifest.json").read_text())
                arts = manifest["artifacts"]
                ok = len(arts) == 3 and all(
                    hashlib.sha256(Path(a["path"]).read_bytes()).hexdigest() == a["sha256"] for a in arts
                )
                return ok, f"{len(arts)} artifacts, hashes {'match' if ok else 'differ'}", None
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return False, f"unparseable output: {exc!r}", None
        raise ValueError(fam)


def make(name: str, trace: bool = False):
    if name == "pseudospectrum":
        return Pseudospectrum()
    if name == "symbol-calculus":
        return SymbolCalculus()
    if name == "spectra":
        return Spectra()
    if name == "cli":
        return Cli(trace)
    raise KeyError(name)


NAMES = ("pseudospectrum", "symbol-calculus", "spectra", "cli")
