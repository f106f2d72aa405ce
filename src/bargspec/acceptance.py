"""Acceptance criteria as callable checks.

Each criterion returns a CriterionResult; `run_all` executes every criterion
and is what both `bargspec verify` and tests/test_acceptance.py consume.
All randomised corpora draw from one seeded generator (default seed 0).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import bargmann, contours, quadratic, spectral, symbols

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.elapsed:.1f}s]" if self.elapsed >= 0.1 else ""
        return f"[{status}] {self.index:2d} {self.name}{extra}: {self.detail}"


def _timed(fn):
    t0 = time.perf_counter()
    passed, detail = fn()
    return passed, detail, time.perf_counter() - t0


def _linfit_r2(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    x, y = np.asarray(x, float), np.asarray(y, float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = np.sum((y - pred) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    return float(slope), float(1.0 - ss_res / ss_tot)


def _random_formal_symbol(rng, order: int, degree: int, pad: int) -> symbols.FormalSymbol:
    terms = []
    for _ in range(order + 1):
        t = np.zeros((pad + 1, pad + 1), dtype=complex)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                t[a, b] = rng.normal() + 1j * rng.normal()
        terms.append(symbols.TaylorTable2D(t))
    return symbols.FormalSymbol(terms)


# ---------------------------------------------------------------------------


def criterion_1(seed: int = 0) -> CriterionResult:
    """Quadratic spectrum reproduction for three rotated oscillators."""

    def body():
        cases = [
            quadratic.ComplexQuadraticForm(1.0, 1.0, 0.0),
            quadratic.ComplexQuadraticForm(1.0, np.exp(1j * np.pi / 4), 0.0),
            quadratic.ComplexQuadraticForm(1.0, np.exp(0.9j * np.pi / 2), 0.0),
        ]
        worst = 0.0
        slowest = 0.0
        for form in cases:
            for hbar in (0.1, 0.05):
                t0 = time.perf_counter()
                lam = quadratic.exact_quadratic_spectrum(form, hbar, 5)
                m = bargmann.assemble_toeplitz(form.to_symbol(), hbar, 64)
                spec = spectral.eigen_spectrum(m, 5, tol=1e-8)
                rel = np.max(np.abs((spec.eigenvalues - lam) / lam))
                worst = max(worst, float(rel))
                slowest = max(slowest, time.perf_counter() - t0)
        passed = worst <= 1e-6 and slowest <= 60.0
        return passed, f"worst relative error {worst:.2e} (tol 1e-6), slowest case {slowest:.1f}s"

    p, d, t = _timed(body)
    return CriterionResult(1, "quadratic spectrum vs matrix", p, d, t)


def criterion_2(seed: int = 0) -> CriterionResult:
    """Harmonic-oscillator exactness: T(|z|^2) = diag hbar (k+1)."""

    def body():
        worst = 0.0
        for hbar in (0.5, 0.1, 0.01):
            n = 300
            m = bargmann.assemble_toeplitz(bargmann.MonomialSymbol({(1, 1): 1.0}), hbar, n)
            expect = hbar * (np.arange(n) + 1.0)
            off = m.entries - np.diag(expect)
            worst = max(worst, float(np.abs(off).max() / (hbar * n)))
        return worst <= 1e-14, f"max deviation {worst:.2e} (machine precision)"

    p, d, t = _timed(body)
    return CriterionResult(2, "harmonic oscillator exactness", p, d, t)


def criterion_3(seed: int = 0) -> CriterionResult:
    """Matrix/symbol arbitration: T(|z|^2)^2 = T(|z|^2 # |z|^2) to 1e-12."""

    def body():
        worst = 0.0
        for hbar in (0.3, 0.1):
            n = 80
            zz = symbols.FormalSymbol([symbols.radial_table(np.array([0, 1.0]), 4)])
            prod = symbols.sharp_product(zz, zz, 2, 4)
            coeffs: dict[tuple[int, int], complex] = {}
            for k in range(prod.order + 1):
                for a in range(prod.degree + 1):
                    for b in range(prod.degree + 1 - a):
                        c = prod.term(k).t[a, b]
                        if c != 0:
                            coeffs[(a, b)] = coeffs.get((a, b), 0.0) + c * hbar**k
            m1 = bargmann.assemble_toeplitz(bargmann.MonomialSymbol({(1, 1): 1.0}), hbar, n)
            m2 = bargmann.assemble_toeplitz(bargmann.MonomialSymbol(coeffs), hbar, n)
            k = n - 2
            diff = (m1.entries @ m1.entries)[:k, :k] - m2.entries[:k, :k]
            worst = max(worst, float(np.abs(diff).max()))
        return worst <= 1e-12, f"max entry difference {worst:.2e} (tol 1e-12)"

    p, d, t = _timed(body)
    return CriterionResult(3, "star-product arbitration", p, d, t)


def criterion_4(seed: int = 0) -> CriterionResult:
    """Formal-norm submultiplicativity and the bracket bound, 200 random pairs."""

    def body():
        rng = np.random.default_rng(seed)
        violations = 0
        margin = 1e-12
        for _ in range(200):
            order = int(rng.integers(0, 4))
            degree = int(rng.integers(1, 7))
            f = _random_formal_symbol(rng, order, degree, 2 * degree)
            g = _random_formal_symbol(rng, int(rng.integers(0, 4)), degree, 2 * degree)
            rho = float(rng.choice([0.1, 0.3]))
            smax = 2 * max(f.order, g.order) + 4 * degree
            fg = symbols.sharp_product(f, g, f.order + g.order, 2 * degree)
            nf = symbols.formal_norm(f, rho, smax).cumulative
            ng = symbols.formal_norm(g, rho, smax).cumulative
            nfg = symbols.formal_norm(fg, rho, smax).cumulative
            if np.any(nfg > nf * ng * (1 + 1e-12) + margin):
                violations += 1
            # bracket bound: ||[f,g]_# - i hbar {f,g}||_{rho,s-} <= 2 ||f||_{(s-2)-} ||g||_{(s-2)-}
            tail = symbols.sharp_bracket_tail(f, g, 2, f.order + g.order + 1, 2 * degree)
            ntail = symbols.formal_norm(tail, rho, smax).cumulative
            shifted_f = np.concatenate([[0.0, 0.0], nf[:-2]])
            shifted_g = np.concatenate([[0.0, 0.0], ng[:-2]])
            if np.any(ntail > 2 * shifted_f * shifted_g * (1 + 1e-12) + margin):
                violations += 1
        return violations == 0, f"{violations} violations over 200 random pairs"

    p, d, t = _timed(body)
    return CriterionResult(4, "formal-norm inequalities", p, d, t)


def criterion_5(seed: int = 0) -> CriterionResult:
    """theta-calculus round trip and averaging contraction on 100 tables."""

    def body():
        rng = np.random.default_rng(seed + 1)
        worst_rt = 0.0
        contraction_ok = True
        for _ in range(100):
            degree = int(rng.integers(2, 9))
            t = np.zeros((degree + 1, degree + 1), dtype=complex)
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    if a != b:
                        t[a, b] = rng.normal() + 1j * rng.normal()
            f = symbols.TaylorTable2D(t)
            g = symbols.theta_antiderivative(f)
            worst_rt = max(worst_rt, (symbols.theta_derivative(g) - f).norm_inf())
            for rho in (0.1, 0.3):
                nf = symbols.formal_norm(symbols.FormalSymbol([f]), rho).per_order
                ng = symbols.formal_norm(symbols.FormalSymbol([g]), rho).per_order
                if np.any(ng > nf * (1 + 1e-12) + 1e-14):
                    contraction_ok = False
        passed = worst_rt <= 1e-13 and contraction_ok
        return passed, f"round-trip error {worst_rt:.2e}, contraction {'ok' if contraction_ok else 'VIOLATED'}"

    p, d, t = _timed(body)
    return CriterionResult(5, "theta calculus round trip", p, d, t)


def criterion_6(seed: int = 0) -> CriterionResult:
    """Moser: defining identity coefficient-exact for 20 random g at K=3, deg 4."""

    def body():
        rng = np.random.default_rng(seed + 2)
        order, deg_g, deg_int = 3, 4, 10
        mu = symbols.FormalSymbol([symbols.radial_table(np.array([0, 1.0]), deg_int)])
        one = symbols.FormalSymbol.constant(1.0, order, deg_int)
        worst_res, worst_r = 0.0, 0.0
        for _ in range(20):
            g = _random_formal_symbol(rng, 0, deg_g, deg_int)
            res = symbols.moser_normal_form(mu, g, order, deg_int)
            for tau in (0.5, 1.0):
                a_t = res.a_at(tau)
                lhs = symbols.sharp_product(
                    mu.resized(order, deg_int) + tau * g.shift_up(2).resized(order, deg_int),
                    one + a_t, order, deg_int,
                )
                rhs = symbols.sharp_product(
                    one + a_t,
                    mu.resized(order, deg_int) + res.r_symbol(tau).shift_up(2).resized(order, deg_int),
                    order, deg_int,
                )
                worst_res = max(worst_res, (lhs - rhs).norm_inf())
            worst_r = max(
                worst_r, float(np.abs(res.r_final[0] - np.diagonal(g.term(0).t)).max())
            )
        passed = worst_res <= 1e-10 and worst_r <= 1e-12
        return passed, f"identity residual {worst_res:.2e}, leading r vs radial average {worst_r:.2e}"

    p, d, t = _timed(body)
    return CriterionResult(6, "Moser iteration residual", p, d, t)


def criterion_7(seed: int = 0) -> CriterionResult:
    """Gaussian expansion: log-error vs 1/hbar linear with slope<0, R^2>0.95."""

    def body():
        degree = 14
        coeffs = {
            (a, b): 1.0 / (factorial(a) * factorial(b))
            for a in range(degree + 1)
            for b in range(degree + 1 - a)
        }
        tab = symbols.table_from_dict(coeffs, degree)
        hbars = np.array([0.4, 0.2, 0.1, 0.05])
        errs = []
        for hbar in hbars:
            res = contours.gaussian_expansion(tab, hbar, rho=0.8, eta=0.4, delta=0.85)
            quad = bargmann.gaussian_mean(lambda z: np.exp(z + np.conj(z)), hbar)
            errs.append(abs(res.value - quad))
        slope, r2 = _linfit_r2(1.0 / hbars, np.log(np.array(errs)))
        passed = slope < 0 and r2 > 0.95
        return passed, f"slope {slope:.3f}, R^2 {r2:.4f} (need <0 and >0.95)"

    p, d, t = _timed(body)
    return CriterionResult(7, "Gaussian expansion exponential accuracy", p, d, t)


def criterion_8(seed: int = 0) -> CriterionResult:
    """Contour predicate: worked examples exact, sampling consistency on 50."""

    def body():
        ph = contours.QuadraticPhase(np.array([[1.0]]), np.array([0.0]))
        r1 = contours.affine_contour_is_good(contours.AffineContour([[1.0]], [0.0]), ph)
        r2 = contours.affine_contour_is_good(contours.AffineContour([[1j]], [0.0]), ph)
        r3 = contours.affine_contour_is_good(
            contours.AffineContour([[np.exp(1j * np.pi / 8)]], [0.0]), ph
        )
        examples_ok = (
            r1["good"]
            and r1["contraction"] == 0.0
            and not r2["good"]
            and r3["good"]
            and abs(r3["contraction"] - np.tan(np.pi / 8)) <= 1e-12
        )
        rng = np.random.default_rng(seed + 3)
        bad = 0
        for _ in range(50):
            d = int(rng.integers(1, 4))
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = 0.5 * (h + h.T) + 0.5 * np.eye(d)
            if abs(np.linalg.det(h)) < 1e-6:
                continue
            yc = 0.1 * (rng.normal(size=d) + 1j * rng.normal(size=d))
            phase = contours.QuadraticPhase(h, yc)
            a = rng.normal(size=(d, d)) + 0.35j * rng.normal(size=(d, d))
            if abs(np.linalg.det(a)) < 1e-6:
                continue
            through = bool(rng.integers(0, 2))
            b = yc.copy() if through else yc + 0.7 * (rng.normal(size=d) + 1j * rng.normal(size=d))
            contour = contours.AffineContour(a, b)
            verdict = contours.affine_contour_is_good(contour, phase)
            if verdict["good"]:
                # sampled decay: Re(F - F(y_c)) <= -C |y - y_c|^2 with fitted C > 0
                ratios = []
                for _ in range(1000):
                    w = rng.normal(size=d) * rng.choice([0.3, 1.0, 3.0])
                    y = contour.point(w)
                    dist = np.linalg.norm(y - yc)
                    if dist < 0.1:
                        continue
                    ratios.append((phase(y) - phase(yc)).real / dist**2)
                if ratios and max(ratios) >= 0:
                    bad += 1
            elif not verdict["singular_m"] and verdict["passes_through_critical"]:
                # contraction >= 1: some real direction fails to decay
                p = contours.complex_sym_sqrt(h)
                pa = p @ contour.a
                m, nmat = pa.real, pa.imag
                _, svecs = np.linalg.eigh(
                    (nmat @ np.linalg.inv(m)).T @ (nmat @ np.linalg.inv(m))
                )
                t0 = np.linalg.inv(m) @ svecs[:, -1]
                growth = [
                    (phase(contour.point(l * t0)) - phase(yc)).real for l in (5.0, 10.0, 20.0)
                ]
                if max(growth) < 0:
                    bad += 1
        passed = examples_ok and bad == 0
        return passed, f"worked examples {'ok' if examples_ok else 'FAIL'}, {bad} sampling inconsistencies"

    p, d, t = _timed(body)
    return CriterionResult(8, "good-contour predicate", p, d, t)


def criterion_9(seed: int = 0) -> CriterionResult:
    """Matrix square root on 100 random complex symmetric invertible matrices."""

    def body():
        rng = np.random.default_rng(seed + 4)
        worst_sq, worst_sym = 0.0, 0.0
        done = 0
        while done < 100:
            d = int(rng.integers(1, 5))
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = 0.5 * (h + h.T)
            if abs(np.linalg.det(h)) < 1e-4:
                continue
            p = contours.complex_sym_sqrt(h)
            worst_sq = max(worst_sq, float(np.abs(p @ p - h).max() / np.abs(h).max()))
            worst_sym = max(worst_sym, float(np.abs(p - p.T).max() / max(np.abs(p).max(), 1e-30)))
            done += 1
        passed = worst_sq <= 1e-12 and worst_sym <= 1e-12
        return passed, f"worst |P^2-H|/|H| = {worst_sq:.2e}, asymmetry {worst_sym:.2e}"

    p, d, t = _timed(body)
    return CriterionResult(9, "complex symmetric square root", p, d, t)


def criterion_10(seed: int = 0) -> CriterionResult:
    """Pseudospectrum: isolating c exists at hbar = 0.05; interior decay fit."""

    def body():
        theta = 0.9 * np.pi / 2
        form = quadratic.ComplexQuadraticForm(1.0, np.exp(1j * theta), 0.0)
        hbar = 0.05
        t_grid0 = time.perf_counter()
        m = bargmann.assemble_toeplitz(form.to_symbol(), hbar, 256)
        lam = quadratic.exact_quadratic_spectrum(form, hbar, 6)
        field = spectral.resolvent_grid(m, (0.02, 0.34, 0.01, 0.30), (200, 200))
        scan = spectral.scan_isolating_c(field, lam, np.linspace(0.05, 0.8, 31), hbar)
        t_grid = time.perf_counter() - t_grid0
        grid_ok = scan["c_min"] is not None and scan["n_eigenvalues"] >= 3

        # interior exponential smallness at a fixed point off the eigenvalue ray
        lam_star = 0.24 * np.exp(0.35j * theta)
        hbars = np.array([0.2, 0.1, 0.05, 0.033])
        sigmas = []
        for h in hbars:
            mh = bargmann.assemble_toeplitz(form.to_symbol(), h, 256)
            sigmas.append(max(spectral.sigma_min(mh, lam_star), 1e-300))
        slope, r2 = _linfit_r2(1.0 / hbars, np.log(np.array(sigmas)))
        decay_ok = slope < 0 and r2 > 0.9
        passed = grid_ok and decay_ok and t_grid <= 300.0
        return passed, (
            f"isolating c in [{scan['c_min']}, {scan['c_max']}] over {scan['n_eigenvalues']} eigenvalues, "
            f"grid {t_grid:.0f}s (limit 300); interior slope {slope:.2f}, R^2 {r2:.3f}"
        )

    p, d, t = _timed(body)
    return CriterionResult(10, "pseudospectrum structure", p, d, t)


def criterion_11(seed: int = 0) -> CriterionResult:
    """Action integral closed form and A o mu0 linearity."""

    def body():
        rng = np.random.default_rng(seed + 5)
        worst = 0.0
        for _ in range(20):
            d = rng.normal() + 1j * rng.normal()
            if abs(d) < 0.3:
                d += 0.5
            energy = 0.3 * (rng.normal() + 1j * rng.normal())
            for w in (1, 2):
                res = spectral.action_integral(d, energy, w)
                worst = max(worst, abs(res["value"] - res["closed_form"]))
        # A o mu0 = 2 pi z / d0 for f = |z|^2 + 0.1 |z|^4 (d0 = 1)
        tab = symbols.table_from_dict({(1, 1): 1.0, (2, 2): 0.1}, 8)
        br = symbols.birkhoff_normal_form(tab)
        ext = lambda x, v: x * v + 0.1 * (x * v) ** 2
        n = 16
        r = 0.04
        zs = r * np.exp(2j * np.pi * np.arange(n) / n)
        mu0_vals = np.polynomial.polynomial.polyval(zs, br.mu0)
        actions = np.array(
            [spectral.action_level_set(ext, E, br.d0) for E in mu0_vals]
        )
        # coefficient of z^k on the sampling circle: fft with the e^{-i k theta} kernel
        coef = np.fft.fft(actions) / n / r ** np.arange(n)
        lin_err = abs(coef[1] - 2 * np.pi / br.d0)
        rest = np.abs(np.concatenate([coef[:1], coef[2:6]])).max()
        passed = worst <= 1e-8 and lin_err <= 1e-7 and rest <= 1e-6
        return passed, (
            f"worst closed-form error {worst:.2e} (tol 1e-8); "
            f"A o mu0 linear coefficient error {lin_err:.2e}, residual coefficients {rest:.2e}"
        )

    p, d, t = _timed(body)
    return CriterionResult(11, "action integral", p, d, t)


def criterion_12(seed: int = 0) -> CriterionResult:
    """Two-well spectrum matched to predicted lattices; symmetric degeneracy."""

    def body():
        c = 1.0 + 0.3j
        sym = bargmann.MonomialSymbol({(2, 2): c, (2, 0): -c, (0, 2): -c, (0, 0): c})
        hbar = 0.02
        t0 = time.perf_counter()
        rep = spectral.multiwell_compare(sym, hbar, wells=[1.0, -1.0], order=3, degree=12)
        elapsed = time.perf_counter() - t0
        res_ok = rep.residuals.max() <= 1e-3 * hbar
        spacing = abs(hbar * rep.wells[0].d0)
        gaps = sorted(
            abs(rep.eigenvalues[i] - rep.eigenvalues[j])
            for i in range(len(rep.eigenvalues))
            for j in range(i + 1, len(rep.eigenvalues))
        )
        pairs = [g for g in gaps if g <= 1e-8 * spacing]
        degenerate_ok = len(pairs) >= len(rep.eigenvalues) // 2
        passed = res_ok and degenerate_ok and elapsed <= 180.0
        return passed, (
            f"{len(rep.eigenvalues)} eigenvalues matched, max residual {rep.residuals.max():.2e} "
            f"(tol {1e-3 * hbar:.1e}); {len(pairs)} near-degenerate pairs; {elapsed:.0f}s (limit 180)"
        )

    p, d, t = _timed(body)
    return CriterionResult(12, "multi-well lattices and Jordan pairs", p, d, t)


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all(indices: list[int] | None = None, seed: int = 0) -> list[CriterionResult]:
    """Run the acceptance criteria, printing each result line as it ends;
    `seed` governs every randomised corpus."""
    results = []
    for i, crit in enumerate(CRITERIA, start=1):
        if indices and i not in indices:
            continue
        res = crit(seed=seed)
        results.append(res)
        print(res.line(), flush=True)
    return results
