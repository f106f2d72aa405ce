"""Numerical verification layer: adaptive eigensolves of truncated Toeplitz
matrices, resolvent-norm grids and c-analytic pseudospectra, action integrals
on complexified energy levels, Bohr-Sommerfeld index residuals, and multi-well
lattice matching.

The grid evaluation contract: every lambda sample is independent and
side-effect free; workers write to disjoint slots.  BSL_THREADS caps the
worker count (sigma_min calls release the GIL inside LAPACK).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy import ndimage

from .bargmann import MonomialSymbol, ToeplitzMatrix, assemble_toeplitz, check_hbar
from .quadratic import NormalFormData
from .symbols import (
    FormalSymbol,
    oscillator_function_from_symbol,
    quantum_normal_form,
    radial_table,
    radial_toeplitz_eigenvalues,
)

__all__ = [
    "SpectrumResult",
    "PseudospectrumField",
    "NoConvergence",
    "NonClosedContour",
    "InversionFailed",
    "UnmatchedEigenvalue",
    "eigen_spectrum",
    "sigma_min",
    "resolvent_grid",
    "analytic_pseudospectrum",
    "scan_isolating_c",
    "action_integral",
    "action_level_set",
    "bohr_sommerfeld_residuals",
    "multiwell_compare",
    "numerical_range_boundary",
]


class NoConvergence(RuntimeError):
    def __init__(self, msg, result=None):
        super().__init__(msg)
        self.result = result


class NonClosedContour(RuntimeError):
    pass


class InversionFailed(RuntimeError):
    pass


class UnmatchedEigenvalue(RuntimeError):
    pass


def _worker_count() -> int:
    env = os.environ.get("BSL_THREADS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# eigenvalues


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray  # sorted by modulus
    n_max_used: int
    convergence_gap: float
    converged: bool = True


def eigen_spectrum(
    m: ToeplitzMatrix,
    k_wanted: int,
    tol: float = 1e-8,
    n_cap: int = 4096,
) -> SpectrumResult:
    """Smallest-|lambda| eigenvalues with truncation adaptivity: n_max doubles
    until the reported eigenvalues move by less than tol."""
    if m.symbol is None:
        ev = np.linalg.eigvals(m.entries)
        ev = ev[np.argsort(np.abs(ev))][:k_wanted]
        return SpectrumResult(ev, m.dim, 0.0)
    n = m.dim
    hbar = m.hbar
    prev = None
    while True:
        mat = assemble_toeplitz(m.symbol, hbar, n).entries if n != m.dim else m.entries
        ev = np.linalg.eigvals(mat)
        ev = ev[np.argsort(np.abs(ev))][:k_wanted]
        # nan until two truncations report the same number of eigenvalues
        gap = float("nan")
        if prev is not None and len(prev) == len(ev):
            gap = float(np.max(np.abs(ev - prev)))
            if gap < tol:
                return SpectrumResult(ev, n, gap)
        prev = ev
        if n >= n_cap:
            result = SpectrumResult(ev, n, gap, converged=False)
            if np.isnan(gap):
                raise NoConvergence(f"truncation cap {n_cap} reached at n = {n} before a comparison", result)
            raise NoConvergence(f"eigenvalues still moving by {gap:.3e} at n = {n}", result)
        n = min(2 * n, n_cap)


# ---------------------------------------------------------------------------
# resolvent grids


def sigma_min(mat: np.ndarray, lam: complex, dense_cutoff: int = 512) -> float:
    """Smallest singular value of (mat - lam I): full SVD up to dense_cutoff,
    inverse iteration on (A^H A) above it."""
    a = mat - lam * np.eye(mat.shape[0])
    if mat.shape[0] <= dense_cutoff:
        return float(sla.svdvals(a)[-1])
    return _sigma_min_inverse_iteration(a)


def _sigma_min_inverse_iteration(a: np.ndarray, max_iter: int = 40, rtol: float = 1e-9) -> float:
    """Block (size 2) inverse iteration on A^H A with Rayleigh-Ritz extraction;
    the block resolves clustered smallest singular pairs.

    Toeplitz compressions are banded, so the factorisation goes through a
    sparse LU whenever the matrix is sparse enough; deep inside the
    pseudospectrum many singular values sit at the roundoff floor and the
    iteration would crawl, so estimates far below any usable mask threshold
    exit early (the value only needs to be tiny there)."""
    import warnings

    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = a.shape[0]
    nnz = int(np.count_nonzero(a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            if nnz < 0.25 * n * n:
                lu = spla.splu(sp.csc_matrix(a))
                solve_h = lambda b: lu.solve(b, trans="H")
                solve_n = lu.solve
            else:
                fac = sla.lu_factor(a)
                solve_h = lambda b: sla.lu_solve(fac, b, trans=2)
                solve_n = lambda b: sla.lu_solve(fac, b)
        except RuntimeError:
            return 0.0  # exactly singular
    floor = 1e-12 * float(np.abs(a).sum(axis=0).max())
    v = np.ones((n, 2), dtype=complex)
    v[::2, 1] = -1.0
    v, _ = np.linalg.qr(v)
    prev = np.inf
    est = prev
    for it in range(max_iter):
        u = solve_h(v)
        w = solve_n(u)
        if not np.all(np.isfinite(w)):
            return 0.0
        v, _ = np.linalg.qr(w)
        av = a @ v
        gram = av.conj().T @ av
        evs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        est = float(np.sqrt(max(evs[0], 0.0)))
        if abs(est - prev) <= rtol * max(est, 1e-300):
            return est
        if it >= 2 and est <= floor:
            return est
        prev = est
    return float(est)


@dataclass
class PseudospectrumField:
    xs: np.ndarray
    ys: np.ndarray
    sigma: np.ndarray  # sigma[iy, ix] = sigma_min(M - (xs[ix] + i ys[iy]) I)
    n_max: int
    hbar: float

    def lam_grid(self) -> np.ndarray:
        return self.xs[None, :] + 1j * self.ys[:, None]

    def c_mask(self, c: float, hbar: float | None = None) -> np.ndarray:
        h = self.hbar if hbar is None else hbar
        return self.sigma <= np.exp(-c / h)

    def to_csv(self, c: float | None = None) -> str:
        mask = self.c_mask(c) if c is not None else np.zeros_like(self.sigma, dtype=bool)
        lines = []
        for iy, y in enumerate(self.ys):
            for ix, x in enumerate(self.xs):
                lines.append(
                    f"{float(x)!r},{float(y)!r},{float(self.sigma[iy, ix])!r},{int(mask[iy, ix])}"
                )
        return "\n".join(lines) + "\n"


def resolvent_grid(
    m: ToeplitzMatrix,
    rect: tuple[float, float, float, float],
    resolution: tuple[int, int],
    workers: int | None = None,
    dense_cutoff: int = 192,
) -> PseudospectrumField:
    """sigma_min(M - lambda) over a rectangle; embarrassingly parallel.

    Grid throughput dominates runtime, so grids switch from full SVD to the
    LU-based block inverse iteration already at n > 192 (pointwise sigma_min
    keeps the dense route up to 512)."""
    x0, x1, y0, y1 = rect
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be >= 2 per axis")
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    sigma = np.empty((ny, nx))
    workers = _worker_count() if workers is None else workers
    mat = m.entries

    def fill_row(iy: int) -> None:
        for ix in range(nx):
            sigma[iy, ix] = sigma_min(mat, xs[ix] + 1j * ys[iy], dense_cutoff=dense_cutoff)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill_row, range(ny)))
    else:
        for iy in range(ny):
            fill_row(iy)
    return PseudospectrumField(xs=xs, ys=ys, sigma=sigma, n_max=m.dim, hbar=m.hbar)


@dataclass
class PseudospectrumComponents:
    mask: np.ndarray
    labels: np.ndarray
    n_components: int
    eigenvalue_counts: dict[int, int]
    all_contain_eigenvalue: bool


def analytic_pseudospectrum(
    field: PseudospectrumField,
    c: float,
    hbar: float | None = None,
    eigenvalues: np.ndarray | None = None,
) -> PseudospectrumComponents:
    """Mask sigma_min <= e^{-c/hbar}, its 4-connected components, and the count
    of supplied eigenvalues per component (every bounded component must hold
    at least one)."""
    h = field.hbar if hbar is None else hbar
    mask = field.sigma <= np.exp(-c / h)
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, n_comp = ndimage.label(mask, structure=structure)
    counts: dict[int, int] = {k: 0 for k in range(1, n_comp + 1)}
    if eigenvalues is not None:
        for ev in np.atleast_1d(eigenvalues):
            if not (field.xs[0] <= ev.real <= field.xs[-1] and field.ys[0] <= ev.imag <= field.ys[-1]):
                continue
            ix = int(np.argmin(np.abs(field.xs - ev.real)))
            iy = int(np.argmin(np.abs(field.ys - ev.imag)))
            lab = labels[iy, ix]
            if lab > 0:
                counts[lab] += 1
    return PseudospectrumComponents(
        mask=mask,
        labels=labels,
        n_components=n_comp,
        eigenvalue_counts=counts,
        all_contain_eigenvalue=all(v >= 1 for v in counts.values()) if counts else False,
    )


def scan_isolating_c(
    field: PseudospectrumField,
    eigenvalues: np.ndarray,
    c_grid: np.ndarray,
    hbar: float | None = None,
) -> dict:
    """Scan c and report the range where the mask components are pairwise
    disjoint (automatic) with exactly one eigenvalue each and one component
    per eigenvalue in the window."""
    inside = [
        ev
        for ev in np.atleast_1d(eigenvalues)
        if field.xs[0] <= ev.real <= field.xs[-1] and field.ys[0] <= ev.imag <= field.ys[-1]
    ]
    isolating = []
    for c in c_grid:
        comp = analytic_pseudospectrum(field, c, hbar, np.array(inside))
        ok = (
            comp.n_components == len(inside)
            and len(inside) > 0
            and all(v == 1 for v in comp.eigenvalue_counts.values())
        )
        if ok:
            isolating.append(float(c))
    return {
        "isolating_c": isolating,
        "c_min": min(isolating) if isolating else None,
        "c_max": max(isolating) if isolating else None,
        "n_eigenvalues": len(inside),
    }


# ---------------------------------------------------------------------------
# action integrals


def action_integral(
    d: complex,
    energy: complex,
    winding: int = 1,
    tol: float = 1e-10,
) -> dict:
    """-i oint vbar dx over x(t) = sqrt(E/d) e^{it}, vbar(t) = sqrt(E/d) e^{-it},
    t in [0, 2 pi winding]; trapezoid nodes double until two successive values
    agree to `tol` relative, else NoConvergence after 12 doublings.
    Returns the numeric value and the closed form 2 pi E winding / d."""
    if not (np.isfinite(complex(d)) and np.isfinite(complex(energy))):
        raise ValueError(f"d and energy must be finite, got d = {d}, energy = {energy}")
    if d == 0:
        raise ValueError("d must be nonzero")
    winding = int(winding)
    root = np.sqrt(complex(energy) / complex(d))
    closed = 2.0 * np.pi * complex(energy) * winding / complex(d)
    # relative to |root|: for large |E/d| the absolute gap is roundoff alone
    endpoint_gap = abs(root * np.exp(1j * 2 * np.pi * winding) - root)
    if endpoint_gap > 1e-12 * abs(root):
        raise NonClosedContour(f"endpoint mismatch {endpoint_gap:.2e} at |x(0)| = {abs(root):.2e}")

    def value(n: int) -> complex:
        t = np.linspace(0.0, 2.0 * np.pi * winding, n, endpoint=False)
        x = root * np.exp(1j * t)
        vbar = root * np.exp(-1j * t)
        dx = 1j * x  # x'(t)
        integrand = -1j * vbar * dx
        return complex(integrand.mean() * 2.0 * np.pi * winding)

    n = 16
    prev = value(n)
    for _ in range(12):
        n *= 2
        cur = value(n)
        gap = abs(cur - prev)
        if gap <= tol * abs(cur):
            return {"value": cur, "closed_form": closed, "nodes": n}
        prev = cur
    raise NoConvergence(f"action quadrature still moving by {gap:.3e} at {n} nodes")


def action_level_set(
    extension,
    energy: complex,
    d_seed: complex,
    winding: int = 1,
    tol: float = 1e-10,
    radius: float | None = None,
) -> complex:
    """-i oint vbar dx on the level set {f~(x, vbar) = E}, parametrised by
    x(t) on a circle and vbar(t) solved by Newton continuation; raises
    NonClosedContour if the continuation does not return to its start."""
    if radius is None:
        radius = abs(np.sqrt(complex(energy) / complex(d_seed)))

    def solve_ring(n: int) -> np.ndarray:
        t = np.linspace(0.0, 2.0 * np.pi * winding, n, endpoint=False)
        xs = radius * np.exp(1j * t)
        vbars = np.empty(n, dtype=complex)
        v = complex(energy) / (complex(d_seed) * xs[0])
        h = 1e-7
        for j, x in enumerate(xs):
            for _ in range(60):
                fv = extension(x, v) - energy
                if abs(fv) < 1e-13 * max(1.0, abs(energy)):
                    break
                dfdv = (extension(x, v + h) - extension(x, v - h)) / (2 * h)
                v = v - fv / dfdv
            vbars[j] = v
        # closure check: continue from the last node back to t = 0
        v_close = vbars[-1]
        x0 = xs[0]
        for _ in range(60):
            fv = extension(x0, v_close) - energy
            if abs(fv) < 1e-13 * max(1.0, abs(energy)):
                break
            dfdv = (extension(x0, v_close + h) - extension(x0, v_close - h)) / (2 * h)
            v_close = v_close - fv / dfdv
        if abs(v_close - vbars[0]) > 1e-9 * max(1.0, abs(vbars[0])):
            raise NonClosedContour(f"level-set loop mismatch {abs(v_close - vbars[0]):.2e}")
        dx = 1j * xs
        return -1j * vbars * dx

    n = 64
    prev = complex(solve_ring(n).mean() * 2 * np.pi * winding)
    for _ in range(8):
        n *= 2
        cur = complex(solve_ring(n).mean() * 2 * np.pi * winding)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    return prev


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld residuals


def quantisation_curve(
    nf: NormalFormData, hbar: float, mu0: np.ndarray | None = None, order: int = 3
):
    """mu^c and its derivative as callables of the index xi.

    mu^c(xi) = sum_k hbar^k m_k(hbar (xi+1)) + hbar (tr - d0)/2 nu'(hbar (xi+1))
    where nu(s) = mu0(d0 s) and the m_k invert mu(T(|z|^2)) = T(nu(|z|^2)).
    Exact for quadratic symbols and for radial normal forms.
    """
    hbar = check_hbar(hbar)
    d0 = nf.d0
    tr = nf.form.tr_f
    if mu0 is None:
        nu = np.array([0.0, d0])
    else:
        mu0 = np.asarray(mu0, dtype=complex)
        nu = np.array([mu0[a] * d0**a for a in range(len(mu0))])
    degree = 2 * (len(nu) - 1)
    mu_b = FormalSymbol([radial_table(nu, max(degree, 2))]).resized(order, max(degree, 2))
    m_profiles = oscillator_function_from_symbol(mu_b)
    # quadratic-level shift acts inside the oscillator argument:
    # lambda ~ m(hbar(l+1) + hbar (tr-d0)/(2 d0)), so the linear correction
    # carries nu'(s)/d0 = mu0'(d0 s)
    nu_prime = (
        np.array([(j + 1) * nu[j + 1] / d0 for j in range(len(nu) - 1)])
        if len(nu) > 1
        else np.array([0.0])
    )

    def poly(p, s):
        return np.polynomial.polynomial.polyval(s, np.asarray(p, dtype=complex))

    def mu_c(xi):
        s = hbar * (xi + 1.0)
        val = sum(hbar**k * poly(p, s) for k, p in enumerate(m_profiles))
        return val + hbar * (tr - d0) / 2.0 * poly(nu_prime, s)

    def mu_c_prime(xi):
        s = hbar * (xi + 1.0)
        total = 0.0 + 0.0j
        for k, p in enumerate(m_profiles):
            dp = np.array([(j + 1) * p[j + 1] for j in range(len(p) - 1)]) if len(p) > 1 else np.array([0.0])
            total += hbar**k * poly(dp, s)
        ddnu = (
            np.array([(j + 1) * nu_prime[j + 1] for j in range(len(nu_prime) - 1)])
            if len(nu_prime) > 1
            else np.array([0.0])
        )
        total += hbar * (tr - d0) / 2.0 * poly(ddnu, s)
        return hbar * total

    return mu_c, mu_c_prime


def bohr_sommerfeld_residuals(
    spectrum: SpectrumResult | np.ndarray,
    nf: NormalFormData,
    hbar: float,
    mu0: np.ndarray | None = None,
    order: int = 3,
) -> np.ndarray:
    """rho_l = (mu^c)^{-1}(lambda_l) - l by Newton inversion of the truncated
    quantisation curve; the quadratic case is an exact self-inversion."""
    lam = spectrum.eigenvalues if isinstance(spectrum, SpectrumResult) else np.asarray(spectrum)
    mu_c, mu_c_prime = quantisation_curve(nf, hbar, mu0, order)
    d0, tr = nf.d0, nf.form.tr_f
    out = np.empty(len(lam), dtype=float)
    for l, target in enumerate(lam):
        xi = (target - hbar * tr / 2.0) / (hbar * d0) - 0.5
        ok = False
        for _ in range(50):
            fv = mu_c(xi) - target
            if abs(fv) < 1e-14 * max(1.0, abs(target)):
                ok = True
                break
            dv = mu_c_prime(xi)
            if dv == 0:
                break
            xi = xi - fv / dv
            if not np.isfinite(xi) or abs(xi) > 1e8:
                raise InversionFailed(f"Newton escaped while inverting at l = {l}")
        if not ok and abs(mu_c(xi) - target) > 1e-10 * max(1.0, abs(target)):
            raise InversionFailed(f"no convergence inverting mu^c at l = {l}")
        out[l] = abs(xi - l)
    return out


# ---------------------------------------------------------------------------
# multi-well matching


@dataclass
class WellPrediction:
    location: complex
    level: complex
    d0: complex
    lattice: np.ndarray  # predicted eigenvalues, index l = 0..
    corrected: bool


@dataclass
class MultiwellReport:
    wells: list[WellPrediction]
    eigenvalues: np.ndarray
    matches: list[tuple[int, int, int, float]]  # (eig idx, well idx, level l, residual)
    residuals: np.ndarray
    jordan_pairs: list[tuple[int, int, float, float]]  # (i, j, gap, nonnormality)
    window_radius: float
    spectrum: SpectrumResult


def multiwell_compare(
    symbol: MonomialSymbol,
    hbar: float,
    wells: list[complex],
    window: float | None = None,
    order: int = 3,
    degree: int = 12,
    corrected: bool = True,
    n_start: int = 256,
    tol: float = 1e-8,
    jordan_gap_factor: float = 10.0,
) -> MultiwellReport:
    """Match computed eigenvalues near the common well level against per-well
    predicted lattices.

    Each well must be a critical point of the symbol; lattices come from the
    hbar-graded normal form of the recentred symbol when its Hessian is
    diagonal (z zbar only) and `corrected` is set, else from the leading-order
    quadratic lattice level + hbar (d0 (2l+1)/2 + tr/2).  Matching is greedy by
    distance with per-prediction multiplicity bookkeeping; ties broken by
    eigenvalue modulus.  Raises UnmatchedEigenvalue when an eigenvalue in the
    window is farther than half the local lattice spacing from every
    prediction."""
    from .quadratic import ComplexQuadraticForm, reduce_quadratic

    hbar = check_hbar(hbar)
    preds: list[WellPrediction] = []
    levels = []
    for x_n in wells:
        local = symbol.recenter(x_n)
        level = local.coeffs.get((0, 0), 0.0)
        levels.append(level)
        grad = (local.coeffs.get((1, 0), 0.0), local.coeffs.get((0, 1), 0.0))
        if max(abs(grad[0]), abs(grad[1])) > 1e-10:
            raise ValueError(f"well {x_n} is not a critical point (df = {grad})")
        shifted = MonomialSymbol(
            {k: v for k, v in local.coeffs.items() if k != (0, 0)}
        )
        t20 = shifted.coeffs.get((2, 0), 0.0)
        t11 = shifted.coeffs.get((1, 1), 0.0)
        t02 = shifted.coeffs.get((0, 2), 0.0)
        form = ComplexQuadraticForm.from_zv_coefficients(t20, t11, t02)
        nf = reduce_quadratic(form)
        diagonal_hessian = abs(t20) < 1e-12 and abs(t02) < 1e-12
        win = window if window is not None else 3.5 * hbar * abs(nf.d0)
        count = max(1, int(np.ceil(win / max(abs(hbar * nf.d0), 1e-30))) + 1)
        if corrected and diagonal_hessian:
            f_loc = FormalSymbol.from_monomials(shifted, degree)
            profiles, _ = quantum_normal_form(f_loc, order, degree)
            lattice = level + radial_toeplitz_eigenvalues(profiles, hbar, count)
            was_corrected = True
        else:
            ls = np.arange(count)
            lattice = level + hbar * (nf.d0 * (2 * ls + 1) / 2.0 + form.tr_f / 2.0)
            was_corrected = False
        preds.append(
            WellPrediction(
                location=complex(x_n),
                level=complex(level),
                d0=complex(nf.d0),
                lattice=lattice,
                corrected=was_corrected,
            )
        )
    centre = np.mean(levels)
    if np.max(np.abs(np.array(levels) - centre)) > 1e-9 * max(1.0, abs(centre)):
        raise ValueError("wells do not share a common level")
    radius = window if window is not None else 3.5 * hbar * max(abs(p.d0) for p in preds)

    # adaptively converged spectrum, then restrict to the window
    m = assemble_toeplitz(symbol, hbar, n_start)
    total_pred = sum(np.sum(np.abs(p.lattice - centre) <= radius) for p in preds)
    spec = eigen_spectrum(m, k_wanted=max(int(total_pred) + 6, 10), tol=tol)
    in_window = spec.eigenvalues[np.abs(spec.eigenvalues - centre) <= radius]
    # stable order: by modulus (ties in the greedy matching break this way)
    in_window = in_window[np.argsort(np.abs(in_window))]

    spacing = min(abs(hbar * p.d0) for p in preds)
    # greedy by distance over (eigenvalue, prediction) pairs
    cand = []
    for i, ev in enumerate(in_window):
        for w, p in enumerate(preds):
            for l, val in enumerate(p.lattice):
                cand.append((abs(ev - val), i, w, l))
    cand.sort(key=lambda t: (t[0], t[1]))
    used_eig: set[int] = set()
    used_pred: set[tuple[int, int]] = set()
    matches: list[tuple[int, int, int, float]] = []
    for dist, i, w, l in cand:
        if i in used_eig or (w, l) in used_pred:
            continue
        used_eig.add(i)
        used_pred.add((w, l))
        matches.append((i, w, l, float(dist)))
    for i in range(len(in_window)):
        if i not in used_eig:
            raise UnmatchedEigenvalue(f"eigenvalue {in_window[i]} has no prediction slot")
    bad = [t for t in matches if t[3] > spacing / 2]
    if bad:
        raise UnmatchedEigenvalue(
            f"{len(bad)} eigenvalue(s) farther than half the lattice spacing from every prediction"
        )
    matches.sort(key=lambda t: t[0])
    residuals = np.array([t[3] for t in matches])

    # near-degenerate pairs and their departure from normality
    mat = assemble_toeplitz(symbol, hbar, spec.n_max_used).entries
    norm_m = np.linalg.norm(mat, 2)
    eps = np.finfo(float).eps
    jordan: list[tuple[int, int, float, float]] = []
    for i in range(len(in_window)):
        for j in range(i + 1, len(in_window)):
            gap = abs(in_window[i] - in_window[j])
            if gap < jordan_gap_factor * eps * norm_m:
                jordan.append((i, j, float(gap), _cluster_nonnormality(mat, in_window[[i, j]])))
    return MultiwellReport(
        wells=preds,
        eigenvalues=in_window,
        matches=matches,
        residuals=residuals,
        jordan_pairs=jordan,
        window_radius=float(radius),
        spectrum=spec,
    )


def _cluster_nonnormality(mat: np.ndarray, cluster: np.ndarray) -> float:
    """|| B*B - BB* || for the compression B of mat to the invariant subspace
    spanned by the cluster's eigenvectors (orthonormalised)."""
    w, v = np.linalg.eig(mat)
    taken: list[int] = []
    for ev in cluster:
        dist = np.abs(w - ev)
        dist[taken] = np.inf
        taken.append(int(np.argmin(dist)))
    q, _ = np.linalg.qr(v[:, taken])
    block = q.conj().T @ mat @ q
    comm = block.conj().T @ block - block @ block.conj().T
    return float(np.linalg.norm(comm, 2))


# ---------------------------------------------------------------------------
# numerical range


def numerical_range_boundary(mat: np.ndarray, n_angles: int = 128) -> np.ndarray:
    """Boundary points of the field of values by the rotation method."""
    pts = np.empty(n_angles, dtype=complex)
    for k, theta in enumerate(np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)):
        r = np.exp(1j * theta) * mat
        h = 0.5 * (r + r.conj().T)
        w, v = np.linalg.eigh(h)
        u = v[:, -1]
        pts[k] = u.conj() @ mat @ u
    return pts
