"""Numerical verification layer: adaptive eigensolves of truncated Toeplitz
matrices, resolvent-norm grids and c-analytic pseudospectra, action integrals
on complexified energy levels, Bohr-Sommerfeld index residuals, and multi-well
lattice matching.

The solvers read the banded blocks of `ToeplitzMatrix.blocks()`, never the
dense matrix.  `eigen_spectrum` solves block by block and labels each
eigenvalue with its block.  A resolvent grid is one batched computation: every
block of every M - lambda gets a pivoted banded LU, and block inverse
iteration on A^H A runs vectorised over all of them with a per-pair
convergence mask (Trefethen, Computation of pseudospectra, Acta Numerica
1999).  `multiwell_compare` takes its 2-norm and Jordan-pair test from the
blocks.  `sigma_min` at one point keeps the dense SVD up to its cutoff, the
route the tests compare the grid against.

Every adaptive loop ends with an explicit status: a loop that runs out of
steps raises (NoConvergence, or InversionFailed for the Bohr-Sommerfeld
inversion) rather than returning its last iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy import ndimage

from .bargmann import MonomialSymbol, NoConvergence, ToeplitzMatrix, assemble_toeplitz, check_hbar
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


class NonClosedContour(RuntimeError):
    pass


class InversionFailed(RuntimeError):
    pass


class UnmatchedEigenvalue(RuntimeError):
    pass


def _worker_count() -> int:
    # kept for the perfbench tracer hook, which records the worker count of
    # each resolvent_grid call; grids are batched in one thread
    return 1


# ---------------------------------------------------------------------------
# eigenvalues


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray  # sorted by modulus
    n_max_used: int
    convergence_gap: float
    converged: bool = True
    sectors: np.ndarray | None = None  # block (index class mod g) of each eigenvalue


def _matched_gap(ev: np.ndarray, prev: np.ndarray) -> float:
    """Largest move of an eigenvalue between two truncations, each paired
    with the nearest unpaired one of the other, closest pairs first.

    Pairing by position in the modulus-sorted lists would compare the two
    members of a pair of equal modulus (a conjugate pair) crosswise whenever
    their order flips, and report their distance as a gap.
    """
    dist = np.abs(ev[:, None] - prev[None, :])
    gap = 0.0
    for _ in range(len(ev)):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        gap = max(gap, float(dist[i, j]))
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return gap


def eigen_spectrum(
    m: ToeplitzMatrix,
    k_wanted: int,
    tol: float = 1e-8,
    n_cap: int = 4096,
) -> SpectrumResult:
    """Smallest-|lambda| eigenvalues, solved block by block (`ToeplitzMatrix.
    blocks`), with truncation adaptivity: n_max doubles until the reported
    eigenvalues move by less than tol.  A raw matrix (no symbol) is solved
    once, at its own size."""
    n = m.dim
    prev = None
    while True:
        band, pad, kl = (m if n == m.dim else assemble_toeplitz(m.symbol, m.hbar, n)).blocks()
        g = band.shape[1]
        if band.shape[0] == 1:  # diagonal: the eigenvalues are the entries
            ev, sec = band[0, :, 0], np.arange(g)
        else:
            evs = [np.linalg.eigvals(_band_dense(band[~pad[:, r], r], kl)) for r in range(g)]
            ev, sec = np.concatenate(evs), np.repeat(np.arange(g), [len(e) for e in evs])
        order = np.argsort(np.abs(ev))[:k_wanted]
        ev, sec = ev[order], sec[order]
        if m.symbol is None:
            return SpectrumResult(ev, n, 0.0, sectors=sec)
        # nan until two truncations report the same number of eigenvalues
        gap = float("nan")
        if prev is not None and len(prev) == len(ev):
            gap = _matched_gap(ev, prev)
            if gap < tol:
                return SpectrumResult(ev, n, gap, sectors=sec)
        prev = ev
        if n >= n_cap:
            result = SpectrumResult(ev, n, gap, converged=False, sectors=sec)
            if np.isnan(gap):
                raise NoConvergence(f"truncation cap {n_cap} reached at n = {n} before a comparison", result)
            raise NoConvergence(f"eigenvalues still moving by {gap:.3e} at n = {n}", result)
        n = min(2 * n, n_cap)


# ---------------------------------------------------------------------------
# resolvent grids


def sigma_min(mat: np.ndarray, lam: complex, dense_cutoff: int = 512) -> float:
    """Smallest singular value of (mat - lam I): full SVD up to dense_cutoff,
    the batched banded kernel of `resolvent_grid` at this one point above it."""
    if mat.shape[0] <= dense_cutoff:
        return float(sla.svdvals(mat - lam * np.eye(mat.shape[0]))[-1])
    return float(_sigma_min_banded(ToeplitzMatrix.from_dense(mat, 1.0), np.array([lam], dtype=complex))[0])


# band entries (grid points x blocks x rows x band width) per chunk of grid
# points: bounds the memory of the batched LU and the iteration vectors
_CHUNK_ENTRIES = 1 << 18


class _BandLU(NamedTuple):
    """Partial-pivoting LU of a batch of B banded m x m matrices, in LAPACK
    gbtrf order: step j swaps row j with row j + piv[j], then subtracts
    lo[j, r] times row j from row j + 1 + r.  The coefficients are laid out
    to broadcast against rows of the right-hand sides (m, B, k):
    up[j, c - 1] = U[j, j + c], uh[j, c] = conj(U[j - wu + 1 + c, j]) (the
    row of U^H below the diagonal, wu = kl + ku + 1), dinv = 1 / U[j, j].
    `swaps[j]` says whether any row moved at step j."""

    up: np.ndarray  # (m, wu - 1, B, 1)
    uh: np.ndarray  # (m, wu - 1, B, 1)
    lo: np.ndarray  # (m, kl, B, 1)
    dinv: np.ndarray  # (m, B, 1)
    piv: np.ndarray  # (m, B)
    swaps: list[bool]

    def take(self, keep: np.ndarray) -> "_BandLU":
        piv = self.piv[:, keep]
        return _BandLU(
            self.up[:, :, keep], self.uh[:, :, keep], self.lo[:, :, keep], self.dinv[:, keep], piv, list(piv.any(axis=1))
        )


def _band_lu(a: np.ndarray, kl: int) -> tuple[_BandLU, np.ndarray]:
    """Factor the batch a (m, B, kl+ku+1), a[i, b, c] = A_b[i, i - kl + c].

    Returns the factors and a (B,) mask of the matrices with an exactly zero
    pivot.  Partial pivoting meets a zero pivot only when a whole remaining
    column is zero, so those matrices are singular; their zero pivots are
    replaced by 1 so the batch stays finite."""
    m, nb, w = a.shape
    ar = np.arange(nb)
    u = np.empty((m, w, nb), dtype=complex)
    lo = np.empty((m, kl, nb, 1), dtype=complex)
    piv = np.zeros((m, nb), dtype=np.intp)
    singular = np.zeros(nb, dtype=bool)
    # rows j..j+kl of the partly eliminated matrix, columns j..j+kl+ku
    front = np.zeros((kl + 1, nb, w), dtype=complex)
    for i in range(min(kl + 1, m)):
        front[i, :, : w - kl + i] = a[i, :, kl - i :]
    for j in range(m):
        p = np.argmax(np.abs(front[:, :, 0]), axis=0)
        top = front[p, ar]
        front[p, ar] = front[0]
        zero = top[:, 0] == 0
        singular |= zero
        top[zero, 0] = 1.0
        mult = front[1:, :, 0] / top[:, 0]
        front[1:] -= mult[:, :, None] * top
        u[j], lo[j, :, :, 0], piv[j] = top.T, mult, p
        front[:-1, :, :-1] = front[1:, :, 1:]
        front[:-1, :, -1] = 0.0
        front[-1] = a[j + kl + 1] if j + kl + 1 < m else 0.0
    uh = np.zeros((m, w - 1, nb), dtype=complex)
    for c in range(1, min(w, m)):
        uh[c:, w - 1 - c] = u[: m - c, c].conj()
    up = u[:, 1:, :, None].copy()
    return _BandLU(up, uh[..., None], lo, 1.0 / u[:, 0, :, None], piv, list(piv.any(axis=1))), singular


def _swap_rows(win: np.ndarray, p: np.ndarray) -> None:
    """Swap row 0 with row p[b] of win (rows, B, k), batch member by member."""
    ar = np.arange(win.shape[1])
    top = win[p, ar]
    win[p, ar] = win[0]
    win[0] = top


def _solve(f: _BandLU, b: np.ndarray) -> np.ndarray:
    """x with A x = b for every matrix of the batch; b is (m, B, k)."""
    m, wu1, kl = f.up.shape[0], f.up.shape[1], f.lo.shape[1]
    x = np.zeros((m + max(kl, wu1), *b.shape[1:]), dtype=complex)
    x[:m] = b
    if kl:
        for j in range(m):
            if f.swaps[j]:
                _swap_rows(x[j : j + kl + 1], f.piv[j])
            x[j + 1 : j + kl + 1] -= f.lo[j] * x[j]
    for j in range(m - 1, -1, -1):
        x[j] = (x[j] - (f.up[j] * x[j + 1 : j + 1 + wu1]).sum(axis=0)) * f.dinv[j]
    return x[:m]


def _solve_h(f: _BandLU, b: np.ndarray) -> np.ndarray:
    """x with A^H x = b for every matrix of the batch; b is (m, B, k)."""
    m, wu1, kl = f.uh.shape[0], f.uh.shape[1], f.lo.shape[1]
    x = np.zeros((wu1 + m + kl, *b.shape[1:]), dtype=complex)
    x[wu1 : wu1 + m] = b
    dinvh, loh = f.dinv.conj(), f.lo.conj()
    for j in range(m):
        x[j + wu1] = (x[j + wu1] - (f.uh[j] * x[j : j + wu1]).sum(axis=0)) * dinvh[j]
    x = x[wu1:]
    if kl:
        for j in range(m - 1, -1, -1):
            x[j] -= (loh[j] * x[j + 1 : j + kl + 1]).sum(axis=0)
            if f.swaps[j]:
                _swap_rows(x[j : j + kl + 1], f.piv[j])
    return x[:m]


def _project_out(q: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y minus its component along the unit vectors q, both (m, B), and the
    coefficient removed; projected twice, so the result is orthogonal to q
    to roundoff."""
    coef = 0.0
    for _ in range(2):
        proj = np.einsum("ib,ib->b", q.conj(), y)
        y = y - q * proj
        coef = coef + proj
    return y, coef


def _orthonormal_pair(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the two columns of each (m, 2) slice of w (m, B, 2)."""
    q0 = w[:, :, 0] / np.linalg.norm(w[:, :, 0], axis=0)
    q1, _ = _project_out(q0, w[:, :, 1] / np.linalg.norm(w[:, :, 1], axis=0))
    return np.stack([q0, q1 / np.linalg.norm(q1, axis=0)], axis=2)


def _sigma_min_pair(x: np.ndarray) -> np.ndarray:
    """Smallest singular value of each (m, 2) slice of x (m, B, 2).

    Column-pivoted Gram-Schmidt gives the triangular factor [[f, g], [0, h]],
    whose singular values satisfy s_max +- s_min = sqrt((f +- h)^2 + |g|^2);
    s_min = f h / s_max then carries no cancellation, as the eigenvalues of
    x^H x would for s_min << s_max."""
    norms = np.linalg.norm(x, axis=0)
    big = norms[:, 0] >= norms[:, 1]
    f = np.where(big, norms[:, 0], norms[:, 1])
    q = np.where(big, x[:, :, 0], x[:, :, 1]) / np.where(f > 0, f, 1.0)
    y, g = _project_out(q, np.where(big, x[:, :, 1], x[:, :, 0]))
    h = np.linalg.norm(y, axis=0)
    s_max = 0.5 * (np.hypot(f + h, np.abs(g)) + np.hypot(f - h, np.abs(g)))
    return np.divide(f * h, s_max, out=np.zeros_like(f), where=s_max != 0)  # NaN stays NaN


def _band_matvec(a: np.ndarray, v: np.ndarray, kl: int) -> np.ndarray:
    """A v for the batch a (m, B, w) in band form and v (m, B, k)."""
    m, nb, w = a.shape
    vp = np.zeros((m + w - 1, nb, v.shape[2]), dtype=complex)
    vp[kl : kl + m] = v
    return sum(a[:, :, c, None] * vp[c : c + m] for c in range(w))


def _sigma_min_banded(
    op: ToeplitzMatrix,
    lams: np.ndarray,
    max_iter: int = 60,
    rtol: float = 1e-9,
) -> np.ndarray:
    """sigma_min(M - lam I) at every lam, batched over the points and the
    blocks of `op.blocks()`.

    Each block of each shifted matrix (a point-block pair) gets a pivoted
    banded LU; then block (size 2) inverse iteration on A^H A with
    Rayleigh-Ritz extraction runs on all pairs at once, each with its own
    convergence test (`_block_inverse_iteration`).  From the third step a
    pair is also done once its estimate sits below the roundoff floor
    1e-12 ||M - lam||_1: deep inside the pseudospectrum many singular
    values are at that floor, the iteration would crawl, and the value only
    needs to be tiny there.  An exactly zero pivot makes a block singular, so
    its sigma is 0.  sigma_min is the minimum over the blocks; a diagonal
    matrix (1x1 blocks) is exact without iteration.

    Raises NoConvergence when a pair is still unsettled after max_iter steps
    or an iterate is not finite.  Grid points go through in chunks of
    _CHUNK_ENTRIES band entries, so memory stays bounded."""
    lams = np.asarray(lams, dtype=complex).ravel()
    band, pad, kl = op.blocks()
    m, g, w = band.shape
    # column and row sums of |M| from the diagonals: diags[d][k] = M[k+d, k],
    # and np.roll(diags[d], d) puts M[i, i-d] at i (zero where it wraps)
    offsets = sorted(op.diags)
    colsum = sum((np.abs(op.diags[d]) for d in offsets), np.zeros(op.dim))
    rowsum = sum((np.roll(np.abs(op.diags[d]), d) for d in offsets[::-1]), np.zeros(op.dim))
    diag = op.diags.get(0, np.zeros(op.dim))
    off_colsum = colsum - np.abs(diag)
    norm = max(colsum.max(), rowsum.max())
    out = np.empty(lams.size)
    chunk = max(1, _CHUNK_ENTRIES // band.size)
    for s in range(0, lams.size, chunk):
        lam = lams[s : s + chunk]
        if m == 1:  # diagonal: 1x1 blocks, exact
            out[s : s + chunk] = np.abs(band[0, :, 0][None, :] - lam[:, None]).min(axis=1)
            continue
        floor = 1e-12 * np.max(off_colsum + np.abs(diag - lam[:, None]), axis=1)
        a = np.repeat(band[:, None], lam.size, axis=1)
        # padding rows get a decoupled diagonal entry above every singular value
        a[..., kl] = np.where(
            pad[:, None, :],
            (norm + np.abs(lam) + 1.0)[None, :, None],
            a[..., kl] - lam[None, :, None],
        )
        sig = _block_inverse_iteration(a.reshape(m, -1, w), kl, g, np.repeat(floor, g), max_iter, rtol)
        out[s : s + chunk] = sig.reshape(-1, g).min(axis=1)
    return out


def _band_dense(a: np.ndarray, kl: int) -> np.ndarray:
    """The m x m matrix of one band a (m, w), a[i, c] = A[i, i - kl + c]."""
    i, c = np.indices(a.shape)
    col = i - kl + c
    inside = (col >= 0) & (col < a.shape[0])
    dense = np.zeros((a.shape[0],) * 2, dtype=complex)
    dense[i[inside], col[inside]] = a[inside]
    return dense


def _block_inverse_iteration(a, kl, g, floor, max_iter, rtol) -> np.ndarray:
    """sigma_min of each banded matrix of the batch a (m, B, w), B = points x g.

    Convergence is judged from the relative steps s_t of a pair's estimate
    and their ratio r_t = s_t / s_{t-1}, the contraction rate.  From the
    fourth step a pair is done when s_t <= rtol (1 - r_t), which bounds the
    remaining error s_t r_t / (1 - r_t) by rtol, and r_t r_{t-1} <= 1/4: the
    step must really shrink, since in a tight cluster of singular values the
    steps can sit flat at a few hundred ulps from the start, where their
    ratio is roundoff and says nothing.

    A pair whose step has not halved in each of its last three steps, from
    the fifth step on, has a cluster of singular values in its block (far
    from the spectrum of a near-normal matrix, say), where the iteration
    would need hundreds of steps; its block gets a dense SVD instead.  (A
    single rate is no guide early on: the block often settles near sigma_2
    before it finds sigma_1.)"""
    f, singular = _band_lu(a, kl)
    m, nb, _ = a.shape
    sigma = np.zeros(nb)
    # the working batch: pairs not yet done, plus done ones not yet dropped
    # (the batch is compacted once half of it is done)
    idx = np.flatnonzero(~singular)
    if idx.size < nb:
        a, f = a[:, idx], f.take(idx)
    floor = floor[idx]
    live = np.ones(idx.size, dtype=bool)
    v = np.ones((m, idx.size, 2), dtype=complex)
    v[1::2, :, 1] = -1.0
    v = _orthonormal_pair(v)
    prev = np.full(idx.size, np.inf)
    steps = np.full((4, idx.size), np.inf)  # the last four relative steps, newest first
    for it in range(max_iter):
        x = _solve_h(f, v)
        x /= np.abs(x).max(axis=(0, 2))[None, :, None]  # keeps (A^H A)^-1 v in range
        v = _orthonormal_pair(_solve(f, x))
        est = _sigma_min_pair(_band_matvec(a, v, kl))
        if not np.all(np.isfinite(est)):
            bad = np.unique(idx[~np.isfinite(est)] // g).size
            raise NoConvergence(f"inverse iteration: non-finite iterate at {bad} grid point(s) after {it + 1} step(s)")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            steps = np.roll(steps, 1, axis=0)
            steps[0] = np.abs(est - prev) / est
            rates = np.nan_to_num(steps[:3] / steps[1:], nan=1.0)
            # a rate >= 1 is roundoff jitter of a settled estimate, or a jump:
            # then only a step below rtol 1e-6 counts as settled
            settled = (steps[0] <= rtol * np.maximum(1.0 - rates[0], 1e-6)) & (rates[0] * rates[1] <= 0.25)
        done = live & (((it >= 3) & settled) | ((it >= 2) & (est <= floor)))
        slow = live & ~done & (it >= 4) & np.all(rates > 0.5, axis=0)
        sigma[idx[done]] = est[done]
        for j in np.flatnonzero(slow):
            sigma[idx[j]] = sla.svdvals(_band_dense(a[:, j], kl))[-1]
        live &= ~(done | slow)
        if not live.any():
            return sigma
        prev = est
        if 2 * np.count_nonzero(live) <= live.size:
            keep = np.flatnonzero(live)
            a, f, v, idx, floor, prev, steps = (
                a[:, keep], f.take(keep), v[:, keep], idx[keep], floor[keep], prev[keep], steps[:, keep]
            )
            live = np.ones(keep.size, dtype=bool)
    raise NoConvergence(
        f"inverse iteration: {np.unique(idx[live] // g).size} grid point(s) unconverged after {max_iter} steps, "
        f"worst relative step {float(np.max(steps[0, live])):.2e}"
    )


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
) -> PseudospectrumField:
    """sigma_min(M - lambda) over a rectangle, every point in one batched
    banded computation (`_sigma_min_banded`): the blocks of M (`m.blocks()`),
    one pivoted LU per block and point, and block inverse iteration
    vectorised over all of them.  `workers` is accepted and ignored: the
    batch runs in one thread."""
    x0, x1, y0, y1 = rect
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be >= 2 per axis")
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    lam = xs[None, :] + 1j * ys[:, None]
    sigma = _sigma_min_banded(m, lam).reshape(ny, nx)
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


def _newton_vbar(extension, x: complex, v: complex, energy: complex) -> complex:
    """Solve extension(x, v) = energy for v by Newton from v (central-difference
    derivative); NoConvergence if 60 steps leave the residual above tolerance."""
    h = 1e-7
    for _ in range(60):
        fv = extension(x, v) - energy
        if abs(fv) < 1e-13 * max(1.0, abs(energy)):
            return v
        dfdv = (extension(x, v + h) - extension(x, v - h)) / (2 * h)
        v = v - fv / dfdv
    raise NoConvergence(f"level-set Newton at x = {x:.6g}: residual {abs(extension(x, v) - energy):.3e} after 60 steps")


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
    NonClosedContour if the continuation does not return to its start.
    Nodes double until two values agree to `tol` relative, else NoConvergence
    after 8 doublings; a node whose Newton solve fails raises NoConvergence."""
    if radius is None:
        radius = abs(np.sqrt(complex(energy) / complex(d_seed)))

    def solve_ring(n: int) -> np.ndarray:
        t = np.linspace(0.0, 2.0 * np.pi * winding, n, endpoint=False)
        xs = radius * np.exp(1j * t)
        vbars = np.empty(n, dtype=complex)
        v = complex(energy) / (complex(d_seed) * xs[0])
        for j, x in enumerate(xs):
            v = vbars[j] = _newton_vbar(extension, x, v, energy)
        # closure check: continue from the last node back to t = 0
        v_close = _newton_vbar(extension, xs[0], vbars[-1], energy)
        if abs(v_close - vbars[0]) > 1e-9 * max(1.0, abs(vbars[0])):
            raise NonClosedContour(f"level-set loop mismatch {abs(v_close - vbars[0]):.2e}")
        dx = 1j * xs
        return -1j * vbars * dx

    n = 64
    prev = complex(solve_ring(n).mean() * 2 * np.pi * winding)
    for _ in range(8):
        n *= 2
        cur = complex(solve_ring(n).mean() * 2 * np.pi * winding)
        gap = abs(cur - prev)
        if gap <= tol * abs(cur):
            return cur
        prev = cur
    raise NoConvergence(f"level-set action still moving by {gap:.3e} at {n} nodes")


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
    der = np.polynomial.polynomial.polyder
    nu_prime = der(nu) / d0

    def poly(p, s):
        return np.polynomial.polynomial.polyval(s, np.asarray(p, dtype=complex))

    def mu_c(xi):
        s = hbar * (xi + 1.0)
        val = sum(hbar**k * poly(p, s) for k, p in enumerate(m_profiles))
        return val + hbar * (tr - d0) / 2.0 * poly(nu_prime, s)

    def mu_c_prime(xi):
        s = hbar * (xi + 1.0)
        total = sum(hbar**k * poly(der(p), s) for k, p in enumerate(m_profiles))
        return hbar * (total + hbar * (tr - d0) / 2.0 * poly(der(nu_prime), s))

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
    near = np.abs(spec.eigenvalues - centre) <= radius
    in_window, sectors = spec.eigenvalues[near], spec.sectors[near]
    # stable order: by modulus (ties in the greedy matching break this way)
    order = np.argsort(np.abs(in_window))
    in_window, sectors = in_window[order], sectors[order]

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

    # near-degenerate pairs and their departure from normality.  The blocks
    # are orthogonal invariant subspaces, so ||M||_2 is the largest block norm
    # and a pair split across two blocks has a diagonal compression: 0.0
    band, pad, kl = assemble_toeplitz(symbol, hbar, spec.n_max_used).blocks()
    blocks = [_band_dense(band[~pad[:, r], r], kl) for r in range(band.shape[1])]
    norm_m = max(np.linalg.norm(b, 2) for b in blocks)
    eps = np.finfo(float).eps
    jordan: list[tuple[int, int, float, float]] = []
    for i in range(len(in_window)):
        for j in range(i + 1, len(in_window)):
            gap = abs(in_window[i] - in_window[j])
            if gap < jordan_gap_factor * eps * norm_m:
                same = sectors[i] == sectors[j]
                nonnormal = _cluster_nonnormality(blocks[sectors[i]], in_window[[i, j]]) if same else 0.0
                jordan.append((i, j, float(gap), nonnormal))
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
    """|| B*B - BB* || for the compression B of mat (one block) to the
    invariant subspace spanned by the cluster's eigenvectors (orthonormalised)."""
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
