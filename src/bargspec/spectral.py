"""Numerical verification layer: adaptive eigensolves of truncated Toeplitz
matrices, resolvent-norm grids and c-analytic pseudospectra, action integrals
on complexified energy levels, Bohr-Sommerfeld index residuals, and multi-well
lattice matching.

The solvers read only the banded blocks of `ToeplitzMatrix.blocks()`, and
a block they need dense comes from `bargmann._band_dense`.  `eigen_spectrum`
solves block by block and labels each eigenvalue with its block.  It wants
only the few smallest eigenvalues of each block, and finds them by Arnoldi
on the block's inverse, whose largest eigenvalues they are (shift-invert at
0: Saad, Numerical Methods for Large Eigenvalue Problems, 2011, ch. 7), with
numpy alone; a block too small for that route, singular, or whose Arnoldi
process breaks down gets a dense `np.linalg.eigvals`.  Each truncation's
block is the leading part of the next one's, so each doubling grows the
last inverse by a Schur complement and inverts only the new trailing part
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 13),
guarded by the backward error of one solve.  A resolvent grid is
one batched computation: every block A of every M - lambda gets a banded
Householder QR, of which only R is kept, and block inverse iteration on
A^H A = R^H R, two triangular sweeps a step, runs vectorised over all of
them with a per-pair convergence mask (Trefethen, Computation of
pseudospectra, Acta Numerica 1999, sections 3-4).  `multiwell_compare` takes
its 2-norm and Jordan-pair test from the blocks.  `sigma_min` is the same
kernel at one point; the tests compare both against a dense SVD.

The Bohr-Sommerfeld residuals invert the closed-form quantisation curve, the
diagonal of a radial normal form at a real index (`quantisation_curve`).
One greedy nearest-pair rule, `_greedy_pairs`, pairs eigenvalues both for the
truncation gap of `eigen_spectrum` and for the lattice matching of
`multiwell_compare`, whose lattice route follows the Hessian of each well.

Every adaptive loop ends with an explicit status: a loop that runs out of
steps raises a `NoConvergence` rather than returning its last iterate.  The
quadrature doublings of the actions run through `bargmann.settle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bargmann import MonomialSymbol, NoConvergence, ToeplitzMatrix, _band_dense, assemble_toeplitz, check_hbar, settle
from .quadratic import ComplexQuadraticForm, NormalFormData, _exponent, _ldexp, reduce_quadratic
from .symbols import (
    FormalSymbol,
    quantum_normal_form,
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
]


class NonClosedContour(NoConvergence):
    pass


class InversionFailed(NoConvergence):
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


def _greedy_pairs(dist: np.ndarray) -> list[tuple[int, int, float]]:
    """Greedy nearest pairing of the rows and columns of a distance matrix:
    (i, j, d) for the smallest entry d left, then row i and column j are
    struck out, until one side runs out.  Ties go to the smaller i, then the
    smaller j."""
    dist = np.array(dist, dtype=float)
    rows, cols, pairs = set(), set(), []
    for i, j in zip(*np.unravel_index(np.argsort(dist, axis=None, kind="stable"), dist.shape)):
        if len(pairs) == min(dist.shape):
            break
        if i not in rows and j not in cols:
            rows.add(i)
            cols.add(j)
            pairs.append((int(i), int(j), float(dist[i, j])))
    return pairs


def eigen_spectrum(
    m: ToeplitzMatrix,
    k_wanted: int,
    tol: float = 1e-8,
    n_cap: int = 4096,
) -> SpectrumResult:
    """Smallest-|lambda| eigenvalues, solved block by block (`ToeplitzMatrix.
    blocks`), with truncation adaptivity: n_max doubles until the reported
    eigenvalues move by less than tol.  A raw matrix (no symbol) is solved
    once, at its own size.

    The loop is its own, not `bargmann.settle`: its gap is a matching of two
    spectra, its cap n_cap need not be a power of 2 times the start, and the
    NoConvergence it raises hands back the last SpectrumResult.

    Each block B (m x m) gives its k_wanted smallest-|lambda| eigenvalues by
    Arnoldi on B^-1 (`_block_smallest`): 1/theta for the k_wanted
    largest-modulus Ritz values theta, once each has the relative residual
    |h_{p+1,p}| |y_p| <= 1e-13 |theta|.  A block goes to a dense
    `np.linalg.eigvals` instead when the Arnoldi basis would hold more than
    half of it (every small block, and k_wanted >= m - 2), when B is singular
    or its inverse is not finite, and when the Arnoldi process breaks down;
    so every eigenvalue returned is converged.

    The truncations nest: while the block count g stays, each block is the
    leading part of the next size's.  So each size keeps its blocks'
    inverses, and the next grows each from the last by a Schur complement
    (`_grown_inverse`), inverting only the new trailing part: a doubling
    costs O((m/2)^3 + m^2 r), r the bandwidth, not O(m^3).  The first size,
    a block whose last solve went dense, and a grown inverse whose solve of
    the Arnoldi start vector has a backward error above 1e-12 are inverted
    whole; the last size, at n_cap or of a raw matrix, keeps nothing."""
    n = m.dim
    prev = None
    held: list[list] = []  # per block, its inverse at the last size (see _block_smallest)
    while True:
        band, pad, kl = (m if n == m.dim else assemble_toeplitz(m.symbol, m.hbar, n)).blocks()
        g = band.shape[1]
        if band.shape[0] == 1:  # diagonal: the eigenvalues are the entries
            ev, sec = band[0, :, 0], np.arange(g)
        else:
            if len(held) != g:  # a block is the leading part of the next size's only while g stays
                held = [[] for _ in range(g)]
            evs = []
            for r in range(g):
                evs.append(_block_smallest(_band_dense(band[~pad[:, r], r], kl), k_wanted, held[r]))
                if m.symbol is None or n >= n_cap:  # no next size to grow
                    held[r].clear()
            ev, sec = np.concatenate(evs), np.repeat(np.arange(g), [len(e) for e in evs])
        order = np.argsort(np.abs(ev))[:k_wanted]
        cand, ev, sec = ev, ev[order], sec[order]
        if m.symbol is None:
            return SpectrumResult(ev, n, 0.0, sectors=sec)
        # nan until the last truncation has as many candidates as this one reports
        gap = float("nan")
        if prev is not None and len(prev) >= len(ev):
            # largest move of an eigenvalue, each paired with the nearest
            # unpaired candidate of the last truncation: pairing by position in
            # the modulus-sorted lists would compare the two members of a pair
            # of equal modulus (a conjugate pair) crosswise whenever their order
            # flips, and either member of a tie at the k-th place may be kept
            pairs = _greedy_pairs(np.abs(ev[:, None] - prev[None, :]))
            gap = max((d for _, _, d in pairs), default=0.0)
            if gap < tol:
                return SpectrumResult(ev, n, gap, sectors=sec)
        prev = cand
        if n >= n_cap:
            result = SpectrumResult(ev, n, gap, converged=False, sectors=sec)
            if np.isnan(gap):
                raise NoConvergence(f"truncation cap {n_cap} reached at n = {n} before a comparison", result)
            raise NoConvergence(f"eigenvalues still moving by {gap:.3e} at n = {n}", result)
        n = min(2 * n, n_cap)


def _block_smallest(block: np.ndarray, k: int, held: list | None = None) -> np.ndarray:
    """The k smallest-|lambda| eigenvalues of the dense block B (m x m), by
    Arnoldi on B^-1 (Saad, Numerical Methods for Large Eigenvalue Problems,
    2nd ed., 2011, ch. 6-7), or all m of them by a dense `np.linalg.eigvals`.

    The Arnoldi process starts from a fixed vector of unit-modulus entries
    and orthogonalises each new vector by classical Gram-Schmidt, twice.  Its
    basis starts at 2k + 20 vectors (ARPACK's default ncv is max(2k + 1,
    20)); at each basis size p the k largest-modulus Ritz values theta of H_p
    are taken once each has |h_{p+1,p}| |y_p| <= 1e-13 |theta| (y the unit
    eigenvector of H_p), else the basis grows by half, to at most m/2; where
    one growth would reach m/2, the basis starts there.  The basis array
    grows with p, and is never allocated at m/2 up front.  B^-1 is scaled by
    a power of 2, so a block scaled by 2^e gives its eigenvalues scaled by
    2^e.

    The dense route takes the block when the basis would hold more than half
    of it, when B is singular or its inverse is not finite, and when a new
    Arnoldi vector is zero to roundoff (an invariant subspace that may miss
    eigenvalues).

    `held`, from `eigen_spectrum`, carries the block's inverse from one
    truncation to the next.  On entry it is empty or holds [A^-1 2^-e, e]
    for the leading block A of B (the last size's block, scaled as above);
    then B^-1 is grown from it (`_grown_inverse`), inverting only the
    trailing part, and B is inverted whole when the grown inverse fails its
    backward-error test.  On return it holds B^-1 in that form when the
    Arnoldi route returned, the very array the iteration used, and is empty
    otherwise.  A direct call keeps nothing."""
    m = len(block)
    held = [] if held is None else held
    old, held[:] = held[:], []
    p = 2 * k + 20
    if 2 * p > m:
        return np.linalg.eigvals(block)
    if 2 * (p + p // 2) > m:  # one growth would reach m/2: test there only
        p = m // 2
    start = np.exp(1j * np.arange(m) ** 2.0) / np.sqrt(m)
    try:
        inv = _grown_inverse(block, *old, start) if old else None
        old = None  # A^-1 goes before B is inverted whole
        if inv is None:
            inv = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        return np.linalg.eigvals(block)
    # B^-1 scaled by a power of 2 to largest part in [0.5, 1), exactly, keeps
    # the squared norms of the Arnoldi vectors in the double range; the
    # reductions run over views, with no temporary the size of the inverse
    top = max(inv.real.max(), -inv.real.min(), inv.imag.max(), -inv.imag.min())
    if not np.isfinite(top):
        return np.linalg.eigvals(block)
    e = np.frexp(top)[1]
    scale = 2.0**-e
    inv *= scale
    basis = np.empty((p + 1, m), dtype=complex)  # the Arnoldi vectors, one per row
    h = np.zeros((p + 1, p), dtype=complex)
    basis[0] = start
    j = 0
    while True:
        for j in range(j, p):
            w = inv @ basis[j]
            q = basis[: j + 1]
            for _ in range(2):
                c = (w.conj() @ q.T).conj()
                w -= c @ q
                h[: j + 1, j] += c
            h[j + 1, j] = norm = np.sqrt(np.vdot(w, w).real)
            if norm <= m * np.finfo(float).eps * np.linalg.norm(h[: j + 2, j]):
                return np.linalg.eigvals(block)
            basis[j + 1] = w / norm
        theta, y = np.linalg.eig(h[:p, :p])
        want = np.argsort(-np.abs(theta))[:k]
        if np.all(np.abs(h[p, p - 1] * y[p - 1, want]) <= 1e-13 * np.abs(theta[want])):
            held[:] = [inv, e]
            return scale / theta[want]
        grown = min(p + p // 2, m // 2)
        if grown == p:
            return np.linalg.eigvals(block)
        basis = np.concatenate([basis, np.empty((grown - p, m), dtype=complex)])
        h = np.pad(h, ((0, grown - p), (0, grown - p)))
        j, p = p, grown


# the largest backward error of a grown inverse's solve (see _grown_inverse)
_GROWN_BACKWARD_ERROR = 1e-12


def _grown_inverse(block: np.ndarray, old: np.ndarray, e, v: np.ndarray) -> np.ndarray | None:
    """B^-1 for the block B (m x m), grown from old = A^-1 2^-e, the inverse
    of its leading h x h block A as `_block_smallest` holds it, by the Schur
    complement of A (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, ch. 13):

        S = B22 - B21 A^-1 B12,  P = A^-1 B12,  Q = B21 A^-1,
        B^-1 = [[A^-1 + P S^-1 Q, -P S^-1], [-S^-1 Q, S^-1]].

    B12 and B21 are zero outside a ku x ku and a kl x kl corner, so only the
    nonzero columns of P and rows of Q are formed, S is B22 less a kl x ku
    corner, and every product but the inverse of S has inner dimension at
    most r = max(kl, ku): O((m - h)^3 + m^2 r) against O(m^3) for B whole.
    A^-1 is unscaled into the new array, exactly (a power of 2), and not
    copied otherwise.

    Raises LinAlgError when S, and so B (det B = det A det S), is singular.
    Returns None, and B is to be inverted whole, when the backward error of
    y = B^-1 v as a solution of B y = v, for the Arnoldi start vector v,

        eta = |B y - v|_max / (|B|_max |y|_max),

    exceeds _GROWN_BACKWARD_ERROR = 1e-12: |.|_max is a vector's largest
    |entry| and, for B, its entries' largest real or imaginary part, read
    with no temporary (and no square, which could overflow).  The inverse
    of an LU factorisation with partial pivoting has an eta of order m eps
    times the pivot growth, and in practice far less: at most 7.2e-17 on
    the blocks of pq, the rotated oscillator and the two-well from 128 to
    2048, and so for their grown inverses.  A grown inverse carries the
    error of A^-1, about eps cond(A) relative, which the sum
    A^-1 + P S^-1 Q cancels only to that accuracy, so its eta grows like
    eps cond(A) / cond(B).  The bound thus passes an inverse as good as
    LU's and stops one grown from a near-singular A (cond(A) above about
    1e4 cond(B)) where B itself is not.  A non-finite inverse gives a NaN
    eta, passes, and goes to the dense route at the caller's finiteness
    test."""
    m, h = len(block), len(old)
    x = np.empty((m, m), dtype=complex)
    a_inv = x[:h, :h]
    np.multiply(old, 2.0**e, out=a_inv)  # exact: a power of 2
    # B12 = B[:h, h:] and B21 = B[h:, :h]: their nonzero columns and rows,
    # and within those the nonzero rows of B12 and columns of B21
    cols = np.flatnonzero(block[:h, h:].any(axis=0))
    i12 = np.flatnonzero(block[:h, h + cols].any(axis=1))
    b12 = block[np.ix_(i12, h + cols)]
    rows = np.flatnonzero(block[h:, :h].any(axis=1))
    j21 = np.flatnonzero(block[h + rows, :h].any(axis=0))
    b21 = block[np.ix_(h + rows, j21)]
    p = a_inv[:, i12] @ b12  # the nonzero columns of A^-1 B12
    q = b21 @ a_inv[j21]  # the nonzero rows of B21 A^-1
    s = block[h:, h:].copy()  # the Schur complement S = B22 - B21 A^-1 B12
    s[np.ix_(rows, cols)] -= q[:, i12] @ b12
    x[h:, h:] = np.linalg.inv(s)
    del s
    s_inv = x[h:, h:]
    np.matmul(s_inv[:, rows], -q, out=x[h:, :h])  # -S^-1 Q
    np.matmul(-p, s_inv[cols], out=x[:h, h:])  # -P S^-1
    a_inv -= p @ x[h:, :h][cols]  # A^-1 + P S^-1 Q
    y = x @ v
    b_max = max(block.real.max(), -block.real.min(), block.imag.max(), -block.imag.min())
    eta = np.abs(block @ y - v).max() / (b_max * np.abs(y).max())
    return None if eta > _GROWN_BACKWARD_ERROR else x


# ---------------------------------------------------------------------------
# resolvent grids


def sigma_min(op: ToeplitzMatrix, lam: complex) -> float:
    """Smallest singular value of (M - lam I): the batched banded kernel of
    `resolvent_grid` at this one point."""
    return float(_sigma_min_banded(op, [lam])[0])


# band entries (grid points x blocks x rows x band width) per chunk of grid
# points: bounds the memory of the batched QR and the iteration vectors
_CHUNK_ENTRIES = 1 << 18
# the step cap and relative tolerance of the block inverse iteration
_MAX_STEPS = 60
_RTOL = 1e-9


class _BandR(NamedTuple):
    """The triangular factor of A = QR for a batch of B banded m x m
    matrices, written R = D U with D diagonal and U unit upper triangular
    with p = kl + ku superdiagonals, so that A^H A = U^H |D|^2 U.  Each sweep
    reads U in the layout it needs, broadcast against rows of the right-hand
    sides (m, k, B): rowh[j, c] = conj(U[j, j + 1 + c]) (a conjugated row,
    for the U^H sweep), col[j, c] = U[j - p + c, j] (a column, for the U
    sweep), and d2inv = 1 / |R[j, j]|^2."""

    rowh: np.ndarray  # (m, p, 1, B)
    col: np.ndarray  # (m, p, 1, B)
    d2inv: np.ndarray  # (m, 1, B)

    def take(self, keep: np.ndarray) -> "_BandR":
        return _BandR(self.rowh[..., keep], self.col[..., keep], self.d2inv[..., keep])


def _band_qr(a: np.ndarray, kl: int) -> tuple[_BandR, np.ndarray]:
    """Householder QR of the batch a (m, kl+ku+1, B), a[i, c, b] =
    A_b[i, i - kl + c] (zero outside the matrix).

    Step j reflects rows j..j+kl of the partly reduced matrix, the only ones
    with an entry in column j, so that column j becomes R[j, j] e_j (LAPACK
    zlarfg): one reflector of length kl + 1 per column, for kl = 1 the work
    of a Givens rotation.  Q is not kept.  Returns R and a (B,) mask of the matrices with
    R[j, j] = 0 for some j, which happens exactly when a whole remaining
    column is zero: those matrices are singular, and the rest of their factor
    is not finite."""
    m, w, nb = a.shape
    wr = w + kl  # the rows of R reach kl columns further than those of A
    work = np.zeros((m + kl, wr, nb), dtype=complex)
    work[:m, :w] = a  # work[i, kl + c] = R[i, i + c] once row i is done
    # front[j, i, c] is the entry in row j + i, column j + c
    item = work.itemsize
    front = np.lib.stride_tricks.as_strided(
        work.reshape(-1)[kl * nb :], (m, kl + 1, w, nb), (item * wr * nb, item * (wr - 1) * nb, item * nb, item)
    )
    diag = np.empty((m, nb))  # -R[j, j]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(m):
            lead, rest = front[j, :, 0], front[j, :, 1:]
            alpha = lead[0]
            beta = np.copysign(_norm(lead), alpha.real, out=diag[j])
            # H^H = I - conj(tau) u u^H with u = (1, x / (alpha + beta)) and
            # tau = 1 + alpha / beta maps the column (alpha, x) to -beta e_0
            u = lead[1:] / (alpha + beta)
            s = (rest[0] + np.add.reduce(u.conj()[:, None] * rest[1:], axis=0)) * (1.0 + alpha.conj() / beta)
            rest[0] -= s
            rest[1:] -= u[:, None] * s
        up = work[:m, kl + 1 :] / -diag[:, None]  # up[j, c] = U[j, j + 1 + c]
        d2inv = 1.0 / diag[:, None] ** 2
    p = w - 1
    col = np.zeros((m, p, 1, nb), dtype=complex)
    for c in range(max(0, p - m + 1), p):
        col[p - c :, c, 0] = up[: m - p + c, p - 1 - c]
    return _BandR(up.conj()[:, :, None], col, d2inv), (diag == 0).any(axis=0)


def _inverse_gram(f: _BandR, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A^H A)^-1 b for every matrix of the batch, b (m, k, B): a forward
    sweep with U^H, the diagonal |D|^-2, and a back sweep with U, each sweep
    column by column.  Each column of the iterate is scaled to largest entry
    1 after each sweep, which keeps the next pass in range and leaves the
    span of the columns, all inverse iteration needs, unchanged.  Also
    returns a (B,) mask of the matrices whose passes overflowed, which
    leaves their columns not finite."""
    m, p = f.col.shape[:2]
    x = np.zeros((m + 2 * p, *b.shape[1:]), dtype=complex)
    x[p : p + m] = b
    rows, y, prod = list(x), x[p : p + m], np.empty((p, *b.shape[1:]), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            x[p + j + 1 : 2 * p + j + 1] -= np.multiply(f.rowh[j], rows[p + j], out=prod)
        y *= f.d2inv
        y /= np.abs(y).max(axis=0)
        for j in range(m - 1, -1, -1):
            x[j : p + j] -= np.multiply(f.col[j], rows[p + j], out=prod)
        top = np.abs(y).max(axis=0)
        y /= top
    # a non-finite entry after the first sweep makes top NaN here
    return y, ~np.isfinite(top).all(axis=0)


def _norm(x: np.ndarray) -> np.ndarray:
    """2-norms over the first axis of x (m, ...), whose last axis is
    contiguous: one pass over its real view."""
    sq = np.einsum("i...,i...->...", x.view(np.float64), x.view(np.float64))
    return np.sqrt(sq[..., 0::2] + sq[..., 1::2])


def _project_out(q: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y minus its component along the unit vectors q, both (m, B), and the
    coefficient removed; projected twice, so the result is orthogonal to q
    to roundoff."""
    qc, coef = q.conj(), 0.0
    for _ in range(2):
        proj = np.einsum("ib,ib->b", qc, y)
        y = y - q * proj
        coef = coef + proj
    return y, coef


def _orthonormal_pair(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the two columns of each (m, 2) slice of w (m, 2, B)."""
    q = np.empty_like(w)
    np.divide(w[:, 0], _norm(w[:, 0]), out=q[:, 0])
    y, _ = _project_out(q[:, 0], w[:, 1])
    np.divide(y, _norm(y), out=q[:, 1])
    return q


def _sigma_min_pair(x: np.ndarray) -> np.ndarray:
    """Smallest singular value of each (m, 2) slice of x (m, 2, B).

    Column-pivoted Gram-Schmidt gives the triangular factor [[f, g], [0, h]],
    whose singular values satisfy s_max +- s_min = sqrt((f +- h)^2 + |g|^2);
    s_min = f h / s_max then carries no cancellation, as the eigenvalues of
    x^H x would for s_min << s_max."""
    norms = _norm(x)
    big = norms[0] >= norms[1]
    f = np.where(big, norms[0], norms[1])
    q = np.where(big, x[:, 0], x[:, 1]) / np.where(f > 0, f, 1.0)
    y, g = _project_out(q, np.where(big, x[:, 1], x[:, 0]))
    h = _norm(y)
    s_max = 0.5 * (np.hypot(f + h, np.abs(g)) + np.hypot(f - h, np.abs(g)))
    return np.divide(f * h, s_max, out=np.zeros_like(f), where=s_max != 0)  # NaN stays NaN


def _band_matvec(a: np.ndarray, v: np.ndarray, kl: int) -> np.ndarray:
    """A v for the batch a (m, w, B) in band form and v (m, k, B)."""
    m, w, nb = a.shape
    vp = np.zeros((m + w - 1, v.shape[1], nb), dtype=complex)
    vp[kl : kl + m] = v
    return sum(a[:, c, None] * vp[c : c + m] for c in range(w))


def _sigma_min_banded(op: ToeplitzMatrix, lams: np.ndarray) -> np.ndarray:
    """sigma_min(M - lam I) at every lam, batched over the points and the
    blocks of `op.blocks()`.

    Each block of each shifted matrix (a point-block pair) gets a banded
    Householder QR, of which only R is kept; then block (size 2) inverse
    iteration on A^H A = R^H R with Rayleigh-Ritz extraction runs on all
    pairs at once, each with its own convergence test
    (`_block_inverse_iteration`).  From the third step a pair is also done
    once its estimate sits below the roundoff floor 1e-12 ||M - lam||_1:
    deep inside the pseudospectrum many singular values are at that floor,
    the iteration would crawl, and the value only needs to be tiny there.
    An exactly zero R[j, j] makes a block singular, so its sigma is 0.
    sigma_min is the minimum over the blocks; a diagonal matrix (1x1 blocks)
    is exact without iteration.

    Raises NoConvergence when a pair is still unsettled after _MAX_STEPS steps
    or a matrix entry is not finite.  Grid points go through in chunks of
    _CHUNK_ENTRIES band entries, so memory stays bounded."""
    lams = np.asarray(lams, dtype=complex).ravel()
    band, pad, kl = op.blocks()
    m, g, _ = band.shape
    colsum, rowsum = _band_sums(np.abs(band), kl)
    norm = max(colsum.max(), rowsum.max())
    diag = band[:, :, kl]
    off_colsum, diag = (colsum - np.abs(diag))[~pad], diag[~pad]
    out = np.empty(lams.size)
    chunk = max(1, _CHUNK_ENTRIES // band.size)
    for s in range(0, lams.size, chunk):
        lam = lams[s : s + chunk]
        if m == 1:  # diagonal: 1x1 blocks, exact
            out[s : s + chunk] = np.abs(band[0, :, 0][None, :] - lam[:, None]).min(axis=1)
            continue
        floor = 1e-12 * np.max(off_colsum + np.abs(diag - lam[:, None]), axis=1)
        # pair b = point b // g, block b % g, on the last axis
        a = np.tile(band.transpose(0, 2, 1), lam.size)
        lam_b = np.repeat(lam, g)
        # padding rows get a decoupled diagonal entry above every singular value
        a[:, kl] = np.where(np.tile(pad, lam.size), norm + np.abs(lam_b) + 1.0, a[:, kl] - lam_b)
        # each pair scaled by a power of 2 to largest entry below 1: exact, and
        # the squares in the column norms stay in the double range
        scale = 2.0 ** -np.frexp(np.abs(a).max(axis=(0, 1)))[1]
        a *= scale
        sig = _block_inverse_iteration(a, kl, g, np.repeat(floor, g) * scale) / scale
        out[s : s + chunk] = sig.reshape(-1, g).min(axis=1)
    return out


def _block_inverse_iteration(a, kl, g, floor) -> np.ndarray:
    """sigma_min of each banded matrix of the batch a (m, w, B), B = points x g.

    Convergence is judged from the relative steps s_t of a pair's estimate
    and their ratio r_t = s_t / s_{t-1}, the contraction rate.  From the
    fourth step a pair is done when s_t <= _RTOL (1 - r_t), which bounds the
    remaining error s_t r_t / (1 - r_t) by _RTOL, and r_t r_{t-1} <= 1/4: the
    step must really shrink, since in a tight cluster of singular values the
    steps can sit flat at a few hundred ulps from the start, where their
    ratio is roundoff and says nothing.

    A pair whose step has not halved in each of its last three steps, from
    the fifth step on, has a cluster of singular values in its block (far
    from the spectrum of a near-normal matrix, say), where the iteration
    would need hundreds of steps; its block gets a dense SVD instead.  (A
    single rate is no guide early on: the block often settles near sigma_2
    before it finds sigma_1.)"""
    f, singular = _band_qr(a, kl)
    m, _, nb = a.shape
    sigma = np.zeros(nb)
    # the working batch: pairs not yet done, plus done ones not yet dropped
    # (the batch is compacted once half of it is done)
    idx = np.flatnonzero(~singular)
    if idx.size < nb:
        a, f = a[..., idx], f.take(idx)
    floor = floor[idx]
    live = np.ones(idx.size, dtype=bool)
    v = np.ones((m, 2, idx.size), dtype=complex)
    v[1::2, 1] = -1.0
    v = _orthonormal_pair(v)
    prev = np.full(idx.size, np.inf)
    steps = np.full((4, idx.size), np.inf)  # the last four relative steps, newest first
    for it in range(_MAX_STEPS):
        x, over = _inverse_gram(f, v)
        # a sweep overflows only when ||A^-1|| is beyond the double range:
        # sigma_min is then below the floor, and is reported as 0
        x[..., over] = v[..., over]
        v = _orthonormal_pair(x)
        est = _sigma_min_pair(_band_matvec(a, v, kl))
        if not np.all(np.isfinite(est)):  # a matrix entry is not finite
            bad = np.unique(idx[~np.isfinite(est)] // g).size
            raise NoConvergence(f"inverse iteration: non-finite iterate at {bad} grid point(s) after {it + 1} step(s)")
        est[over] = 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            steps = np.roll(steps, 1, axis=0)
            steps[0] = np.abs(est - prev) / est
            rates = np.nan_to_num(steps[:3] / steps[1:], nan=1.0)
            # a rate >= 1 is roundoff jitter of a settled estimate, or a jump:
            # then only a step below 1e-6 _RTOL counts as settled
            settled = (steps[0] <= _RTOL * np.maximum(1.0 - rates[0], 1e-6)) & (rates[0] * rates[1] <= 0.25)
        done = live & (over | ((it >= 3) & settled) | ((it >= 2) & (est <= floor)))
        slow = live & ~done & (it >= 4) & np.all(rates > 0.5, axis=0)
        sigma[idx[done]] = est[done]
        for j in np.flatnonzero(slow):
            sigma[idx[j]] = np.linalg.svd(_band_dense(a[..., j], kl), compute_uv=False)[-1]
        live &= ~(done | slow)
        if not live.any():
            return sigma
        prev = est
        if 2 * np.count_nonzero(live) <= live.size:
            keep = np.flatnonzero(live)
            a, f, v, idx, floor, prev, steps = (
                a[..., keep], f.take(keep), v[..., keep], idx[keep], floor[keep], prev[keep], steps[:, keep]
            )
            live = np.ones(keep.size, dtype=bool)
    raise NoConvergence(
        f"inverse iteration: {np.unique(idx[live] // g).size} grid point(s) unconverged after {_MAX_STEPS} steps, "
        f"worst relative step {float(np.max(steps[0, live])):.2e}"
    )


@dataclass
class PseudospectrumField:
    xs: np.ndarray
    ys: np.ndarray
    sigma: np.ndarray  # sigma[iy, ix] = sigma_min(M - (xs[ix] + i ys[iy]) I)
    n_max: int
    hbar: float

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
    one banded QR per block and point, and block inverse iteration
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
    mask = field.c_mask(c, hbar)
    from scipy import ndimage

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

# the relative agreement of two successive quadrature values that settles an action
_ACTION_TOL = 1e-10


@np.errstate(over="ignore", invalid="ignore")  # a non-finite quantity raises below
def action_integral(d: complex, energy: complex, winding: int = 1) -> dict:
    """-i oint vbar dx over x(t) = sqrt(E/d) e^{it}, vbar(t) = sqrt(E/d) e^{-it},
    t in [0, 2 pi winding]; trapezoid nodes double until two successive values
    agree to _ACTION_TOL relative, else NoConvergence after 12 doublings.
    Returns the numeric value and the closed form 2 pi winding E / d.
    Raises NoConvergence at once when the closed form or a quadrature value
    leaves the double range."""
    if not (np.isfinite(complex(d)) and np.isfinite(complex(energy))):
        raise ValueError(f"d and energy must be finite, got d = {d}, energy = {energy}")
    if d == 0:
        raise ValueError("d must be nonzero")
    winding = int(winding)
    if abs(winding) > float(np.finfo(float).max):  # an exact comparison: winding may be any int
        raise ValueError("winding is outside the double range")
    # E and d divided by powers of 2 to unit size, which is exact: the
    # quadrature runs on a ratio of size about 1, and its values and the
    # closed form are multiplied back by 2^shift, so each is rounded only
    # there when |E|, |d| or |E/d| lies outside the normal range
    e_energy, e_d = _exponent(complex(energy)), _exponent(complex(d))
    ratio, shift = _ldexp(complex(energy), -e_energy) / _ldexp(complex(d), -e_d), e_energy - e_d
    root = np.sqrt(ratio)
    closed = _ldexp(2.0 * np.pi * winding * ratio, shift)
    if not np.isfinite(closed):
        raise NoConvergence(f"action: the closed form 2 pi winding E / d is not finite (d = {d}, energy = {energy}, "
                            f"winding = {winding})")
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
        out = _ldexp(complex(integrand.mean() * 2.0 * np.pi * winding), shift)
        if not np.isfinite(out):
            raise NoConvergence(f"action: the quadrature value at {n} nodes is not finite (closed form {closed:.3e})")
        return out

    cur, n = settle(value, 16, 12, lambda v: _ACTION_TOL * abs(v), "action quadrature")
    return {"value": cur, "closed_form": closed, "nodes": n}


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


def action_level_set(extension, energy: complex, d_seed: complex, winding: int = 1) -> complex:
    """-i oint vbar dx on the level set {f~(x, vbar) = E}, parametrised by
    x(t) on the circle of radius |sqrt(E/d_seed)| and vbar(t) solved by
    Newton continuation; raises NonClosedContour if the continuation does not
    return to its start.  Nodes double until two values agree to _ACTION_TOL
    relative, else NoConvergence after 8 doublings; a node whose Newton solve
    fails raises NoConvergence."""
    radius = abs(np.sqrt(complex(energy) / complex(d_seed)))

    def value(n: int) -> complex:
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
        return complex((-1j * vbars * dx).mean() * 2 * np.pi * winding)

    return settle(value, 64, 8, lambda v: _ACTION_TOL * abs(v), "level-set action")[0]


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld residuals


def quantisation_curve(nf: NormalFormData, hbar: float, mu0: np.ndarray | None = None) -> np.polynomial.Polynomial:
    """mu^c as a polynomial in the index xi, in closed form:

    mu^c(xi) = sum_j nu_j hbar^j (xi+1)...(xi+j) + hbar (tr - d0)/2 nu'(hbar (xi+1))/d0

    with nu(s) = mu0(d0 s) (mu0 = [0, 1] when None).  The sum is the diagonal
    of T(nu(|z|^2)) (`bargmann.radial_diagonal`) at a real index; the last
    term shifts the quadratic level inside the oscillator argument,
    lambda ~ nu(hbar(l+1) + hbar (tr - d0)/(2 d0)).  Exact for quadratic
    symbols and for radial normal forms.
    """
    hbar = check_hbar(hbar)
    d0 = nf.d0
    tr = nf.form.tr_f
    poly = np.polynomial.Polynomial
    mu0 = np.array([0.0, 1.0]) if mu0 is None else np.asarray(mu0, dtype=complex)
    nu = poly(mu0 * d0 ** np.arange(len(mu0)))
    curve, rising = poly([0.0]), poly([1.0])  # rising = (xi+1)...(xi+j)
    for j, c in enumerate(nu.coef):
        if j > 0:
            rising = rising * poly([j, 1.0])
        curve = curve + c * hbar**j * rising
    return curve + hbar * (tr - d0) / 2.0 * nu.deriv()(hbar * poly([1.0, 1.0])) / d0


def bohr_sommerfeld_residuals(
    spectrum: SpectrumResult | np.ndarray,
    nf: NormalFormData,
    hbar: float,
    mu0: np.ndarray | None = None,
) -> np.ndarray:
    """rho_l = (mu^c)^{-1}(lambda_l) - l by Newton inversion of the
    closed-form quantisation curve (`quantisation_curve`)."""
    lam = spectrum.eigenvalues if isinstance(spectrum, SpectrumResult) else np.asarray(spectrum)
    mu_c = quantisation_curve(nf, hbar, mu0)
    mu_c_prime = mu_c.deriv()
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


_JORDAN_GAP = 10.0  # a near-degenerate pair lies within _JORDAN_GAP eps ||M||_2
# the levels l = 0..4 of each well's predicted lattice, at every size of hbar d0
_LATTICE_LEVELS = 5


def multiwell_compare(
    symbol: MonomialSymbol,
    hbar: float,
    wells: list[complex],
    order: int = 3,
    degree: int = 12,
    n_start: int = 256,
) -> MultiwellReport:
    """Match computed eigenvalues near the common well level against per-well
    predicted lattices.

    The window is the disc of radius 3.5 hbar max|d0| about the common
    level; its eigenvalues are the smallest of T(f - level), plus the level.
    Each well must be a critical point of the symbol; lattices come
    from the hbar-graded normal form of the recentred symbol when its Hessian
    is diagonal (z zbar only), else from the leading-order quadratic lattice
    level + hbar (d0 (2l+1)/2 + tr/2); `WellPrediction.corrected` reports
    which.  Each lattice holds the levels l = 0..4, also when hbar |d0| is
    far below 1, so a well scaled by a power of 2 is matched as the unscaled
    one.  The window's eigenvalues are ordered by distance from the level,
    so the report of f + kappa is that of f shifted by kappa.  Matching is
    greedy by distance (`_greedy_pairs`), each prediction taken at most once;
    ties broken by that order.
    Raises UnmatchedEigenvalue when an eigenvalue in the window is farther
    than half the local lattice spacing from every prediction."""
    hbar = check_hbar(hbar)
    preds: list[WellPrediction] = []
    levels = []
    for x_n in wells:
        local = symbol.recenter(x_n)
        level = local.coeffs.get((0, 0), 0.0)
        levels.append(level)
        shifted = MonomialSymbol(
            {k: v for k, v in local.coeffs.items() if k != (0, 0)}
        )
        grad = (shifted.coeffs.get((1, 0), 0.0), shifted.coeffs.get((0, 1), 0.0))
        if max(abs(grad[0]), abs(grad[1])) > 1e-10 * max(map(abs, shifted.coeffs.values()), default=0.0):
            raise ValueError(f"well {x_n} is not a critical point (df = {grad})")
        t20 = shifted.coeffs.get((2, 0), 0.0)
        t11 = shifted.coeffs.get((1, 1), 0.0)
        t02 = shifted.coeffs.get((0, 2), 0.0)
        form = ComplexQuadraticForm.from_zv_coefficients(t20, t11, t02)
        nf = reduce_quadratic(form)
        diagonal_hessian = max(abs(t20), abs(t02)) <= 1e-12 * abs(t11)
        if diagonal_hessian:
            f_loc = FormalSymbol.from_monomials(shifted, degree)
            profiles, _ = quantum_normal_form(f_loc, order, degree)
            lattice = level + radial_toeplitz_eigenvalues(profiles, hbar, _LATTICE_LEVELS)
        else:
            ls = np.arange(_LATTICE_LEVELS)
            lattice = level + hbar * (nf.d0 * (2 * ls + 1) / 2.0 + form.tr_f / 2.0)
        preds.append(
            WellPrediction(
                location=complex(x_n),
                level=complex(level),
                d0=complex(nf.d0),
                lattice=lattice,
                corrected=diagonal_hessian,
            )
        )
    centre = np.mean(levels)
    if np.max(np.abs(np.array(levels) - centre)) > 1e-9 * max(1.0, abs(centre)):
        raise ValueError("wells do not share a common level")
    radius = 3.5 * hbar * max(abs(p.d0) for p in preds)

    # the smallest eigenvalues of T(f - centre) are those nearest the level (no shift at 0: -0.0 + 0 is +0.0)
    shift = {} if centre == 0 else {(0, 0): symbol.coeffs.get((0, 0), 0.0) - centre}
    m = assemble_toeplitz(MonomialSymbol({**symbol.coeffs, **shift}), hbar, n_start)
    total_pred = sum(np.sum(np.abs(p.lattice - centre) <= radius) for p in preds)
    spec = eigen_spectrum(m, k_wanted=max(int(total_pred) + 6, 10))
    if shift:
        spec.eigenvalues = spec.eigenvalues + centre
    near = np.abs(spec.eigenvalues - centre) <= radius
    in_window, sectors = spec.eigenvalues[near], spec.sectors[near]
    # stable order: by distance from the level (ties in the greedy matching break this way)
    order = np.argsort(np.abs(in_window - centre))
    in_window, sectors = in_window[order], sectors[order]

    spacing = min(abs(hbar * p.d0) for p in preds)
    # greedy by distance over (eigenvalue, prediction) pairs; the predictions
    # of all wells in one vector, labelled (well, level) per column
    labels = [(w, l) for w, p in enumerate(preds) for l in range(len(p.lattice))]
    predicted = np.concatenate([p.lattice for p in preds])
    pairs = _greedy_pairs(np.abs(in_window[:, None] - predicted[None, :]))
    matches = [(i, *labels[j], d) for i, j, d in pairs]
    paired = {i for i, _, _ in pairs}
    for i in range(len(in_window)):
        if i not in paired:
            raise UnmatchedEigenvalue(f"eigenvalue {in_window[i]} has no prediction slot")
    bad = [t for t in matches if t[3] > spacing / 2]
    if bad:
        raise UnmatchedEigenvalue(
            f"{len(bad)} eigenvalue(s) farther than half the lattice spacing from every prediction"
        )
    matches.sort(key=lambda t: t[0])
    residuals = np.array([t[3] for t in matches])

    # near-degenerate pairs (gap < _JORDAN_GAP eps ||M||_2) and their departure
    # from normality.  The blocks are orthogonal invariant subspaces, so
    # ||M||_2 is the largest block norm and a pair split across two blocks
    # has a diagonal compression: 0.0.  Bounds on ||M||_2 from the band settle
    # most gaps; the blocks' SVDs run only when a gap lies between them
    band, pad, kl = assemble_toeplitz(symbol, hbar, spec.n_max_used).blocks()
    dense: dict[int, np.ndarray] = {}

    def block(r: int) -> np.ndarray:
        if r not in dense:
            dense[r] = _band_dense(band[~pad[:, r], r], kl)
        return dense[r]

    limit = _JORDAN_GAP * np.finfo(float).eps
    lo, hi = _norm2_bounds(band, kl)
    # widened by a roundoff margin, so that a gap settled by the bounds is
    # settled the same way by the SVD's norm
    lo, hi = lo * (1 - 1e-12), hi * (1 + 1e-12)
    count = len(in_window)
    gaps = [(i, j, abs(in_window[i] - in_window[j])) for i in range(count) for j in range(i + 1, count)]
    if any(limit * lo <= gap < limit * hi for _, _, gap in gaps):
        lo = hi = max(np.linalg.norm(block(r), 2) for r in range(band.shape[1]))
    jordan: list[tuple[int, int, float, float]] = []
    for i, j, gap in gaps:
        if gap < limit * lo:
            same = sectors[i] == sectors[j]
            nonnormal = _cluster_nonnormality(block(sectors[i]), in_window[[i, j]]) if same else 0.0
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


def _band_sums(mag: np.ndarray, kl: int) -> tuple[np.ndarray, np.ndarray]:
    """Column and row sums, (m, g) each, of the blocks of the nonnegative band mag (m, g, w) from
    `ToeplitzMatrix.blocks()`: [j, r] sums column (row) j of block r, in row (column) order.  The
    band is zero outside each block, so clipped column indices gather zeros."""
    m, g, w = mag.shape
    i, c = np.indices((m, w))
    col = np.clip(i - kl + c, 0, m - 1)[:, None, :] * g + np.arange(g)[None, :, None]
    colsum = np.bincount(col.ravel(), mag.ravel(), m * g).reshape(m, g)
    return colsum, sum(mag[:, :, k] for k in range(w))


def _norm2_bounds(band: np.ndarray, kl: int) -> tuple[float, float]:
    """lo <= max_r ||B_r||_2 <= hi for the blocks of `band` (m, g, w) from
    `ToeplitzMatrix.blocks()`: the largest column 2-norm below and the
    largest sqrt(||B_r||_1 ||B_r||_inf) above."""
    mag = np.abs(band)
    col_abs, row_abs = _band_sums(mag, kl)
    lo = float(np.sqrt(_band_sums(mag**2, kl)[0].max()))
    hi = float(np.sqrt(col_abs.max(axis=0) * row_abs.max(axis=0)).max())
    return lo, hi


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
