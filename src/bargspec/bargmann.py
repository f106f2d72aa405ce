"""Truncated Bargmann-space representation of Toeplitz operators.

The basis is fixed to e_k = e^{-|z|^2/(2 hbar)} z^k / sqrt(k! hbar^k),
orthonormal for the measure dz/(pi hbar).  A monomial symbol z^a zbar^b
acts on e_k with the single nonzero matrix element

    <e_{k+a-b}, T(z^a zbar^b) e_k> = hbar^{(a+b)/2} (k+a)! / sqrt(k! (k+a-b)!)

so it fills the one diagonal a - b.  `ToeplitzMatrix` stores the truncated
operator by diagonal and owns its split into banded blocks by index mod the
gcd g of the offsets, which never couple (parity blocks for symbols in z^2,
zbar^2 and |z|^2).  The dense n x n matrix is built only on request
(`entries`).  Factorial ratios are products of linear factors, exact to a
few ulp far beyond n_max ~ 1e3.

`inner_product_oracle` recomputes any entry by 2-D numerical quadrature
(Gauss-Laguerre in the radius, trapezoid in the angle) and is kept fully
independent of the closed form above; it is the arbiter used by the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import gammaln

__all__ = [
    "MonomialSymbol",
    "ToeplitzMatrix",
    "QuadratureError",
    "NoConvergence",
    "check_hbar",
    "monomial_band_entries",
    "monomial_matrix",
    "assemble_toeplitz",
    "toeplitz_radial",
    "radial_diagonal",
    "inner_product_oracle",
]

# the factorial-ratio products stay representable far beyond any usable
# truncation; the guard only rejects plainly absurd requests.
_FACTORIAL_SAFE = 10_000_000


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested accuracy."""


class NoConvergence(RuntimeError):
    """An adaptive loop ran out of steps; `result` holds its last state, if any."""

    def __init__(self, msg, result=None):
        super().__init__(msg)
        self.result = result


@lru_cache(maxsize=16)
def _laguerre_nodes(n: int):
    s, w = np.polynomial.laguerre.laggauss(n)
    return s, w


def check_hbar(hbar: float) -> float:
    hbar = float(hbar)
    if not 0.0 < hbar <= 1.0:
        raise ValueError(f"hbar must lie in (0, 1], got {hbar}")
    return hbar


def check_truncation(n_max: int) -> int:
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return n_max


@dataclass(frozen=True)
class MonomialSymbol:
    """Finite map (alpha, beta) -> complex coefficient of z^alpha zbar^beta."""

    coeffs: dict[tuple[int, int], complex]

    def __post_init__(self):
        clean = {}
        for (a, b), c in self.coeffs.items():
            a, b = int(a), int(b)
            if a < 0 or b < 0:
                raise ValueError(f"negative monomial exponents ({a},{b})")
            c = complex(c)
            if c != 0:
                clean[(a, b)] = clean.get((a, b), 0.0) + c
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self) -> int:
        return max((a + b for (a, b) in self.coeffs), default=0)

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        return sum(c * z**a * np.conj(z) ** b for (a, b), c in self.coeffs.items())

    def extension(self, z: complex, vbar: complex) -> complex:
        """Holomorphic extension f~(z, vbar), with vbar replacing zbar."""
        return sum(c * z**a * vbar**b for (a, b), c in self.coeffs.items())

    def conjugate(self) -> "MonomialSymbol":
        return MonomialSymbol({(b, a): np.conj(c) for (a, b), c in self.coeffs.items()})

    def recenter(self, x0: complex) -> "MonomialSymbol":
        """Taylor-expand around z = x0: returns g with g(w) = f(x0 + w), exact."""
        from math import comb

        x0 = complex(x0)
        x0c = np.conj(x0)
        out: dict[tuple[int, int], complex] = {}
        for (a, b), c in self.coeffs.items():
            for j in range(a + 1):
                for k in range(b + 1):
                    key = (j, k)
                    out[key] = out.get(key, 0.0) + (
                        c * comb(a, j) * comb(b, k) * x0 ** (a - j) * x0c ** (b - k)
                    )
        return MonomialSymbol(out)

    # -- JSON wire format: {"alpha,beta": [re, im]} --
    def to_json(self) -> str:
        return json.dumps(
            {f"{a},{b}": [c.real, c.imag] for (a, b), c in sorted(self.coeffs.items())}
        )

    @classmethod
    def from_json(cls, text: str) -> "MonomialSymbol":
        raw = json.loads(text)
        coeffs = {}
        for key, val in raw.items():
            a, b = (int(s) for s in key.split(","))
            if not (isinstance(val, list) and len(val) == 2):
                raise ValueError(f"coefficient of {key!r} must be [re, im], got {val!r}")
            coeffs[(a, b)] = complex(val[0], val[1])
        return cls(coeffs)


@dataclass(frozen=True)
class ToeplitzMatrix:
    """Compression P_N T_hbar(f) P_N to the first n basis states, stored by
    diagonal: diags[d][k] = M[k + d, k], zero where k + d lies outside."""

    diags: dict[int, np.ndarray]
    dim: int
    hbar: float
    symbol: MonomialSymbol | None = field(default=None, compare=False)

    @classmethod
    def from_dense(cls, entries, hbar: float) -> "ToeplitzMatrix":
        """The operator of a square matrix, one diagonal per nonzero offset."""
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"square matrix expected, got shape {m.shape}")
        n = m.shape[0]
        rows, cols = np.nonzero(m)
        diags = {d: np.zeros(n, dtype=complex) for d in np.unique(rows - cols).tolist()}
        for d, vals in diags.items():
            vals[max(-d, 0) : n - max(d, 0)] = np.diagonal(m, -d)
        return cls(diags, n, hbar)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix, built on first access.  Read-only: the
        solvers read `diags` and `blocks()`, so a write here would change
        nothing they compute."""
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for d, vals in self.diags.items():
            k = np.arange(max(-d, 0), self.dim - max(d, 0))
            m[k + d, k] = vals[k]
        m.flags.writeable = False
        return m

    def blocks(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The blocks by index mod g, in band form.

        With g the gcd of the offsets of the nonzero diagonals, block r holds
        the indices r + g i, i < m = ceil(n / g), with kl = max(offset)/g sub-
        and ku = max(-offset)/g superdiagonals.  With no nonzero offset, g = n.
        Returns band (m, g, kl+ku+1), band[i, r, c] = B_r[i, i - kl + c] (zero
        outside the matrix), `pad` (m, g), true on the rows r + g i >= n that
        make every block m x m, and kl.
        """
        n = self.dim
        offsets = [d for d, vals in self.diags.items() if vals.any()]
        if not any(offsets):
            g, kl, ku = n, 0, 0
        else:
            g = math.gcd(*offsets)
            kl, ku = max(max(offsets), 0) // g, max(-min(offsets), 0) // g
        m = -(-n // g)
        row = g * np.arange(m)[:, None] + np.arange(g)[None, :]
        band = np.zeros((m, g, kl + ku + 1), dtype=complex)
        for d in offsets:
            col = row - d
            inside = (row < n) & (col >= 0) & (col < n)
            band[:, :, kl - d // g] = np.where(inside, self.diags[d][np.clip(col, 0, n - 1)], 0.0)
        return band, row >= n, kl

    def to_csv(self) -> str:
        rows, cols = np.nonzero(self.entries)
        vals = self.entries[rows, cols]
        return "".join(f"{r},{c},{float(v.real)!r},{float(v.imag)!r}\n" for r, c, v in zip(rows, cols, vals))


def monomial_band_entries(alpha: int, beta: int, hbar: float, n_max: int) -> np.ndarray:
    """Entries M[k + alpha - beta, k] for k = 0..n_max-1 (zero where the
    target row falls outside the truncation).

    (k+alpha)!/sqrt(k! (k+alpha-beta)!) is evaluated as the square root of a
    product of alpha+beta linear factors: writing l = k+alpha-beta, it equals
    sqrt( (k+alpha)!/k! * (k+alpha)!/l! ).  That keeps entries exact to a few
    ulp (log-gamma differences lose ~1e-13 relative accuracy by n ~ 300) and
    stays overflow-safe far beyond n_max ~ 1e3; the hard guard only rejects
    requests outside the representable range.
    """
    hbar = check_hbar(hbar)
    n_max = check_truncation(n_max)
    if n_max + alpha > _FACTORIAL_SAFE:
        raise OverflowError(f"n_max + alpha = {n_max + alpha} exceeds the factorial-safe range")
    k = np.arange(n_max, dtype=float)
    l = k + alpha - beta
    prod = np.ones(n_max)
    for j in range(1, alpha + 1):
        prod *= k + j  # (k+alpha)!/k!
    for j in range(1, beta + 1):
        prod *= l + j  # (k+alpha)!/l!, since l + beta = k + alpha
    vals = hbar ** ((alpha + beta) / 2.0) * np.sqrt(np.abs(prod))
    rows = k.astype(int) + alpha - beta
    vals = np.where((rows >= 0) & (rows < n_max), vals, 0.0)
    return vals


def monomial_matrix(alpha: int, beta: int, hbar: float, n_max: int) -> ToeplitzMatrix:
    """Matrix of T_hbar(z^alpha zbar^beta) in the truncated basis."""
    return assemble_toeplitz(MonomialSymbol({(alpha, beta): 1.0}), hbar, n_max)


def assemble_toeplitz(symbol: MonomialSymbol, hbar: float, n_max: int) -> ToeplitzMatrix:
    """Linear combination of monomial bands; edge rows past n_max are dropped."""
    hbar = check_hbar(hbar)
    n_max = check_truncation(n_max)
    diags: dict[int, np.ndarray] = {}
    for (a, b), c in symbol.coeffs.items():
        vals = monomial_band_entries(a, b, hbar, n_max)
        diags[a - b] = diags.get(a - b, np.zeros(n_max, dtype=complex)) + c * vals
    return ToeplitzMatrix(diags, n_max, hbar, symbol)


def radial_diagonal(moments: np.ndarray, hbar: float, n_max: int) -> np.ndarray:
    """Diagonal D[k] = sum_j g_j hbar^j (k+j)!/k! for g(s) = sum_j g_j s^j."""
    hbar = check_hbar(hbar)
    n_max = check_truncation(n_max)
    moments = np.asarray(moments, dtype=complex)
    k = np.arange(n_max, dtype=float)
    diag = np.zeros(n_max, dtype=complex)
    ratio = np.ones(n_max)  # (k+j)!/k! built up factor by factor
    for j, g in enumerate(moments):
        if j > 0:
            ratio = ratio * (k + j)
        if g == 0:
            continue
        diag += g * hbar**j * ratio
    return diag


def toeplitz_radial(moments, hbar: float, n_max: int) -> ToeplitzMatrix:
    """T_hbar(g(|z|^2)) for a polynomial radial profile g: diagonal matrix."""
    moments = np.asarray(moments, dtype=complex)
    sym = MonomialSymbol({(j, j): g for j, g in enumerate(moments) if g != 0})
    diag = radial_diagonal(moments, hbar, n_max)
    return ToeplitzMatrix({0: diag}, diag.size, check_hbar(hbar), sym)


def inner_product_oracle(
    symbol: MonomialSymbol,
    k: int,
    l: int,
    hbar: float,
    tol: float = 1e-10,
) -> complex:
    """<e_l, T(f) e_k> by brute-force polar quadrature of

        (k! l! hbar^{k+l})^{-1/2} integral e^{-|z|^2/hbar} f(z) z^k zbar^l dz/(pi hbar).

    Gauss-Laguerre in s = r^2/hbar, trapezoid in the angle; node counts are
    doubled until two successive evaluations agree to 1e-12.  Raises
    QuadratureError if the doubling stalls above `tol`.
    """
    hbar = check_hbar(hbar)
    k, l = int(k), int(l)
    if k < 0 or l < 0:
        raise ValueError("state indices must be nonnegative")

    def evaluate(n_rad: int, n_ang: int) -> complex:
        s, w = _laguerre_nodes(n_rad)
        r = np.sqrt(hbar * s)
        theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
        z = r[:, None] * np.exp(1j * theta[None, :])
        vals = np.zeros_like(z)
        for (a, b), c in symbol.coeffs.items():
            vals += c * z**a * np.conj(z) ** b
        integrand = vals * z**k * np.conj(z) ** l
        # measure: e^{-s} ds dtheta/(2 pi) after substitution, Laguerre eats e^{-s}
        ang = integrand.mean(axis=1)
        total = np.dot(w, ang)
        norm = np.exp(-0.5 * (gammaln(k + 1) + gammaln(l + 1)) - 0.5 * (k + l) * np.log(hbar))
        return total * norm

    n_rad, n_ang = 24, 16
    prev = evaluate(n_rad, n_ang)
    err = np.inf
    for _ in range(8):
        # laggauss loses stability near n ~ 150; the radial integrand is a
        # polynomial times e^{-s}, already exact well below the cap
        n_rad = min(2 * n_rad, 96)
        n_ang *= 2
        cur = evaluate(n_rad, n_ang)
        err = abs(cur - prev)
        prev = cur
        if err < 1e-12:
            return cur
    if err > tol:
        raise QuadratureError(f"quadrature stalled at error {err:.3e} > {tol:.1e}")
    return prev
