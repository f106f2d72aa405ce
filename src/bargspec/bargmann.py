"""Truncated Bargmann-space representation of Toeplitz operators.

The basis is fixed to e_k = e^{-|z|^2/(2 hbar)} z^k / sqrt(k! hbar^k),
orthonormal for the measure dz/(pi hbar).  A monomial symbol z^a zbar^b
acts on e_k with the single nonzero matrix element

    <e_{k+a-b}, T(z^a zbar^b) e_k> = hbar^{(a+b)/2} (k+a)! / sqrt(k! (k+a-b)!)

so it fills the one diagonal a - b.  `ToeplitzMatrix` stores the truncated
operator by diagonal and owns its split into banded blocks by index mod the
gcd g of the offsets, which never couple (parity blocks for symbols in z^2,
zbar^2 and |z|^2): `blocks()`, how the solvers and criteria read it.  The
dense matrix (`entries`) is built only on request, for the tests and the
benchmark.  Factorial ratios are products of linear factors, exact to a few
ulp far beyond n_max ~ 1e3.

`inner_product_oracle` recomputes any entry by 2-D numerical quadrature and
is kept fully independent of the closed form above; it is the arbiter used by
the tests.  Its quadrature is `gaussian_mean`, the integral of
e^{-|z|^2/hbar} fn(z) dz/(pi hbar) (Gauss-Laguerre in the radius, trapezoid
in the angle), which is also the arbiter of the Gaussian expansion.

Every doubling quadrature runs through `settle`: value(n), value(2n), ...
until two successive values agree, else `NoConvergence` with the last value,
node count and gap in `.result`.  `NoConvergence` is the base class of every
failure of an adaptive loop (the CLI's exit 3).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "MonomialSymbol",
    "ToeplitzMatrix",
    "QuadratureError",
    "NoConvergence",
    "check_hbar",
    "monomial_band_entries",
    "assemble_toeplitz",
    "radial_diagonal",
    "settle",
    "gaussian_mean",
    "inner_product_oracle",
]

# the factorial-ratio products stay representable far beyond any usable
# truncation; the guard only rejects plainly absurd requests.
_FACTORIAL_SAFE = 10_000_000


class NoConvergence(RuntimeError):
    """An adaptive loop ran out of steps; `result` holds its last state, if any."""

    def __init__(self, msg, result=None):
        super().__init__(msg)
        self.result = result


class QuadratureError(NoConvergence):
    """Quadrature failed to reach the requested accuracy."""


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
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient {c} of ({a},{b})")
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

    def recenter(self, x0: complex) -> "MonomialSymbol":
        """Taylor-expand around z = x0: returns g with g(w) = f(x0 + w), exact.
        ValueError, with no warning, when g leaves the double range."""
        from math import comb

        x0 = complex(x0)
        x0c = x0.conjugate()
        out: dict[tuple[int, int], complex] = {}
        try:
            for (a, b), c in self.coeffs.items():
                for j in range(a + 1):
                    for k in range(b + 1):
                        key = (j, k)
                        out[key] = out.get(key, 0.0) + (
                            c * comb(a, j) * comb(b, k) * x0 ** (a - j) * x0c ** (b - k)
                        )
        except OverflowError:  # from Python's complex power
            out = None
        if out is None or not all(map(cmath.isfinite, out.values())):
            raise ValueError(f"recentring the symbol at z = {x0} leaves the double range")
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

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix, built on first access and read only by the
        tests and the benchmark.  Read-only: the solvers read `blocks()`, so a
        write here would change nothing they compute."""
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
        raise ValueError(f"n_max + alpha = {n_max + alpha} exceeds the factorial-safe range")
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


def settle(value, n: int, doublings: int, tol, what: str):
    """value(n), value(2n), ... until two successive values agree,
    |cur - prev| <= tol(cur); returns (cur, its n).  After `doublings`
    doublings raises NoConvergence naming `what`, with the last
    (value, n, gap) as its `result`."""
    prev = value(n)
    for _ in range(doublings):
        n *= 2
        cur = value(n)
        gap = abs(cur - prev)
        if gap <= tol(cur):
            return cur, n
        prev = cur
    raise NoConvergence(f"{what} still moving by {gap:.3e} at {n} nodes", (prev, n, gap))


def gaussian_mean(fn, hbar: float) -> complex:
    """integral e^{-|z|^2/hbar} fn(z) dz/(pi hbar), fn vectorised over a 2-D
    array of z.

    With s = |z|^2/hbar the measure is e^{-s} ds dtheta/(2 pi): Gauss-Laguerre
    in s, trapezoid in the angle.  `settle` doubles the angle nodes from 16,
    with 3/2 as many radial nodes up to 96, until two values agree to 1e-12.
    Raises QuadratureError if the last gap is still above 1e-10."""
    hbar = check_hbar(hbar)

    def value(n_ang: int) -> complex:
        # laggauss loses stability near n ~ 150; the radial integrand is a
        # polynomial times e^{-s}, already exact well below the cap
        s, w = _laguerre_nodes(min(3 * n_ang // 2, 96))
        theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
        z = np.sqrt(hbar * s)[:, None] * np.exp(1j * theta[None, :])
        return np.dot(w, fn(z).mean(axis=1))

    try:
        return settle(value, 16, 8, lambda cur: 1e-12, "Gaussian quadrature")[0]
    except NoConvergence as exc:
        last, _, gap = exc.result
        if gap > 1e-10:
            raise QuadratureError(f"quadrature stalled at error {gap:.3e} > 1.0e-10", exc.result) from None
        return last


def inner_product_oracle(symbol: MonomialSymbol, k: int, l: int, hbar: float) -> complex:
    """<e_l, T(f) e_k> by brute-force polar quadrature of

        (k! l! hbar^{k+l})^{-1/2} integral e^{-|z|^2/hbar} f(z) z^k zbar^l dz/(pi hbar)

    with `gaussian_mean`, the normalisation inside the integrand, so that
    the doubling stops on the entry itself.  Raises QuadratureError if the
    doubling stalls above 1e-10.
    """
    hbar = check_hbar(hbar)
    k, l = int(k), int(l)
    if k < 0 or l < 0:
        raise ValueError("state indices must be nonnegative")
    norm = np.exp(-0.5 * (math.lgamma(k + 1) + math.lgamma(l + 1)) - 0.5 * (k + l) * np.log(hbar))

    def fn(z: np.ndarray) -> np.ndarray:
        vals = np.zeros_like(z)
        for (a, b), c in symbol.coeffs.items():
            vals += c * z**a * np.conj(z) ** b
        return vals * z**k * np.conj(z) ** l * norm

    return gaussian_mean(fn, hbar)
