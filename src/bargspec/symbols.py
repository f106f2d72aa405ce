"""Truncated analytic-symbol arithmetic on the Bargmann side.

A TaylorTable2D stores the normalised Taylor data t[a, b] = d_z^a d_zbar^b
f(0) / (a! b!) of a germ at 0, up to a total degree cap; a FormalSymbol is a
finite hbar-expansion of such tables.  hbar stays a formal index throughout:
no float hbar enters the algebra until matrices are assembled.

Implemented here: the sharp product  f # g = sum_j (-hbar)^j / j! d^j f dbar^j g,
Boutet de Monvel-Kree style formal norms, the Poisson bracket
{f, g} = i (df/dz~ dfbar ... see `poisson_bracket`), theta-averaging and the
cohomology solve, sharp inverses, the time-dependent Moser iteration, functions
of the harmonic oscillator in both directions, and degree-by-degree normal
forms (classical and hbar-exact).

One kernel, `_sharp`, sums the sharp series.  It works on raw coefficient
arrays with hbar-orders stacked on axis 0 and, for the Moser iteration, an
optional polynomial axis in the homotopy time t; `sharp_product`,
`sharp_bracket_tail` and the Moser t-products are thin wrappers.  Table
products are numpy-only: a full 2-D product is one 1-D convolution.

Degree and hbar-order caps are independent; any operation that drops a
nonzero coefficient marks its result `truncated` and callers that need
coefficient-exact output must check the flag (or pad degrees beforehand).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import factorial

import numpy as np

from .bargmann import MonomialSymbol

__all__ = [
    "TaylorTable2D",
    "FormalSymbol",
    "FormalNormReport",
    "NonzeroAverage",
    "DegreeOverflow",
    "table_from_dict",
    "dz",
    "dzbar",
    "table_product",
    "pullback_linear",
    "sharp_product",
    "sharp_bracket",
    "sharp_bracket_tail",
    "formal_norm",
    "poisson_bracket",
    "theta_derivative",
    "theta_antiderivative",
    "radial_average",
    "radial_table",
    "reciprocal_profile",
    "divide_by_radial",
    "cohomology_solve",
    "sharp_inverse",
    "MoserResult",
    "moser_normal_form",
    "oscillator_sharp_powers",
    "oscillator_function_symbol",
    "oscillator_function_from_symbol",
    "BirkhoffResult",
    "birkhoff_normal_form",
    "lie_transport",
    "quantum_lie_transport",
    "quantum_normal_form",
]


class NonzeroAverage(ValueError):
    """theta-antiderivative requested for a table with radial content."""


class DegreeOverflow(RuntimeError):
    """An intermediate product exceeded the stored degree budget."""


# ---------------------------------------------------------------------------
# tables


@dataclass
class TaylorTable2D:
    """Normalised Taylor coefficients t[a, b] of z^a zbar^b, a + b <= degree."""

    t: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        arr = np.asarray(self.t, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("table must be square")
        self.t = arr

    @property
    def degree(self) -> int:
        return self.t.shape[0] - 1

    def copy(self) -> "TaylorTable2D":
        return TaylorTable2D(self.t.copy(), self.truncated)

    def raw_derivatives(self) -> np.ndarray:
        """Un-normalised d^a dbar^b f(0) = a! b! t[a, b]."""
        n = self.t.shape[0]
        fac = np.array([factorial(i) for i in range(n)], dtype=float)
        return self.t * fac[:, None] * fac[None, :]

    def resized(self, degree: int) -> "TaylorTable2D":
        n = degree + 1
        out = np.zeros((n, n), dtype=complex)
        m = min(n, self.t.shape[0])
        out[:m, :m] = self.t[:m, :m]
        dropped = bool(np.any(self.t[m:, :] != 0) or np.any(self.t[:, m:] != 0))
        return TaylorTable2D(out, self.truncated or dropped)

    def cleaned(self, tol: float = 0.0) -> "TaylorTable2D":
        t = self.t.copy()
        if tol > 0:
            t[np.abs(t) < tol] = 0.0
        return TaylorTable2D(_mask_degree(t), self.truncated)

    def __call__(self, z: complex, vbar: complex | None = None) -> complex:
        """Evaluate; vbar defaults to conj(z) (the real locus)."""
        if vbar is None:
            vbar = np.conj(z)
        n = self.t.shape[0]
        zp = z ** np.arange(n)
        vp = vbar ** np.arange(n)
        return complex(zp @ self.t @ vp)

    def __add__(self, other: "TaylorTable2D") -> "TaylorTable2D":
        a, b = _same_degree(self, other)
        return TaylorTable2D(a.t + b.t, a.truncated or b.truncated)

    def __sub__(self, other: "TaylorTable2D") -> "TaylorTable2D":
        a, b = _same_degree(self, other)
        return TaylorTable2D(a.t - b.t, a.truncated or b.truncated)

    def __mul__(self, c: complex) -> "TaylorTable2D":
        return TaylorTable2D(self.t * c, self.truncated)

    __rmul__ = __mul__

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.t))) if self.t.size else 0.0


@lru_cache(maxsize=64)
def _beyond_degree(n: int) -> np.ndarray:
    """Mask of the entries a + b > n - 1 of an n x n table (read-only)."""
    a = np.arange(n)
    mask = a[:, None] + a[None, :] > n - 1
    mask.flags.writeable = False
    return mask


def _mask_degree(t: np.ndarray) -> np.ndarray:
    out = t.copy()
    out[_beyond_degree(t.shape[0])] = 0.0
    return out


def _same_degree(a: TaylorTable2D, b: TaylorTable2D):
    d = max(a.degree, b.degree)
    return a.resized(d), b.resized(d)


def table_from_dict(coeffs: dict[tuple[int, int], complex], degree: int) -> TaylorTable2D:
    t = np.zeros((degree + 1, degree + 1), dtype=complex)
    dropped = False
    for (a, b), c in coeffs.items():
        if a + b > degree:
            dropped = dropped or c != 0
            continue
        t[a, b] += c
    return TaylorTable2D(t, dropped)


def _dz(x: np.ndarray) -> np.ndarray:
    """d/dz of stacked tables (..., n, n)."""
    out = np.zeros_like(x)
    out[..., :-1, :] = x[..., 1:, :] * np.arange(1, x.shape[-1])[:, None]
    return out


def _dzbar(x: np.ndarray) -> np.ndarray:
    """d/dzbar of stacked tables (..., n, n)."""
    out = np.zeros_like(x)
    out[..., :, :-1] = x[..., :, 1:] * np.arange(1, x.shape[-1])
    return out


def dz(tab: TaylorTable2D) -> TaylorTable2D:
    return TaylorTable2D(_dz(tab.t), tab.truncated)


def dzbar(tab: TaylorTable2D) -> TaylorTable2D:
    return TaylorTable2D(_dzbar(tab.t), tab.truncated)


def _product(x: np.ndarray, y: np.ndarray, degree: int) -> tuple[np.ndarray, bool]:
    """Product of two raw tables truncated at total degree `degree`, and
    whether the truncation dropped a nonzero coefficient.

    The full 2-D product is one 1-D convolution (Kronecker substitution):
    with rows padded to width w = na + nb - 1, row sums cannot carry.
    """
    na, nb = x.shape[0], y.shape[0]
    w = na + nb - 1
    xp = np.zeros((na, w), dtype=complex)
    xp[:, :na] = x
    yp = np.zeros((nb, w), dtype=complex)
    yp[:, :nb] = y
    full = np.convolve(xp.ravel()[: w * na - nb + 1], yp.ravel()[: w * nb - na + 1]).reshape(w, w)
    n = degree + 1
    out = np.zeros((n, n), dtype=complex)
    m = min(n, w)
    out[:m, :m] = full[:m, :m]
    out[_beyond_degree(n)] = 0.0
    mag = np.abs(full)
    total = mag.sum()
    dropped = bool((mag > 1e-300).any() and (total - np.abs(out).sum() > 1e-14 * (1 + total)))
    return out, dropped


def table_product(a: TaylorTable2D, b: TaylorTable2D, degree: int | None = None) -> TaylorTable2D:
    """Pointwise product, truncated at `degree` (default: max input degree)."""
    if degree is None:
        degree = max(a.degree, b.degree)
    out, dropped = _product(a.t, b.t, degree)
    return TaylorTable2D(out, a.truncated or b.truncated or dropped)


def pullback_linear(tab: TaylorTable2D, m: np.ndarray, degree: int | None = None) -> TaylorTable2D:
    """Table of (z, vbar) -> f(M (z, vbar)): exact polynomial substitution."""
    from math import comb

    if degree is None:
        degree = tab.degree
    m = np.asarray(m, dtype=complex)
    n = degree + 1
    # powers of (m00 z + m01 v) and (m10 z + m11 v)
    deg_in = tab.degree
    pow1 = [np.zeros((n, n), dtype=complex) for _ in range(deg_in + 1)]
    pow2 = [np.zeros((n, n), dtype=complex) for _ in range(deg_in + 1)]
    for p in range(deg_in + 1):
        for j in range(p + 1):
            if j > degree or p - j > degree or p > degree:
                continue
            c1 = comb(p, j) * m[0, 0] ** j * m[0, 1] ** (p - j)
            c2 = comb(p, j) * m[1, 0] ** j * m[1, 1] ** (p - j)
            pow1[p][j, p - j] += c1
            pow2[p][j, p - j] += c2
    out = TaylorTable2D(np.zeros((n, n), dtype=complex))
    dropped = False
    for a in range(deg_in + 1):
        for b in range(deg_in + 1 - a):
            c = tab.t[a, b]
            if c == 0:
                continue
            if a + b > degree:
                dropped = True
                continue
            term = table_product(TaylorTable2D(pow1[a]), TaylorTable2D(pow2[b]), degree)
            out = out + c * term
            dropped = dropped or term.truncated
    out.truncated = out.truncated or tab.truncated or dropped
    return out


# ---------------------------------------------------------------------------
# formal symbols


@dataclass
class FormalSymbol:
    """Finite hbar-expansion (a_0, ..., a_K), all tables at one degree."""

    terms: list[TaylorTable2D]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least the hbar^0 term")
        d = max(t.degree for t in self.terms)
        self.terms = [t.resized(d) for t in self.terms]

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    @property
    def degree(self) -> int:
        return self.terms[0].degree

    @property
    def truncated(self) -> bool:
        return any(t.truncated for t in self.terms)

    def copy(self) -> "FormalSymbol":
        return FormalSymbol([t.copy() for t in self.terms])

    def resized(self, order: int | None = None, degree: int | None = None) -> "FormalSymbol":
        order = self.order if order is None else order
        degree = self.degree if degree is None else degree
        terms = [
            (self.terms[k] if k <= self.order else TaylorTable2D(np.zeros((1, 1)))).resized(degree)
            for k in range(order + 1)
        ]
        dropped = any(t.norm_inf() > 0 for t in self.terms[order + 1 :])
        if dropped:
            terms[-1].truncated = True
        return FormalSymbol(terms)

    def term(self, k: int) -> TaylorTable2D:
        if k <= self.order:
            return self.terms[k]
        return TaylorTable2D(np.zeros((self.degree + 1, self.degree + 1)))

    def __add__(self, other: "FormalSymbol") -> "FormalSymbol":
        ko = max(self.order, other.order)
        return FormalSymbol([self.term(k) + other.term(k) for k in range(ko + 1)])

    def __sub__(self, other: "FormalSymbol") -> "FormalSymbol":
        ko = max(self.order, other.order)
        return FormalSymbol([self.term(k) - other.term(k) for k in range(ko + 1)])

    def __mul__(self, c: complex) -> "FormalSymbol":
        return FormalSymbol([t * c for t in self.terms])

    __rmul__ = __mul__

    def shift_up(self, by: int = 1) -> "FormalSymbol":
        """Multiply by hbar^by (pure index shift)."""
        zero = TaylorTable2D(np.zeros((self.degree + 1, self.degree + 1)))
        return FormalSymbol([zero.copy() for _ in range(by)] + [t.copy() for t in self.terms])

    def shift_down(self, by: int = 1) -> "FormalSymbol":
        """Divide by hbar^by; the removed leading terms must vanish (up to
        roundoff of exactly cancelling products)."""
        scale = max(1.0, self.norm_inf())
        for k in range(by):
            if self.term(k).norm_inf() > 1e-12 * scale:
                raise ValueError("shift_down would drop a nonzero coefficient")
        rest = self.terms[by:]
        if not rest:
            rest = [TaylorTable2D(np.zeros((self.degree + 1, self.degree + 1)))]
        return FormalSymbol([t.copy() for t in rest])

    def norm_inf(self) -> float:
        return max(t.norm_inf() for t in self.terms)

    def evaluate(self, hbar: float, z: complex, vbar: complex | None = None) -> complex:
        return sum(hbar**k * t(z, vbar) for k, t in enumerate(self.terms))

    @classmethod
    def constant(cls, c: complex, order: int = 0, degree: int = 0) -> "FormalSymbol":
        terms = [table_from_dict({}, degree) for _ in range(order + 1)]
        terms[0].t[0, 0] = c
        return cls(terms)

    @classmethod
    def from_table(cls, tab: TaylorTable2D, order: int = 0) -> "FormalSymbol":
        zero = TaylorTable2D(np.zeros_like(tab.t))
        return cls([tab.copy()] + [zero.copy() for _ in range(order)])

    @classmethod
    def from_monomials(cls, sym: MonomialSymbol, degree: int | None = None) -> "FormalSymbol":
        if degree is None:
            degree = sym.degree
        return cls([table_from_dict(sym.coeffs, degree)])

    # -- JSON wire format: {"K":, "D":, "terms": [ {"a,b": [re,im]}, ... ]} --
    def to_json(self) -> str:
        import json

        terms = []
        for tab in self.terms:
            entry = {}
            for a in range(tab.degree + 1):
                for b in range(tab.degree + 1 - a):
                    c = tab.t[a, b]
                    if c != 0:
                        entry[f"{a},{b}"] = [c.real, c.imag]
            terms.append(entry)
        return json.dumps({"K": self.order, "D": self.degree, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "FormalSymbol":
        import json

        raw = json.loads(text)
        degree = int(raw["D"])
        terms = []
        for entry in raw["terms"]:
            coeffs = {}
            for key, val in entry.items():
                a, b = (int(s) for s in key.split(","))
                coeffs[(a, b)] = complex(val[0], val[1])
            terms.append(table_from_dict(coeffs, degree))
        if len(terms) != int(raw["K"]) + 1:
            raise ValueError("terms list inconsistent with K")
        return cls(terms)


# ---------------------------------------------------------------------------
# the sharp-product kernel


def _layers(x: np.ndarray) -> list[list[int]]:
    """For each hbar-order of x (K+1, T+1, n, n), the t-powers of its nonzero tables."""
    return [[s for s, nonzero in enumerate(row) if nonzero] for row in x.any(axis=(2, 3)).tolist()]


def _sharp(
    f: np.ndarray, g: np.ndarray, order: int, degree: int, j_min: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """sum_{j >= j_min} ((-1)^j / j!) d^j f_k dbar^j g_l into hbar-order j+k+l.

    f and g stack hbar-orders on axis 0: shape (K+1, n, n), or (K+1, T+1, n, n)
    with a polynomial in the homotopy time t on axis 1, whose products are
    truncated at the longer operand's t cap.  Zero tables are skipped, so
    trailing zero t-layers cost nothing.  Returns the product, of shape
    (order+1, [T+1,] degree+1, degree+1), and per hbar-order flags saying
    whether a table product dropped a nonzero coefficient.
    """
    timed = f.ndim == 4
    if not timed:
        f, g = f[:, None], g[:, None]
    t_len = max(f.shape[1], g.shape[1])
    out = np.zeros((order + 1, t_len, degree + 1, degree + 1), dtype=complex)
    dropped = np.zeros(order + 1, dtype=bool)
    f, g = f[: order + 1], g[: order + 1]
    for j in range(order + 1):
        if j >= j_min:
            c = (-1.0) ** j / factorial(j)
            f_layers, g_layers = _layers(f), _layers(g)
            for k in range(min(len(f), order + 1 - j)):
                for l in range(min(len(g), order + 1 - j - k)):
                    for s, u in product(f_layers[k], g_layers[l]):
                        if s + u < t_len:
                            prod, drop = _product(f[k, s], g[l, u], degree)
                            out[j + k + l, s + u] += c * prod
                            dropped[j + k + l] |= drop
        f, g = _dz(f), _dzbar(g)
    return (out if timed else out[:, 0]), dropped


def _bracket(f: np.ndarray, g: np.ndarray, order: int, degree: int, j_min: int = 0):
    """The sharp bracket series of `_sharp`: kernel(f, g) - kernel(g, f)."""
    fg, fg_dropped = _sharp(f, g, order, degree, j_min)
    gf, gf_dropped = _sharp(g, f, order, degree, j_min)
    return fg - gf, fg_dropped | gf_dropped


def _stack(s: FormalSymbol) -> np.ndarray:
    return np.stack([t.t for t in s.terms])


def _from_stack(tables: np.ndarray, truncated: np.ndarray) -> FormalSymbol:
    return FormalSymbol([TaylorTable2D(t, bool(flag)) for t, flag in zip(tables, truncated)])


def sharp_product(
    f: FormalSymbol, g: FormalSymbol, order: int | None = None, degree: int | None = None
) -> FormalSymbol:
    """(f # g)_m = sum_{j+k+l=m} ((-1)^j / j!) d^j f_k dbar^j g_l."""
    if order is None:
        order = max(f.order, g.order)
    if degree is None:
        degree = max(f.degree, g.degree)
    out, dropped = _sharp(_stack(f), _stack(g), order, degree)
    return _from_stack(out, dropped | f.truncated | g.truncated)


def sharp_bracket(f: FormalSymbol, g: FormalSymbol, order=None, degree=None) -> FormalSymbol:
    """[f, g]_# = f # g - g # f."""
    return sharp_bracket_tail(f, g, 0, order, degree)


def sharp_bracket_tail(
    f: FormalSymbol, g: FormalSymbol, j_min: int, order=None, degree=None
) -> FormalSymbol:
    """sum_{j >= j_min} (-hbar)^j/j! (d^j f dbar^j g - d^j g dbar^j f).

    The j = 1 part of [f, g]_# is exactly -i hbar {f, g}; taking j_min = 2
    gives the bracket-minus-Poisson correction without cancellation noise.
    """
    if order is None:
        order = max(f.order, g.order)
    if degree is None:
        degree = max(f.degree, g.degree)
    out, dropped = _bracket(_stack(f), _stack(g), order, degree, j_min)
    return _from_stack(out, dropped | f.truncated | g.truncated)


@dataclass
class FormalNormReport:
    rho: float
    per_order: np.ndarray  # ||a||_{rho, s} for s = 0..S
    cumulative: np.ndarray  # ||a||_{rho, s-}

    def total(self) -> float:
        return float(self.cumulative[-1])


def formal_norm(a: FormalSymbol, rho: float, s_max: int | None = None) -> FormalNormReport:
    """Boutet de Monvel-Kree formal norms in dimension d = 1:

    ||a||_{rho,s} = rho^s sum_{2k+al+be = s} 2 * 2^{-k} k! / ((k+al)! (k+be)!)
                    |d^al dbar^be a_k(0)|.
    """
    if s_max is None:
        s_max = 2 * a.order + 2 * a.degree
    per = np.zeros(s_max + 1)
    for k in range(a.order + 1):
        raw = np.abs(a.term(k).raw_derivatives())
        d = a.degree
        for al in range(d + 1):
            for be in range(d + 1 - al):
                s = 2 * k + al + be
                if s > s_max or raw[al, be] == 0:
                    continue
                coeff = 2.0 * 2.0 ** (-k) * factorial(k) / (factorial(k + al) * factorial(k + be))
                per[s] += coeff * raw[al, be] * rho**s
    return FormalNormReport(rho=rho, per_order=per, cumulative=np.cumsum(per))


# ---------------------------------------------------------------------------
# theta calculus on single tables


def poisson_bracket(f: TaylorTable2D, g: TaylorTable2D) -> TaylorTable2D:
    """{f, g} = i (dg dbar f - dbar g df); with it, d_theta f = {|z|^2, f}."""
    d = max(f.degree, g.degree)
    return 1j * (
        table_product(dz(g), dzbar(f), d) - table_product(dzbar(g), dz(f), d)
    )


def _theta_weights(n: int) -> np.ndarray:
    """i (a - b): d_theta multiplies t[a, b] by it."""
    a = np.arange(n)
    return 1j * (a[:, None] - a[None, :])


def theta_derivative(f: TaylorTable2D) -> TaylorTable2D:
    """d_theta f = i (z df - zbar dbar f): multiplies t[a,b] by i(a-b)."""
    return TaylorTable2D(f.t * _theta_weights(f.t.shape[0]), f.truncated)


def theta_antiderivative(f: TaylorTable2D, tol: float = 1e-14) -> TaylorTable2D:
    """Unique g with d_theta g = f and zero diagonal coefficients."""
    n = f.t.shape[0]
    diag = np.abs(np.diagonal(f.t))
    if diag.max(initial=0.0) > tol:
        raise NonzeroAverage(f"radial content of size {diag.max():.3e} present")
    denom = _theta_weights(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(denom != 0, f.t / np.where(denom == 0, 1, denom), 0.0)
    np.fill_diagonal(g, 0.0)
    return TaylorTable2D(g, f.truncated)


def radial_average(f: TaylorTable2D) -> np.ndarray:
    """Profile coefficients of int f dtheta/2pi = sum_a t[a,a] s^a, s = |z|^2."""
    return np.diagonal(f.t).copy()


def radial_table(profile: np.ndarray, degree: int) -> TaylorTable2D:
    t = np.zeros((degree + 1, degree + 1), dtype=complex)
    dropped = False
    for j, c in enumerate(np.asarray(profile, dtype=complex)):
        if 2 * j > degree:
            dropped = dropped or c != 0
            continue
        t[j, j] = c
    return TaylorTable2D(t, dropped)


def reciprocal_profile(profile: np.ndarray, n_terms: int) -> np.ndarray:
    """Power-series reciprocal of a radial profile with profile[0] != 0."""
    p = np.asarray(profile, dtype=complex)
    if p.size == 0 or p[0] == 0:
        raise ZeroDivisionError("radial profile has vanishing constant term")
    inv = np.zeros(n_terms, dtype=complex)
    inv[0] = 1.0 / p[0]
    for n in range(1, n_terms):
        acc = 0.0
        for k in range(1, min(n, p.size - 1) + 1):
            acc += p[k] * inv[n - k]
        inv[n] = -acc / p[0]
    return inv


def divide_by_radial(f: TaylorTable2D, profile: np.ndarray) -> TaylorTable2D:
    """f / p(|z|^2) as a truncated series (p(0) != 0)."""
    inv = reciprocal_profile(profile, f.degree // 2 + 1)
    return table_product(f, radial_table(inv, f.degree), f.degree)


def cohomology_solve(
    g: TaylorTable2D, mu_prime: np.ndarray | None = None
) -> tuple[TaylorTable2D, np.ndarray]:
    """Solve mu'(|z|^2) d_theta b = g - r(|z|^2) with r the radial average of
    g and b normalised to zero diagonal coefficients.

    mu_prime is the radial profile of mu' (default identity weight: [1]);
    mu_prime[0] must be 1 up to sign conventions of the caller (mu_0' (0) = 1).
    """
    if mu_prime is None:
        mu_prime = np.array([1.0])
    mu_prime = np.asarray(mu_prime, dtype=complex)
    if abs(mu_prime[0]) < 1e-14:
        raise ZeroDivisionError("mu'(0) = 0")
    r = radial_average(g)
    resid = g - radial_table(r, g.degree)
    b = theta_antiderivative(divide_by_radial(resid, mu_prime))
    return b, r


# ---------------------------------------------------------------------------
# sharp inverse


def sharp_inverse(a: FormalSymbol, order: int | None = None, degree: int | None = None) -> FormalSymbol:
    """a* with (1 + a) # (1 + a*) = 1, for a of hbar-order >= 1.

    Iteration a*_k = -a_k - (a # a*)_k; each order only needs lower ones.
    """
    if order is None:
        order = a.order
    if degree is None:
        degree = a.degree
    if a.term(0).norm_inf() > 1e-12:
        raise ValueError("sharp_inverse requires a symbol of hbar-order >= 1")
    zero = TaylorTable2D(np.zeros((degree + 1, degree + 1)))
    star = FormalSymbol([zero.copy() for _ in range(order + 1)])
    for k in range(1, order + 1):
        cross = sharp_product(a, star, k, degree)
        star.terms[k] = -1.0 * a.term(k).resized(degree) - cross.term(k)
    return star


# ---------------------------------------------------------------------------
# t-polynomial layer for the Moser iteration
#
# Every scalar becomes a polynomial in the homotopy time t; a t-symbol is an
# array (K+1, T+1, D+1, D+1) over hbar-order and t-power, multiplied by the
# kernel `_sharp`.  All integrations in t are exact coefficient shifts, as the
# coefficients are polynomial in t.


def _t_int(x: np.ndarray) -> np.ndarray:
    """int_0^t x(s) ds, exact in the polynomial coefficients."""
    out = np.zeros_like(x)
    t_cap = x.shape[0] - 1
    if np.any(np.abs(x[t_cap]) > 0):
        raise DegreeOverflow("t-polynomial degree budget exhausted")
    for i in range(t_cap):
        out[i + 1] = x[i] / (i + 1)
    return out


def _t_shift(x: np.ndarray) -> np.ndarray:
    """Multiply by t."""
    out = np.zeros_like(x)
    if np.any(np.abs(x[-1]) > 0):
        raise DegreeOverflow("t-polynomial degree budget exhausted")
    out[1:] = x[:-1]
    return out


def _t_eval(x: np.ndarray, tau: float) -> np.ndarray:
    powers = tau ** np.arange(x.shape[0])
    return np.tensordot(powers, x, axes=(0, 0))


@dataclass
class MoserResult:
    a_final: FormalSymbol  # a(1)
    r_final: list[np.ndarray]  # radial profiles of r(1) by hbar-order
    a_of_t: list[np.ndarray] = field(repr=False, default=None)
    r_dot_of_t: list[np.ndarray] = field(repr=False, default=None)
    order: int = 0
    degree: int = 0

    def a_at(self, tau: float) -> FormalSymbol:
        return FormalSymbol([TaylorTable2D(_t_eval(x, tau)) for x in self.a_of_t])

    def r_at(self, tau: float) -> list[np.ndarray]:
        """Radial profiles of r(tau) = int_0^tau rdot."""
        out = []
        for x in self.r_dot_of_t:
            xi = _t_int(x)
            out.append(np.diagonal(_t_eval(xi, tau), axis1=0, axis2=1).copy())
        return out

    def r_symbol(self, tau: float = 1.0) -> FormalSymbol:
        profs = self.r_at(tau)
        return FormalSymbol([radial_table(p, self.degree) for p in profs])


def moser_normal_form(
    mu: FormalSymbol,
    g: FormalSymbol,
    order: int,
    degree: int | None = None,
    t_degree: int | None = None,
) -> MoserResult:
    """Solve (mu(|z|^2) + t hbar^2 g) # (1 + a(t)) = (1 + a(t)) # (mu(|z|^2) + hbar^2 r(t))
    with a(0) = 0, r(0) = 0, r(t) radial at every hbar-order.

    mu must be radial with mu_0(s) = s + O(s^2).  The coupled system

        a_k(t) = i int_0^t (b # (1 + a(s)))_{k-1} ds,
        mu_0' d_theta b_k = (-g - i t hbar [g,b]_# + R - corr)_k - (lower-mu terms),
        rdot_k fixed by the vanishing radial average,

    is integrated exactly: every coefficient is polynomial in t.  corr is the
    j >= 2 tail of hbar^{-1}[mu, i b]_# (the j = 1 part cancels {mu, b}).
    """
    if degree is None:
        degree = max(mu.degree, g.degree)
    if t_degree is None:
        t_degree = 2 * order + 4
    mu = mu.resized(order, degree)
    g = g.resized(order, degree)
    mu0_profile = radial_average(mu.term(0))
    if abs(mu0_profile[0]) > 1e-13 or abs(mu0_profile[1] - 1.0) > 1e-13:
        raise ValueError("mu_0 must be s + O(s^2)")
    for k in range(mu.order + 1):
        if (mu.term(k) - radial_table(radial_average(mu.term(k)), degree)).norm_inf() > 1e-13:
            raise ValueError("mu must be radial at every hbar-order")
    mu_primes = []
    for k in range(order + 1):
        prof = radial_average(mu.term(k))
        dprof = np.array([(j + 1) * prof[j + 1] for j in range(len(prof) - 1)] + [0.0])
        mu_primes.append(dprof)

    t_cap = t_degree
    shape = (order + 1, t_cap + 1, degree + 1, degree + 1)
    a, astar, b, rdot, g_t, mu_t = (np.zeros(shape, dtype=complex) for _ in range(6))
    g_t[:, 0], mu_t[:, 0] = _stack(g), _stack(mu)
    theta = _theta_weights(degree + 1)

    for k in range(order + 1):
        # a_k(t) = i int_0^t (b # (1+a))_{k-1}: needs b, a at orders <= k-1
        if k >= 1:
            one_plus_a = a[:k].copy()
            one_plus_a[0, 0, 0, 0] += 1.0
            a[k] = 1j * _t_int(_sharp(b[:k], one_plus_a, k - 1, degree)[0][k - 1])
            # a*_k = -a_k - (a # a*)_k
            astar[k] = -a[k] - _sharp(a[: k + 1], astar[: k + 1], k, degree)[0][k]

        # known part of the order-k equation
        rhs = -g_t[k].copy()
        if k >= 1:
            rhs += -1j * _t_shift(_bracket(g_t[:k], b[:k], k - 1, degree)[0][k - 1])
            # corr_k: j >= 2 tail of hbar^{-1} [mu, i b]_# at order k (uses b_j, j <= k-1)
            rhs += -1j * _bracket(mu_t, b[:k], k + 1, degree, j_min=2)[0][k + 1]
            # Q_k = (a # rdot + rdot # a* + a # rdot # a*)_k
            q1 = _sharp(a[: k + 1], rdot[: k + 1], k, degree)[0]
            q2 = _sharp(rdot[: k + 1], astar[: k + 1], k, degree)[0]
            q12 = _sharp(q1, astar[: k + 1], k, degree)[0]
            rhs += q1[k] + q2[k] + q12[k]
            # lower-mu transport terms: - sum_{j>=1} mu_j' d_theta b_{k-j}
            for j in range(1, k + 1):
                mp = radial_table(mu_primes[j], degree).t
                rhs -= _sharp(mp[None, None], (b[k - j] * theta)[None], 0, degree)[0][0]

        # the accumulated rhs omits the +rdot_k part of R; the radial average
        # of mu' d_theta b vanishes, so rdot_k = -radavg(rhs) and the residue
        # feeds the cohomology solve
        for i in range(t_cap + 1):
            tab = TaylorTable2D(rhs[i])
            avg = radial_average(tab)
            rdot[k][i] = -radial_table(avg, degree).t
            resid = tab - radial_table(avg, degree)
            if resid.norm_inf() > 0:
                b[k][i] = theta_antiderivative(divide_by_radial(resid, mu_primes[0])).t

    a_final = FormalSymbol([TaylorTable2D(_t_eval(x, 1.0)) for x in a])
    res = MoserResult(
        a_final=a_final,
        r_final=[],
        a_of_t=list(a),
        r_dot_of_t=list(rdot),
        order=order,
        degree=degree,
    )
    res.r_final = res.r_at(1.0)
    return res


# ---------------------------------------------------------------------------
# functions of the harmonic oscillator


def oscillator_sharp_powers(j_max: int, order: int, degree: int) -> list[FormalSymbol]:
    """(|z|^2)^{# j} for j = 0..j_max, e.g. (|z|^2)^{#2} = |z|^4 - hbar |z|^2."""
    zz = FormalSymbol([radial_table(np.array([0.0, 1.0]), degree)]).resized(order, degree)
    powers = [FormalSymbol.constant(1.0, order, degree)]
    for _ in range(j_max):
        powers.append(sharp_product(powers[-1], zz, order, degree))
    return powers


def oscillator_function_symbol(
    mu_profiles: list[np.ndarray], order: int, degree: int
) -> FormalSymbol:
    """mu_b with mu(T(|z|^2)) = T(mu_b(|z|^2)):

    mu_b = sum_{k, j} hbar^k (mu_k)_j (|z|^2)^{# j}, truncated at the caps.
    """
    j_max = max((len(p) - 1 for p in mu_profiles), default=0)
    j_max = min(j_max, degree // 2)
    powers = oscillator_sharp_powers(j_max, order, degree)
    out = FormalSymbol.constant(0.0, order, degree)
    for k, prof in enumerate(mu_profiles):
        if k > order:
            break
        for j, c in enumerate(np.asarray(prof, dtype=complex)):
            if c == 0 or j > j_max:
                continue
            out = out + (c * powers[j].shift_up(k).resized(order, degree))
    return out


def oscillator_function_from_symbol(mu_b: FormalSymbol) -> list[np.ndarray]:
    """Inverse direction: profiles mu_k with mu(T(|z|^2)) = T(mu_b(|z|^2)).

    Solves order by order: mu_l(s) = (mu_b)_l(s) - sum_{k<l} sum_j (mu_k)_j
    ((|z|^2)^{#j})_{l-k} read as radial profiles.
    """
    order, degree = mu_b.order, mu_b.degree
    for k in range(order + 1):
        tab = mu_b.term(k)
        if (tab - radial_table(radial_average(tab), degree)).norm_inf() > 1e-12:
            raise ValueError("mu_b must be radial at every hbar-order")
    j_max = degree // 2
    powers = oscillator_sharp_powers(j_max, order, degree)
    power_profiles = [[radial_average(p.term(k)) for k in range(order + 1)] for p in powers]
    profiles: list[np.ndarray] = []
    for l in range(order + 1):
        target = radial_average(mu_b.term(l)).astype(complex)
        for k in range(l):
            for j, c in enumerate(profiles[k]):
                if c == 0 or j > j_max:
                    continue
                target = target - c * power_profiles[j][l - k]
        # at order 0 the sharp power contributes s^j exactly, so target IS mu_l
        profiles.append(target)
    return profiles


# ---------------------------------------------------------------------------
# normal forms (classical and hbar-exact)


def lie_transport(f: TaylorTable2D, gen: TaylorTable2D, degree: int | None = None) -> TaylorTable2D:
    """exp(ad_G) f = f + {G, f} + {G, {G, f}}/2! + ... (classical flow at time 1).

    Terminates under the degree cap since ad_G raises degree by deg(G) - 2.
    """
    if degree is None:
        degree = f.degree
    out = f.resized(degree)
    term = f.resized(degree)
    n = 1
    while True:
        term = poisson_bracket(gen.resized(degree), term) * (1.0 / n)
        if term.norm_inf() < 1e-300 or n > 4 * degree:
            break
        out = out + term
        n += 1
    return out


def quantum_lie_transport(
    f: FormalSymbol, gen: FormalSymbol, order: int, degree: int
) -> FormalSymbol:
    """exp(ad) f with ad X = i hbar^{-1} [G, X]_#: the conjugation symbol of
    e^{i T(G)/hbar} T(f) e^{-i T(G)/hbar}, exact to the truncation caps."""
    out = f.resized(order, degree)
    term = f.resized(order, degree)
    n = 1
    while True:
        br = sharp_bracket(gen.resized(order, degree), term, order + 1, degree)
        term = (1j / n) * br.shift_down(1).resized(order, degree)
        if term.norm_inf() < 1e-300 or n > 8 * (degree + order + 1):
            break
        out = out + term
        n += 1
    return out


@dataclass
class BirkhoffResult:
    mu0: np.ndarray  # radial profile: transported symbol = mu0(d0 z zbar)
    generators: list[TaylorTable2D]
    d0: complex
    linear_map: np.ndarray  # composed (z, vbar) map of the quadratic reduction
    transported: TaylorTable2D  # radial table after all generators
    normal_form: object  # NormalFormData of the quadratic part


class NonEllipticHessian(ValueError):
    pass


def birkhoff_normal_form(f: TaylorTable2D, degree: int | None = None) -> BirkhoffResult:
    """Classical degree-by-degree normal form of f with f(0) = 0, df(0) = 0 and
    elliptic Hessian: after the linear symplectic reduction of the quadratic
    part to d0 z vbar, homogeneous generators of degree 3..D remove all
    non-radial terms; returns mu0 with mu0(s) = s + O(s^2) such that the
    transported symbol equals mu0(d0 z zbar) up to degree D."""
    from .quadratic import ComplexQuadraticForm, reduce_quadratic

    if degree is None:
        degree = f.degree
    f = f.resized(degree)
    if abs(f.t[0, 0]) > 1e-12 or abs(f.t[1, 0]) > 1e-12 or abs(f.t[0, 1]) > 1e-12:
        raise ValueError("expected f(0) = 0 and df(0) = 0")
    form = ComplexQuadraticForm.from_zv_coefficients(f.t[2, 0], f.t[1, 1], f.t[0, 2])
    try:
        nf = reduce_quadratic(form)
    except Exception as exc:
        raise NonEllipticHessian(str(exc)) from exc
    d0 = nf.d0
    current = pullback_linear(f, np.linalg.inv(nf.composed), degree)
    generators: list[TaylorTable2D] = []
    n = degree + 1
    a_idx = np.arange(n)
    offdiag = a_idx[:, None] != a_idx[None, :]
    for m in range(3, degree + 1):
        deg_mask = (a_idx[:, None] + a_idx[None, :]) == m
        nonrad = np.where(deg_mask & offdiag, current.t, 0.0)
        if np.max(np.abs(nonrad)) < 1e-14:
            generators.append(TaylorTable2D(np.zeros((n, n))))
            continue
        gen = theta_antiderivative(TaylorTable2D(nonrad)) * (1.0 / d0)
        generators.append(gen)
        current = lie_transport(current, gen, degree)
    resid = np.where(offdiag, current.t, 0.0)
    assert np.max(np.abs(resid)) < 1e-9 * max(1.0, np.max(np.abs(current.t)))
    profile_s = radial_average(current)  # series in s' = z zbar (reduced frame)
    # express as mu0(d0 s'): mu0(x) = sum_a profile_s[a] (x/d0)^a
    mu0 = np.array([profile_s[a] / d0**a for a in range(len(profile_s))])
    return BirkhoffResult(
        mu0=mu0,
        generators=generators,
        d0=d0,
        linear_map=nf.composed,
        transported=TaylorTable2D(np.where(~offdiag, current.t, 0.0)),
        normal_form=nf,
    )


def quantum_normal_form(
    f: FormalSymbol, order: int, degree: int, require_diagonal_hessian: bool = True
) -> tuple[list[np.ndarray], list[FormalSymbol]]:
    """hbar-graded normal form by conjugation only (no change of frame):

    repeatedly conjugates T(f) with e^{i T(G)/hbar} (via quantum_lie_transport),
    G taken at increasing (hbar-order, degree), until the symbol is radial at
    every hbar-order up to the caps.  Requires the quadratic part to be
    c * z zbar already (diagonal Hessian): the theta-cohomology is then
    solvable for every non-radial term.

    Returns (radial profiles R_k by hbar-order, list of generators).  The
    eigenvalues of T(f) near the bottom well are the exact diagonal values of
    T(R) up to the truncation error of the caps.
    """
    f = f.resized(order, degree)
    t0 = f.term(0)
    if abs(t0.t[0, 0]) > 1e-12 or abs(t0.t[1, 0]) > 1e-12 or abs(t0.t[0, 1]) > 1e-12:
        raise ValueError("expected f(0) = 0 and df(0) = 0 at hbar-order 0")
    d0 = complex(t0.t[1, 1])
    if require_diagonal_hessian and (abs(t0.t[2, 0]) > 1e-12 or abs(t0.t[0, 2]) > 1e-12):
        raise ValueError("quadratic part must be proportional to z zbar")
    if d0 == 0:
        raise NonEllipticHessian("vanishing z zbar coefficient")
    current = f
    gens: list[FormalSymbol] = []
    n = degree + 1
    a_idx = np.arange(n)
    offdiag = a_idx[:, None] != a_idx[None, :]
    for k in range(order + 1):
        deg_start = 3 if k == 0 else 1
        for m in range(deg_start, degree + 1):
            deg_mask = (a_idx[:, None] + a_idx[None, :]) == m
            nonrad = np.where(deg_mask & offdiag, current.term(k).t, 0.0)
            if np.max(np.abs(nonrad)) < 1e-13:
                continue
            gamma = theta_antiderivative(TaylorTable2D(nonrad)) * (1.0 / d0)
            gen = FormalSymbol.from_table(gamma).shift_up(k).resized(order, degree)
            gens.append(gen)
            current = quantum_lie_transport(current, gen, order, degree)
        # the order-k part is now radial through all degrees
        resid = np.where(offdiag, current.term(k).t, 0.0)
        assert np.max(np.abs(resid)) < 1e-9 * max(1.0, current.norm_inf())
    profiles = [radial_average(current.term(k)) for k in range(order + 1)]
    return profiles, gens


def radial_toeplitz_eigenvalues(
    profiles: list[np.ndarray], hbar: float, count: int
) -> np.ndarray:
    """Exact diagonal of T(sum_k hbar^k R_k(|z|^2)): entry l equals
    sum_k hbar^k sum_j (R_k)_j hbar^j (l+j)!/l!."""
    from scipy.special import gammaln

    lam = np.zeros(count, dtype=complex)
    ls = np.arange(count)
    for k, prof in enumerate(profiles):
        for j, c in enumerate(np.asarray(prof, dtype=complex)):
            if c == 0:
                continue
            lam += c * hbar ** (k + j) * np.exp(gammaln(ls + j + 1) - gammaln(ls + 1))
    return lam
