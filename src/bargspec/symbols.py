"""Truncated analytic-symbol arithmetic on the Bargmann side.

A TaylorTable2D stores the normalised Taylor data t[a, b] = d_z^a d_zbar^b
f(0) / (a! b!) of a germ at 0, up to a total degree cap.  A FormalSymbol is
a finite hbar-expansion a_0 + hbar a_1 + ... + hbar^K a_K held as one complex
array `c` of shape (K+1, D+1, D+1), hbar-orders on axis 0, with one
`truncated` flag per order in `flags`; `term(k)` is the table of a_k, a
no-copy view of c[k].  hbar stays a formal index throughout: no float hbar
enters the algebra until matrices are assembled.

Implemented here: the sharp product  f # g = sum_j (-hbar)^j / j! d^j f dbar^j g,
Boutet de Monvel-Kree style formal norms, the Poisson bracket
{f, g} = i (df/dz~ dfbar ... see `poisson_bracket`), theta-averaging and the
cohomology solve, sharp inverses, the time-dependent Moser iteration, and the
degree-by-degree normal form.  One routine, `quantum_normal_form`, computes
it: the classical Birkhoff normal form is its hbar^0 slice after the linear
reduction of the quadratic part, and `lie_transport` is the hbar^0 slice of
`quantum_lie_transport`.  The eigenvalues of a radial normal form are read
off in closed form (`radial_toeplitz_eigenvalues`), and
`spectral.quantisation_curve` is the same polynomial at a real index.

One kernel, `_sharp`, sums the sharp series, and one cached table,
`_sharp_pairs`, holds the combinatorics of its j-th term: which entry of f
meets which entry of g, where the product lands and with what weight, for a
product or, in one pass, a bracket.  The kernel works on the stacked arrays
themselves, and for the Moser iteration on stacks with an extra polynomial
axis in the homotopy time t; `sharp_product`, `sharp_bracket_tail`,
`table_product` (hbar-order 0) and the Moser t-products pass the arrays
straight to it.  Each j is one gather over every pair of nonzero tables and
one `bincount`.  Shifts in hbar, changes of order or degree and sums are
slices and pads of the stack.

The Lie transport applies X -> i hbar^{-1} [G, X]_# by the same table: the
bracket pairs whose G entries lie in one homogeneous shell (k, m) of G are a
slice of it.  Their index tables over the whole stack depend on the caps and
the shell alone and are cached per shell (`_ad_shell`), so a generator only
gathers its values, and each Lie term is one gather and `bincount`.  One rule,
`_cut_orders`, sets the flags of both: a product drops a nonzero coefficient
exactly when its factors' top degrees add up past the cap.  The kernel reads
those top degrees in one pass per operand (`_tops`), which gives both the
flags and the trim of the operand to its top degree, and does no work at all
when an operand is zero.

Degree and hbar-order caps are independent; any operation that drops a
nonzero coefficient marks its result `truncated` and callers that need
coefficient-exact output must check the flag (or pad degrees beforehand).
The Lie series raises `NoConvergence` when its term cap is reached with a
term that is not negligible, or at a term that is not finite; the normal
form raises it when the cancellations of its transports leave a non-radial
residual, and the Moser iteration when a(1) or r(1) is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial, isfinite, log10, perm

import numpy as np

from .bargmann import MonomialSymbol, NoConvergence, radial_diagonal
from .quadratic import ComplexQuadraticForm, NoDeltaFound, reduce_quadratic

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

    def resized(self, degree: int) -> "TaylorTable2D":
        """Pad or cut to total degree a + b <= degree; the result is flagged
        when the cut drops a nonzero coefficient."""
        out = np.zeros((degree + 1, degree + 1), dtype=complex)
        dropped = _copy_to_degree(self.t, out)
        return TaylorTable2D(out, self.truncated or bool(dropped))

    def __call__(self, z: complex, vbar: complex | None = None) -> complex:
        """Evaluate; vbar defaults to conj(z) (the real locus)."""
        if vbar is None:
            vbar = np.conj(z)
        n = self.t.shape[0]
        zp = z ** np.arange(n)
        vp = vbar ** np.arange(n)
        return complex(zp @ self.t @ vp)

    def __add__(self, other: "TaylorTable2D") -> "TaylorTable2D":
        d = max(self.degree, other.degree)
        a, b = self.resized(d), other.resized(d)
        return TaylorTable2D(a.t + b.t, a.truncated or b.truncated)

    def __sub__(self, other: "TaylorTable2D") -> "TaylorTable2D":
        return self + other * -1.0

    def __mul__(self, c: complex) -> "TaylorTable2D":
        return TaylorTable2D(self.t * c, self.truncated)

    __rmul__ = __mul__

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.t))) if self.t.size else 0.0


@lru_cache(maxsize=64)
def _beyond_degree(n: int, degree: int | None = None) -> np.ndarray:
    """Mask of the entries a + b > degree (default n - 1) of an n x n table
    (read-only)."""
    a = np.arange(n)
    mask = a[:, None] + a[None, :] > (n - 1 if degree is None else degree)
    mask.flags.writeable = False
    return mask


def _copy_to_degree(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy the stacked tables x (..., n, n) into the zeroed tables `out` up
    to their total degree; per table, whether a nonzero coefficient of x was
    left out."""
    degree = out.shape[-1] - 1
    m = min(x.shape[-1], degree + 1)
    keep = ~_beyond_degree(x.shape[-1], degree)
    np.copyto(out[..., :m, :m], x[..., :m, :m], where=keep[:m, :m])
    return ((x != 0) > keep).any(axis=(-2, -1))


def _radial_part(x: np.ndarray) -> np.ndarray:
    """The radial tables of stacked tables (..., n, n): their diagonal entries
    t[j, j] within the degree cap, 2 j <= n - 1."""
    n = x.shape[-1]
    return np.where(np.eye(n, dtype=bool) & ~_beyond_degree(n), x, 0.0)


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


def table_product(a: TaylorTable2D, b: TaylorTable2D, degree: int | None = None) -> TaylorTable2D:
    """Pointwise product of the whole square arrays, truncated at `degree`
    (default: max input degree): the sharp kernel at hbar-order 0, on tables
    padded so that the square lies within their total degree."""
    if degree is None:
        degree = max(a.degree, b.degree)
    x, y = (np.zeros((1, 2 * tab.degree + 1, 2 * tab.degree + 1), dtype=complex) for tab in (a, b))
    x[0, : a.degree + 1, : a.degree + 1], y[0, : b.degree + 1, : b.degree + 1] = a.t, b.t
    out, dropped = _sharp(x, y, 0, degree)
    return TaylorTable2D(out[0], a.truncated or b.truncated or bool(dropped[0]))


@lru_cache(maxsize=32)
def _pullback_indices(n_in: int, n: int) -> tuple[np.ndarray, ...]:
    """Index arrays of `pullback_linear` from an n_in x n_in table to an n x n
    one (read-only).

    `e_pos`, `e_i`, `e_ai`, `binom`: the entries i <= a of the flat (n, n)
    tables E and F, with i, a - i and C(a, i).  `y_src`, `y_e`: the triples
    (a, b, i) with a + b <= S = min(n, n_in) - 1 and i <= a, as sources of
    Y = t[a, b] E[a, i] in t and E.  `q`, `f_src`, `o`: the quadruples
    (a, b, i, k), k <= b, as the triple, the source F[b, k] and the output
    out[j, s - j], j = i + k, s = a + b, of the term Y F[b, k].  They run in
    the order (a, b, i, k) whatever n and n_in, so every output entry sums
    its terms in the same order at every cap.  There are C(S + 4, 4) of them
    (1001 at S = 10; at most n^3 up to S = 16), and no n^4 grid is built.
    `dropped`: the entries with n - 1 < a + b <= n_in - 1.
    """
    a, i = np.nonzero(np.tri(n, dtype=bool))
    binom = np.array([float(comb(x, y)) for x, y in zip(a.tolist(), i.tolist())])
    e = (a * n + i, i, a - i, binom)
    top = min(n, n_in) - 1
    grid = np.arange(n)
    a, b, i = np.nonzero(
        (grid[:, None, None] + grid[None, :, None] <= top) & (grid[None, None, :] <= grid[:, None, None])
    )
    y = (a * n_in + b, a * n + i)
    q = np.repeat(np.arange(len(a)), b + 1)
    k = np.arange(len(q)) - np.repeat(np.cumsum(b + 1) - (b + 1), b + 1)
    a, b, i = a[q], b[q], i[q]
    quad = (q, b * n + k, (i + k) * n + a + b - i - k)
    dropped = _beyond_degree(n_in, n - 1) & ~_beyond_degree(n_in)
    out = (*e, *y, *quad, dropped)
    for arr in out:
        arr.flags.writeable = False
    return out


def pullback_linear(tab: TaylorTable2D, m: np.ndarray, degree: int | None = None) -> TaylorTable2D:
    """Table of (z, vbar) -> f(M (z, vbar)): exact polynomial substitution.

    z^a vbar^b becomes (m00 z + m01 vbar)^a (m10 z + m11 vbar)^b, homogeneous
    of degree s = a + b: on degree s the map is the symmetric power of M.
    With E[a, i] = C(a, i) m00^i m01^(a-i) and F[b, k] = C(b, k) m10^k
    m11^(b-k),
        out[j, s - j] = sum_{a+b=s} t[a, b] sum_{i+k=j} E[a, i] F[b, k],
    one gather of the terms t[a, b] E[a, i] F[b, k] by the cached indices of
    `_pullback_indices` and one `np.bincount` per real and imaginary part.
    A lower `degree` gives the higher-degree table cut, to the bit.  The
    result is flagged when the input is, or when a nonzero coefficient with
    degree < a + b <= tab.degree is dropped.
    """
    if degree is None:
        degree = tab.degree
    m = np.asarray(m, dtype=complex)
    n = degree + 1
    e_pos, e_i, e_ai, binom, y_src, y_e, q, f_src, o, dropped = _pullback_indices(tab.t.shape[0], n)
    powers = np.power(m[:, :, None], np.arange(n))
    ef = np.zeros((2, n * n), dtype=complex)  # E and F, flat
    ef[:, e_pos] = binom * powers[:, 0, e_i] * powers[:, 1, e_ai]
    y = np.take(tab.t, y_src) * ef[0, y_e]
    terms = y[q] * ef[1, f_src]
    out = np.empty((n, n), dtype=complex)
    out.real.flat = np.bincount(o, terms.real, n * n)
    out.imag.flat = np.bincount(o, terms.imag, n * n)
    return TaylorTable2D(out, tab.truncated or bool(tab.t[dropped].any()))


# ---------------------------------------------------------------------------
# formal symbols


class FormalSymbol:
    """Finite hbar-expansion (a_0, ..., a_K), all tables at one degree: the
    stack `c` (K+1, D+1, D+1) and per-order `truncated` flags `flags`."""

    def __init__(self, terms: list[TaylorTable2D]):
        if not terms:
            raise ValueError("need at least the hbar^0 term")
        d = max(t.degree for t in terms)
        self.c = np.stack([t.resized(d).t for t in terms])
        self.flags = np.array([t.truncated for t in terms], dtype=bool)

    @classmethod
    def _wrap(cls, c: np.ndarray, flags) -> "FormalSymbol":
        """The symbol of a stack the caller hands over (no copy, no padding)."""
        out = cls.__new__(cls)
        out.c, out.flags = c, np.asarray(flags, dtype=bool)
        return out

    @property
    def order(self) -> int:
        return self.c.shape[0] - 1

    @property
    def degree(self) -> int:
        return self.c.shape[1] - 1

    @property
    def truncated(self) -> bool:
        return bool(self.flags.any())

    def resized(self, order: int | None = None, degree: int | None = None) -> "FormalSymbol":
        """Pad or cut to (order, degree), degree meaning total degree a + b:
        a term whose cut drops a nonzero coefficient is flagged, and dropping
        nonzero higher orders flags the last order.  A symbol already at
        those caps with nothing past the degree is returned as it is (no
        caller writes into a stack)."""
        order = self.order if order is None else order
        degree = self.degree if degree is None else degree
        if order == self.order and degree == self.degree and not self.c[:, _beyond_degree(degree + 1)].any():
            return self
        kept = self.c[: order + 1]
        c = np.zeros((order + 1, degree + 1, degree + 1), dtype=complex)
        lost = _copy_to_degree(kept, c[: len(kept)])
        flags = np.zeros(order + 1, dtype=bool)
        flags[: len(kept)] = self.flags[: order + 1] | lost
        flags[-1] |= bool(self.c[order + 1 :].any())
        return FormalSymbol._wrap(c, flags)

    def term(self, k: int) -> TaylorTable2D:
        if k <= self.order:
            return TaylorTable2D(self.c[k], bool(self.flags[k]))
        return TaylorTable2D(np.zeros((self.degree + 1, self.degree + 1)))

    def __add__(self, other: "FormalSymbol") -> "FormalSymbol":
        order, degree = max(self.order, other.order), max(self.degree, other.degree)
        a, b = self.resized(order, degree), other.resized(order, degree)
        return FormalSymbol._wrap(a.c + b.c, a.flags | b.flags)

    def __sub__(self, other: "FormalSymbol") -> "FormalSymbol":
        return self + other * -1.0

    def __mul__(self, c: complex) -> "FormalSymbol":
        return FormalSymbol._wrap(self.c * c, self.flags.copy())

    __rmul__ = __mul__

    def shift_up(self, by: int = 1) -> "FormalSymbol":
        """Multiply by hbar^by (pure index shift)."""
        c = np.zeros((self.order + 1 + by,) + self.c.shape[1:], dtype=complex)
        c[by:] = self.c
        flags = np.zeros(self.order + 1 + by, dtype=bool)
        flags[by:] = self.flags
        return FormalSymbol._wrap(c, flags)

    def shift_down(self, by: int = 1) -> "FormalSymbol":
        """Divide by hbar^by; the removed leading terms must vanish (up to
        roundoff of exactly cancelling products)."""
        if np.abs(self.c[:by]).max(initial=0.0) > 1e-12 * max(1.0, self.norm_inf()):
            raise ValueError("shift_down would drop a nonzero coefficient")
        if by > self.order:
            return FormalSymbol.constant(0.0, 0, self.degree)
        return FormalSymbol._wrap(self.c[by:].copy(), self.flags[by:].copy())

    def norm_inf(self) -> float:
        return float(np.abs(self.c).max())

    @classmethod
    def constant(cls, c: complex, order: int = 0, degree: int = 0) -> "FormalSymbol":
        out = np.zeros((order + 1, degree + 1, degree + 1), dtype=complex)
        out[0, 0, 0] = c
        return cls._wrap(out, np.zeros(order + 1, dtype=bool))

    @classmethod
    def from_monomials(cls, sym: MonomialSymbol, degree: int | None = None) -> "FormalSymbol":
        if degree is None:
            degree = sym.degree
        return cls([table_from_dict(sym.coeffs, degree)])

    # -- JSON wire format: {"K":, "D":, "terms": [ {"a,b": [re,im]}, ... ]} --
    def to_json(self) -> str:
        import json

        terms = [{} for _ in range(self.order + 1)]
        for k, a, b in zip(*np.nonzero((self.c != 0) & ~_beyond_degree(self.degree + 1))):
            c = self.c[k, a, b]
            terms[k][f"{a},{b}"] = [c.real, c.imag]
        return json.dumps({"K": self.order, "D": self.degree, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "FormalSymbol":
        import json

        raw = json.loads(text)
        if len(raw["terms"]) != int(raw["K"]) + 1:
            raise ValueError("terms list inconsistent with K")
        coeffs = [
            {tuple(int(s) for s in key.split(",")): complex(val[0], val[1]) for key, val in entry.items()}
            for entry in raw["terms"]
        ]
        return cls([table_from_dict(c, int(raw["D"])) for c in coeffs])


# ---------------------------------------------------------------------------
# the sharp-product kernel


@lru_cache(maxsize=256)
def _sharp_pairs(nf: int, ng: int, j: int, degree: int, bracket: bool) -> tuple[np.ndarray, ...]:
    """The j-th term of the sharp series of an nf x nf table f and an ng x ng
    table g, each with nothing past its total degree, as a gather (read-only):
    the term is c_j d^j f dbar^j g, c_j = (-1)^j / j!, or for the bracket
    c_j (d^j f dbar^j g - d^j g dbar^j f).  An f entry (a, b) meets a g entry
    (c, d) at (a + c - j, b + d - j) when a + b + c + d - 2j <= degree, with
    the weight c_j ff(a) ff(d), or c_j (ff(a) ff(d) - ff(c) ff(b)) for the
    bracket, where ff(x) = x! / (x - j)! is zero for x < j.  Over the pairs
    of nonzero weight, sorted by the degree a + b of the f entry, then by the
    g entry, returns: the flat positions of the f entry and of the g entry;
    the slots 2 o and 2 o + 1 of the real and imaginary part of the output,
    o its flat position in a (degree+1) x (degree+1) table; the weights; and
    by f-degree m, views of these four arrays on the pairs of degree m.
    """
    f_pos, g_pos = np.flatnonzero(~_beyond_degree(nf)), np.flatnonzero(~_beyond_degree(ng))
    (a, b), (c, d) = np.divmod(f_pos, nf), np.divmod(g_pos, ng)
    fi, gi = np.nonzero(np.add.outer(a + b, c + d) <= degree + 2 * j)
    ff = np.array([float(perm(x, j)) for x in range(max(nf, ng))])
    weight = ff[a[fi]] * ff[d[gi]] - (ff[c[gi]] * ff[b[fi]] if bracket else 0.0)
    keep = np.flatnonzero(weight)
    f_deg = (a + b)[fi[keep]]
    keep = keep[np.lexsort((fi[keep], gi[keep], f_deg))]
    fi, gi = fi[keep], gi[keep]
    slots = 2 * ((a[fi] + c[gi] - j) * (degree + 1) + b[fi] + d[gi] - j)
    slots = (slots[:, None] + np.arange(2)).ravel()
    # int32 entry positions keep the cache small
    out = (f_pos[fi].astype(np.int32), g_pos[gi].astype(np.int32), slots, weight[keep] * ((-1.0) ** j / factorial(j)))
    for arr in out:
        arr.flags.writeable = False
    bounds = np.searchsorted(np.sort(f_deg), np.arange(nf + 1)).tolist()
    shells = tuple((out[0][i:e], out[1][i:e], slots[2 * i : 2 * e], out[3][i:e]) for i, e in zip(bounds, bounds[1:]))
    return out + (shells,)


@lru_cache(maxsize=64)
def _shifted_degrees(n: int, count: int) -> np.ndarray:
    """a + b - j at the entries (a, b) of a flat n x n table within its total
    degree with a >= j, then with b >= j, for j < count; -inf elsewhere.
    Shape (2, count, n * n), read-only."""
    a, b = np.divmod(np.arange(n * n), n)
    j = np.arange(count)[:, None]
    out = np.where(np.stack([a >= j, b >= j]) & (a + b <= n - 1), a + b - j, -np.inf)
    out.flags.writeable = False
    return out


def _tops(x: np.ndarray, order: int) -> np.ndarray:
    """The top degrees of d^j x_k and dbar^j x_k, j <= order, for stacked
    tables x (K+1, n, n) or a t-stack (K+1, T+1, n, n): the largest a + b - j
    over the entries x_k[a, b] within the table's total degree that are
    nonzero on some t-layer, with a >= j (b >= j for dbar), -inf where the
    derivative vanishes.  Shape (K+1, 2, order+1), by (k, d or dbar, j)."""
    n = x.shape[-1]
    nonzero = (x.any(axis=1) if x.ndim == 4 else x != 0).reshape(len(x), 1, 1, n * n)
    return np.where(nonzero, _shifted_degrees(n, order + 1), -np.inf).max(axis=-1)


def _cut(f_top: np.ndarray, g_top: np.ndarray, order: int, degree: int, j_min: int, bracket: bool) -> np.ndarray:
    """The flags of `_cut_orders` from the `_tops` of its operands."""
    cut = f_top[:, None, 0] + g_top[:, 1] > degree  # by (k, l, j)
    if bracket:
        cut |= f_top[:, None, 1] + g_top[:, 0] > degree
    k, l, j = np.nonzero(cut[..., j_min:])
    o = k + l + j + j_min
    return np.bincount(o[o <= order], minlength=order + 1) > 0


def _cut_orders(f: np.ndarray, g: np.ndarray, order: int, degree: int, j_min: int = 0, bracket: bool = False):
    """Per hbar-order o of the series of `_sharp`, whether the degree cap
    drops a nonzero coefficient: whether d^j f_k dbar^j g_l, or for a bracket
    also d^j g_l dbar^j f_k, has top degree (`_tops`, over every t-layer of a
    t-stack) past `degree` for some j >= j_min with j + k + l = o.  The top
    parts of two nonzero polynomials multiply to a nonzero polynomial, so
    these are exactly the products that drop a nonzero coefficient."""
    f, g = f[: order + 1], g[: order + 1]
    return _cut(_tops(f, order), _tops(g, order), order, degree, j_min, bracket)


def _sharp(
    f: np.ndarray, g: np.ndarray, order: int, degree: int, j_min: int = 0, bracket: bool = False, top_only: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """sum_{j >= j_min} ((-1)^j / j!) d^j f_k dbar^j g_l into hbar-order j+k+l,
    or with `bracket` the same series of f # g - g # f in one pass.

    f and g stack hbar-orders on axis 0: shape (K+1, n, n), or (K+1, T+1, n, n)
    with a polynomial in the homotopy time t on axis 1; the product keeps the
    longer operand's t cap and raises DegreeOverflow when a nonzero
    coefficient lands past it.  When either operand has no nonzero table the
    product is zero and nothing is flagged, and no further work is done.
    Otherwise one pass per operand (`_tops`) gives the top degrees of its
    derivatives, from which come both the flags of `_cut_orders` and the trim
    of the operand to its top degree.  For each j, every pair of nonzero
    tables (k, s) x (l, u) with j + k + l <= order meets the entry pairs of
    `_sharp_pairs` in one flat `take` per operand and one `np.bincount` over
    the real and imaginary parts side by side; zero tables, and entries past
    an operand's top degree, cost nothing.  `top_only` computes hbar-order
    `order` alone.  Returns the product, of shape (order+1, [T+1,] degree+1,
    degree+1), and the flags.
    """
    timed = f.ndim == 4
    if not timed:
        f, g = f[:, None], g[:, None]
    f, g = f[: order + 1], g[: order + 1]
    n = degree + 1
    t_len, t_out = max(f.shape[1], g.shape[1]), f.shape[1] + g.shape[1] - 1
    if not (f.any() and g.any()):
        out = np.zeros((order + 1, t_len, n, n), dtype=complex)
        return (out if timed else out[:, 0]), np.zeros(order + 1, dtype=bool)
    f_top, g_top = _tops(f, order), _tops(g, order)
    dropped = _cut(f_top, g_top, order, degree, j_min, bracket)
    if top_only:
        dropped[:order] = False
    # each operand trimmed to 1 + its top degree and flattened; a gather reads
    # the entries of its nonzero tables at their row offsets
    nf, ng = (int(max(top[:, 0, 0].max(), 0.0)) + 1 for top in (f_top, g_top))
    f, g = f[..., :nf, :nf], g[..., :ng, :ng]
    fk, fs = np.nonzero(f.any(axis=(2, 3)))
    gl, gu = np.nonzero(g.any(axis=(2, 3)))
    f_rows, g_rows = (fk * f.shape[1] + fs) * nf * nf, (gl * g.shape[1] + gu) * ng * ng
    f, g = f.ravel(), g.ravel()
    out = np.zeros(2 * (order + 1) * t_out * n * n)
    base = fk[:, None] + gl
    for j in range(j_min, min(order, nf - 1, ng - 1) + 1):
        lands = base + j
        p, q = np.nonzero(lands == order if top_only else lands <= order)
        if not len(p):
            continue
        fi, gi, slots, weight, _ = _sharp_pairs(nf, ng, j, degree, bracket)
        terms = f.take(f_rows[p, None] + fi)
        terms *= g.take(g_rows[q, None] + gi)
        terms *= weight
        slots = ((2 * n * n * (lands[p, q] * t_out + fs[p] + gu[q]))[:, None] + slots).ravel()
        out += np.bincount(slots, terms.view(float).ravel(), len(out))
    out = out.view(complex).reshape(order + 1, t_out, n, n)
    if out[:, t_len:].any():
        raise DegreeOverflow(f"a t-degree product past the t cap {t_len - 1}")
    out = out[:, :t_len]
    return (out if timed else out[:, 0]), dropped


def _series(f: FormalSymbol, g: FormalSymbol, order, degree, j_min: int = 0, bracket: bool = False) -> FormalSymbol:
    """A kernel series of two symbols, by default at their larger caps."""
    order = max(f.order, g.order) if order is None else order
    degree = max(f.degree, g.degree) if degree is None else degree
    out, dropped = _sharp(f.c, g.c, order, degree, j_min, bracket)
    return FormalSymbol._wrap(out, dropped | f.truncated | g.truncated)


def sharp_product(
    f: FormalSymbol, g: FormalSymbol, order: int | None = None, degree: int | None = None
) -> FormalSymbol:
    """(f # g)_m = sum_{j+k+l=m} ((-1)^j / j!) d^j f_k dbar^j g_l."""
    return _series(f, g, order, degree)


def sharp_bracket_tail(
    f: FormalSymbol, g: FormalSymbol, j_min: int, order=None, degree=None
) -> FormalSymbol:
    """sum_{j >= j_min} (-hbar)^j/j! (d^j f dbar^j g - d^j g dbar^j f).

    The j = 1 part of [f, g]_# is exactly -i hbar {f, g}; taking j_min = 2
    gives the bracket-minus-Poisson correction without cancellation noise.
    """
    return _series(f, g, order, degree, j_min, bracket=True)


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
    fac = np.array([float(factorial(i)) for i in range(a.order + a.degree + 1)])
    k, al, be = np.indices(a.c.shape)
    s = 2 * k + al + be
    raw = np.abs(a.c) * fac[al] * fac[be]  # |d^al dbar^be a_k(0)|
    coeff = 2.0 * 2.0 ** (-k) * fac[k] / (fac[k + al] * fac[k + be])
    keep = (al + be <= a.degree) & (s <= s_max)
    per = np.bincount(s[keep], weights=(coeff * raw * rho**s)[keep], minlength=s_max + 1)
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


@lru_cache(maxsize=32)
def _theta_reciprocal(n: int) -> np.ndarray:
    """1 / (i (a - b)) on an n x n table, zero on the diagonal (read-only)."""
    weights = _theta_weights(n)
    out = np.zeros((n, n), dtype=complex)
    np.divide(1.0, weights, out=out, where=weights != 0)
    out.flags.writeable = False
    return out


def _theta_inverse(x: np.ndarray) -> np.ndarray:
    """The g with d_theta g = x and zero diagonal, for stacked tables (..., n, n):
    x times the cached table 1 / (i (a - b)), which is within 1 ulp of the
    quotient.  Raises NonzeroAverage when a diagonal entry exceeds 1e-14."""
    diag = np.abs(np.diagonal(x, axis1=-2, axis2=-1))
    if diag.max(initial=0.0) > 1e-14:
        raise NonzeroAverage(f"radial content of size {diag.max():.3e} present")
    return x * _theta_reciprocal(x.shape[-1])


def theta_antiderivative(f: TaylorTable2D) -> TaylorTable2D:
    """Unique g with d_theta g = f and zero diagonal coefficients."""
    return TaylorTable2D(_theta_inverse(f.t), f.truncated)


def radial_average(f: TaylorTable2D) -> np.ndarray:
    """Profile coefficients of int f dtheta/2pi = sum_a t[a,a] s^a, s = |z|^2."""
    return np.diagonal(f.t).copy()


def radial_table(profile: np.ndarray, degree: int) -> TaylorTable2D:
    p = np.asarray(profile, dtype=complex)
    keep = np.arange(min(p.size, degree // 2 + 1))
    t = np.zeros((degree + 1, degree + 1), dtype=complex)
    t[keep, keep] = p[keep]
    return TaylorTable2D(t, bool(p[len(keep) :].any()))


def reciprocal_profile(profile: np.ndarray, n_terms: int) -> np.ndarray:
    """Power-series reciprocal of a radial profile with profile[0] != 0."""
    p = np.asarray(profile, dtype=complex)
    if p.size == 0 or p[0] == 0:
        raise ZeroDivisionError("radial profile has vanishing constant term")
    inv = np.zeros(n_terms, dtype=complex)
    inv[0] = 1.0 / p[0]
    for n in range(1, n_terms):
        k = min(n, p.size - 1)
        inv[n] = -(p[1 : k + 1] @ inv[n - 1 :: -1][:k]) / p[0]
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
    lead = a.resized(max(order, a.order), degree)
    star = np.zeros((order + 1, degree + 1, degree + 1), dtype=complex)
    flags = np.zeros(order + 1, dtype=bool)
    for k in range(1, order + 1):
        cross, dropped = _sharp(a.c, star, k, degree, top_only=True)
        star[k] = -lead.c[k] - cross[k]
        flags[k] = lead.flags[k] | dropped[k] | a.truncated | flags.any()
    return FormalSymbol._wrap(star, flags)


# ---------------------------------------------------------------------------
# t-polynomial layer for the Moser iteration
#
# Every scalar becomes a polynomial in the homotopy time t; a t-symbol is an
# array (K+1, T+1, D+1, D+1) over hbar-order and t-power (the t-axis is axis
# -3 throughout), multiplied by the kernel `_sharp`.  The order-k entries of
# a(t) and rdot(t) have t-degree <= k, so the cap T = order + 1 leaves room for
# the one integration r(t) = int_0^t rdot.  All integrations in t are exact
# coefficient shifts, as the coefficients are polynomial in t.


def _t_shift(x: np.ndarray) -> np.ndarray:
    """Multiply by t."""
    if np.any(x[..., -1, :, :] != 0):
        raise DegreeOverflow("t-polynomial degree budget exhausted")
    out = np.zeros_like(x)
    out[..., 1:, :, :] = x[..., :-1, :, :]
    return out


def _t_int(x: np.ndarray) -> np.ndarray:
    """int_0^t x(s) ds, exact in the polynomial coefficients."""
    out = _t_shift(x)
    out[..., 1:, :, :] /= np.arange(1, x.shape[-3])[:, None, None]
    return out


def _t_eval(x: np.ndarray, tau: float) -> np.ndarray:
    return np.tensordot(tau ** np.arange(x.shape[-3]), x, axes=(0, -3))


def _at(result: tuple[np.ndarray, np.ndarray], index, drops: list[bool]) -> np.ndarray:
    """Entry `index` of a kernel result; records whether it dropped a coefficient."""
    out, dropped = result
    drops.append(bool(np.any(dropped[index])))
    return out[index]


@dataclass
class MoserResult:
    a_of_t: np.ndarray = field(repr=False)  # a(t), (K+1, T+1, D+1, D+1)
    r_dot_of_t: np.ndarray = field(repr=False)  # rdot(t) as radial tables, same layout
    flags: np.ndarray  # per hbar-order truncation flags of a(t) and r(t)
    order: int
    degree: int
    a_final: FormalSymbol = field(init=False)  # a(1)
    r_final: list[np.ndarray] = field(init=False)  # radial profiles of r(1) by hbar-order

    def __post_init__(self):
        self.a_final = self.a_at(1.0)
        self.r_final = self.r_at(1.0)

    def a_at(self, tau: float) -> FormalSymbol:
        return FormalSymbol._wrap(_t_eval(self.a_of_t, tau), self.flags.copy())

    def r_symbol(self, tau: float = 1.0) -> FormalSymbol:
        """r(tau) = int_0^tau rdot."""
        return FormalSymbol._wrap(_t_eval(_t_int(self.r_dot_of_t), tau), self.flags.copy())

    def r_at(self, tau: float) -> list[np.ndarray]:
        """Radial profiles of r(tau) by hbar-order."""
        return list(np.diagonal(self.r_symbol(tau).c, axis1=1, axis2=2).copy())


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises below
def moser_normal_form(
    mu: FormalSymbol, g: FormalSymbol, order: int, degree: int | None = None
) -> MoserResult:
    """Solve (mu(|z|^2) + t hbar^2 g) # (1 + a(t)) = (1 + a(t)) # (mu(|z|^2) + hbar^2 r(t))
    with a(0) = 0, r(0) = 0, r(t) radial at every hbar-order.

    mu must be radial with mu_0(s) = s + O(s^2).  The coupled system

        a_k(t) = i int_0^t (b # (1 + a(s)))_{k-1} ds,
        mu_0' d_theta b_k = (-g - i t hbar [g,b]_# + R - corr)_k - (lower-mu terms),
        rdot_k fixed by the vanishing radial average,

    is integrated exactly: every coefficient is polynomial in t.  corr is the
    j >= 2 tail of hbar^{-1}[mu, i b]_# (the j = 1 part cancels {mu, b}).
    R = rdot + Q with Q = a # rdot + rdot # a* + a # rdot # a*: the stack
    q1 = a # rdot gains one order per step, formed before rdot_k (which it
    does not read, as a_0 = 0), and Q_k = (q1 + (rdot + q1) # a*)_k takes
    two kernel products.
    The order-k flags of the result mark a dropped coefficient in a kernel
    product of orders <= k, or a truncated input.  Raises NoConvergence,
    naming the first such hbar-order, when a(1) or r(1) is not finite.
    """
    if degree is None:
        degree = max(mu.degree, g.degree)
    mu = mu.resized(order, degree)
    g = g.resized(order, degree)
    mu0_profile = np.diagonal(mu.c[0])
    if abs(mu0_profile[0]) > 1e-13 or abs(mu0_profile[1] - 1.0) > 1e-13:
        raise ValueError("mu_0 must be s + O(s^2)")
    if np.abs(mu.c - _radial_part(mu.c)).max() > 1e-13:
        raise ValueError("mu must be radial at every hbar-order")
    n = degree + 1
    # mu' as radial tables by hbar-order, and 1 / mu_0' as a radial table
    mu_prime = np.zeros_like(mu.c)
    diag = np.arange(degree)
    mu_prime[:, diag, diag] = np.diagonal(mu.c, axis1=1, axis2=2)[:, 1:] * np.arange(1, n)
    mu_prime = _radial_part(mu_prime)
    inv_mu0_prime = radial_table(reciprocal_profile(np.diagonal(mu_prime[0]), degree // 2 + 1), degree).t

    shape = (order + 1, order + 2, n, n)
    a, astar, b, rdot, q1, g_t, mu_t = (np.zeros(shape, dtype=complex) for _ in range(7))
    g_t[:, 0], mu_t[:, 0] = g.c, mu.c
    theta = _theta_weights(n)
    flags = mu.flags | g.flags

    for k in range(order + 1):
        drops: list[bool] = []
        # a_k(t) = i int_0^t (b # (1+a))_{k-1}: needs b, a at orders <= k-1
        if k >= 1:
            one_plus_a = a[:k].copy()
            one_plus_a[0, 0, 0, 0] += 1.0
            a[k] = 1j * _t_int(_at(_sharp(b[:k], one_plus_a, k - 1, degree, top_only=True), k - 1, drops))
            # a*_k = -a_k - (a # a*)_k
            astar[k] = -a[k] - _at(_sharp(a[: k + 1], astar[: k + 1], k, degree, top_only=True), k, drops)

        # known part of the order-k equation
        rhs = -g_t[k]
        if k >= 1:
            bracket = _sharp(g_t[:k], b[:k], k - 1, degree, bracket=True, top_only=True)
            rhs += -1j * _t_shift(_at(bracket, k - 1, drops))
            # corr_k: j >= 2 tail of hbar^{-1} [mu, i b]_# at order k (uses b_j, j <= k-1)
            rhs += -1j * _at(_sharp(mu_t, b[:k], k + 1, degree, 2, bracket=True, top_only=True), k + 1, drops)
            # Q_k: q1 = a # rdot gains its order k, then (rdot + q1) # a*, which
            # reads q1 below order k only, as a*_0 = 0
            q1[k] = _at(_sharp(a[: k + 1], rdot[: k + 1], k, degree, top_only=True), k, drops)
            rhs += q1[k] + _at(_sharp(rdot[: k + 1] + q1[: k + 1], astar[: k + 1], k, degree, top_only=True), k, drops)
            # lower-mu transport terms: - sum_{j>=1} mu_j' d_theta b_{k-j}
            for j in range(1, k + 1):
                rhs -= _at(_sharp(mu_prime[j][None, None], (b[k - j] * theta)[None], 0, degree), 0, drops)

        # the accumulated rhs omits the +rdot_k part of R; the radial average
        # of mu' d_theta b vanishes, so rdot_k = -radavg(rhs) and the residue,
        # divided by mu_0', feeds the cohomology solve
        radial = _radial_part(rhs)
        rdot[k] = -radial
        resid = (rhs - radial)[None]
        b[k] = _theta_inverse(_at(_sharp(resid, inv_mu0_prime[None, None], 0, degree), 0, drops))
        flags[k] |= any(drops) or (k > 0 and flags[k - 1])

    result = MoserResult(a, rdot, flags, order, degree)
    for k in range(order + 1):
        if not (np.isfinite(result.a_final.c[k]).all() and np.isfinite(result.r_final[k]).all()):
            raise NoConvergence(f"Moser iteration: a(1) or r(1) is not finite at hbar-order {k}")
    return result


# ---------------------------------------------------------------------------
# normal forms: one hbar-graded routine; the classical form is its hbar^0 slice


def _lie_series(f: FormalSymbol, ad, cap: int) -> tuple[FormalSymbol, float]:
    """exp(ad) f = f + ad f + ad^2 f / 2! + ... for formal symbols, and the
    largest norm_inf of a term (f included).  `ad` must return a symbol with
    a stack of its own (never its argument's), which the series scales in
    place.

    Stops at an exactly vanishing term.  At term `cap` it stops if that term
    is below 1e-15 relative to the sum, and raises NoConvergence if not, or
    at once on a term that is not finite.
    """
    # every term has the caps of f, so the sum accumulates in place; ad
    # returns a fresh stack, so each term is scaled in place too
    out = FormalSymbol._wrap(f.c.copy(), f.flags.copy())
    term = f
    largest = f.norm_inf()
    n = 1
    while True:
        term = ad(term)
        term.c *= 1.0 / n
        size = term.norm_inf()
        if not isfinite(size):
            raise NoConvergence(f"Lie series: term {n} is not finite (the sum had size {out.norm_inf():.3e})")
        if size < 1e-300:
            return out, largest
        if n > cap:
            total = out.norm_inf()
            if not (np.isfinite(total) and size <= 1e-15 * total):
                raise NoConvergence(f"Lie series: term {n} of size {size:.3e} against a sum of size {total:.3e}")
            return out, largest
        largest = max(largest, size)
        out.c += term.c
        out.flags |= term.flags
        n += 1


@lru_cache(maxsize=256)
def _ad_shell(order: int, n: int, k: int, m: int) -> tuple[np.ndarray, ...]:
    """The index tables of `_ad_operator` for the degree-m shell of G_k on
    stacks (order + 1, n, n), nothing past total degree n - 1 (read-only):
    per term, the output slot (real part; the imaginary part is the next
    slot), the flat input position in X, the flat source position of its G
    entry in the stack and the weight.

    The j-th term of the shell sends X_l to hbar-order l + k + j - 1 by the
    pairs of the kernel's bracket table `_sharp_pairs(n, n, j, n - 1, True)`
    whose G entries have degree m, for 1 <= j <= m and every input order l
    that lands within the cap; the terms run by j, then l, then pair.
    """
    steps = np.arange(order + 1)[:, None] * n * n
    slots, cols, src, weights = [], [], [], []
    for j in range(1, min(m, order + 1 - k) + 1):
        pos, inp, out, weight = _sharp_pairs(n, n, j, n - 1, True)[-1][m]
        l = steps[: order + 2 - k - j]  # input orders l, output orders l + k + j - 1
        slots.append((out + 2 * (steps[k + j - 1] + l)).ravel())
        cols.append((inp + l).ravel())
        src.append(np.tile(pos + k * n * n, len(l)))
        weights.append(np.tile(weight, len(l)))
    tables = tuple(np.concatenate(x) for x in (slots, cols, src, weights))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _ad_operator(gen: np.ndarray):
    """X -> i hbar^{-1} [G, X]_# (the j >= 1 tail of the bracket, shifted down
    one hbar-order) for the generator stack gen (K+1, D+1, D+1), with nothing
    past total degree D, as a function on stacks of the same shape that
    returns a fresh stack.

    The map is a sum over the nonzero homogeneous shells (k, m) of G, and
    the index tables of each shell, which depend on the caps and the shell
    alone, are cached (`_ad_shell`).  Per generator only the values
    weight * i G are gathered, over the shells in order, and each
    application is one gather, one complex multiply and one `np.bincount`.
    """
    order, n = gen.shape[0] - 1, gen.shape[1]
    ks, a, b = np.nonzero(gen)
    # a constant (m = 0) commutes with every X
    shells = [_ad_shell(order, n, k, m) for k, m in sorted(set(zip(ks.tolist(), (a + b).tolist()))) if m]
    if not shells:
        return np.zeros_like
    slots, cols, src, weight = shells[0] if len(shells) == 1 else (np.concatenate(x) for x in zip(*shells))
    vals = weight * (1j * gen.take(src))

    def apply(x: np.ndarray) -> np.ndarray:
        terms = vals * x.take(cols)
        return np.bincount(slots, terms.view(float), 2 * gen.size).view(complex).reshape(gen.shape)

    return apply


def lie_transport(f: TaylorTable2D, gen: TaylorTable2D, degree: int | None = None) -> TaylorTable2D:
    """exp(ad_G) f = f + {G, f} + {G, {G, f}}/2! + ... (classical flow at time 1).

    The hbar^0 slice of `quantum_lie_transport`: at hbar-order 0 the bracket
    i hbar^{-1} [G, X]_# is the Poisson bracket {G, X}.  Terminates under the
    degree cap when deg(G) >= 3, since ad_G raises degree by deg(G) - 2;
    otherwise the term cap is 8 (degree + 1).
    """
    if degree is None:
        degree = f.degree
    return quantum_lie_transport(FormalSymbol([f]), FormalSymbol([gen]), 0, degree).term(0)


@np.errstate(over="ignore", invalid="ignore")  # the Lie series raises at a non-finite term
def quantum_lie_transport(
    f: FormalSymbol, gen: FormalSymbol, order: int, degree: int
) -> FormalSymbol:
    """exp(ad) f with ad X = i hbar^{-1} [G, X]_#: the conjugation symbol of
    e^{i T(G)/hbar} T(f) e^{-i T(G)/hbar}, exact to the truncation caps.  The
    term cap is 8 (degree + order + 1).

    The j = 0 part of [G, X]_#, G_k X_l - X_l G_k, vanishes, so the bracket
    series starts at j = 1.  ad is built once per generator from the index
    tables of its shells, cached per shell beside the kernel's bracket
    tables (`_ad_operator`), and every Lie term is one gather.  A term's
    flags are the kernel's: every order once G or X is flagged, else the
    kernel's flag rule `_cut_orders` for the bracket."""
    return _transport(f.resized(order, degree), gen.resized(order, degree))[0]


def _transport(f: FormalSymbol, gen: FormalSymbol) -> tuple[FormalSymbol, float]:
    """`quantum_lie_transport` of f and gen at the same caps, with nothing
    past their degree, and the largest norm_inf of its Lie terms."""
    order, degree = f.order, f.degree
    apply = _ad_operator(gen.c)
    every = np.ones(order + 1, dtype=bool)
    gen_flagged = gen.truncated

    def ad(x: FormalSymbol) -> FormalSymbol:
        # a term made with the flags `every` is flagged without a look at them
        if gen_flagged or x.flags is every or x.truncated:
            return FormalSymbol._wrap(apply(x.c), every)
        return FormalSymbol._wrap(apply(x.c), _cut_orders(gen.c, x.c, order + 1, degree, 1, True)[1:])

    return _lie_series(f, ad, 8 * (degree + order + 1))


@dataclass
class BirkhoffResult:
    mu0: np.ndarray  # radial profile: transported symbol = mu0(d0 z zbar)
    generators: list[TaylorTable2D]  # the nonzero generators, in the order applied
    d0: complex
    linear_map: np.ndarray  # composed (z, vbar) map of the quadratic reduction
    normal_form: object  # NormalFormData of the quadratic part


class NonEllipticHessian(NoDeltaFound):
    pass


@lru_cache(maxsize=64)
def _nonradial_shell(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat positions of the entries a + b = m, a != b, of an n x n
    table, and 1 / (i (a - b)) there (read-only)."""
    a, b = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) == m)
    pos = (a * n + b)[a != b]
    out = (pos, _theta_reciprocal(n).take(pos))
    for arr in out:
        arr.flags.writeable = False
    return out


def birkhoff_normal_form(f: TaylorTable2D, degree: int | None = None) -> BirkhoffResult:
    """Classical degree-by-degree normal form of f with f(0) = 0, df(0) = 0 and
    elliptic Hessian: the hbar^0 slice of `quantum_normal_form`.

    The linear symplectic reduction of the quadratic part takes it to
    d0 z vbar; `quantum_normal_form` at hbar-order 0 then removes all
    non-radial terms with homogeneous generators of degree 3..D.  Returns mu0
    with mu0(s) = s + O(s^2) such that the transported symbol equals
    mu0(d0 z zbar) up to degree D.  f(0) and df(0) count as zero within
    1e-12 of the largest coefficient, so f and s f, s a power of 2, give
    mu0_s[a] = s^(1 - a) mu0[a] to the bit.  Raises NonEllipticHessian, a
    NoDeltaFound, when the quadratic part has no normal form, and
    NoConvergence when a coefficient of mu0 leaves the double range."""
    if degree is None:
        degree = f.degree
    f = f.resized(degree)
    if max(abs(f.t[0, 0]), abs(f.t[1, 0]), abs(f.t[0, 1])) > 1e-12 * f.norm_inf():
        raise ValueError("expected f(0) = 0 and df(0) = 0")
    form = ComplexQuadraticForm.from_zv_coefficients(f.t[2, 0], f.t[1, 1], f.t[0, 2])
    try:
        nf = reduce_quadratic(form)
    except NoDeltaFound as exc:
        raise NonEllipticHessian(str(exc)) from exc
    pulled = pullback_linear(f, np.linalg.inv(nf.composed), degree)
    profiles, gens = quantum_normal_form(FormalSymbol._wrap(pulled.t[None], [pulled.truncated]), 0, degree)
    # the profile is a series in s' = z zbar (reduced frame); as mu0(d0 s'):
    # mu0(x) = sum_a profile[a] (x/d0)^a, where a zero profile[a] gives 0
    # even when d0^a leaves the double range
    with np.errstate(all="ignore"):
        mu0 = np.where(profiles[0] == 0, 0.0, profiles[0] / nf.d0 ** np.arange(degree + 1))
    if not np.isfinite(mu0).all():
        a = int(np.flatnonzero(~np.isfinite(mu0))[0])
        raise NoConvergence(f"Birkhoff normal form: mu0 at degree {a} leaves the double range (d0 = {nf.d0:.3e})")
    return BirkhoffResult(
        mu0=mu0,
        generators=[g.term(0) for g in gens],
        d0=nf.d0,
        linear_map=nf.composed,
        normal_form=nf,
    )


@np.errstate(over="ignore", invalid="ignore")  # the Lie series raises at a non-finite term
def quantum_normal_form(
    f: FormalSymbol, order: int, degree: int
) -> tuple[list[np.ndarray], list[FormalSymbol]]:
    """hbar-graded normal form by conjugation only (no change of frame):

    repeatedly conjugates T(f) with e^{i T(G)/hbar} (via quantum_lie_transport),
    G taken at increasing (hbar-order, degree), until the symbol is radial at
    every hbar-order up to the caps.  Requires the quadratic part to be
    c * z zbar already (diagonal Hessian, up to 1e-12 |c|): the
    theta-cohomology is then solvable for every non-radial term.  Each
    generator is one homogeneous shell, and the symbol stays at the caps,
    so every transport runs on the stacks as they are.

    Returns (radial profiles R_k by hbar-order, list of generators).  The
    eigenvalues of T(f) near the bottom well are the exact diagonal values of
    T(R) up to the truncation error of the caps.  Every threshold is relative:
    f(0) and df(0) count as zero within 1e-12 S, S the largest coefficient of
    the hbar^0 table of f, a shell whose non-radial part is below 1e-13 S
    needs no generator, and the result is radial when its non-radial residual
    is below 1e-9 of the result's largest coefficient.  So f and s f, s a
    power of 2, give profiles s R_k with the same generators, to the bit.
    Raises NoConvergence when an hbar-order keeps a larger residual after its
    generators, which happens when the Lie terms grow so far past the result
    that their cancellation leaves no digit of it; the message names the
    order, the degree and log10 of the largest Lie term over the result.
    """
    f = f.resized(order, degree)
    t0 = f.c[0]
    size = float(np.abs(t0).max())
    if max(abs(t0[0, 0]), abs(t0[1, 0]), abs(t0[0, 1])) > 1e-12 * size:
        raise ValueError("expected f(0) = 0 and df(0) = 0 at hbar-order 0")
    d0 = complex(t0[1, 1])
    if max(abs(t0[2, 0]), abs(t0[0, 2])) > 1e-12 * abs(d0):
        raise ValueError("quadratic part must be proportional to z zbar")
    if d0 == 0:
        raise NonEllipticHessian("vanishing z zbar coefficient")
    current, largest, inv_d0 = f, 0.0, 1.0 / d0
    gens: list[FormalSymbol] = []
    offdiag = ~np.eye(degree + 1, dtype=bool)
    for k in range(order + 1):
        for m in range(3 if k == 0 else 1, degree + 1):
            pos, reciprocal = _nonradial_shell(degree + 1, m)
            nonrad = current.c[k].take(pos)
            if np.abs(nonrad).max() < 1e-13 * size:
                continue
            # the theta-antiderivative of the shell over d0
            gen = FormalSymbol._wrap(np.zeros_like(current.c), np.zeros(order + 1, dtype=bool))
            gen.c[k].flat[pos] = nonrad * reciprocal * inv_d0
            gens.append(gen)
            current, lie = _transport(current, gen)
            largest = max(largest, lie)
        # the order-k part is now radial through all degrees, unless the
        # cancellations of the transport ate the digits that would show it
        resid = float(np.abs(np.where(offdiag, current.c[k], 0.0)).max())
        scale = current.norm_inf()
        if not resid < 1e-9 * scale:
            lost = log10(max(largest / scale, 1.0))
            raise NoConvergence(
                f"normal form: hbar-order {k} keeps a non-radial residual {resid:.3e} at degree {degree}, "
                f"against a result of size {scale:.3e}; the Lie terms reached {largest:.3e}, "
                f"so {lost:.1f} digits are lost"
            )
    return list(np.diagonal(current.c, axis1=1, axis2=2).copy()), gens


def radial_toeplitz_eigenvalues(
    profiles: list[np.ndarray], hbar: float, count: int
) -> np.ndarray:
    """Exact diagonal of T(sum_k hbar^k R_k(|z|^2)): entry l equals
    sum_k hbar^k sum_j (R_k)_j hbar^j (l+j)!/l!, one `radial_diagonal` per
    profile."""
    terms = (hbar**k * radial_diagonal(prof, hbar, count) for k, prof in enumerate(profiles))
    return sum(terms, np.zeros(count, dtype=complex))
