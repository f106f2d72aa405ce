"""Truncated analytic-symbol arithmetic: sharp products, formal norms,
theta calculus, cohomology, inverses, Moser, the spectra of functions of the
harmonic oscillator, and the degree-by-degree normal forms."""

import math
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bargspec.bargmann import MonomialSymbol, assemble_toeplitz
from bargspec.quadratic import ComplexQuadraticForm, reduce_quadratic
from bargspec.spectral import NoConvergence
from bargspec.symbols import (
    DegreeOverflow,
    FormalSymbol,
    NonzeroAverage,
    TaylorTable2D,
    _ad_operator,
    _ad_shell,
    _beyond_degree,
    _cut_orders,
    _dz,
    _dzbar,
    _lie_series,
    _sharp,
    _t_int,
    _theta_inverse,
    _t_shift,
    birkhoff_normal_form,
    cohomology_solve,
    divide_by_radial,
    formal_norm,
    lie_transport,
    moser_normal_form,
    poisson_bracket,
    pullback_linear,
    quantum_lie_transport,
    quantum_normal_form,
    radial_average,
    radial_table,
    radial_toeplitz_eigenvalues,
    reciprocal_profile,
    sharp_bracket_tail,
    sharp_inverse,
    sharp_product,
    table_from_dict,
    table_product,
    theta_antiderivative,
    theta_derivative,
)


def rand_table(rng, degree, pad=None):
    pad = degree if pad is None else pad
    t = np.zeros((pad + 1, pad + 1), dtype=complex)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            t[a, b] = rng.normal() + 1j * rng.normal()
    return TaylorTable2D(t)


def rand_symbol(rng, order, degree, pad=None):
    return FormalSymbol([rand_table(rng, degree, pad) for _ in range(order + 1)])


ZZ = FormalSymbol([radial_table(np.array([0.0, 1.0]), 8)])


def sharp_bracket(f, g, order=None, degree=None):
    """[f, g]_# = f # g - g # f."""
    return sharp_bracket_tail(f, g, 0, order, degree)


# The convolution route that the pair-table kernel replaced, kept as its
# arbiter: a table product is one 1-D convolution, and the sharp series loops
# over j, hbar-orders and t-layers with one product per pair of tables.


def convolution_product(x, y, degree):
    """Product of two raw tables truncated at total degree `degree`, and
    whether the truncation dropped a nonzero coefficient, however small: a
    product is flagged exactly when the top degrees of its factors add up
    past `degree`, at every scale.

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
    return out, bool(full[_beyond_degree(w, degree)].any())


def _layers(x):
    """For each hbar-order of x (K+1, T+1, n, n), the t-powers of its nonzero tables."""
    return [[s for s, nonzero in enumerate(row) if nonzero] for row in x.any(axis=(2, 3)).tolist()]


def sharp_loop(f, g, order, degree, j_min=0):
    """sum_{j >= j_min} ((-1)^j / j!) d^j f_k dbar^j g_l into hbar-order j+k+l,
    one `convolution_product` per pair of nonzero tables, and per hbar-order
    whether one of them dropped a nonzero coefficient."""
    timed = f.ndim == 4
    if not timed:
        f, g = f[:, None], g[:, None]
    t_len = max(f.shape[1], g.shape[1])
    out = np.zeros((order + 1, t_len, degree + 1, degree + 1), dtype=complex)
    dropped = np.zeros(order + 1, dtype=bool)
    f, g = f[: order + 1], g[: order + 1]
    for j in range(order + 1):
        if j >= j_min:
            c = (-1.0) ** j / math.factorial(j)
            f_layers, g_layers = _layers(f), _layers(g)
            for k in range(min(len(f), order + 1 - j)):
                for l in range(min(len(g), order + 1 - j - k)):
                    for s, u in product(f_layers[k], g_layers[l]):
                        prod, drop = convolution_product(f[k, s], g[l, u], degree)
                        dropped[j + k + l] |= drop
                        if s + u < t_len:
                            out[j + k + l, s + u] += c * prod
                        elif prod.any():
                            raise DegreeOverflow(f"t-degree {s + u} product past the t cap {t_len - 1}")
        if j < order:
            f, g = _dz(f), _dzbar(g)
    return (out if timed else out[:, 0]), dropped


def bracket_loop(f, g, order, degree, j_min=0):
    """The bracket series of `sharp_loop`: sharp_loop(f, g) - sharp_loop(g, f)."""
    fg, fg_dropped = sharp_loop(f, g, order, degree, j_min)
    gf, gf_dropped = sharp_loop(g, f, order, degree, j_min)
    return fg - gf, fg_dropped | gf_dropped


def loop_ad(gen, x, order, degree):
    """i hbar^{-1} [G, X]_# by `bracket_loop`, with the kernel's flags."""
    out, dropped = bracket_loop(gen.c, x.c, order + 1, degree, 1)
    return FormalSymbol._wrap(1j * out[1:], dropped[1:] | gen.truncated | x.truncated)


def assert_matches(got, got_flags, ref, ref_flags):
    """Values to 1e-13 relative, identical flags."""
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(got_flags, ref_flags)


class TestFormalSymbolStack:
    def test_term_is_a_view_of_the_stack(self):
        f = rand_symbol(np.random.default_rng(17), 2, 3)
        assert f.c.shape == (3, 4, 4) and f.flags.shape == (3,)
        assert np.shares_memory(f.term(1).t, f.c)
        assert f.term(5).norm_inf() == 0.0

    def test_list_constructor_pads_to_common_degree(self):
        f = FormalSymbol([table_from_dict({(1, 0): 1}, 2), TaylorTable2D(np.ones((5, 5)), True)])
        assert f.degree == 4 and list(f.flags) == [False, True]
        assert f.term(0).t[1, 0] == 1 and not f.term(0).t[3:].any()

    def test_resized_flag_rules(self):
        f = FormalSymbol([table_from_dict({(3, 0): 1}, 3), table_from_dict({(1, 0): 1}, 3),
                          table_from_dict({(0, 1): 1}, 3)])
        assert list(f.resized(2, 2).flags) == [True, False, False]  # a term loses degree
        assert list(f.resized(1, 3).flags) == [False, True]  # a dropped order flags the last
        assert list(f.resized(4, 5).flags) == [False] * 5
        assert f.resized(4, 5).term(0).t[3, 0] == 1

    def test_resized_cuts_total_degree(self):
        # z^2 zbar^2 fits the 4 x 4 square of a degree-3 table but has degree 4
        tab = table_from_dict({(2, 2): 1.0, (2, 1): 0.5}, 4)
        cut = tab.resized(3)
        assert cut.truncated and cut.t[2, 2] == 0 and cut(1.0) == 0.5
        assert not tab.resized(4).truncated and not tab.resized(6).truncated
        assert not table_from_dict({(2, 1): 1.0}, 4).resized(3).truncated
        f = FormalSymbol([table_from_dict({(2, 1): 1.0}, 4), tab])
        cut = f.resized(1, 3)
        assert list(cut.flags) == [False, True] and cut.term(1).t[2, 2] == 0
        assert list(f.resized(1, 6).flags) == [False, False]
        # at its own caps a symbol comes back as it is, unless it holds a
        # coefficient past its degree
        assert f.resized(1, 4) is f and f.resized() is f
        past = FormalSymbol._wrap(np.stack([tab.t, tab.t]), [False, False])
        past.c[1, 3, 3] = 1.0
        cut = past.resized()
        assert list(cut.flags) == [False, True] and cut.c[1, 3, 3] == 0 and past.c[1, 3, 3] == 1.0

    def test_shifts(self):
        f = rand_symbol(np.random.default_rng(18), 1, 3)
        up = f.shift_up(2)
        assert up.order == 3 and not up.c[:2].any()
        assert np.array_equal(up.shift_down(2).c, f.c)
        with pytest.raises(ValueError, match="shift_down"):
            f.shift_down(1)


class TestSharpProduct:
    def test_oscillator_square(self):
        p = sharp_product(ZZ, ZZ, 2, 8)
        assert p.term(0).t[2, 2] == pytest.approx(1.0)
        assert p.term(1).t[1, 1] == pytest.approx(-1.0)
        assert p.term(1).norm_inf() == pytest.approx(1.0)
        assert p.term(2).norm_inf() == 0.0

    def test_right_identity(self):
        rng = np.random.default_rng(0)
        f = rand_symbol(rng, 2, 5)
        one = FormalSymbol.constant(1.0, 2, 5)
        assert (sharp_product(f, one) - f).norm_inf() < 1e-15

    def test_ordering_sensitivity(self):
        z = FormalSymbol([table_from_dict({(1, 0): 1}, 2)])
        zb = FormalSymbol([table_from_dict({(0, 1): 1}, 2)])
        assert sharp_product(z, zb, 1).term(1).t[0, 0] == pytest.approx(-1.0)
        assert sharp_product(zb, z, 1).term(1).norm_inf() == 0.0

    def test_associativity_within_budget(self):
        rng = np.random.default_rng(1)
        order, deg, pad = 3, 3, 12
        f, g, h = (rand_symbol(rng, 1, deg, pad) for _ in range(3))
        lhs = sharp_product(sharp_product(f, g, order, pad), h, order, pad)
        rhs = sharp_product(f, sharp_product(g, h, order, pad), order, pad)
        assert (lhs - rhs).norm_inf() < 1e-12

    def test_truncation_flag(self):
        f = FormalSymbol([table_from_dict({(2, 0): 1.0}, 2)])
        g = FormalSymbol([table_from_dict({(0, 2): 1.0}, 2)])
        p = sharp_product(f, g, 1, 2)  # true product has degree 4
        assert p.truncated


class TestSharpKernel:
    """The one sharp-series kernel, on its t-polynomial route and its imports."""

    @staticmethod
    def rand_t_symbol(rng, order, degree, t_degree, t_len):
        """Stacked (order+1, t_len, D+1, D+1) symbol polynomial in t of t-degree t_degree."""
        x = np.zeros((order + 1, t_len, degree + 1, degree + 1), dtype=complex)
        for k in range(order + 1):
            for s in range(t_degree + 1):
                x[k, s] = rand_table(rng, degree).t
        return x

    @staticmethod
    def at_time(x, tau):
        return FormalSymbol([TaylorTable2D(t) for t in np.tensordot(tau ** np.arange(x.shape[1]), x, (0, 1))])

    @pytest.mark.parametrize("j_min", [0, 2])
    def test_t_route_matches_plain_route(self, j_min):
        # t-degree 2 on a 5-layer t-axis: every product, up to t^4, fits
        rng = np.random.default_rng(7)
        order, deg = 3, 6
        ft, gt = (self.rand_t_symbol(rng, 1, deg, 2, 5) for _ in range(2))
        if j_min == 0:
            timed, flags = _sharp(ft, gt, order, deg)
            assert_matches(timed, flags, *sharp_loop(ft, gt, order, deg))
            plain = lambda f, g: sharp_product(f, g, order, deg)
        else:
            timed, flags = _sharp(ft, gt, order, deg, j_min, bracket=True)
            assert_matches(timed, flags, *bracket_loop(ft, gt, order, deg, j_min))
            plain = lambda f, g: sharp_bracket_tail(f, g, j_min, order, deg)
        for tau in (0.0, 0.4, 1.0):
            ref = plain(self.at_time(ft, tau), self.at_time(gt, tau))
            assert (self.at_time(timed, tau) - ref).norm_inf() <= 1e-12 * ref.norm_inf()

    def test_t_product_past_the_cap_raises(self):
        # t^2 # t^2 = t^4 does not fit a 3-layer t-axis (t-degree at most 2)
        x = np.zeros((1, 3, 3, 3), dtype=complex)
        x[0, 2, 0, 0] = 1.0
        with pytest.raises(DegreeOverflow):
            _sharp(x, x, 0, 2)
        with pytest.raises(DegreeOverflow):
            _sharp(x, x, 0, 2, top_only=True)
        # the bracket is one pass: its two products cancel exactly, so nothing
        # lands past the cap
        out, flags = _sharp(x, x, 0, 2, bracket=True)
        assert not out.any() and not flags.any()

    def test_table_product_matches_definition(self):
        # out[a, b] = sum x[i, j] y[a-i, b-j] over a + b <= degree, for unequal
        # sizes; a dropped coefficient flags the product at any scale
        rng = np.random.default_rng(8)
        cases = ((3, 5, 2), (4, 4, 3), (5, 3, 6), (2, 6, 9), (3, 3, 8))
        for (na, nb, degree), scale in product(cases, (1.0, 1e-8, 1e-150)):
            x = scale * (rng.normal(size=(na, na)) + 1j * rng.normal(size=(na, na)))
            y = scale * (rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb)))
            ref = np.zeros((degree + 1, degree + 1), dtype=complex)
            for i, j, k, l in np.ndindex(na, na, nb, nb):
                if i + j + k + l <= degree:
                    ref[i + k, j + l] += x[i, j] * y[k, l]
            got = table_product(TaylorTable2D(x), TaylorTable2D(y), degree)
            assert np.abs(got.t - ref).max() <= 1e-14 * np.abs(ref).max()
            assert got.truncated == (degree < 2 * (na - 1) + 2 * (nb - 1))

    def test_normal_forms_do_not_import_scipy_signal(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from bargspec import symbols\n"
            "tab = symbols.table_from_dict({(1, 1): 1.0, (2, 0): 0.2, (3, 0): 0.3, (2, 1): 0.1j}, 6)\n"
            "symbols.birkhoff_normal_form(tab, 6)\n"
            "mu = symbols.FormalSymbol([symbols.radial_table(np.array([0, 1.0]), 6)])\n"
            "g = symbols.FormalSymbol([symbols.table_from_dict({(2, 1): 0.3, (1, 0): 1.0}, 6)])\n"
            "symbols.moser_normal_form(mu, g, 2, 6)\n"
            "assert 'scipy.signal' not in sys.modules, 'scipy.signal was imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestFormalNorm:
    def test_constant(self):
        assert formal_norm(FormalSymbol.constant(1.0, 0, 2), 0.5).per_order[0] == 2.0

    def test_z(self):
        z = FormalSymbol([table_from_dict({(1, 0): 1}, 2)])
        rep = formal_norm(z, 0.3)
        assert rep.per_order[1] == pytest.approx(2 * 0.3)

    def test_zero(self):
        zero = FormalSymbol.constant(0.0, 1, 3)
        assert formal_norm(zero, 0.2).total() == 0.0

    def test_matches_defining_sum(self):
        from math import factorial

        f = rand_symbol(np.random.default_rng(19), 2, 5, 7)
        rho, s_max = 0.3, 12
        ref = np.zeros(s_max + 1)
        for k in range(3):
            for al in range(8):
                for be in range(8 - al):
                    s = 2 * k + al + be
                    if s <= s_max:
                        raw = factorial(al) * factorial(be) * abs(f.term(k).t[al, be])
                        coeff = 2.0 * 2.0**-k * factorial(k) / (factorial(k + al) * factorial(k + be))
                        ref[s] += coeff * raw * rho**s
        assert np.allclose(formal_norm(f, rho, s_max).per_order, ref, rtol=1e-14, atol=0.0)

    def test_cumulative_monotone(self):
        rng = np.random.default_rng(2)
        rep = formal_norm(rand_symbol(rng, 2, 4), 0.3)
        assert np.all(np.diff(rep.cumulative) >= 0)

    def test_submultiplicative_and_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            deg = int(rng.integers(1, 5))
            f0, g0 = rand_table(rng, deg, 2 * deg), rand_table(rng, deg, 2 * deg)
            f = FormalSymbol([f0])
            g = FormalSymbol([g0])
            rho = float(rng.choice([0.1, 0.3]))
            smax = 4 * deg + 4
            fg = sharp_product(f, g, 2, 2 * deg)
            nf = formal_norm(f, rho, smax).cumulative
            ng = formal_norm(g, rho, smax).cumulative
            nfg = formal_norm(fg, rho, smax).cumulative
            assert np.all(nfg <= nf * ng * (1 + 1e-12) + 1e-12)
            # pointwise product of hbar-independent symbols is dominated by #
            pw = FormalSymbol([_product(f0, g0)])
            npw = formal_norm(pw, rho, smax).cumulative
            assert np.all(npw <= nfg * (1 + 1e-12) + 1e-12)

    def test_bracket_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            deg = int(rng.integers(1, 5))
            f = rand_symbol(rng, int(rng.integers(0, 3)), deg, 2 * deg)
            g = rand_symbol(rng, int(rng.integers(0, 3)), deg, 2 * deg)
            rho = 0.2
            smax = 2 * (f.order + g.order) + 4 * deg
            tail = sharp_bracket_tail(f, g, 2, f.order + g.order + 2, 2 * deg)
            nt = formal_norm(tail, rho, smax).cumulative
            nf = formal_norm(f, rho, smax).cumulative
            ng = formal_norm(g, rho, smax).cumulative
            sf = np.concatenate([[0.0, 0.0], nf[:-2]])
            sg = np.concatenate([[0.0, 0.0], ng[:-2]])
            assert np.all(nt <= 2 * sf * sg * (1 + 1e-12) + 1e-12)

    def test_bracket_tail_is_bracket_minus_poisson(self):
        rng = np.random.default_rng(5)
        f = rand_symbol(rng, 1, 3, 8)
        g = rand_symbol(rng, 1, 3, 8)
        order = 4
        tail = sharp_bracket_tail(f, g, 2, order, 8)
        br = sharp_bracket(f, g, order, 8)
        pois = FormalSymbol.constant(0.0, order, 8)
        for k in range(f.order + 1):
            for l in range(g.order + 1):
                if k + l + 1 > order:
                    continue
                term = 1j * poisson_bracket(f.term(k), g.term(l)).resized(8)
                pois = pois - FormalSymbol([term]).shift_up(k + l + 1).resized(order, 8)
        # [f,g]_# + i hbar {f,g} = j>=2 tail   (with the eq_Poisson sign)
        assert (br - pois - tail).norm_inf() < 1e-12

    def test_bracket_tail_from_one_is_the_bracket(self):
        # the j = 0 part f_k g_l - g_l f_k of [f, g]_# vanishes at every hbar-order
        rng = np.random.default_rng(18)
        for _ in range(10):
            deg = int(rng.integers(1, 5))
            f = rand_symbol(rng, int(rng.integers(0, 3)), deg, 2 * deg)
            g = rand_symbol(rng, int(rng.integers(0, 3)), deg, 2 * deg)
            order = f.order + g.order + 1
            full = sharp_bracket(f, g, order, 2 * deg)
            tail = sharp_bracket_tail(f, g, 1, order, 2 * deg)
            assert (tail - full).norm_inf() <= 1e-14 * full.norm_inf()
            assert not tail.c[0].any()


def _product(a, b):
    from bargspec.symbols import table_product

    return table_product(a, b, a.degree)


class TestThetaCalculus:
    def test_poisson_examples(self):
        zz = table_from_dict({(1, 1): 1}, 4)
        z = table_from_dict({(1, 0): 1}, 4)
        zb = table_from_dict({(0, 1): 1}, 4)
        assert poisson_bracket(zz, z).t[1, 0] == pytest.approx(1j)
        assert poisson_bracket(z, z).norm_inf() == 0.0
        assert poisson_bracket(z, zb).t[0, 0] == pytest.approx(-1j)

    def test_poisson_antisymmetric_bilinear(self):
        rng = np.random.default_rng(6)
        f, g = rand_table(rng, 4, 6), rand_table(rng, 4, 6)
        fg = poisson_bracket(f, g)
        # relative: outputs are of size ~45, where 1e-14 absolute is under 2 ulps
        assert (fg + poisson_bracket(g, f)).norm_inf() < 1e-15 * max(1.0, fg.norm_inf())

    def test_theta_antiderivative_examples(self):
        z = table_from_dict({(1, 0): 1}, 3)
        g = theta_antiderivative(z)
        assert g.t[1, 0] == pytest.approx(-1j)
        assert (theta_derivative(g) - z).norm_inf() == 0.0
        zzb = table_from_dict({(2, 1): 1}, 3)
        assert theta_antiderivative(zzb).t[2, 1] == pytest.approx(-1j)
        with pytest.raises(NonzeroAverage):
            theta_antiderivative(table_from_dict({(1, 1): 1}, 3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        t = rand_table(rng, 5).t
        np.fill_diagonal(t, 0.0)
        f = TaylorTable2D(t)
        g = theta_antiderivative(f)
        assert (theta_derivative(g) - f).norm_inf() < 1e-14
        # averaging contraction at every s
        for rho in (0.1, 0.3):
            nf = formal_norm(FormalSymbol([f]), rho).per_order
            ng = formal_norm(FormalSymbol([g]), rho).per_order
            assert np.all(ng <= nf * (1 + 1e-12) + 1e-15)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 15), count=st.integers(1, 3))
    def test_theta_inverse_matches_division(self, seed, n, count):
        # x times the cached 1/(i (a - b)) against x / (i (a - b)): one more
        # rounding, so within 1 ulp in each part, at magnitudes 1e-300..1e300
        rng = np.random.default_rng(seed)
        shape = (count, n, n)
        x = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-300, 300, shape)
        x[:, np.arange(n), np.arange(n)] = 0.0
        a = np.arange(n)
        denom = 1j * (a[:, None] - a[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.where(denom != 0, x / np.where(denom == 0, 1, denom), 0.0)
        got = _theta_inverse(x)
        for part in ("real", "imag"):
            err = np.abs(getattr(got, part) - getattr(ref, part))
            assert np.all(err <= np.spacing(np.abs(getattr(ref, part))))

    def test_theta_inverse_radial_tolerance(self):
        x = table_from_dict({(2, 0): 1.0, (2, 2): 5e-15}, 4).t
        assert _theta_inverse(x)[2, 2] == 0.0  # a diagonal entry below tol is dropped
        x[2, 2] = 2e-14
        with pytest.raises(NonzeroAverage, match="2.000e-14"):
            _theta_inverse(x)

    def test_radial_average(self):
        f = table_from_dict({(1, 1): 1.0, (1, 0): 1.0}, 4)
        prof = radial_average(f)
        assert prof[1] == 1.0 and prof[0] == 0.0
        assert np.all(radial_average(table_from_dict({(1, 3): 1.0}, 4)) == 0.0)
        assert radial_average(table_from_dict({(2, 2): 1.0}, 4))[2] == 1.0


class TestCohomology:
    def test_reciprocal_profile(self):
        # p * (1/p) = 1 as power series, through the requested length
        rng = np.random.default_rng(19)
        for n in range(1, 9):
            p = np.concatenate([[1.0 + 0.2j], 0.3 * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))])
            one = np.convolve(p, reciprocal_profile(p, n))[:n]
            assert np.abs(one - np.eye(1, n)[0]).max() <= 1e-14
        with pytest.raises(ZeroDivisionError):
            reciprocal_profile(np.array([0.0, 1.0]), 3)

    def test_simple(self):
        b, r = cohomology_solve(table_from_dict({(1, 2): 1}, 6))
        assert np.abs(r).max() == 0.0
        assert b.t[1, 2] == pytest.approx(1j)
        assert np.abs(np.diagonal(b.t)).max() == 0.0

    def test_radial_input(self):
        g = table_from_dict({(2, 2): 0.7}, 6)
        b, r = cohomology_solve(g)
        assert b.norm_inf() == 0.0
        assert r[2] == pytest.approx(0.7)

    def test_series_division(self):
        b, r = cohomology_solve(table_from_dict({(1, 0): 1}, 7), np.array([1.0, 1.0]))
        assert b.t[1, 0] == pytest.approx(-1j)
        assert b.t[2, 1] == pytest.approx(1j)
        assert b.t[3, 2] == pytest.approx(-1j)

    def test_defining_equation(self):
        rng = np.random.default_rng(7)
        g = rand_table(rng, 6, 10)
        mu_prime = np.array([1.0, 0.4 - 0.1j, 0.2])
        b, r = cohomology_solve(g, mu_prime)
        lhs = _product(radial_table(mu_prime, 10), theta_derivative(b))
        rhs = g.resized(10) - radial_table(r, 10)
        assert (lhs - rhs).norm_inf() < 1e-12


class TestSharpInverse:
    def test_zero(self):
        a = FormalSymbol.constant(0.0, 3, 4)
        assert sharp_inverse(a).norm_inf() == 0.0

    def test_scalar_geometric(self):
        c = 0.3 - 0.2j
        a = FormalSymbol.constant(c, 0, 2).shift_up(1).resized(4, 2)
        star = sharp_inverse(a)
        for k in range(1, 5):
            assert star.term(k).t[0, 0] == pytest.approx((-c) ** k)

    def test_defining_identity_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rand_symbol(rng, 2, 3, 9).shift_up(1).resized(3, 9)
            star = sharp_inverse(a)
            one = FormalSymbol.constant(1.0, 3, 9)
            res = sharp_product(one + a, one + star, 3, 9) - one
            assert res.norm_inf() < 1e-12

    def test_requires_order_one(self):
        with pytest.raises(ValueError):
            sharp_inverse(FormalSymbol.constant(1.0, 2, 2))


class TestMoser:
    MU = FormalSymbol([radial_table(np.array([0.0, 1.0]), 10)])

    def test_constant_commutes(self):
        g = FormalSymbol.constant(0.5 + 0.25j, 0, 10)
        res = moser_normal_form(self.MU, g, 3, 10)
        assert res.a_final.norm_inf() == 0.0
        assert res.r_final[0][0] == pytest.approx(0.5 + 0.25j)

    def test_radial_commutes(self):
        g = FormalSymbol([radial_table(np.array([0.0, 0.0, 1.0]), 10)])
        res = moser_normal_form(self.MU, g, 3, 10)
        assert res.a_final.norm_inf() == 0.0
        assert res.r_final[0][2] == pytest.approx(1.0)

    def test_non_finite_result_raises(self):
        g = FormalSymbol([table_from_dict({(1, 0): 1e200}, 10)])
        with pytest.raises(NoConvergence, match="not finite at hbar-order 2"):
            moser_normal_form(self.MU, g, 3, 10)

    def test_linear_g(self):
        g = FormalSymbol([table_from_dict({(1, 0): 1}, 10)])
        res = moser_normal_form(self.MU, g, 3, 10)
        assert max(np.abs(r).max() for r in res.r_final) < 1e-14
        assert res.a_final.term(1).t[1, 0] == pytest.approx(-1.0)

    def test_identity_random_with_nontrivial_mu(self):
        rng = np.random.default_rng(9)
        deg = 10
        mu = FormalSymbol([radial_table(np.array([0.0, 1.0, 0.15 - 0.05j]), deg)])
        one = FormalSymbol.constant(1.0, 3, deg)
        for _ in range(3):
            g = rand_symbol(rng, 0, 4, deg)
            res = moser_normal_form(mu, g, 3, deg)
            for tau in (0.4, 1.0):
                a_t = res.a_at(tau)
                lhs = sharp_product(
                    mu.resized(3, deg) + tau * g.shift_up(2).resized(3, deg), one + a_t, 3, deg
                )
                rhs = sharp_product(
                    one + a_t,
                    mu.resized(3, deg) + res.r_symbol(tau).shift_up(2).resized(3, deg),
                    3,
                    deg,
                )
                assert (lhs - rhs).norm_inf() < 1e-10

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            moser_normal_form(
                FormalSymbol([radial_table(np.array([0.0, 2.0]), 4)]),
                FormalSymbol.constant(1.0, 0, 4),
                2,
                4,
            )

    def test_order_k_has_t_degree_at_most_k(self):
        rng = np.random.default_rng(13)
        graded = FormalSymbol([radial_table(np.array([0.0, 1.0, 0.15 - 0.05j]), 10),
                               radial_table(np.array([0.2, 0.1j]), 10)])
        for mu in (self.MU, graded):
            res = moser_normal_form(mu, rand_symbol(rng, 0, 4, 10), 3, 10)
            for x in (res.a_of_t, res.r_dot_of_t):
                assert x.shape[:2] == (4, 5)  # t-cap order + 1: room for r = int rdot
                for k in range(4):
                    assert not x[k, k + 1 :].any()
                assert x[3, 3].any()

    def test_t_polynomial_budget_guard(self):
        x = np.zeros((2, 3, 4, 4), dtype=complex)
        x[1, 2, 0, 0] = 1.0
        for op in (_t_int, _t_shift):
            with pytest.raises(DegreeOverflow):
                op(x)
            assert op(x[:, :2])[1, 1, 0, 0] == 0.0

    def test_keeps_truncation_flags(self):
        # the sharp products of a degree-4 g at the cap D = 10 drop coefficients
        # from hbar-order 2 on; padding to D = 16 shows they matter at order 3
        rng = np.random.default_rng(21)
        g = rand_symbol(rng, 0, 4, 10)
        res = moser_normal_form(self.MU, g, 3, 10)
        for s in (res.a_final, res.a_at(0.4), res.r_symbol(0.4)):
            assert list(s.flags) == [False, False, True, True]
            assert s.truncated
        # padding to D = 16 shows what the cap drops: hbar-order 3 has weight
        # above degree 10, and up to degree 10 the two runs agree
        top = moser_normal_form(self.MU.resized(0, 16), g, 3, 16).a_final.term(3)
        assert np.abs(top.t - top.resized(10).resized(16).t).max() > 0.1
        assert np.abs(res.a_final.term(3).t - top.resized(10).t).max() < 1e-12
        # nothing is dropped for a linear g
        linear = moser_normal_form(self.MU, FormalSymbol([table_from_dict({(1, 0): 1}, 10)]), 3, 10)
        assert not linear.a_final.truncated and not linear.r_symbol().truncated


class TestOscillatorFunctions:
    def test_square_function_spectral(self):
        # mu(s) = s^2: mu_b = |z|^4 - hbar |z|^2, diagonal hbar^2 (l+1)^2
        profiles = [np.array([0.0, 0.0, 1.0]), np.array([0.0, -1.0])]
        hbar = 0.2
        diag = radial_toeplitz_eigenvalues(profiles, hbar, 8)
        assert np.allclose(diag, (hbar * (np.arange(8) + 1)) ** 2, atol=1e-12)

    def test_cube_function_spectral(self):
        # mu(s) = s^3: mu_b = |z|^6 - 3 hbar |z|^4 + hbar^2 |z|^2
        profiles = [np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 0.0, -3.0]), np.array([0.0, 1.0])]
        hbar = 0.15
        diag = radial_toeplitz_eigenvalues(profiles, hbar, 6)
        assert np.allclose(diag, (hbar * (np.arange(6) + 1)) ** 3, atol=1e-12)

    def test_radial_eigenvalues_exact_rational(self):
        # sum_k hbar^k sum_j (R_k)_j hbar^j (l+j)!/l! in exact rational
        # arithmetic of the same floats: within 4 ulps up to l = 2000
        profiles = [np.array([0.3, 1.0, 0.1, 0.02]), np.array([0.5, -0.25, 0.125]), np.array([0.0, 0.7])]
        for hbar in (0.2, 0.05, 0.013):
            got = radial_toeplitz_eigenvalues(profiles, hbar, 2001)
            h = Fraction(hbar)
            for l in range(2001):
                exact = sum(
                    Fraction(float(c)) * h ** (k + j) * math.perm(l + j, j)
                    for k, prof in enumerate(profiles)
                    for j, c in enumerate(prof)
                )
                assert got[l].imag == 0.0
                assert abs(Fraction(got[l].real) - exact) <= 4 * Fraction(np.spacing(float(exact)))


def poisson_lie_series(f, gen, degree, cap=None):
    """exp(ad_G) f with ad_G X = {G, X} by the Poisson bracket: the classical
    series `lie_transport` once ran, with the stop rule of the quantum one."""
    cap = 8 * (degree + 1) if cap is None else cap
    gen = gen.resized(degree)
    out = term = f.resized(degree)
    for n in range(1, cap + 1):
        term = poisson_bracket(gen, term) * (1.0 / n)
        if term.norm_inf() < 1e-300:
            break
        out = out + term
    return out


def classical_birkhoff_mu0(f, degree):
    """The classical degree-by-degree loop: after the linear reduction, one
    homogeneous generator per degree 3..D, applied by the Poisson series."""
    nf = reduce_quadratic(ComplexQuadraticForm.from_zv_coefficients(f.t[2, 0], f.t[1, 1], f.t[0, 2]))
    current = pullback_linear(f, np.linalg.inv(nf.composed), degree)
    a = np.arange(degree + 1)
    for m in range(3, degree + 1):
        nonrad = np.where((a[:, None] + a[None, :] == m) & (a[:, None] != a[None, :]), current.t, 0.0)
        if np.abs(nonrad).max() >= 1e-14:
            gen = theta_antiderivative(TaylorTable2D(nonrad)) * (1.0 / nf.d0)
            current = poisson_lie_series(current, gen, degree, 4 * degree)
    return radial_average(current) / nf.d0**a


def random_well(rng, degree, scale=1.0):
    """scale * f with f(0) = 0, df(0) = 0, a non-diagonal Hessian with
    |t[2, 0]| + |t[0, 2]| < Re t[1, 1] (so its real part is positive definite:
    elliptic) and decaying random terms of degree 3..degree."""
    coeffs = {(1, 1): complex(1.0, rng.uniform(-0.3, 0.3))}
    for key in ((2, 0), (0, 2)):
        coeffs[key] = 0.4 * rng.uniform(0.05, 1.0) * np.exp(2j * np.pi * rng.uniform())
    for m in range(3, degree + 1):
        for a in range(m + 1):
            coeffs[(a, m - a)] = 0.3 ** (m - 2) * complex(rng.normal(), rng.normal())
    return table_from_dict({key: scale * c for key, c in coeffs.items()}, degree)


class TestBirkhoff:
    def test_harmonic_trivial(self):
        br = birkhoff_normal_form(table_from_dict({(1, 1): 1.0}, 8))
        assert np.allclose(br.mu0[:2], [0.0, 1.0])
        assert np.abs(br.mu0[2:]).max() < 1e-14
        assert all(g.norm_inf() == 0.0 for g in br.generators)

    def test_quartic_already_radial(self):
        br = birkhoff_normal_form(table_from_dict({(1, 1): 1.0, (2, 2): 1.0}, 8))
        assert br.mu0[1] == pytest.approx(1.0)
        assert br.mu0[2] == pytest.approx(1.0)

    def test_cubic_needs_generator(self):
        br = birkhoff_normal_form(table_from_dict({(1, 1): 1.0, (3, 0): 1.0, (0, 3): 1.0}, 8))
        assert br.generators[0].norm_inf() > 0
        # residual oracle: transport f through the generator chain
        tab = table_from_dict({(1, 1): 1.0, (3, 0): 1.0, (0, 3): 1.0}, 8)
        cur = pullback_linear(tab, np.linalg.inv(br.linear_map), 8)
        for gen in br.generators:
            cur = lie_transport(cur, gen, 8)
        off = cur.t.copy()
        np.fill_diagonal(off, 0.0)
        assert np.abs(off).max() < 1e-10
        assert np.allclose(np.diagonal(cur.t)[:3], [0.0, 1.0, -3.0], atol=1e-12)

    def test_matches_spectrum_at_small_hbar(self):
        # mu0-based prediction vs dense eigensolve for a mildly anharmonic well
        sym = MonomialSymbol({(1, 1): 1.0, (2, 2): 0.08, (3, 0): 0.05, (0, 3): 0.05})
        tab = table_from_dict(sym.coeffs, 10)
        br = birkhoff_normal_form(tab)
        hbar = 0.01
        m = assemble_toeplitz(sym, hbar, 500)
        ev = np.linalg.eigvals(m.entries)
        ev = ev[np.argsort(np.abs(ev))][:3]
        for l in range(3):
            s = hbar * br.d0 * (l + 0.5) + hbar * (1.0) / 2.0  # tr H = 1 here
            pred = np.polynomial.polynomial.polyval(s, br.mu0)
            # leading-order prediction: O(hbar^2) error
            assert abs(pred - ev[l]) < 5e-4

    def test_rejects_nonelliptic(self):
        from bargspec.symbols import NonEllipticHessian

        with pytest.raises(NonEllipticHessian):
            birkhoff_normal_form(table_from_dict({(2, 0): 1.0, (0, 2): 1.0}, 6))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(4, 10),
        scale=st.sampled_from([1e-2, 1.0, 1e4]),
    )
    def test_matches_classical_loop(self, seed, degree, scale):
        # the hbar^0 slice of the quantum normal form against the Poisson-series loop;
        # at scale 1e4 the reduced Hessian keeps off-diagonal roundoff above 1e-12
        tab = random_well(np.random.default_rng(seed), degree, scale)
        ref = classical_birkhoff_mu0(tab, degree)
        got = birkhoff_normal_form(tab, degree).mu0
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


    # z zbar + 0.3 (z^2 zbar + z zbar^2) + 0.1 |z|^4 + 0.2i (z^3 - zbar^3)
    SCALED_WELL = {(1, 1): 1.0, (2, 1): 0.3, (1, 2): 0.3, (2, 2): 0.1, (3, 0): 0.2j, (0, 3): -0.2j}

    @pytest.mark.parametrize("e", [50, -50])
    def test_scale_covariant_to_the_bit(self, e):
        # s f with s = 2^e: the reduction and every Lie term scale exactly and
        # every threshold is relative, so mu0_s[a] = s^(1 - a) mu0[a] to the bit
        s = 2.0**e
        ref = birkhoff_normal_form(table_from_dict(self.SCALED_WELL, 6), 6)
        got = birkhoff_normal_form(table_from_dict({k: s * v for k, v in self.SCALED_WELL.items()}, 6), 6)
        assert np.array_equal(got.mu0 * s ** (np.arange(7) - 1.0), ref.mu0)
        assert got.d0 == s * ref.d0
        assert len(got.generators) == len(ref.generators) == 4
        assert all(np.array_equal(g.t, h.t) for g, h in zip(got.generators, ref.generators))


class TestLieSeries:
    """exp(ad_G) for G = c |z|^2 rotates: t[a, b] -> t[a, b] e^{i c (a - b)}
    at every hbar-order; the series never terminates, so the term cap decides."""

    @staticmethod
    def rotated(t, c):
        a = np.arange(t.shape[-1])
        return t * np.exp(1j * c * (a[:, None] - a[None, :]))

    def test_classical_small_rotation(self):
        f = rand_table(np.random.default_rng(14), 8)
        out = lie_transport(f, radial_table(np.array([0.0, 0.3]), 8), 8)
        assert np.abs(out.t - self.rotated(f.t, 0.3)).max() <= 1e-12 * np.abs(f.t).max()

    def test_quantum_small_rotation(self):
        f = rand_symbol(np.random.default_rng(15), 2, 8)
        gen = FormalSymbol([radial_table(np.array([0.0, 0.3]), 8)])
        out = quantum_lie_transport(f, gen, 2, 8)
        for k in range(3):
            exact = self.rotated(f.term(k).t, 0.3)
            assert np.abs(out.term(k).t - exact).max() <= 1e-12 * np.abs(exact).max()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), degree=st.integers(3, 10), gen_degree=st.integers(2, 10))
    def test_classical_matches_poisson_series(self, seed, degree, gen_degree):
        rng = np.random.default_rng(seed)
        f = rand_table(rng, degree)
        m = min(gen_degree, degree)
        gen = table_from_dict({(a, m - a): 0.1 * complex(*rng.normal(size=2)) for a in range(m + 1)}, degree)
        got = lie_transport(f, gen, degree)
        ref = poisson_lie_series(f, gen, degree)
        assert np.abs(got.t - ref.t).max() <= 1e-13 * np.abs(ref.t).max()
        assert got.truncated == ref.truncated

    def test_large_rotation_raises(self):
        f = rand_table(np.random.default_rng(16), 8)
        gen = radial_table(np.array([0.0, 50.0]), 8)
        with pytest.raises(NoConvergence, match="Lie series"):
            lie_transport(f, gen, 8)
        with pytest.raises(NoConvergence, match="Lie series"):
            quantum_lie_transport(FormalSymbol([f]), FormalSymbol([gen]), 2, 8)

    def test_non_finite_term_raises_at_once(self):
        f = table_from_dict({(1, 1): 1.0, (3, 0): 1e300, (0, 4): 1e300}, 8)
        gen = table_from_dict({(2, 1): 1e300, (0, 3): 1e300}, 8)
        with pytest.raises(NoConvergence, match="term 1 is not finite"):
            lie_transport(f, gen, 8)


def stack(rng, order, degree, truncated):
    """A random symbol with every coefficient of total degree <= degree set."""
    return FormalSymbol([TaylorTable2D(rand_table(rng, degree).t, truncated) for _ in range(order + 1)])


def nilpotent_generator(rng, order, degree, truncated, shells=2, density=1.0):
    """`shells` random homogeneous pieces hbar^k G_{k,m} with m >= 3 at k = 0
    and m >= 1 above, each coefficient nonzero with probability `density`:
    each application of ad raises 2 (hbar-order) + degree, so the Lie series
    ends on an exactly zero term, as in the normal form."""
    c = np.zeros((order + 1, degree + 1, degree + 1), dtype=complex)
    a = np.arange(degree + 1)
    for _ in range(shells):
        k = int(rng.integers(0, order + 1))
        lowest = 3 if k == 0 else 1
        if lowest <= degree:
            m = int(rng.integers(lowest, degree + 1))
            shell = (a[:, None] + a[None, :] == m) & (rng.uniform(size=c[k].shape) < density)
            c[k] += np.where(shell, 0.2 * (rng.normal(size=c[k].shape) + 1j), 0.0)
    return FormalSymbol._wrap(c, np.full(order + 1, truncated))


class TestLieOperator:
    """The per-generator operator of `quantum_lie_transport` against the
    sharp-product kernel and the convolution loop."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(0, 3), degree=st.integers(2, 10))
    def test_matches_bracket_tail(self, seed, order, degree):
        rng = np.random.default_rng(seed)
        gen, x = stack(rng, order, degree, False), stack(rng, order, degree, False)
        ref = (1j * sharp_bracket_tail(gen, x, 1, order + 1, degree).shift_down(1)).c
        got = _ad_operator(gen.c)(x.c)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        loop = loop_ad(gen, x, order, degree)
        assert_matches(got, _cut_orders(gen.c, x.c, order + 1, degree, 1, True)[1:], loop.c, loop.flags)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.integers(0, 4),
        degree=st.integers(2, 12),
        flagged=st.sampled_from(["none", "f", "gen"]),
        shells=st.integers(1, 4),
        density=st.sampled_from([1.0, 0.5, 0.2]),
    )
    # flags that come out wrong when d^j and dbar^j are swapped for X or for G
    @example(seed=3347369179, order=3, degree=4, flagged="none", shells=2, density=0.2)
    def test_transport_matches_kernel_route(self, seed, order, degree, flagged, shells, density):
        # sparse operands have unequal top degrees in z and in zbar
        rng = np.random.default_rng(seed)
        f = stack(rng, order, degree, flagged == "f")
        f.c[rng.uniform(size=f.c.shape) >= density] = 0.0
        gen = nilpotent_generator(rng, order, degree, flagged == "gen", shells, density)
        ref, _ = _lie_series(
            f,
            lambda x: 1j * sharp_bracket_tail(gen, x, 1, order + 1, degree).shift_down(1),
            8 * (degree + order + 1),
        )
        got = quantum_lie_transport(f, gen, order, degree)
        assert_matches(got.c, got.flags, ref.c, ref.flags)
        loop, _ = _lie_series(f, lambda x: loop_ad(gen, x, order, degree), 8 * (degree + order + 1))
        assert_matches(got.c, got.flags, loop.c, loop.flags)


    def test_shell_tables_are_cached_without_values(self):
        # two generators on the shell (k, m) = (1, 4) with different
        # coefficients: the second transport reuses the first one's index
        # tables, and each matches the convolution loop
        rng = np.random.default_rng(23)
        order, degree = 2, 8
        f = stack(rng, order, degree, False)
        a = np.arange(degree + 1)
        shell = a[:, None] + a[None, :] == 4
        _ad_shell.cache_clear()
        for c in (0.2, -0.7j):
            gen = np.zeros((order + 1, degree + 1, degree + 1), dtype=complex)
            gen[1] = np.where(shell, c * (rng.normal(size=shell.shape) + 1j * rng.normal(size=shell.shape)), 0.0)
            gen = FormalSymbol._wrap(gen, np.zeros(order + 1, dtype=bool))
            got = quantum_lie_transport(f, gen, order, degree)
            loop, _ = _lie_series(f, lambda x: loop_ad(gen, x, order, degree), 8 * (degree + order + 1))
            assert_matches(got.c, got.flags, loop.c, loop.flags)
        info = _ad_shell.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        for table in _ad_shell(order, degree + 1, 1, 4):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


# the anharmonic well of the optimal-truncation study: z zbar + 0.05 |z|^4
# + 0.03 (z^2 zbar + z zbar^2) + 0.01i z^3 zbar
NF_WELL = {(1, 1): 1.0, (2, 2): 0.05, (2, 1): 0.03, (1, 2): 0.03, (3, 1): 0.01j}
# the s^1..s^8 coefficients of the hbar^k profile of NF_WELL at order 6, degree 16;
# the others are zero
NF_PROFILES_6_16 = [
    [1+0j, 0.0473+0j,
     0.00035028+9e-05j, -4.0824045e-05-2.3697e-05j,
     4.3060003434e-06+4.2547842e-06j, -4.1169162727098e-07-6.13474637202e-07j,
     3.66296365375525e-08+7.28639728728732e-08j, -3.43126271865817e-09-6.74409530046213e-09j],
    [0.0018+0j, -0.0007857-0.000216j,
     0.00019470024+0.0001177758j, -3.55214573145e-05-3.61619721e-05j,
     5.22072528693372e-06+7.962536458548e-06j, -6.62930533955272e-07-1.3391394218464e-06j,
     8.46822225617543e-08+1.6575291078771e-07j, -1.40209327350163e-08-1.07104838795435e-08j],
    [0.00017352+5.4e-05j, -0.000168521904-0.000110511j,
     6.9960699792e-05+7.51850649e-05j, -1.849320011794e-05-2.933891937414e-05j,
     3.71537210332698e-06+7.69625733944493e-06j, -6.98164040483268e-07-1.36204426971458e-06j,
     1.61960862250264e-07+1.1423202767194e-07j, -4.6045976386299e-08+2.2489863607245e-08j],
    [1.5625404e-05+1.2771e-05j, -3.06162903168e-05-3.688322094e-05j,
     1.98820371844548e-05+3.391149003471e-05j, -7.54037794398827e-06-1.62997927349081e-05j,
     2.34648651034604e-06+4.56756448027312e-06j, -8.29574206726633e-07-5.2574378340859e-07j,
     3.37275802775969e-07-1.83153982384808e-07j, -1.21151327117692e-07+1.24664036600009e-07j],
    [1.2536552268e-06+2.1542085e-06j, -4.85366402580624e-06-9.690735538458e-06j,
     4.99339886906831e-06+1.16704077955632e-05j, -3.16378372841468e-06-6.14875461576008e-06j,
     1.94118906000165e-06+1.05421556619416e-06j, -1.20284651796179e-06+7.03881626434602e-07j,
     6.3084368597554e-07-6.66856071437105e-07j, -2.36117311770668e-07+2.95374689113684e-07j],
    [8.675832676932e-08+2.95531286454e-07j, -7.3656598505293e-07-2.03240757458222e-06j,
     1.46331416554652e-06+2.82753332767332e-06j, -1.94172299892714e-06-8.20085855029724e-07j,
     2.07067036633512e-06-1.30483127649463e-06j, -1.64285570307996e-06+1.74399048189969e-06j,
     9.32746614702006e-07-1.16743905975566e-06j, -3.29431615919687e-07+4.9866023450282e-07j],
    [7.28766162997881e-09+3.18109247566002e-08j, -1.59971282420726e-07-2.94632225886274e-07j,
     6.99919801075615e-07+1.75579523519773e-07j, -1.56603377852248e-06+1.05826847265445e-06j,
     2.11651080187522e-06-2.24073183610784e-06j, -1.82976694931784e-06+2.27261883443485e-06j,
     1.02132257285513e-06-1.52980009637454e-06j, -2.70190081174015e-07+6.91443271258523e-07j],
]


class TestQuantumNormalForm:
    def test_matches_eigensolver(self):
        sym = MonomialSymbol({(1, 1): 1.0, (2, 1): 0.2, (1, 2): 0.2, (2, 2): 0.1})
        f = FormalSymbol.from_monomials(sym, 12)
        profiles, gens = quantum_normal_form(f, 3, 12)
        hbar = 0.02
        pred = radial_toeplitz_eigenvalues(profiles, hbar, 3)
        m = assemble_toeplitz(sym, hbar, 400)
        ev = np.linalg.eigvals(m.entries)
        for p in pred:
            assert np.min(np.abs(ev - p)) < 1e-7

    def test_profiles_pinned_at_order_6(self):
        profiles, gens = quantum_normal_form(FormalSymbol.from_monomials(MonomialSymbol(NF_WELL), 16), 6, 16)
        got, ref = np.array(profiles), np.array(NF_PROFILES_6_16)
        assert len(gens) == 98
        assert not got[:, 0].any() and not got[:, 9:].any()
        assert np.all(np.abs(got[:, 1:9] - ref) <= 1e-12 * np.abs(ref))

    def test_rejects_nondiagonal_hessian(self):
        f = FormalSymbol.from_monomials(MonomialSymbol({(1, 1): 1, (2, 0): 0.2, (0, 2): 0.1, (2, 1): 0.3}), 6)
        with pytest.raises(ValueError, match="proportional to z zbar"):
            quantum_normal_form(f, 1, 6)

    def test_lost_digits_raise(self):
        # after the linear reduction (whose map is the identity up to 2e-17)
        # the Lie terms reach 2e17 at degree 8 and cancel to a non-radial
        # residual as large as the result: no digit of it is left
        coeffs = {(1, 1): 1.0, (3, 0): 1e3, (0, 4): 1e5}
        with pytest.raises(NoConvergence, match=r"hbar-order 0 .* at degree 8, ") as err:
            birkhoff_normal_form(table_from_dict(coeffs, 8), 8)
        # the residual is roundoff, so only the lost digits' order is fixed
        assert float(re.search(r"so ([\d.]+) digits are lost", str(err.value)).group(1)) > 15
        # at degree 4 the terms stay small enough
        br = birkhoff_normal_form(table_from_dict(coeffs, 4), 4)
        assert np.isfinite(br.mu0).all()

    @pytest.mark.parametrize("e", [-60, 50])
    def test_lost_digits_raise_at_every_scale(self, e):
        # the residual test is relative to the result, so the lost-digits
        # symbol of `test_lost_digits_raise` scaled by 2^e raises too
        coeffs = {(1, 1): 1.0, (3, 0): 1e3, (0, 4): 1e5}
        with pytest.raises(NoConvergence, match=r"hbar-order 0 .* at degree 8, ") as err:
            birkhoff_normal_form(table_from_dict({k: 2.0**e * v for k, v in coeffs.items()}, 8), 8)
        assert float(re.search(r"so ([\d.]+) digits are lost", str(err.value)).group(1)) > 15

    def test_radial_input_is_fixed_point(self):
        f = FormalSymbol([radial_table(np.array([0.0, 1.0, 0.3]), 8)])
        profiles, gens = quantum_normal_form(f, 2, 8)
        assert not gens
        assert np.allclose(profiles[0][:3], [0.0, 1.0, 0.3])


def pullback_loop(tab, m, degree):
    """The per-coefficient substitution that `pullback_linear` replaced: each
    nonzero z^a vbar^b within the table's cap becomes the 1-D product of the
    powers of m00 z + m01 and m10 z + m11 (at vbar = 1), laid along the
    anti-diagonal a + b; a dropped one flags the result."""
    m = np.asarray(m, dtype=complex)
    n = degree + 1
    pows = [
        [np.array([math.comb(p, j) * m[r, 0] ** j * m[r, 1] ** (p - j) for j in range(p + 1)]) for p in range(n)]
        for r in range(2)
    ]
    out = np.zeros((n, n), dtype=complex)
    truncated = tab.truncated
    inside = np.add.outer(np.arange(tab.degree + 1), np.arange(tab.degree + 1)) <= tab.degree
    for a, b in zip(*np.nonzero((tab.t != 0) & inside)):
        if a + b > degree:
            truncated = True
        else:
            j = np.arange(a + b + 1)
            out[j, a + b - j] += tab.t[a, b] * np.convolve(pows[0][a], pows[1][b])
    return TaylorTable2D(out, truncated)


class TestPullback:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        table_degree=st.integers(0, 14),
        degree=st.integers(0, 14),
        dense=st.booleans(),
        flagged=st.booleans(),
    )
    def test_matches_coefficient_loop(self, seed, table_degree, degree, dense, flagged):
        rng = np.random.default_rng(seed)
        t = rand_table(rng, table_degree).t
        if not dense:
            t[rng.random(t.shape) < 0.8] = 0.0
        # entries past the table's own cap are not part of it: both ignore them
        a = np.arange(table_degree + 1)
        t[a[:, None] + a[None, :] > table_degree] = 7.0
        tab = TaylorTable2D(t, flagged)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got, ref = pullback_linear(tab, m, degree), pullback_loop(tab, m, degree)
        assert got.truncated == ref.truncated
        assert got.t.shape == ref.t.shape
        assert np.abs(got.t - ref.t).max() <= 1e-13 * np.abs(ref.t).max()


class TestSerialization:
    def test_formal_symbol_json(self):
        rng = np.random.default_rng(11)
        f = rand_symbol(rng, 2, 3)
        back = FormalSymbol.from_json(f.to_json())
        assert (back - f).norm_inf() < 1e-16

    def test_pullback_linear_exact(self):
        rng = np.random.default_rng(12)
        tab = rand_table(rng, 4, 8)
        maps = [np.array([[1.1, 0.2 - 0.1j], [0.05j, 0.9]])]
        maps += [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(5)]
        for m in maps:
            moved = pullback_linear(tab, m, 8)
            assert not moved.truncated
            for _ in range(10):
                z, v = rng.normal(size=2) + 1j * rng.normal(size=2)
                zz, vv = m @ np.array([z, v])
                assert moved(z, v) == pytest.approx(tab(zz, vv), rel=1e-11, abs=1e-11)
            # a linear map keeps homogeneous degrees: a lower cap cuts the same table
            for degree in (3, 4):
                cut, ref = pullback_linear(tab, m, degree), moved.resized(degree)
                assert cut.truncated == ref.truncated == (degree < 4)
                assert np.array_equal(cut.t, ref.t)
