"""Truncated analytic-symbol arithmetic: sharp products, formal norms,
theta calculus, cohomology, inverses, Moser, oscillator functions, and the
degree-by-degree normal forms."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargspec.bargmann import MonomialSymbol, assemble_toeplitz
from bargspec.quadratic import ComplexQuadraticForm, reduce_quadratic
from bargspec.spectral import NoConvergence
from bargspec.symbols import (
    DegreeOverflow,
    FormalSymbol,
    NonzeroAverage,
    TaylorTable2D,
    _bracket,
    _sharp,
    _t_int,
    _t_shift,
    birkhoff_normal_form,
    cohomology_solve,
    divide_by_radial,
    formal_norm,
    lie_transport,
    moser_normal_form,
    oscillator_function_from_symbol,
    oscillator_function_symbol,
    oscillator_sharp_powers,
    poisson_bracket,
    pullback_linear,
    quantum_lie_transport,
    quantum_normal_form,
    radial_average,
    radial_table,
    radial_toeplitz_eigenvalues,
    reciprocal_profile,
    sharp_bracket,
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
            timed, _ = _sharp(ft, gt, order, deg)
            plain = lambda f, g: sharp_product(f, g, order, deg)
        else:
            timed, _ = _bracket(ft, gt, order, deg, j_min)
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

    def test_table_product_matches_definition(self):
        # out[a, b] = sum x[i, j] y[a-i, b-j] over a + b <= degree, for unequal sizes
        rng = np.random.default_rng(8)
        for na, nb, degree in ((3, 5, 2), (4, 4, 3), (5, 3, 6), (2, 6, 9), (3, 3, 8)):
            x = rng.normal(size=(na, na)) + 1j * rng.normal(size=(na, na))
            y = rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb))
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
        padded = moser_normal_form(self.MU.resized(0, 16), g, 3, 16)
        assert np.abs(res.a_final.term(3).t - padded.a_final.term(3).resized(10).t).max() > 0.1
        # nothing is dropped for a linear g
        linear = moser_normal_form(self.MU, FormalSymbol([table_from_dict({(1, 0): 1}, 10)]), 3, 10)
        assert not linear.a_final.truncated and not linear.r_symbol().truncated


class TestOscillatorFunctions:
    def test_sharp_powers(self):
        powers = oscillator_sharp_powers(2, 2, 6)
        assert powers[1].term(0).t[1, 1] == pytest.approx(1.0)
        assert powers[2].term(0).t[2, 2] == pytest.approx(1.0)
        assert powers[2].term(1).t[1, 1] == pytest.approx(-1.0)

    def test_identity_function(self):
        mb = oscillator_function_symbol([np.array([0.0, 1.0])], 2, 6)
        assert mb.term(0).t[1, 1] == pytest.approx(1.0)
        assert mb.term(1).norm_inf() == 0.0

    def test_square_function_spectral(self):
        # mu(s) = s^2 -> mu_b = |z|^4 - hbar |z|^2, diagonal hbar^2 (l+1)^2
        mb = oscillator_function_symbol([np.array([0.0, 0.0, 1.0])], 2, 6)
        assert mb.term(0).t[2, 2] == pytest.approx(1.0)
        assert mb.term(1).t[1, 1] == pytest.approx(-1.0)
        profiles = [radial_average(mb.term(k)) for k in range(mb.order + 1)]
        hbar = 0.2
        diag = radial_toeplitz_eigenvalues(profiles, hbar, 8)
        assert np.allclose(diag, (hbar * (np.arange(8) + 1)) ** 2, atol=1e-12)

    def test_cube_function_spectral(self):
        mb = oscillator_function_symbol([np.array([0.0, 0.0, 0.0, 1.0])], 3, 8)
        profiles = [radial_average(mb.term(k)) for k in range(mb.order + 1)]
        hbar = 0.15
        diag = radial_toeplitz_eigenvalues(profiles, hbar, 6)
        assert np.allclose(diag, (hbar * (np.arange(6) + 1)) ** 3, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        mu = [np.array([0.3, 1.0, -0.2]), np.array([0.1, 0.05])]
        mb = oscillator_function_symbol(mu, 3, 8)
        back = oscillator_function_from_symbol(mb)
        for orig, rec in zip(mu, back):
            assert np.allclose(rec[: len(orig)], orig, atol=1e-13)
            assert np.abs(rec[len(orig) :]).max(initial=0.0) < 1e-13

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

    def test_rejects_nondiagonal_hessian(self):
        f = FormalSymbol.from_monomials(MonomialSymbol({(1, 1): 1, (2, 0): 0.2, (0, 2): 0.1, (2, 1): 0.3}), 6)
        with pytest.raises(ValueError, match="proportional to z zbar"):
            quantum_normal_form(f, 1, 6)

    def test_radial_input_is_fixed_point(self):
        f = FormalSymbol([radial_table(np.array([0.0, 1.0, 0.3]), 8)])
        profiles, gens = quantum_normal_form(f, 2, 8)
        assert not gens
        assert np.allclose(profiles[0][:3], [0.0, 1.0, 0.3])


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
                cut = pullback_linear(tab, m, degree)
                assert cut.truncated == (degree < 4)
                keep = np.add.outer(np.arange(degree + 1), np.arange(degree + 1)) <= degree
                assert np.array_equal(cut.t, np.where(keep, moved.t[: degree + 1, : degree + 1], 0.0))
