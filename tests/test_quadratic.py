"""Quadratic normal-form pipeline: ellipticity, delta, reduction, phase,
weights, exact spectrum.  The assembled-matrix eigensolve arbitrates every
convention (in particular the z*vbar coefficient d0)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bargspec.bargmann import assemble_toeplitz
from bargspec.quadratic import (
    ComplexQuadraticForm,
    NoDeltaFound,
    _arc_centre,
    _kappa2_matrix,
    ellipticity_check,
    exact_quadratic_spectrum,
    find_delta,
    phase_and_weights,
    reduce_quadratic,
)


def random_elliptic_forms(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        base = rng.normal(size=(2, 2))
        re = base @ base.T + 0.3 * np.eye(2)
        im = rng.normal(size=(2, 2))
        im = 0.3 * (im + im.T)
        m = re + 1j * im
        q = ComplexQuadraticForm(m[0, 0], m[1, 1], m[0, 1])
        c = ellipticity_check(q)
        if c["elliptic"] and c["range_proper"]:
            out.append(q)
    return out


class TestEllipticity:
    def test_harmonic(self):
        r = ellipticity_check(ComplexQuadraticForm(1, 1, 0))
        assert r["elliptic"] and r["range_proper"]
        assert r["condition_value"] == pytest.approx(1.0)

    def test_hyperbolic(self):
        r = ellipticity_check(ComplexQuadraticForm(1, -1, 0))
        assert not r["elliptic"]
        assert r["condition_value"] == pytest.approx(-1.0)

    def test_p2_iq2(self):
        r = ellipticity_check(ComplexQuadraticForm(1, 1j, 0))
        assert r["elliptic"] and r["range_proper"]
        assert r["condition_value"] == pytest.approx(1j)

    def test_range_scan_agrees_with_brute_force(self):
        # f(R^2) stays in a half-plane iff some delta rotation works
        q = ComplexQuadraticForm(1, 1j, 0)
        ps, qs = np.meshgrid(np.linspace(-3, 3, 61), np.linspace(-3, 3, 61))
        vals = np.array([q(p, s) for p, s in zip(ps.ravel(), qs.ravel())])
        # rotated by e^{-i pi/4}, all values lie in the closed right half-plane
        assert np.all((np.exp(-1j * np.pi / 4) * vals).real >= -1e-12)

    def test_rotated_forms(self):
        # e^{i theta}(p^2 - q^2) has a discriminant that cancels to 0 exactly;
        # its rounding must not push E off the negative axis
        for theta in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
            rot = np.exp(1j * theta)
            hyperbolic = ellipticity_check(ComplexQuadraticForm(rot, -rot, 0))
            assert not hyperbolic["elliptic"] and hyperbolic["condition_value"].imag == 0.0
            assert ellipticity_check(ComplexQuadraticForm(rot, rot, 0))["elliptic"]

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(0.0, 2 * np.pi),
        turn=st.floats(0.0, np.pi),
        scales=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    )
    def test_rotated_scaled_hyperbolic(self, theta, turn, scales):
        # e^{i theta} K diag(s, -t) K^T, K a real rotation: never elliptic
        k = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        f = np.exp(1j * theta) * (k @ np.diag([np.exp(scales[0]), -np.exp(scales[1])]) @ k.T)
        assert not ellipticity_check(ComplexQuadraticForm(f[0, 0], f[1, 1], f[0, 1]))["elliptic"]

    def test_tiny_discriminant_stays_elliptic(self):
        # F = [[1, 1], [1, 1e-10 i]]: disc = 1e-20 is real, not rounding
        r = ellipticity_check(ComplexQuadraticForm(1, 1e-10j, 1))
        assert r["elliptic"]
        assert r["condition_value"] == pytest.approx(-1 + 1e-10j, rel=1e-12)


class TestDelta:
    def test_pure_rotation(self):
        theta = np.pi / 3
        q = ComplexQuadraticForm(np.exp(1j * theta), np.exp(1j * theta), 0)
        assert find_delta(q) == pytest.approx(np.exp(-1j * theta), abs=1e-6)

    def test_p2_iq2(self):
        q = ComplexQuadraticForm(1, 1j, 0)
        assert find_delta(q) == pytest.approx(np.exp(-1j * np.pi / 4), abs=1e-6)

    def test_hyperbolic_fails(self):
        with pytest.raises(NoDeltaFound):
            find_delta(ComplexQuadraticForm(1, -1, 0))

    def test_delta_admissible_on_corpus(self):
        for q in random_elliptic_forms(25, seed=5):
            d = find_delta(q)
            evs = np.linalg.eigvalsh((d * q.matrix).real)
            assert evs[0] > 0


class TestReduction:
    def test_harmonic_trivial(self):
        nf = reduce_quadratic(ComplexQuadraticForm(1, 1, 0))
        assert nf.delta == pytest.approx(1.0, abs=1e-9)
        assert nf.zeta == pytest.approx(1.0)
        assert np.allclose(nf.kappa2, np.eye(2))
        assert np.allclose(nf.kappa3, np.eye(2))
        # z vbar coefficient: p^2 + q^2 = 2 z zbar
        assert nf.d0 == pytest.approx(2.0)

    def test_scaling(self):
        nf = reduce_quadratic(ComplexQuadraticForm(2, 2, 0))
        assert nf.d0 == pytest.approx(4.0)

    def test_p2_iq2_values(self):
        nf = reduce_quadratic(ComplexQuadraticForm(1, 1j, 0))
        assert nf.zeta == pytest.approx(1j, abs=1e-10)
        assert nf.Delta == pytest.approx(2.0, abs=1e-10)
        assert nf.alpha == pytest.approx(-1.0, abs=1e-10)
        assert nf.beta == pytest.approx(1.0, abs=1e-10)
        assert nf.gamma == pytest.approx(0.0, abs=1e-12)
        assert nf.d0 == pytest.approx(2 * np.exp(1j * np.pi / 4), abs=1e-10)

    def test_conjugation_identity_on_corpus(self):
        rng = np.random.default_rng(11)
        for q in random_elliptic_forms(20, seed=2):
            nf = reduce_quadratic(q)
            kinv = np.linalg.inv(nf.composed)
            for _ in range(20):
                z, v = rng.normal(size=2) + 1j * rng.normal(size=2)
                zz, vv = kinv @ np.array([z, v])
                assert abs(q.extension(zz, vv) - nf.d0 * z * v) < 1e-10 * max(
                    1.0, abs(nf.d0)
                )

    def test_symplecticity(self):
        for q in random_elliptic_forms(20, seed=3):
            nf = reduce_quadratic(q)
            for mat in (nf.kappa1, nf.kappa2, nf.kappa3, nf.composed):
                assert abs(np.linalg.det(mat) - 1.0) < 1e-12

    def test_hyperbolic_propagates(self):
        with pytest.raises(NoDeltaFound):
            reduce_quadratic(ComplexQuadraticForm(1, -1, 0))

    # the checks below are exceptions, not asserts, so they hold under python -O

    def test_degenerate_in_floating_point_raises(self):
        # a = c = b up to a rounding: the admissible arc exists in exact
        # arithmetic, but Re(delta f) has determinant 0 in floating point
        a = -0.35780505888078584 - 0.933796305325373j
        form = ComplexQuadraticForm(a, -0.3578050588807857 - 0.9337963053253732j, a)
        with pytest.raises(NoDeltaFound, match="not positive definite in floating point"):
            reduce_quadratic(form)

    def test_overflowing_reduction_raises(self):
        # Re(delta f) has a determinant above the double range, so zeta is NaN
        form = ComplexQuadraticForm(6.497935915030692e154, 4.4852769736748415e154 - 2.0844662185561135e155j, 0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="double range"):
            reduce_quadratic(form)

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(st.floats(-1, 1).filter(lambda x: x == 0 or abs(x) > 1e-50), min_size=3, max_size=3),
        exponent=st.integers(-100, 100),
    )
    def test_kappa2_diagonalises_larger_first(self, entries, exponent):
        # the rotation puts the larger eigenvalue (alpha + beta + Delta)/2 on
        # the p-axis, to roundoff relative to |S|, at every scale where the
        # squares in Delta stay in the double range
        alpha, beta, gamma = (10.0**exponent * x for x in entries)
        delta = float(np.sqrt((beta - alpha) ** 2 + 4.0 * gamma**2))
        rows = _kappa2_matrix(alpha, beta, gamma, delta)
        s = np.array([[alpha, gamma], [gamma, beta]])
        size = max(np.abs(s).max(), np.finfo(float).tiny)
        diag = rows @ s @ rows.T
        expect = np.diag([(alpha + beta + delta) / 2, (alpha + beta - delta) / 2])
        assert np.abs(diag - expect).max() <= 1e-14 * size
        assert np.abs(rows @ rows.T - np.eye(2)).max() <= 1e-15
        assert np.linalg.det(rows) > 0


class TestPhaseWeights:
    def test_real_symplectic_trivial_weight(self):
        nf = reduce_quadratic(ComplexQuadraticForm(1, 1, 0))
        phase, pair = phase_and_weights(nf)
        assert pair.r == pytest.approx(1.0)
        assert pair.j == pytest.approx(0.0, abs=1e-12)
        assert pair.vanishes_to_second_order
        assert pair.w(0.7 + 0.3j) == pytest.approx(0.0, abs=1e-12)

    def test_zeta_i_weights(self):
        nf = reduce_quadratic(ComplexQuadraticForm(1, 1j, 0))
        phase, pair = phase_and_weights(nf)
        assert pair.r == pytest.approx(1 / np.sqrt(2))
        assert pair.j == pytest.approx(1 / np.sqrt(2))
        x = 0.4 - 0.9j
        expect = (1 - np.sqrt(2)) * abs(x) ** 2 + 2 * x.real * x.imag
        assert pair.w(x) == pytest.approx(expect, abs=1e-12)
        assert (pair.r + 1j * pair.j) ** 2 == pytest.approx(nf.zeta / abs(nf.zeta))

    def test_phase_condition_and_weight_sign_on_corpus(self):
        for q in random_elliptic_forms(25, seed=7):
            nf = reduce_quadratic(q)
            phase, pair = phase_and_weights(nf)
            assert abs(phase.b_over_d) < 1.0
            assert pair.r > 0
            assert pair.r**2 + pair.j**2 == pytest.approx(1.0)
            # identity minus the W-Hessian positive definite
            evs = np.linalg.eigvalsh(np.eye(2) - pair.w_matrix())
            assert evs[0] > 0

    def test_phase_reproduces_kernel_integral(self):
        # sigma-family test vector: I_phi(1) applied to e^{-|y|^2/2h} e^{i s y^2/2h}
        # for the kappa_3 map of zeta = i, against the closed form.
        nf = reduce_quadratic(ComplexQuadraticForm(1, 1j, 0))
        w4 = nf.zeta**0.25
        cp = (w4 + 1 / w4) / 2
        cm = (w4 - 1 / w4) / 2
        hbar, sigma = 0.3, 0.4
        xs = [0.0, 0.25 - 0.1j, 0.2j]
        nodes, weights = np.polynomial.hermite.hermgauss(140)
        scale = np.sqrt(hbar)
        r = scale * nodes
        rr, ss = np.meshgrid(r, r)
        ww = np.outer(weights, weights) * hbar  # dy = dr ds, Gaussian weight folded
        y = rr + 1j * ss
        for x in xs:
            phi = -cm / (2 * cp) * x**2 + x * np.conj(y) / cp + cm / (2 * cp) * np.conj(y) ** 2
            # integrand / e^{-(r^2+s^2)/hbar}, the Hermite weight
            rest = np.exp((2 * phi + 1j * sigma * y**2) / (2 * hbar))
            val = np.sum(ww * rest) / (np.pi * hbar) * np.exp(-abs(x) ** 2 / (2 * hbar))
            al = 1 - 1j * sigma / 2 - cm / (2 * cp)
            be = 1 + 1j * sigma / 2 + cm / (2 * cp)
            ga = -1j * cm / (2 * cp) - sigma / 2
            closed = (
                (al * be - ga**2) ** (-0.5)
                * np.exp(-abs(x) ** 2 / (2 * hbar))
                * np.exp(-cm * x**2 / (2 * cp * hbar))
                * np.exp(1j * sigma * x**2 / (2 * cp * (cp - 1j * cm * sigma) * hbar))
            )
            assert val == pytest.approx(closed, rel=2e-6)


class TestSpectrum:
    def test_harmonic(self):
        lam = exact_quadratic_spectrum(ComplexQuadraticForm(1, 1, 0), 0.1, 4)
        assert np.allclose(lam, [0.2, 0.4, 0.6, 0.8])

    def test_p2_iq2_against_matrix(self):
        q = ComplexQuadraticForm(1, 1j, 0)
        lam = exact_quadratic_spectrum(q, 0.1, 5)
        m = assemble_toeplitz(q.to_symbol(), 0.1, 400)
        ev = np.linalg.eigvals(m.entries)
        ev = ev[np.argsort(np.abs(ev))][:5]
        assert np.max(np.abs(ev - lam) / np.abs(lam)) < 1e-8

    def test_hbar_homogeneity(self):
        q = ComplexQuadraticForm(1.2, 0.8 + 0.4j, 0.1j)
        lam1 = exact_quadratic_spectrum(q, 0.2, 3)
        lam2 = exact_quadratic_spectrum(q, 0.1, 3)
        assert np.allclose(lam1, 2 * lam2)

    def test_delta_invariance(self):
        q = ComplexQuadraticForm(1, 1j, 0)
        base = exact_quadratic_spectrum(q, 0.1, 4)
        for shift in (-0.3, 0.2, 0.35):
            other = exact_quadratic_spectrum(
                q, 0.1, 4, delta=np.exp(-1j * (np.pi / 4 + shift))
            )
            assert np.max(np.abs(base - other)) < 1e-12

    def test_generic_form_matrix_agreement(self):
        q = ComplexQuadraticForm(1.2 + 0.2j, 0.8 + 0.35j, 0.3 + 0.1j)
        hbar = 0.05
        lam = exact_quadratic_spectrum(q, hbar, 5)
        m = assemble_toeplitz(q.to_symbol(), hbar, 420)
        ev = np.linalg.eigvals(m.entries)
        ev = ev[np.argsort(np.abs(ev))][:5]
        assert np.max(np.abs(ev - lam) / np.abs(lam)) < 1e-7


def test_zv_coefficients_round_trip():
    q = ComplexQuadraticForm(0.3 - 0.1j, 1.4 + 0.2j, -0.5 + 0.05j)
    sym = q.to_symbol()
    q2 = ComplexQuadraticForm.from_zv_coefficients(
        sym.coeffs.get((2, 0), 0.0), sym.coeffs.get((1, 1), 0.0), sym.coeffs.get((0, 2), 0.0)
    )
    assert q2.a == pytest.approx(q.a)
    assert q2.b == pytest.approx(q.b)
    assert q2.c == pytest.approx(q.c)


# ---------------------------------------------------------------------------
# Cross-route arbiter.  `find_delta` and `ellipticity_check` take the
# admissible rotation in closed form.  The reference below is the angle scan
# they replaced: a 2048-point eigvalsh scan of Re(e^{i theta} f) with the arc
# ends refined by bisection, and a 720-point scan plus ternary search for the
# proper-range test.  It is kept here only as an independent route.

_SCAN_GRID = 2048


def _scan_min_eig(form, theta):
    return float(np.linalg.eigvalsh((np.exp(1j * theta) * form.matrix).real)[0])


def _scan_min_eigs(form, thetas):
    """`_scan_min_eig` at every angle of a grid, by one stacked eigvalsh."""
    rotated = (np.exp(1j * thetas)[:, None, None] * form.matrix).real
    return np.linalg.eigvalsh(rotated)[:, 0]


def _scan_range_proper(form):
    """(range_proper, the largest smallest eigenvalue the scan saw)."""
    thetas = np.linspace(-np.pi, np.pi, 720, endpoint=False)
    mins = _scan_min_eigs(form, thetas)
    t0 = thetas[int(np.argmax(mins))]
    lo, hi = t0 - np.pi / 720, t0 + np.pi / 720
    for _ in range(60):
        mid1 = lo + (hi - lo) / 3
        mid2 = hi - (hi - lo) / 3
        if _scan_min_eig(form, mid1) < _scan_min_eig(form, mid2):
            lo = mid1
        else:
            hi = mid2
    refined = _scan_min_eig(form, (lo + hi) / 2)
    # the scan refines only when the grid alone fails the test
    proper = bool(mins.max() > -1e-14 or refined > -1e-14)
    return proper, max(float(mins.max()), refined)


def _scan_arc(form):
    """Ends of the longest run of positive definite grid angles, bisected."""
    thetas = np.linspace(-np.pi, np.pi, _SCAN_GRID, endpoint=False)
    good = _scan_min_eigs(form, thetas) > 0.0
    if not good.any():
        raise NoDeltaFound("no grid angle is admissible")
    n = _SCAN_GRID
    runs = []
    i = 0
    while i < n:
        if good[i]:
            j = i
            while good[j % n] and j - i < n:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] >= n:
        first = runs.pop(0)
        runs[-1] = (runs[-1][0], n + first[1])
    start, stop = max(runs, key=lambda r: r[1] - r[0])
    step = 2 * np.pi / n

    def refine(bad, ok):
        for _ in range(80):
            mid = 0.5 * (bad + ok)
            if _scan_min_eig(form, mid) > 0:
                ok = mid
            else:
                bad = mid
        return ok

    left = refine(thetas[0] + (start - 1) * step, thetas[0] + start * step)
    right = refine(thetas[0] + stop * step, thetas[0] + (stop - 1) * step)
    return left, right


def _scan_find_delta(form):
    """delta at the midpoint of the scanned arc."""
    left, right = _scan_arc(form)
    mid = 0.5 * (left + right)
    if _scan_min_eig(form, mid) <= 0:
        raise NoDeltaFound("admissible arc collapsed during refinement")
    return complex(np.exp(1j * mid))


def _scan_resolution(form, ulps):
    """How far the scan's midpoint can sit from the true one.

    Bisection places each end only where the smallest eigenvalue, rising
    from 0 at slope s, clears the eigvalsh roundoff of `ulps`: to within
    ulps / s.  s is taken as the mean slope over the outer quarter of the
    arc, which is below the slope at the end where the profile bends down
    toward the middle, so the window errs wide.  The slope is small where
    the peak determinant is small against |f|^2: f = [[i, 1e-8 + i],
    [1e-8 + i, i]] has s = 1e-8 at its arc end 3 pi / 2.
    """
    left, right = _scan_arc(form)
    h = (right - left) / 4
    windows = []
    for inner in (left + h, right - h):
        rise = _scan_min_eig(form, inner)
        windows.append(ulps * h / rise if rise > 0 else right - left)
    return sum(windows) / 2


def _delta_or_none(find, form):
    try:
        return find(form)
    except NoDeltaFound:
        return None


def _assert_routes_agree(form, centre=None):
    """The closed form against the scan, where rounding does not decide.

    A scan finds an angle that passes, or misses a peak narrower than its
    grid.  So where the scan passes, the closed form must pass; where only
    the closed form passes, eigvalsh at its angle must certify it.  Where
    both find delta, they agree to 1e-12 plus the scan's own resolution
    (`_scan_resolution`).  Where only the closed form finds one, the scan
    must have stepped over an arc narrower than its grid step.  `centre`,
    when the form was built around a known arc centre, is a third route for
    delta, to 1e-12 at any width.
    """
    scan_proper, scan_best = _scan_range_proper(form)
    arc_centre = _arc_centre(form)
    best = max(scan_best, _scan_min_eig(form, arc_centre))
    # within a few ulps of the thresholds 0 (an arc exists) and -1e-14
    # (range_proper), rounding in either route decides: nothing to compare
    ulps = 32 * np.finfo(float).eps * np.abs(form.matrix).max()
    assume(abs(best) > ulps and abs(best + 1e-14) > ulps)
    if ellipticity_check(form)["range_proper"]:
        assert _scan_min_eig(form, arc_centre) > -1e-14
    else:
        assert not scan_proper
    ref = _delta_or_none(_scan_find_delta, form)
    new = _delta_or_none(find_delta, form)
    if new is None:
        assert ref is None
        return
    theta = np.angle(new)
    assert _scan_min_eig(form, theta) > 0
    if ref is not None:
        assert abs(new - ref) < 1e-12 + _scan_resolution(form, ulps)
    else:
        half_step = np.pi / _SCAN_GRID
        assert _scan_min_eig(form, theta - half_step) <= 0
        assert _scan_min_eig(form, theta + half_step) <= 0
    if centre is not None:
        assert abs(new - np.exp(1j * centre)) < 1e-12


def _form_with_arc(centre, peak, t_diag, t_off, turn, scale):
    """scale e^{-i centre} U (S + iT) U^T, U a rotation by `turn`.

    S = diag(1, top) and T = [[t_diag, t_off], [t_off, -top t_diag]] have
    mixed discriminant 0, so with top = peak / scale^2,
    det Re(e^{i theta} F) peaks at theta = centre with value A + rho = peak.
    peak > 0 gives an arc centred there, of half-width about
    sqrt(top) / t_off; peak <= 0 gives no arc.
    """
    top = peak / scale**2
    u = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    s = np.diag([1.0, top])
    t = np.array([[t_diag, t_off], [t_off, -top * t_diag]])
    m = scale * np.exp(-1j * centre) * (u @ (s + 1j * t) @ u.T)
    return ComplexQuadraticForm(m[0, 0], m[1, 1], m[0, 1])


class TestClosedFormAgainstScan:
    entry = st.floats(-2.0, 2.0, allow_nan=False)

    @settings(max_examples=100, deadline=None)
    @given(re=st.lists(entry, min_size=3, max_size=3), im=st.lists(entry, min_size=3, max_size=3))
    def test_random_forms(self, re, im):
        m = np.array(re) + 1j * np.array(im)
        _assert_routes_agree(ComplexQuadraticForm(m[0], m[1], m[2]))

    @settings(max_examples=100, deadline=None)
    @given(
        centre=st.floats(-np.pi, np.pi),
        peak=st.one_of(st.floats(-1e-12, 1e-12), st.floats(-12.0, -2.0).map(lambda u: 10.0**u)),
        t_diag=st.floats(-2.0, 2.0),
        t_off=st.floats(0.5, 2.0),
        turn=st.floats(0.0, np.pi),
        scale=st.floats(0.5, 2.0),
    )
    def test_narrow_and_boundary_arcs(self, centre, peak, t_diag, t_off, turn, scale):
        form = _form_with_arc(centre, peak, t_diag, t_off, turn, scale)
        _assert_routes_agree(form, centre=centre)

    @settings(max_examples=20, deadline=None)
    @given(re=st.lists(entry, min_size=3, max_size=3), im=st.lists(entry, min_size=3, max_size=3))
    def test_stacked_grid_is_the_per_angle_loop(self, re, im):
        # the scans' grids take one stacked eigvalsh: bit for bit the loop
        m = np.array(re) + 1j * np.array(im)
        form = ComplexQuadraticForm(m[0], m[1], m[2])
        for n in (720, _SCAN_GRID):
            thetas = np.linspace(-np.pi, np.pi, n, endpoint=False)
            loop = np.array([_scan_min_eig(form, t) for t in thetas])
            assert np.array_equal(_scan_min_eigs(form, thetas), loop)

    def test_hyperbolic_boundary(self):
        # det Re(e^{i theta} f) = -cos^2 theta peaks at 0, at theta = pi/2:
        # no arc, but Re(e^{i pi/2} f) = 0 is semidefinite, so the range is proper
        form = ComplexQuadraticForm(1, -1, 0)
        assert ellipticity_check(form)["range_proper"] is True
        assert _scan_range_proper(form)[0] is True
        for find in (find_delta, _scan_find_delta):
            with pytest.raises(NoDeltaFound):
                find(form)

    @pytest.mark.parametrize(
        "form, theta",
        [
            (ComplexQuadraticForm(1, 1j, 0), -np.pi / 4),
            (ComplexQuadraticForm(np.exp(1j * np.pi / 3), np.exp(1j * np.pi / 3), 0), -np.pi / 3),
        ],
    )
    def test_pinned_arcs(self, form, theta):
        delta = find_delta(form)
        assert abs(delta - np.exp(1j * theta)) < 1e-15
        assert abs(delta - _scan_find_delta(form)) < 1e-12
        assert ellipticity_check(form)["range_proper"] is True
        assert _scan_range_proper(form)[0] is True
