"""Spectral lab: adaptive eigensolves, resolvent grids and pseudospectra,
action integrals, Bohr-Sommerfeld residuals, multi-well matching."""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bargspec import spectral
from bargspec.bargmann import MonomialSymbol, assemble_toeplitz, radial_diagonal
from bargspec.quadratic import ComplexQuadraticForm, ellipticity_check, exact_quadratic_spectrum, reduce_quadratic
from bargspec.spectral import (
    NoConvergence,
    NonClosedContour,
    UnmatchedEigenvalue,
    action_integral,
    action_level_set,
    analytic_pseudospectrum,
    bohr_sommerfeld_residuals,
    eigen_spectrum,
    multiwell_compare,
    resolvent_grid,
    scan_isolating_c,
    sigma_min,
)
from bargspec.symbols import birkhoff_normal_form, table_from_dict
from test_bargmann import BAND_MONOMIALS, band_symbols, from_dense, lam_grid

ROT = ComplexQuadraticForm(1.0, np.exp(0.9j * np.pi / 2), 0.0)


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


class TestEigenSpectrum:
    def test_diagonal(self):
        spec = eigen_spectrum(assemble_toeplitz(MonomialSymbol({(1, 1): 1.0}), 0.1, 64), 3, 1e-10)
        assert np.allclose(spec.eigenvalues, [0.1, 0.2, 0.3])
        assert spec.convergence_gap < 1e-12

    def test_rotated_oscillator(self):
        m = assemble_toeplitz(ROT.to_symbol(), 0.1, 64)
        spec = eigen_spectrum(m, 5, 1e-8)
        lam = exact_quadratic_spectrum(ROT, 0.1, 5)
        assert np.max(np.abs((spec.eigenvalues - lam) / lam)) < 1e-6

    def test_harmonic_double(self):
        m = assemble_toeplitz(MonomialSymbol({(1, 1): 2.0}), 0.1, 32)
        spec = eigen_spectrum(m, 4, 1e-10)
        assert np.allclose(spec.eigenvalues, 0.1 * (2 * np.arange(4) + 2))

    def test_no_convergence_flag(self):
        # an absurd tolerance at a tiny cap triggers the failure path
        m = assemble_toeplitz(ROT.to_symbol(), 0.1, 8)
        with pytest.raises(NoConvergence) as err:
            eigen_spectrum(m, 6, 1e-300, n_cap=16)
        assert err.value.result is not None
        assert not err.value.result.converged

    @pytest.mark.parametrize("n, k_wanted, n_cap", [(16, 3, 8), (16, 3, 16), (2, 3, 4)],
                             ids=["start-above-cap", "start-at-cap", "counts-differ"])
    def test_cap_without_comparison(self, n, k_wanted, n_cap):
        # no two truncations with equal eigenvalue counts before the cap
        m = assemble_toeplitz(ROT.to_symbol(), 0.1, n)
        with pytest.raises(NoConvergence) as err:
            eigen_spectrum(m, k_wanted, 1e-8, n_cap=n_cap)
        assert not err.value.result.converged
        assert np.isnan(err.value.result.convergence_gap)

    def test_tied_pair_swapping_order_is_no_gap(self, monkeypatch):
        # a conjugate pair has equal modulus, so its order in the modulus sort
        # is arbitrary; the flip between n = 8 and n = 16 moves nothing
        spectra = {8: [1 + 1j, 1 - 1j, 3.0], 16: [1 - 1j, 1 + 1j, 3.0]}
        monkeypatch.setattr(np.linalg, "eigvals", lambda mat: np.array(spectra[len(mat)]))
        m = assemble_toeplitz(MonomialSymbol({(1, 1): 1.0, (1, 0): 0.5}), 0.1, 8)  # offsets gcd 1: one block
        spec = eigen_spectrum(m, 3, 1e-8, n_cap=16)
        assert spec.converged and spec.n_max_used == 16
        assert spec.convergence_gap == 0.0


class TestBlockSpectrum:
    """Block-by-block eigenvalues against the full Hermitian eigensolve."""

    @settings(max_examples=40, deadline=None)
    @given(case=band_symbols(hermitian=True))
    def test_block_eigenvalues_match_eigvalsh(self, case):
        op = assemble_toeplitz(*case)
        full = np.linalg.eigvalsh(op.entries)
        atol = 1e-10 * np.linalg.norm(op.entries, 2)
        spec = eigen_spectrum(from_dense(op.entries, op.hbar), op.dim)
        assert spec.n_max_used == op.dim and len(spec.eigenvalues) == op.dim
        assert np.all(np.abs(spec.eigenvalues.imag) <= atol)
        assert np.allclose(np.sort(spec.eigenvalues.real), full, rtol=0.0, atol=atol)
        g = op.blocks()[0].shape[1]
        for r in range(g):  # each eigenvalue is labelled with its own block
            block = np.linalg.eigvalsh(op.entries[r::g, r::g])
            assert np.allclose(np.sort(spec.eigenvalues[spec.sectors == r].real), block, rtol=0.0, atol=atol)

    def test_parity_sectors(self):
        # the rotated oscillator couples indices two apart: eigenvalue l lies
        # in the parity block l mod 2
        spec = eigen_spectrum(assemble_toeplitz(ROT.to_symbol(), 0.1, 64), 5, 1e-8)
        assert list(spec.sectors) == [0, 1, 0, 1, 0]


def two_well(c: complex) -> MonomialSymbol:
    """c (|z|^4 - z^2 - zbar^2 + 1), whose wells z = +-1 share the level 0."""
    return MonomialSymbol({key: c * v for key, v in {(2, 2): 1, (2, 0): -1, (0, 2): -1, (0, 0): 1}.items()})


PQ = MonomialSymbol({(2, 0): -0.5j, (0, 2): 0.5j})  # the symbol pq


@st.composite
def arnoldi_cases(draw):
    """(operator, k, quadratic form or None) whose every block holds at least
    twice the first Arnoldi basis of `_block_smallest`, m >= 2 (2k + 20):
    random elliptic quadratic forms (arg b <= 0.45 pi), two-well symbols and
    the non-Hermitian band symbols, at sizes odd as often as even, so that
    the blocks differ in size."""
    k = draw(st.integers(1, 16))
    form = None
    source = draw(st.sampled_from(["quadratic", "two-well", "band"]))
    if source == "quadratic":
        form = ComplexQuadraticForm(
            draw(st.floats(0.7, 1.3)),
            draw(st.floats(0.7, 1.3)) * np.exp(1j * draw(st.floats(0.0, 0.45 * np.pi))),
            complex(draw(st.floats(-0.15, 0.15)), draw(st.floats(-0.15, 0.15))),
        )
        assume(ellipticity_check(form)["elliptic"])
        symbol, hbar = form.to_symbol(), draw(st.sampled_from([0.05, 0.1]))
    elif source == "two-well":
        c = draw(st.floats(0.8, 1.1)) * np.exp(1j * draw(st.floats(0.1, 0.35)))
        symbol, hbar = two_well(c), draw(st.sampled_from([0.02, 0.05, 0.1]))
    else:
        symbol, hbar, _ = draw(band_symbols(hermitian=False))
    band = assemble_toeplitz(symbol, hbar, 16).blocks()[0]
    assume(band.shape[0] > 1)  # a diagonal operator never reaches the block solver
    n = max(128, 2 * band.shape[1] * (2 * k + 20)) + draw(st.integers(0, 63))
    return assemble_toeplitz(symbol, hbar, n), k, form


def dense_reference(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues w of a block by a dense solve, and the tolerance of a
    comparison with each: 1e-10 |w| plus a first-order perturbation bound
    kappa (1e-12 |w| + eps ||B|| (64 + (|w| / sigma_min)^2)).  kappa is the
    eigenvalue's condition number; 64 eps ||B|| bounds the backward error of
    a dense eigensolve; 1e-12 |w| covers the Arnoldi route's residual test,
    and eps ||B|| (|w| / sigma_min)^2 its LU inverse, whose error
    eps ||B|| ||B^-1||^2 moves 1/w, and so w by |w|^2 times as much.  For
    the paper's well-conditioned eigenvalues the bound is a few 1e-11 |w|;
    the band symbols make blocks with kappa up to 1e14, whose eigenvalues no
    solver gets to 1e-10."""
    w, vl, vr = sla.eig(block, left=True, right=True)
    s = sla.svdvals(block)
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa = 1.0 / np.abs(np.einsum("ij,ij->j", vl.conj(), vr))  # unit eigenvectors
        tol = 1e-10 * np.abs(w) + kappa * (1e-12 * np.abs(w) + eps * s[0] * (64 + (np.abs(w) / s[-1]) ** 2))
    return w, np.nan_to_num(tol, nan=np.inf)  # a defective eigenvalue (kappa inf) bounds nothing


@contextlib.contextmanager
def counting(name: str):
    """Count the calls of np.linalg.<name> inside the block."""
    with mock.patch.object(np.linalg, name, wraps=getattr(np.linalg, name)) as spy:
        yield spy


class TestBlockSolver:
    """`_block_smallest`, Arnoldi on the block inverse, against dense eigensolves."""

    @settings(max_examples=60, deadline=None)
    @given(case=arnoldi_cases())
    def test_matches_dense_eigvals(self, case):
        op, k, form = case
        band, pad, kl = op.blocks()
        for r in range(band.shape[1]):
            block = spectral._band_dense(band[~pad[:, r], r], kl)
            got = spectral._block_smallest(block, k)
            got = got[np.argsort(np.abs(got))][:k]
            w, tol = dense_reference(block)
            # each returned eigenvalue is near a dense one
            dist = np.abs(got[:, None] - w[None, :])
            assert np.all((dist <= tol).any(axis=1))
            # the sorted moduli agree: a pair of near-equal moduli (the +-
            # pairs of T(pq), say) may come in either order, and an
            # ill-conditioned one may trade places with its neighbour
            near = np.argmin(dist - tol, axis=1)
            small = np.argsort(np.abs(w))[:k]
            assert np.all(np.abs(np.abs(got) - np.abs(w[small])) <= np.maximum(tol[small], tol[near]))
            if form is not None:  # block r holds the levels r, r + 2, ...
                exact = exact_quadratic_spectrum(form, op.hbar, 2 * k + 4)[r::2]
                err = np.abs(got[:, None] - exact[None, :]).min(axis=1)
                assert np.all(err <= 1e-9 * np.abs(got) + tol[near])

    @pytest.mark.parametrize(
        "symbol, hbar, n, k",
        [(ROT.to_symbol(), 0.05, 256, 5), (two_well(1 + 0.3j), 0.02, 512, 16), (PQ, 0.1, 256, 3)],
        ids=["rotated-oscillator", "two-well", "pq"],
    )
    def test_paper_operators_take_the_arnoldi_route(self, symbol, hbar, n, k):
        band, pad, kl = assemble_toeplitz(symbol, hbar, n).blocks()
        for r in range(band.shape[1]):
            block = spectral._band_dense(band[~pad[:, r], r], kl)
            with counting("eigvals") as dense:
                got = spectral._block_smallest(block, k)
            assert dense.call_count == 0 and len(got) == k
            w, tol = dense_reference(block)
            small = np.argsort(np.abs(w))[:k]
            assert np.all(np.abs(np.sort(np.abs(got)) - np.abs(w[small])) <= tol[small])

    @pytest.mark.parametrize("k, calls", [(6, (1, 0)), (7, (0, 1))], ids=["fits", "over-half"])
    def test_basis_over_half_the_block_goes_dense(self, k, calls):
        # m = 64: a basis of 2k + 20 = 32 vectors fits, 34 does not, and that
        # block goes dense before any inverse is formed
        band, pad, kl = assemble_toeplitz(ROT.to_symbol(), 0.1, 128).blocks()
        block = spectral._band_dense(band[:, 0], kl)
        with counting("inv") as inv, counting("eigvals") as dense:
            got = spectral._block_smallest(block, k)
        assert (inv.call_count, dense.call_count) == calls
        assert len(got) == (k if calls == (1, 0) else 64)

    def test_one_test_where_one_growth_reaches_half_the_block(self):
        # the two-well blocks of the spectra benchmark's multiwell slot: k 16,
        # m = 128; 52 vectors would grow to 78 > 64, so the basis starts at 64,
        # with one Ritz test
        band, pad, kl = assemble_toeplitz(two_well(0.95 * np.exp(0.2j)), 0.02, 256).blocks()
        for r in range(band.shape[1]):
            with counting("eigvals") as dense, counting("eig") as ritz:
                spectral._block_smallest(spectral._band_dense(band[:, r], kl), 16)
            assert (dense.call_count, ritz.call_count) == (0, 1)

    def test_singular_block_goes_dense(self):
        # T(z) is strictly lower triangular: inv raises, and every truncation
        # is solved densely, with the exact eigenvalue 0
        with counting("eigvals") as dense, counting("inv") as inv:
            spec = eigen_spectrum(assemble_toeplitz(MonomialSymbol({(1, 0): 1.0}), 0.1, 128), 3)
        assert inv.call_count == dense.call_count == 2
        assert spec.n_max_used == 256 and np.all(spec.eigenvalues == 0)

    def test_breakdown_goes_dense(self):
        # two distinct eigenvalues: the Krylov space of every start vector has
        # dimension 2, so the third Arnoldi vector is zero to roundoff
        block = np.diag(np.repeat([2.0, 1.0], 64)).astype(complex)
        with counting("eigvals") as dense, counting("inv") as inv:
            got = spectral._block_smallest(block, 3)
        assert inv.call_count == dense.call_count == 1
        assert np.array_equal(np.sort(got.real), np.repeat([1.0, 2.0], 64))

    def test_non_finite_inverse_goes_dense(self):
        # subnormal entries: the inverse overflows
        block = 1e-310 * np.diag(np.arange(1.0, 129.0)).astype(complex) + 1e-311 * np.eye(128, k=-1)
        with counting("eigvals") as dense:
            got = spectral._block_smallest(block, 3)
        assert dense.call_count == 1
        assert np.allclose(np.sort(got.real)[:3], [1e-310, 2e-310, 3e-310], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("e", [-700, 700])
    def test_scale_invariant(self, e):
        # B^-1 is scaled by a power of 2 to largest part below 1, so a block
        # scaled by 2^e gives the eigenvalues scaled by 2^e, bit for bit, and
        # by the Arnoldi route: the squared norms of its vectors stay in range
        band, pad, kl = assemble_toeplitz(ROT.to_symbol(), 0.05, 256).blocks()
        block = spectral._band_dense(band[:, 0], kl)
        with counting("eigvals") as dense:
            got = spectral._block_smallest(block * 2.0**e, 5)
        assert dense.call_count == 0
        assert np.array_equal(got, spectral._block_smallest(block, 5) * 2.0**e)

    def test_basis_memory_grows_with_the_basis(self):
        # m = 1024, k = 5: the inverse and a basis of 31 vectors, never an
        # (m/2) x m array (which would add half the inverse again)
        band, pad, kl = assemble_toeplitz(ROT.to_symbol(), 0.05, 2048).blocks()
        block = spectral._band_dense(band[:, 0], kl)
        tracemalloc.start()
        try:
            with counting("eigvals") as dense:
                spectral._block_smallest(block, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dense.call_count == 0
        assert peak < 1.5 * block.nbytes

    def test_unsettled_spectrum_still_raises_at_the_cap(self):
        # pq is hyperbolic, and the eigenvalues of T(pq)'s truncations keep
        # moving: the loop runs to the cap as before, now in seconds
        with pytest.raises(NoConvergence, match=r"still moving by .* at n = 4096"):
            eigen_spectrum(assemble_toeplitz(PQ, 0.1, 64), 3)


class TestResolventGrid:
    def test_normal_case_exactness(self):
        m = assemble_toeplitz(MonomialSymbol({(1, 1): 1.0}), 0.1, 48)
        field = resolvent_grid(m, (0.0, 0.6, -0.2, 0.2), (13, 9), workers=1)
        diag = 0.1 * (np.arange(48) + 1)
        lam = lam_grid(field)
        expect = np.min(np.abs(lam[:, :, None] - diag[None, None, :]), axis=2)
        assert np.max(np.abs(field.sigma - expect)) < 1e-12

    def test_parallel_matches_serial(self):
        m = assemble_toeplitz(ROT.to_symbol(), 0.1, 48)
        f1 = resolvent_grid(m, (0.0, 0.4, 0.0, 0.3), (7, 6), workers=1)
        f2 = resolvent_grid(m, (0.0, 0.4, 0.0, 0.3), (7, 6), workers=3)
        assert np.array_equal(f1.sigma, f2.sigma)

    def test_inverse_iteration_matches_svd(self):
        m = assemble_toeplitz(ROT.to_symbol(), 0.05, 256)
        rng = np.random.default_rng(0)
        for _ in range(6):
            lam = complex(rng.uniform(0.02, 0.4), rng.uniform(0.0, 0.3))
            a = _dense_sigma(m.entries, lam)  # full SVD
            b = sigma_min(m, lam)  # banded inverse iteration
            assert b == pytest.approx(a, rel=1e-5)

    def test_midpoint_resolvent_smallness(self):
        # at a midpoint between the eigenvalues straddling a fixed |lambda|,
        # sigma_min / spacing shrinks as hbar decreases (the lattice index
        # grows, so the pseudomode gets exponentially better)
        ratios = []
        for hbar in (0.1, 0.05, 0.033):
            lam = exact_quadratic_spectrum(ROT, hbar, 40)
            k = int(np.argmin(np.abs(np.abs(lam) - 0.45)))
            mid = 0.5 * (lam[k] + lam[k + 1])
            n = 420
            m = assemble_toeplitz(ROT.to_symbol(), hbar, n)
            spacing = abs(lam[k + 1] - lam[k])
            ratios.append(sigma_min(m, mid) / spacing)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[-1] < 0.05  # far below the normal-operator value 1/2
        assert ratios[-1] < ratios[0] / 10

    def test_far_field_numerical_range_sandwich(self):
        m = assemble_toeplitz(ROT.to_symbol(), 0.1, 96)
        boundary = numerical_range_boundary(m.entries, 512)
        ev = np.linalg.eigvals(m.entries)
        for lam in (-2.0 + 0.5j, 1.0 - 3.0j):
            s = sigma_min(m, lam)
            d_range = np.min(np.abs(boundary - lam))
            d_spec = np.min(np.abs(ev - lam))
            # dist to field of values <= sigma_min <= dist to spectrum
            assert d_range <= s * (1 + 1e-3)
            assert s <= d_spec * (1 + 1e-8)
            assert s > 0.3  # order one away from the range


def _dense_sigma(mat, lam):
    return float(sla.svdvals(mat - lam * np.eye(mat.shape[0]))[-1])


class TestBandedKernel:
    """The batched banded route of resolvent_grid against the dense SVD."""

    @settings(max_examples=30, deadline=None)
    @given(
        offsets=st.sampled_from(sorted(BAND_MONOMIALS)),
        n=st.integers(5, 64),
        coeffs=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=5, max_size=5),
        centre=st.complex_numbers(max_magnitude=3.0),
    )
    def test_grid_matches_dense_svd(self, offsets, n, coeffs, centre):
        sym = MonomialSymbol(dict(zip(BAND_MONOMIALS[offsets], coeffs)))
        m = assemble_toeplitz(sym, 0.1, n)
        rect = (centre.real - 0.3, centre.real + 0.3, centre.imag - 0.2, centre.imag + 0.2)
        field = resolvent_grid(m, rect, (3, 2))
        floor = 1e-12 * float(np.abs(m.entries).sum(axis=0).max())
        for (iy, ix), lam in np.ndenumerate(lam_grid(field)):
            ref = _dense_sigma(m.entries, lam)
            assert abs(field.sigma[iy, ix] - ref) <= max(1e-8 * ref, floor)

    @pytest.mark.parametrize("lam", [0.3154 + 0.01j, 0.2662 + 0.1885j])
    def test_two_well_tunnelling_points(self, lam):
        # sigma_min is doubly degenerate here, one copy per parity block, and
        # each block's second singular value contracts an iteration by 0.875
        c = 1.0 + 0.3j
        sym = MonomialSymbol({(2, 2): c, (2, 0): -c, (0, 2): -c, (0, 0): c})
        m = assemble_toeplitz(sym, 0.05, 256)
        ref = _dense_sigma(m.entries, lam)
        assert sigma_min(m, lam) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize(
        "coeffs, hbar, n, lam",
        [
            ({(1, 0): -0.5, (0, 1): 0.5, (3, 0): 0.5, (0, 3): -0.5}, 0.1, 54, -3.7 + 0.3j),
            ({(1, 0): -0.5, (0, 1): 0.5, (3, 0): 0.5, (0, 3): -0.5}, 0.1, 54, 1000j),
            ({(1, 0): 1.0, (0, 1): 1.0}, 0.01, 20, 1000j),
            ({(1, 0): 1.0, (0, 1): 1.0}, 0.01, 40, 300j),
        ],
        ids=["cluster-5e-4", "steps-grow", "flat-steps-n20", "flat-steps-n40"],
    )
    def test_singular_value_cluster(self, coeffs, hbar, n, lam):
        # far from the spectrum of a normal matrix sigma_1..sigma_3 agree to
        # 5e-4 down to 5e-9 relative: block inverse iteration would need
        # hundreds to thousands of steps, its steps may grow for a while, or
        # sit flat at a few hundred ulps from the first step on
        m = assemble_toeplitz(MonomialSymbol(coeffs), hbar, n)
        assert sigma_min(m, lam) == pytest.approx(_dense_sigma(m.entries, lam), rel=1e-8)

    def test_unconverged_raises(self, monkeypatch):
        m = assemble_toeplitz(ROT.to_symbol(), 0.05, 256)
        monkeypatch.setattr(spectral, "_MAX_STEPS", 1)
        with pytest.raises(NoConvergence, match="1 grid point.*after 1 steps"):
            spectral._sigma_min_banded(m, np.array([0.2 + 0.1j]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_iterate_raises(self):
        mat = assemble_toeplitz(ROT.to_symbol(), 0.1, 32).entries.copy()
        mat[5, 5] = np.nan
        with pytest.raises(NoConvergence, match="non-finite"):
            sigma_min(from_dense(mat, 0.1), 0.3)

    def test_zero_leading_pivot_needs_row_exchange(self):
        # lambda = M[0, 0] zeroes the leading diagonal entry of the even
        # block, which is not singular: the first reflector takes R[0, 0]
        # from the subdiagonal entry below it
        m = assemble_toeplitz(ROT.to_symbol(), 0.1, 40)
        lam = m.entries[0, 0]
        assert sigma_min(m, lam) == pytest.approx(_dense_sigma(m.entries, lam), rel=1e-8)

    def test_zero_pivot_is_singular(self):
        # upper bidiagonal parity blocks: lambda on the diagonal zeroes a whole
        # column of the shifted block, which is then exactly singular
        m = assemble_toeplitz(MonomialSymbol({(1, 1): 1.0, (0, 2): 0.5}), 0.1, 20)
        assert sigma_min(m, m.entries[3, 3]) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        kl=st.integers(0, 3),
        ku=st.integers(0, 3),
        m=st.integers(1, 40),
        nb=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_band_qr_against_dense(self, kl, ku, m, nb, seed):
        # the factor gives R^H R = A^H A, and its two sweeps solve
        # A^H A x = b as a dense solve does, up to the scale of each column
        rng = np.random.default_rng(seed)
        w = kl + ku + 1
        a = rng.normal(size=(m, w, nb)) + 1j * rng.normal(size=(m, w, nb))
        i, c = np.indices((m, w))
        a[(i - kl + c < 0) | (i - kl + c >= m)] = 0.0
        f, singular = spectral._band_qr(a, kl)
        b = rng.normal(size=(m, 2, nb)) + 1j * rng.normal(size=(m, 2, nb))
        x, over = spectral._inverse_gram(f, b)
        assert not singular.any() and not over.any()
        for k in range(nb):
            dense = spectral._band_dense(a[..., k], kl)
            gram = dense.conj().T @ dense
            u = spectral._band_dense(np.concatenate([np.ones((m, 1)), f.rowh[:, :, 0, k].conj()], axis=1), 0)
            r_h_r = u.conj().T @ (u / f.d2inv[:, :, k])
            assert np.abs(r_h_r - gram).max() <= 1e-12 * np.linalg.norm(dense, 2) ** 2
            kappa = np.linalg.cond(dense)
            if kappa < 1e6:  # both solves are accurate to about eps kappa^2
                ref = np.linalg.solve(gram, b[..., k])
                ref /= np.abs(ref).max(axis=0)
                assert np.abs(x[..., k] - ref).max() <= 1e-13 * kappa**2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "hbar, n, lam", [(0.05, 256, 0.1), (0.05, 256, 0.05 + 0.02j), (1.0, 128, -0.109j), (0.1, 256, 0.3)]
    )
    def test_shift_operator_at_the_floor(self, hbar, n, lam):
        # T(z^2) - lambda is lambda plus a weighted shift, whose sigma_min is
        # far below the roundoff floor; the iterates of the normal equations
        # once overflowed at these points
        m = assemble_toeplitz(MonomialSymbol({(2, 0): 1.0}), hbar, n)
        sigma = spectral._sigma_min_banded(m, np.array([lam]))[0]
        floor = 1e-12 * float(np.abs(m.entries - lam * np.eye(n)).sum(axis=0).max())
        assert 0.0 <= sigma <= floor
        assert abs(sigma - _dense_sigma(m.entries, lam)) <= floor

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_scale_invariant(self, scale):
        # the column norms square the entries, which would leave the double
        # range here; the kernel scales each pair by a power of 2 first
        sym = ROT.to_symbol()
        lams = np.array([0.2 + 0.1j, 1.0, -0.5j])
        ref = spectral._sigma_min_banded(assemble_toeplitz(sym, 0.1, 64), lams)
        scaled = MonomialSymbol({k: scale * v for k, v in sym.coeffs.items()})
        got = spectral._sigma_min_banded(assemble_toeplitz(scaled, 0.1, 64), scale * lams)
        assert got == pytest.approx(scale * ref, rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sweep_is_at_the_floor(self):
        # I + 1000 S has ||A^-1|| ~ 1000^127: the U^H sweep overflows, and
        # sigma_min, below 1e-300, is reported as 0 without an error
        op = from_dense(np.eye(128) + 1000.0 * np.eye(128, k=1), 1.0)
        for lam in (0.0, 0.5):
            assert sigma_min(op, lam) == 0.0


@pytest.fixture(scope="module")
def field():
    m = assemble_toeplitz(ROT.to_symbol(), 0.05, 220)
    return resolvent_grid(m, (0.02, 0.34, 0.01, 0.30), (72, 64))


class TestPseudospectrum:

    def test_mask_monotone_in_c(self, field):
        c_values = [0.1, 0.3, 0.6, 1.2]
        masks = [field.c_mask(c) for c in c_values]
        for a, b in zip(masks, masks[1:]):
            assert np.all(b <= a)

    def test_large_c_empty(self, field):
        comp = analytic_pseudospectrum(field, 40.0)
        assert comp.n_components == 0

    def test_c_zero_is_sublevel_one(self, field):
        comp = analytic_pseudospectrum(field, 0.0)
        assert np.array_equal(comp.mask, field.sigma <= 1.0)

    def test_components_contain_eigenvalues(self, field):
        lam = exact_quadratic_spectrum(ROT, 0.05, 6)
        scan = scan_isolating_c(field, lam, np.linspace(0.1, 0.9, 17))
        comp = analytic_pseudospectrum(field, scan["c_min"], eigenvalues=lam)
        assert comp.n_components >= 3
        assert comp.all_contain_eigenvalue

    def test_isolating_scan(self, field):
        lam = exact_quadratic_spectrum(ROT, 0.05, 6)
        scan = scan_isolating_c(field, lam, np.linspace(0.1, 0.9, 17))
        assert scan["c_min"] is not None
        comp = analytic_pseudospectrum(field, scan["c_min"], eigenvalues=lam)
        assert comp.n_components == scan["n_eigenvalues"]
        assert all(v == 1 for v in comp.eigenvalue_counts.values())


class TestAction:
    def test_residue_example(self):
        res = action_integral(1.0, 0.3, 1)
        assert res["value"] == pytest.approx(2 * np.pi * 0.3, abs=1e-10)

    def test_zero_energy(self):
        res = action_integral(1.0 + 0.5j, 0.0, 1)
        assert abs(res["value"]) < 1e-14

    def test_large_energy_ratio_is_closed(self):
        # |E/d| ~ 1e8: the endpoint gap of the circle is roundoff (4e-12 absolute)
        # and the value ~ 1e9 has an ulp above 1e-8, so every bound is relative
        for d, energy, winding in ((1e-9, 0.3, 1), (1e-9 + 2e-9j, 0.3 - 0.1j, 2)):
            res = action_integral(d, energy, winding)
            assert abs(res["value"] - res["closed_form"]) <= 1e-15 * abs(res["closed_form"])
            assert res["nodes"] == 32  # a constant integrand agrees at the first doubling

    def test_unsettled_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_ACTION_TOL", -1.0)  # a negative tolerance is never met
        with pytest.raises(NoConvergence, match="65536 nodes"):
            action_integral(1.0, 0.3, 1)

    def test_winding_doubles(self):
        one = action_integral(0.8 - 0.1j, 0.2 + 0.1j, 1)
        two = action_integral(0.8 - 0.1j, 0.2 + 0.1j, 2)
        assert two["value"] == pytest.approx(2 * one["value"], abs=1e-9)

    def test_random_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = rng.normal() + 1j * rng.normal()
            if abs(d) < 0.3:
                d += 0.5
            e = 0.3 * (rng.normal() + 1j * rng.normal())
            for w in (1, 2):
                res = action_integral(d, e, w)
                assert abs(res["value"] - res["closed_form"]) < 1e-8

    def test_level_set_route(self):
        ext = lambda x, v: x * v + 0.1 * (x * v) ** 2
        for energy in (0.05, 0.03 + 0.01j):
            val = action_level_set(ext, energy, 1.0)
            w = (-1 + np.sqrt(1 + 0.4 * energy)) / 0.2
            assert val == pytest.approx(2 * np.pi * w, abs=1e-9)

    def test_level_set_unsettled_raises(self, monkeypatch):
        ext = lambda x, v: x * v + 0.1 * (x * v) ** 2
        monkeypatch.setattr(spectral, "_ACTION_TOL", -1.0)  # a negative tolerance is never met
        with pytest.raises(NoConvergence, match="16384 nodes"):
            action_level_set(ext, 0.05, 1.0)

    def test_level_set_closure_failure(self):
        # a genuinely multivalued vbar-branch around the loop fails to close:
        # f~(x, v) = x v^2 has v(x) ~ sqrt(E/x), picking up a sign on the loop
        ext = lambda x, v: x * v * v
        with pytest.raises(NonClosedContour):
            action_level_set(ext, 0.05, 1.0)


class TestBohrSommerfeld:
    def test_quadratic_self_inversion(self):
        q = ComplexQuadraticForm(1.0, 1j, 0.0)
        nf = reduce_quadratic(q)
        lam = exact_quadratic_spectrum(q, 0.1, 6)
        rho = bohr_sommerfeld_residuals(lam, nf, 0.1)
        assert rho.max() < 1e-12

    def test_numeric_quadratic(self):
        hbar = 0.05
        q = ComplexQuadraticForm(1.0, 1j, 0.0)
        nf = reduce_quadratic(q)
        m = assemble_toeplitz(q.to_symbol(), hbar, 64)
        spec = eigen_spectrum(m, 6, 1e-9)
        rho = bohr_sommerfeld_residuals(spec, nf, hbar)
        assert rho.max() <= 1e-5

    def test_perturbed_radial_quadratic_decay(self):
        tab = table_from_dict({(1, 1): 1.0, (2, 2): 0.1}, 10)
        br = birkhoff_normal_form(tab)
        maxima = []
        for hbar in (0.1, 0.05):
            diag = radial_diagonal([0.0, 1.0, 0.1], hbar, 16)[:6]
            rho = bohr_sommerfeld_residuals(np.array(diag), br.normal_form, hbar, mu0=br.mu0)
            maxima.append(rho.max())
        # quadratic-in-hbar (or faster) decay of the residuals
        assert maxima[0] <= 1.0 * 0.1**2
        assert maxima[1] <= 1.0 * 0.05**2

    @pytest.mark.parametrize(
        "mu0", [[0, 1, 0.1, 0.02, 0.01, 0.005], [0, 1, 0.1, 0.02, 0.01, 0.005, 0.003]], ids=["degree5", "degree6"]
    )
    @pytest.mark.parametrize("hbar", [0.1, 0.05, 0.02])
    def test_exact_radial_eigenvalues(self, mu0, hbar):
        # the eigenvalues of T(nu(|z|^2)), nu(s) = mu0(d0 s), lie on the
        # curve at the integers, whatever the degree of the profile
        nf = reduce_quadratic(ComplexQuadraticForm(1.0, 1.0, 0.0))  # p^2 + q^2: d0 = tr = 2
        mu0 = np.array(mu0)
        nu = mu0 * nf.d0 ** np.arange(len(mu0))
        sym = MonomialSymbol({(j, j): c for j, c in enumerate(nu) if c})
        diag = assemble_toeplitz(sym, hbar, 16).entries.diagonal()[:8]
        assert bohr_sommerfeld_residuals(diag, nf, hbar, mu0=mu0).max() <= 1e-12


def _sorted_greedy(dist):
    """The greedy pairing as a sort over every (row, column) candidate, ties
    by row and then by column order: the arbiter of `_greedy_pairs`."""
    cand = [(dist[i, j], i, j) for i in range(dist.shape[0]) for j in range(dist.shape[1])]
    cand.sort(key=lambda t: (t[0], t[1]))
    used_rows, used_cols, pairs = set(), set(), []
    for d, i, j in cand:
        if i in used_rows or j in used_cols:
            continue
        used_rows.add(i)
        used_cols.add(j)
        pairs.append((i, j, float(d)))
    return pairs


class TestGreedyPairs:
    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        values=st.lists(st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 10.0)), min_size=36, max_size=36),
    )
    def test_matches_sorted_candidates(self, shape, values):
        # integer draws make ties, which both break by row, then column
        dist = np.array(values[: shape[0] * shape[1]]).reshape(shape)
        assert spectral._greedy_pairs(dist) == _sorted_greedy(dist)


DOUBLE_WELL = MonomialSymbol(
    {(2, 2): 1 + 0.3j, (2, 0): -(1 + 0.3j), (0, 2): -(1 + 0.3j), (0, 0): 1 + 0.3j}
)


class TestMultiwell:
    def test_symmetric_double_well(self):
        rep = multiwell_compare(DOUBLE_WELL, 0.02, wells=[1.0, -1.0], order=2, degree=10)
        assert len(rep.eigenvalues) >= 4
        assert rep.residuals.max() < 1e-3 * 0.02
        gaps = sorted(
            abs(rep.eigenvalues[i] - rep.eigenvalues[j])
            for i in range(len(rep.eigenvalues))
            for j in range(i + 1, len(rep.eigenvalues))
        )
        assert gaps[0] < 1e-10  # exponentially small splitting at machine scale
        assert all(w.corrected for w in rep.wells)
        # each tunnelling pair is one even and one odd state: two orthogonal
        # invariant subspaces, normal by structure
        spec = rep.spectrum
        assert rep.jordan_pairs
        for i, j, _, nonnormality in rep.jordan_pairs:
            members = np.isin(spec.eigenvalues, rep.eigenvalues[[i, j]])
            assert len(set(spec.sectors[members].tolist())) == 2
            assert nonnormality == 0.0

    def test_single_well_reduces_to_lattice(self):
        sym = MonomialSymbol({(1, 1): 1.0, (2, 2): 0.1})
        rep = multiwell_compare(sym, 0.05, wells=[0.0], order=3, degree=8)
        exact = radial_diagonal([0.0, 1.0, 0.1], 0.05, 10)
        for i, w, l, dist in rep.matches:
            assert abs(rep.eigenvalues[i] - exact[l]) < 1e-9

    def test_tiny_hessian_matches_as_unscaled(self):
        # scaled by 2^-110, hbar |d0| is 3.9e-35; each lattice keeps its five
        # levels and the report is the unscaled one, scaled
        coeffs, s = {(1, 1): 1.0, (2, 2): 0.1}, 2.0**-110
        ref = multiwell_compare(MonomialSymbol(coeffs), 0.05, wells=[0.0], order=3, degree=8)
        got = multiwell_compare(
            MonomialSymbol({k: s * v for k, v in coeffs.items()}), 0.05, wells=[0.0], order=3, degree=8
        )
        assert abs(0.05 * got.wells[0].d0) < 1e-30
        assert [len(w.lattice) for w in got.wells] == [len(w.lattice) for w in ref.wells] == [5]
        assert [m[:3] for m in got.matches] == [m[:3] for m in ref.matches]
        assert len(got.matches) == 3
        assert np.allclose(got.wells[0].lattice / s, ref.wells[0].lattice, rtol=1e-12, atol=0)
        assert np.allclose(got.eigenvalues / s, ref.eigenvalues, rtol=1e-12, atol=0)

    # z zbar + 0.2 (z^2 + zbar^2) + 0.1 |z|^4: a non-diagonal Hessian at well 0
    SKEW_WELL = {(1, 1): 1.0, (2, 0): 0.2, (0, 2): 0.2, (2, 2): 0.1}

    @staticmethod
    def scaled_well(coeffs, e):
        sym = MonomialSymbol({k: 2.0**e * v for k, v in coeffs.items()})
        return multiwell_compare(sym, 0.05, wells=[0.0], order=1, degree=4)

    def test_nondiagonal_hessian_routes_to_the_lattice_at_every_scale(self):
        # the Hessian test is relative to |t11|: scaled by 2^-50, the well is
        # still matched by the quadratic lattice, as at scale 1
        ref, got = (self.scaled_well(self.SKEW_WELL, e) for e in (0, -50))
        for rep in (ref, got):
            assert len(rep.matches) == 3 and not rep.wells[0].corrected
        assert [m[:3] for m in got.matches] == [m[:3] for m in ref.matches]
        assert np.allclose(got.residuals * 2.0**50, ref.residuals, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("e", [50, -50])
    def test_diagonal_hessian_routes_to_the_normal_form_at_every_scale(self, e):
        radial = {(1, 1): 1.0, (2, 2): 0.1}
        ref, got = self.scaled_well(radial, 0), self.scaled_well(radial, e)
        assert ref.wells[0].corrected and got.wells[0].corrected
        assert [m[:3] for m in got.matches] == [m[:3] for m in ref.matches]
        assert len(got.matches) == 3

    @pytest.mark.parametrize("e", [0, -50])
    def test_gradient_test_is_relative(self, e):
        # 0.3 (z + zbar) is no critical point at any scale, also where the
        # gradient is far below 1e-10
        with pytest.raises(ValueError, match="not a critical point"):
            self.scaled_well({**self.SKEW_WELL, (1, 0): 0.3, (0, 1): 0.3}, e)

    def test_distinct_hessians(self):
        # scale one well by 1.5 via |z^2-1|^2 (1 + s (z + zbar)/2) with s = 0.2
        c, s = 1 + 0.3j, 0.2
        base = {(2, 2): 1.0, (2, 0): -1.0, (0, 2): -1.0, (0, 0): 1.0}
        coeffs = {}
        for (a, b), v in base.items():
            coeffs[(a, b)] = coeffs.get((a, b), 0.0) + c * v
            coeffs[(a + 1, b)] = coeffs.get((a + 1, b), 0.0) + c * v * s / 2
            coeffs[(a, b + 1)] = coeffs.get((a, b + 1), 0.0) + c * v * s / 2
        sym = MonomialSymbol(coeffs)
        rep = multiwell_compare(sym, 0.02, wells=[1.0, -1.0], order=2, degree=10)
        d0s = sorted(abs(w.d0) for w in rep.wells)
        assert d0s[1] / d0s[0] == pytest.approx(1.5, rel=1e-10)
        assert rep.residuals.max() < 1e-3 * 0.02
        assert not rep.jordan_pairs  # distinct lattices: no degeneracy flags

    @pytest.mark.parametrize("c, hbar", [(1 + 0.3j, 0.05), (0.8 * np.exp(0.1j), 0.02), (1.1 * np.exp(0.35j), 0.03)])
    def test_jordan_pairs_match_exact_norm(self, c, hbar, monkeypatch):
        # the pairs flagged through the band's norm bounds are the pairs flagged
        # with the exact ||M||_2 (the dense matrix's largest singular value),
        # also at a gap factor that puts a gap between the bounds, where the
        # blocks' SVDs decide
        sym = MonomialSymbol({key: c * v for key, v in {(2, 2): 1, (2, 0): -1, (0, 2): -1, (0, 0): 1}.items()})

        def run(factor):
            monkeypatch.setattr(spectral, "_JORDAN_GAP", factor)
            return multiwell_compare(sym, hbar, wells=[1.0, -1.0], order=1, degree=4, n_start=128)

        rep = run(10.0)
        assert rep.jordan_pairs  # the tunnelling pairs at least
        op = assemble_toeplitz(sym, hbar, rep.spectrum.n_max_used)
        norm = sla.svdvals(op.entries)[0]
        band, _, kl = op.blocks()
        lo, hi = spectral._norm2_bounds(band, kl)
        assert lo <= norm * (1 + 1e-14) and norm <= hi * (1 + 1e-14)
        ev = rep.eigenvalues
        gaps = {(i, j): abs(ev[i] - ev[j]) for i in range(len(ev)) for j in range(i + 1, len(ev))}
        eps = np.finfo(float).eps
        between = min(g for g in gaps.values() if g >= 1e-9) / (eps * np.sqrt(lo * hi))
        for factor, report in ((10.0, rep), (between, run(between))):
            expect = [(i, j, g) for (i, j), g in gaps.items() if g < factor * eps * norm]
            assert [(i, j, g) for i, j, g, _ in report.jordan_pairs] == expect

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(0.2, 3.0), b=st.floats(-2.0, 2.0))
    def test_conjugated_coefficients_conjugate_the_report(self, a, b):
        # conjugating every coefficient of c |z^2 - 1|^2 conjugates T(f)
        # entrywise: an arbiter with no second route, so it catches a
        # conjugation slip that the lattice and the spectrum share
        def report(c):
            sym = MonomialSymbol({key: c * v for key, v in {(2, 2): 1, (2, 0): -1, (0, 2): -1, (0, 0): 1}.items()})
            return multiwell_compare(sym, 0.05, wells=[1.0, -1.0], order=2, degree=8, n_start=32)

        rep, conj = report(complex(a, b)), report(complex(a, -b))
        np.testing.assert_allclose(
            np.sort_complex(conj.eigenvalues), np.sort_complex(rep.eigenvalues.conj()), rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(np.sort(conj.residuals), np.sort(rep.residuals), rtol=1e-12, atol=0)

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(0.2, 3.0), b=st.floats(-2.0, 2.0), x=st.floats(-3.5, 3.5), y=st.floats(-3.5, 3.5))
    @example(a=1.0, b=0.3, x=-1.0, y=-0.3)  # the wells' level -(1 + 0.3i)
    def test_level_shift_shifts_the_report(self, a, b, x, y):
        # T(f + kappa) = T(f) + kappa, so the report at the wells' level kappa
        # is the report at level 0 shifted by kappa: the eigenvalues are those
        # nearest the level, not those of smallest modulus
        c, kappa = complex(a, b), complex(x, y)

        def report(shift):
            coeffs = {key: c * v for key, v in {(2, 2): 1, (2, 0): -1, (0, 2): -1, (0, 0): 1}.items()}
            coeffs[(0, 0)] += shift
            return multiwell_compare(MonomialSymbol(coeffs), 0.05, wells=[1.0, -1.0], order=2, degree=8, n_start=32)

        rep, shifted = report(0.0), report(kappa)
        tol = 1e-12 * max(1.0, abs(kappa))
        assert len(shifted.eigenvalues) == len(rep.eigenvalues) > 0
        for got, ref in ((shifted.eigenvalues, rep.eigenvalues),
                         (shifted.spectrum.eigenvalues, rep.spectrum.eigenvalues)):
            np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(ref + kappa), rtol=0, atol=tol)
        assert sorted(t[1:3] for t in shifted.matches) == sorted(t[1:3] for t in rep.matches)
        np.testing.assert_allclose(np.sort(shifted.residuals), np.sort(rep.residuals), rtol=0, atol=tol)

    def test_rejects_noncritical_well(self):
        with pytest.raises(ValueError):
            multiwell_compare(DOUBLE_WELL, 0.02, wells=[0.5])

    def test_unmatched_eigenvalue(self):
        # declaring only one of the two wells leaves each near-degenerate
        # partner without a prediction slot
        with pytest.raises(UnmatchedEigenvalue):
            multiwell_compare(DOUBLE_WELL, 0.02, wells=[1.0], order=2, degree=10)


class TestRawMatrixSpectrum:
    def test_raw_matrix_no_adaptivity(self):
        mat = np.diag([3.0, 1.0, 2.0]).astype(complex)
        spec = eigen_spectrum(from_dense(mat, 0.1), 2, 1e-10)
        assert np.allclose(spec.eigenvalues, [1.0, 2.0])
