"""Toeplitz assembly against the independent quadrature oracle, and the
banded operator against the dense matrix it stands for."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargspec.bargmann import (
    MonomialSymbol,
    NoConvergence,
    QuadratureError,
    ToeplitzMatrix,
    assemble_toeplitz,
    gaussian_mean,
    inner_product_oracle,
    monomial_band_entries,
    radial_diagonal,
)

# monomials z^a zbar^b on each diagonal offset a - b of the offset sets; the
# last set has gcd 1 and an unsymmetric band
BAND_MONOMIALS = {
    "0": [(0, 0), (1, 1), (2, 2)],
    "0,+-2": [(1, 1), (2, 0), (0, 2), (3, 1)],
    "+-1,+-3": [(1, 0), (0, 1), (3, 0), (0, 3), (2, 1)],
    "0,+-3": [(0, 0), (1, 1), (3, 0), (0, 3)],
    "0,+1,-2": [(1, 1), (1, 0), (0, 2), (2, 2)],
}


@st.composite
def band_symbols(draw, hermitian=False):
    """(symbol, hbar, n) over the offset sets; hermitian adds the adjoint
    monomial conj(c) z^b zbar^a to every c z^a zbar^b."""
    monomials = BAND_MONOMIALS[draw(st.sampled_from(sorted(BAND_MONOMIALS)))]
    values = draw(st.lists(st.complex_numbers(max_magnitude=2.0), min_size=len(monomials), max_size=len(monomials)))
    coeffs: dict[tuple[int, int], complex] = {}
    for (a, b), c in zip(monomials, values):
        coeffs[(a, b)] = coeffs.get((a, b), 0.0) + c
        if hermitian:
            coeffs[(b, a)] = coeffs.get((b, a), 0.0) + np.conj(c)
    return MonomialSymbol(coeffs), draw(st.sampled_from([0.05, 0.1, 0.3])), draw(st.integers(5, 64))


def _dense_scatter(symbol, hbar, n):
    """The dense assembly the banded operator replaced: each band scattered
    into an n x n array."""
    m = np.zeros((n, n), dtype=complex)
    for (a, b), c in symbol.coeffs.items():
        vals = monomial_band_entries(a, b, hbar, n)
        k = np.arange(n)
        rows = k + a - b
        ok = (rows >= 0) & (rows < n)
        m[rows[ok], k[ok]] += c * vals[ok]
    return m


def from_dense(entries, hbar):
    """The operator of a square matrix with no symbol, its band taken by the
    dense scan `_dense_blocks`: a raw matrix for the solvers, which they
    solve once, at its own size."""
    m = np.asarray(entries, dtype=complex)
    band, _, kl = _dense_blocks(m)
    return ToeplitzMatrix(band, kl, m.shape[0], hbar)


def lam_grid(field):
    """The complex grid xs + i ys of a PseudospectrumField, lam[iy, ix]."""
    return field.xs[None, :] + 1j * field.ys[:, None]


def _dense_blocks(mat):
    """The mod-g split found by scanning the dense matrix for its nonzero
    diagonals, in the layout of `ToeplitzMatrix.blocks`."""
    n = mat.shape[0]
    rows, cols = np.nonzero(mat)
    offsets = np.unique(rows - cols)
    if not offsets.any():
        g, kl, ku = n, 0, 0
    else:
        g = int(np.gcd.reduce(offsets))
        kl, ku = max(int(offsets.max()), 0) // g, max(-int(offsets.min()), 0) // g
    m = -(-n // g)
    row = np.arange(g)[None, :, None] + g * np.arange(m)[:, None, None]
    col = row + g * (np.arange(kl + ku + 1)[None, None, :] - kl)
    inside = (row < n) & (col >= 0) & (col < n)
    band = np.where(inside, mat[np.minimum(row, n - 1), np.clip(col, 0, n - 1)], 0.0)
    return band, row[:, :, 0] >= n, kl


def test_monomial_zz_diagonal():
    # T(|z|^2) at hbar = 0.1: diag(0.1, ..., 0.5)
    m = assemble_toeplitz(MonomialSymbol({(1, 1): 1.0}), 0.1, 5)
    assert np.allclose(m.entries, np.diag([0.1, 0.2, 0.3, 0.4, 0.5]), atol=1e-15)


def test_monomial_identity():
    m = assemble_toeplitz(MonomialSymbol({(0, 0): 1.0}), 0.37, 6)
    assert np.allclose(m.entries, np.eye(6))


def test_monomial_creation_band():
    # alpha=1, beta=0: M[k+1, k] = sqrt(hbar (k+1))
    m = assemble_toeplitz(MonomialSymbol({(1, 0): 1.0}), 0.25, 4)
    sub = np.diagonal(m.entries, offset=-1)
    assert np.allclose(sub, np.sqrt(0.25 * np.arange(1, 4)))
    assert np.allclose(sub[:2], [0.5, np.sqrt(0.5)])


def test_assemble_linearity_and_trivial():
    m = assemble_toeplitz(MonomialSymbol({(1, 1): 2.0}), 0.1, 3)
    assert np.allclose(m.entries, np.diag([0.2, 0.4, 0.6]))
    zero = assemble_toeplitz(MonomialSymbol({}), 0.1, 3)
    assert np.allclose(zero.entries, 0.0)


def test_assemble_two_band_hermitian_pair():
    hbar, n = 0.2, 6
    m = assemble_toeplitz(MonomialSymbol({(2, 0): 1.0, (0, 2): 1.0}), hbar, n)
    k = np.arange(n - 2)
    vals = np.sqrt(hbar**2 * (k + 1) * (k + 2))
    assert np.allclose(np.diagonal(m.entries, -2), vals)
    assert np.allclose(np.diagonal(m.entries, 2), vals)
    assert np.allclose(np.diagonal(m.entries), 0.0)


def test_radial_profile_examples():
    assert np.allclose(radial_diagonal([0.0, 1.0], 0.1, 4), [0.1, 0.2, 0.3, 0.4])
    assert np.allclose(radial_diagonal([0.0, 0.0, 1.0], 1.0, 3), [2.0, 6.0, 12.0])
    assert np.allclose(radial_diagonal([], 0.3, 3), 0.0)


def test_radial_matches_monomial_assembly():
    # assemble({(j,j):1}) equals the radial diagonal of s^j for j <= 3
    hbar, n = 0.15, 9
    for j in range(4):
        a = assemble_toeplitz(MonomialSymbol({(j, j): 1.0}), hbar, n)
        b = np.diag(radial_diagonal([0.0] * j + [1.0], hbar, n))
        assert np.allclose(a.entries, b, atol=1e-13)


def test_oracle_unit_examples():
    assert inner_product_oracle(MonomialSymbol({(1, 1): 1.0}), 2, 2, 0.1) == pytest.approx(
        0.3, abs=1e-10
    )
    assert inner_product_oracle(MonomialSymbol({(1, 1): 1.0}), 1, 3, 0.1) == pytest.approx(
        0.0, abs=1e-12
    )
    assert inner_product_oracle(MonomialSymbol({(0, 0): 1.0}), 4, 4, 0.2) == pytest.approx(
        1.0, abs=1e-12
    )


def test_oracle_equivalence_sweep():
    # all monomials alpha+beta <= 4, all 0 <= k, l < 12, hbar in {0.05, 0.1, 0.5}
    pairs = [(a, b) for a in range(5) for b in range(5 - a)]
    worst = 0.0
    for hbar in (0.05, 0.1, 0.5):
        for a, b in pairs:
            sym = MonomialSymbol({(a, b): 1.0})
            mat = assemble_toeplitz(sym, hbar, 12).entries
            for k in range(12):
                for l in range(12):
                    got = inner_product_oracle(sym, k, l, hbar)
                    worst = max(worst, abs(got - mat[l, k]))
    assert worst <= 1e-9


def test_oracle_full_band_small():
    # exhaustive check on the band itself for a composite symbol
    sym = MonomialSymbol({(2, 1): 0.7 - 0.2j, (0, 2): 1.1j})
    hbar = 0.1
    mat = assemble_toeplitz(sym, hbar, 8).entries
    for k in range(6):
        for l in range(8):
            assert inner_product_oracle(sym, k, l, hbar) == pytest.approx(
                mat[l, k], abs=1e-10
            )


@pytest.mark.parametrize("hbar", [0.4, 0.2, 0.1, 0.05])
def test_gaussian_mean_of_exp_is_closed_form(hbar):
    # criterion 7's arbiter: the mean of e^{z + zbar} = e^{2x} under the
    # Gaussian of variance hbar/2 per axis is e^hbar
    got = gaussian_mean(lambda z: np.exp(z + np.conj(z)), hbar)
    assert abs(got - np.exp(hbar)) <= 1e-12


def test_gaussian_mean_raises_when_unsettled():
    # an integrand equal to the angle-node count never settles
    with pytest.raises(QuadratureError, match="quadrature stalled at error") as info:
        gaussian_mean(lambda z: np.full(z.shape, z.shape[1], dtype=complex), 0.1)
    assert isinstance(info.value, NoConvergence)
    value, n, gap = info.value.result
    assert (value, n, gap) == (4096, 4096, 2048)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.integers(0, 4),
    beta=st.integers(0, 4),
    n=st.integers(2, 30),
)
def test_bandedness(alpha, beta, n):
    m = assemble_toeplitz(MonomialSymbol({(alpha, beta): 1.0}), 0.2, n).entries
    rows, cols = np.nonzero(m)
    assert np.all(rows - cols == alpha - beta)


@settings(max_examples=25, deadline=None)
@given(alpha=st.integers(0, 3), beta=st.integers(0, 3))
def test_adjoint_symmetry(alpha, beta):
    a = assemble_toeplitz(MonomialSymbol({(alpha, beta): 1.0}), 0.3, 12).entries
    b = assemble_toeplitz(MonomialSymbol({(beta, alpha): 1.0}), 0.3, 12).entries
    assert np.allclose(a, b.conj().T, atol=1e-13)


def test_overflow_guard():
    with pytest.raises(ValueError, match="factorial-safe range"):
        assemble_toeplitz(MonomialSymbol({(3, 0): 1.0}), 0.1, 20_000_000)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        assemble_toeplitz(MonomialSymbol({(-1, 0): 1.0}), 0.1, 4)
    with pytest.raises(ValueError):
        assemble_toeplitz(MonomialSymbol({(1, 1): 1.0}), 1.5, 4)
    with pytest.raises(ValueError):
        assemble_toeplitz(MonomialSymbol({(1, 1): 1.0}), 0.1, 0)


def test_symbol_json_round_trip():
    sym = MonomialSymbol({(1, 1): 1 + 2j, (3, 0): -0.25})
    back = MonomialSymbol.from_json(sym.to_json())
    assert back.coeffs == sym.coeffs


def test_symbol_recenter_exact():
    sym = MonomialSymbol({(2, 2): 1.0, (2, 0): -1.0, (0, 2): -1.0, (0, 0): 1.0})
    shifted = sym.recenter(1.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = rng.normal() + 1j * rng.normal()
        assert shifted(w) == pytest.approx(sym(1.0 + w), abs=1e-12)


def test_radial_diagonal_formula():
    # D[k] = sum_j g_j hbar^j (k+j)!/k!
    got = radial_diagonal(np.array([1.0, 2.0, 3.0]), 0.5, 4)
    k = np.arange(4)
    expect = 1.0 + 2.0 * 0.5 * (k + 1) + 3.0 * 0.25 * (k + 1) * (k + 2)
    assert np.allclose(got, expect)


class TestBandedOperator:
    """The stored mod-g blocks against the dense matrix."""

    @settings(max_examples=40, deadline=None)
    @given(case=band_symbols())
    def test_entries_match_dense_scatter(self, case):
        sym, hbar, n = case
        assert np.array_equal(assemble_toeplitz(sym, hbar, n).entries, _dense_scatter(sym, hbar, n))

    @settings(max_examples=40, deadline=None)
    @given(case=band_symbols())
    def test_blocks_match_dense_scan(self, case):
        op = assemble_toeplitz(*case)
        band, pad, kl = op.blocks()
        ref_band, ref_pad, ref_kl = _dense_blocks(op.entries)
        assert kl == ref_kl and band.shape == ref_band.shape
        assert np.array_equal(band, ref_band) and np.array_equal(pad, ref_pad)

    @settings(max_examples=40, deadline=None)
    @given(case=band_symbols())
    def test_dense_constructor_round_trip(self, case):
        op = assemble_toeplitz(*case)
        back = from_dense(op.entries, op.hbar)
        assert back.dim == op.dim and np.array_equal(back.entries, op.entries)
        for a, b in zip(back.blocks(), op.blocks()):
            assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(case=band_symbols())
    def test_blocks_are_the_index_classes(self, case):
        op = assemble_toeplitz(*case)
        band, pad, kl = op.blocks()
        m, g, w = band.shape
        i, j = np.indices(op.entries.shape)
        assert np.all(op.entries[(i - j) % g != 0] == 0)  # no entry joins two classes
        for r in range(g):
            rows = np.count_nonzero(~pad[:, r])
            assert rows == len(range(r, op.dim, g)) and not pad[:rows, r].any()
            block = np.zeros((m, m), dtype=complex)
            for c in range(w):
                k = np.arange(m)
                ok = (k - kl + c >= 0) & (k - kl + c < m)
                block[k[ok], k[ok] - kl + c] = band[ok, r, c]
            assert np.array_equal(block[:rows, :rows], op.entries[r::g, r::g])
            assert not block[rows:].any() and not block[:, rows:].any()

    def test_entries_are_read_only(self):
        # the solvers read the band, so a write to the dense view must fail
        op = assemble_toeplitz(MonomialSymbol({(1, 1): 1.0}), 0.1, 6)
        with pytest.raises(ValueError, match="read-only"):
            op.entries[0, 0] = 5.0
        assert op.entries[0, 0] == op.blocks()[0][0, 0, 0] == 0.1

    def test_band_is_stored(self):
        # blocks() hands back the stored band, not a copy rebuilt per call
        op = assemble_toeplitz(MonomialSymbol({(2, 0): 1.0, (0, 2): 1.0, (1, 1): 1.0}), 0.1, 9)
        assert op.blocks()[0] is op.band and op.blocks()[0] is op.band

    def test_assembly_stays_banded_at_the_cap(self):
        # the dense 4096 x 4096 complex matrix would take 268 MB
        c = 1.0 + 0.3j
        sym = MonomialSymbol({(2, 2): c, (2, 0): -c, (0, 2): -c, (0, 0): c})
        tracemalloc.start()
        try:
            band, _, _ = assemble_toeplitz(sym, 0.02, 4096).blocks()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert band.shape == (2048, 2, 3)
        assert peak < 8 * 2**20
