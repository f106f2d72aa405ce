"""Appendix-level machinery: matrix square roots, the affine good-contour
predicate, Gaussian expansions, critical-point reduction."""

from math import factorial

import numpy as np
import pytest

from bargspec import contours
from bargspec.contours import (
    AffineContour,
    DegenerateHessian,
    NewtonDiverged,
    QuadraticPhase,
    SingularInput,
    affine_contour_is_good,
    complex_sym_sqrt,
    critical_point_data,
    gaussian_expansion,
)
from bargspec.symbols import table_from_dict


class TestSqrt:
    def test_identity(self):
        assert np.array_equal(complex_sym_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        p = complex_sym_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(p, np.diag([2.0, 3.0]))

    def test_offdiagonal_branch(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = complex_sym_sqrt(h)
        expect = np.array([[(1 + 1j) / 2, (1 - 1j) / 2], [(1 - 1j) / 2, (1 + 1j) / 2]])
        assert np.allclose(p, expect, atol=1e-14)
        assert np.allclose(p @ p, h, atol=1e-14)

    def test_negative_axis_branch(self):
        p = complex_sym_sqrt(np.array([[-4.0]]))
        assert p[0, 0] == pytest.approx(2j)

    def test_repeated_eigenvalues(self):
        h = 2.5 * np.eye(4)
        assert np.allclose(complex_sym_sqrt(h), np.sqrt(2.5) * np.eye(4))

    def test_random_corpus(self):
        rng = np.random.default_rng(0)
        done = 0
        while done < 100:
            d = int(rng.integers(1, 5))
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = 0.5 * (h + h.T)
            if abs(np.linalg.det(h)) < 1e-4:
                continue
            p = complex_sym_sqrt(h)
            assert np.abs(p @ p - h).max() <= 1e-12 * np.abs(h).max()
            assert np.abs(p - p.T).max() <= 1e-12 * np.abs(p).max()
            done += 1

    def test_rejects_singular(self):
        with pytest.raises(SingularInput):
            complex_sym_sqrt(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(SingularInput):
            complex_sym_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestContourPredicate:
    PH = QuadraticPhase(np.array([[1.0]]), np.array([0.0]))

    def test_real_axis(self):
        r = affine_contour_is_good(AffineContour([[1.0]], [0.0]), self.PH)
        assert r["good"] and r["contraction"] == 0.0

    def test_imaginary_axis(self):
        r = affine_contour_is_good(AffineContour([[1j]], [0.0]), self.PH)
        assert not r["good"] and r["contraction"] == np.inf and r["singular_m"]

    def test_rotated_axis(self):
        r = affine_contour_is_good(
            AffineContour([[np.exp(1j * np.pi / 8)]], [0.0]), self.PH
        )
        assert r["good"]
        assert r["contraction"] == pytest.approx(np.tan(np.pi / 8), abs=1e-12)

    def test_missing_critical_point(self):
        ph = QuadraticPhase(np.array([[1.0]]), np.array([0.5j]))
        r = affine_contour_is_good(AffineContour([[1.0]], [0.0]), ph)
        assert not r["good"] and not r["passes_through_critical"]
        r2 = affine_contour_is_good(AffineContour([[1.0]], [0.5j]), ph)
        assert r2["good"] and r2["passes_through_critical"]

    def test_good_implies_sampled_decay(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 25:
            d = int(rng.integers(1, 4))
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = 0.5 * (h + h.T) + 0.6 * np.eye(d)
            if abs(np.linalg.det(h)) < 1e-6:
                continue
            yc = 0.05 * (rng.normal(size=d) + 1j * rng.normal(size=d))
            ph = QuadraticPhase(h, yc)
            a = rng.normal(size=(d, d)) + 0.3j * rng.normal(size=(d, d))
            if abs(np.linalg.det(a)) < 1e-6:
                continue
            verdict = affine_contour_is_good(AffineContour(a, yc), ph)
            if not verdict["good"]:
                continue
            worst = -np.inf
            for _ in range(400):
                w = rng.normal(size=d) * rng.choice([0.5, 2.0])
                y = a @ w + yc
                dist = np.linalg.norm(y - yc)
                if dist < 0.1:
                    continue
                worst = max(worst, (ph(y) - ph(yc)).real / dist**2)
            assert worst < 0
            checked += 1


class TestGaussianExpansion:
    def test_quadratic_moment(self):
        res = gaussian_expansion(table_from_dict({(1, 1): 1.0}, 4), 0.1, 1.0, 0.5, 0.9)
        assert res.value == pytest.approx(0.1)

    def test_constant(self):
        res = gaussian_expansion(table_from_dict({(0, 0): 1.0}, 2), 0.1, 1.0, 0.5, 0.9)
        assert res.value == pytest.approx(1.0)

    def test_exponential_example(self):
        deg = 14
        coeffs = {
            (a, b): 1.0 / (factorial(a) * factorial(b))
            for a in range(deg + 1)
            for b in range(deg + 1 - a)
        }
        tab = table_from_dict(coeffs, deg)
        res = gaussian_expansion(tab, 0.2, 6.0, 3.0, 0.9)
        assert res.degree_too_low  # N request far above the table degree
        assert res.value == pytest.approx(np.exp(0.2), abs=1e-8)

    def test_rotation_covariance(self):
        # F(y, ybar) -> F(e^{i t} y, e^{-i t} ybar) leaves the value unchanged
        rng = np.random.default_rng(2)
        t = np.zeros((7, 7), dtype=complex)
        for a in range(7):
            for b in range(7 - a):
                t[a, b] = rng.normal() + 1j * rng.normal()
        from bargspec.symbols import TaylorTable2D

        base = TaylorTable2D(t)
        v0 = gaussian_expansion(base, 0.15, 1.0, 0.5, 0.9).value
        for theta in (0.3, 1.2):
            rot = t * np.exp(1j * theta) ** np.arange(7)[:, None]
            rot = rot * np.exp(-1j * theta) ** np.arange(7)[None, :]
            v1 = gaussian_expansion(TaylorTable2D(rot), 0.15, 1.0, 0.5, 0.9).value
            assert v1 == pytest.approx(v0, rel=1e-13)

    def test_tail_bound_reported(self):
        res = gaussian_expansion(table_from_dict({(1, 1): 1.0}, 4), 0.05, 1.0, 0.5, 0.5)
        assert res.tail_bound > 0
        assert res.n_requested == int(np.ceil(0.5 * 0.5 / 0.05))

    def test_parameter_validation(self):
        tab = table_from_dict({(0, 0): 1.0}, 2)
        with pytest.raises(ValueError):
            gaussian_expansion(tab, 0.1, 0.5, 0.7, 0.9)
        with pytest.raises(ValueError):
            gaussian_expansion(tab, 0.1, 1.0, 0.5, 1.5)


class TestCriticalPoint:
    def test_normal_form_phase(self):
        res = critical_point_data(table_from_dict({(1, 1): -1.0}, 4))
        assert res["z_c"] == 0.0 and res["v_c"] == 0.0
        assert res["hessian_factor"] == pytest.approx(1.0)

    def test_constant_shift(self):
        res = critical_point_data(table_from_dict({(1, 1): -1.0, (0, 0): 0.3j}, 4))
        assert res["z_c"] == pytest.approx(0.0)
        assert res["value_at_critical"] == pytest.approx(0.3j)

    def test_shifted_critical_point(self):
        tab = table_from_dict({(1, 1): -1.0, (1, 0): 0.2, (0, 1): 0.1, (0, 0): -0.02}, 4)
        res = critical_point_data(tab)
        assert res["z_c"] == pytest.approx(0.1)
        assert res["v_c"] == pytest.approx(0.2)
        assert res["hessian_factor"] == pytest.approx(1.0)
        assert res["value_at_critical"] == pytest.approx(0.0, abs=1e-14)

    def test_newton_step_cap(self, monkeypatch):
        # one Newton step lands on the critical point, but the cap leaves no
        # step to see the gradient vanish there
        monkeypatch.setattr(contours, "_NEWTON_STEPS", 1)
        tab = table_from_dict({(1, 1): -1.0, (1, 0): 0.2, (0, 1): 0.1, (0, 0): -0.02}, 4)
        with pytest.raises(NewtonDiverged, match="within 1 iterations"):
            critical_point_data(tab)

    def test_nonquadratic_newton(self):
        # F = -z v + 0.3 z^2 v^2: Newton from 0 stays at the origin critical point
        tab = table_from_dict({(1, 1): -1.0, (2, 2): 0.3}, 4)
        res = critical_point_data(tab)
        assert abs(res["z_c"]) < 1e-12 and abs(res["v_c"]) < 1e-12

    def test_degenerate_hessian(self):
        with pytest.raises(DegenerateHessian):
            critical_point_data(table_from_dict({(2, 0): 1.0}, 4))

    def test_newton_divergence(self):
        # gradient never vanishes: F = z + v has no critical point
        with pytest.raises((NewtonDiverged, DegenerateHessian)):
            critical_point_data(table_from_dict({(1, 0): 1.0, (0, 1): 1.0}, 4))
