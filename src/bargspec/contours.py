"""Desk-scale contour machinery: complex symmetric matrix square roots, the
decidable good-contour predicate for affine contours, the truncated Gaussian
expansion with its factorial tail envelope, and critical-point reduction data
for phase sums.

Branch policy (shared with the quadratic module): spectral arguments are taken
in (-pi, pi] and mapped to (-pi/2, pi/2], i.e. the principal square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, lgamma

import numpy as np

from .bargmann import NoConvergence
from .symbols import TaylorTable2D, dz, dzbar

__all__ = [
    "AffineContour",
    "QuadraticPhase",
    "SingularInput",
    "NewtonDiverged",
    "DegenerateHessian",
    "complex_sym_sqrt",
    "affine_contour_is_good",
    "gaussian_expansion",
    "critical_point_data",
]


class SingularInput(ValueError):
    pass


class NewtonDiverged(NoConvergence):
    pass


class DegenerateHessian(RuntimeError):
    pass


@dataclass(frozen=True)
class AffineContour:
    """Gamma = { A w + b : w in R^d } with A invertible."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=complex))
        b = np.atleast_1d(np.asarray(self.b, dtype=complex))
        if a.shape[0] != a.shape[1] or b.shape[0] != a.shape[0]:
            raise ValueError("A must be square and b of matching size")
        if abs(np.linalg.det(a)) < 1e-300:
            raise SingularInput("contour matrix A is singular")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def point(self, w: np.ndarray) -> np.ndarray:
        return self.a @ np.asarray(w, dtype=float) + self.b


@dataclass(frozen=True)
class QuadraticPhase:
    """F(y) = value_at_critical - (P (y - y_c))^2 with P^T P = H nondegenerate;
    H is the Hessian of y -> -F."""

    hessian: np.ndarray
    critical_point: np.ndarray
    value_at_critical: complex = 0.0

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.hessian, dtype=complex))
        yc = np.atleast_1d(np.asarray(self.critical_point, dtype=complex))
        if not np.allclose(h, h.T, atol=1e-12 * max(1.0, np.abs(h).max())):
            raise ValueError("Hessian must be complex symmetric")
        if abs(np.linalg.det(h)) < 1e-300:
            raise DegenerateHessian("phase Hessian is singular")
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "critical_point", yc)

    def __call__(self, y: np.ndarray) -> complex:
        d = np.atleast_1d(np.asarray(y, dtype=complex)) - self.critical_point
        return complex(self.value_at_critical - d @ self.hessian @ d)


def _sqrt_principal(lam: complex) -> complex:
    # argument in (-pi, pi] maps to (-pi/2, pi/2]
    if lam.imag == 0 and lam.real < 0:
        return 1j * np.sqrt(-lam.real)
    return complex(np.sqrt(lam))


def _sqrt_derivative(lam: complex, m: int) -> complex:
    """m-th derivative of the principal sqrt at lam (lam != 0)."""
    coeff = 0.5
    for i in range(1, m):
        coeff *= 0.5 - i
    return coeff * _sqrt_principal(lam) / lam**m if m > 0 else _sqrt_principal(lam)


def complex_sym_sqrt(h: np.ndarray) -> np.ndarray:
    """Symmetric P with P^2 = H for invertible complex symmetric H, built as a
    Hermite-interpolating polynomial of the principal sqrt on the spectrum.

    Eigenvalues closer than 1e-8 |H| are treated as one node with derivative
    matching, so H = I returns I exactly.
    """
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    if not np.allclose(h, h.T, atol=1e-12 * max(1.0, np.abs(h).max())):
        raise SingularInput("matrix is not complex symmetric")
    scale = max(np.abs(h).max(), 1e-300)
    lam = np.linalg.eigvals(h)
    if np.min(np.abs(lam)) < 1e-14 * scale:
        raise SingularInput("matrix is singular")

    # cluster eigenvalues into confluent interpolation nodes
    nodes: list[list[complex]] = []
    for ev in sorted(lam, key=lambda x: (x.real, x.imag)):
        for cluster in nodes:
            if abs(ev - cluster[0]) < 1e-8 * scale:
                cluster.append(ev)
                break
        else:
            nodes.append([ev])
    # repeated-node sequence and Newton divided differences with derivatives
    xs: list[complex] = []
    for cluster in nodes:
        centre = np.mean(cluster)
        xs.extend([centre] * len(cluster))
    n = len(xs)
    dd = np.zeros((n, n), dtype=complex)
    for i in range(n):
        dd[i, 0] = _sqrt_principal(xs[i])
    for j in range(1, n):
        for i in range(n - j):
            if xs[i + j] == xs[i]:
                dd[i, j] = _sqrt_derivative(xs[i], j) / factorial(j)
            else:
                dd[i, j] = (dd[i + 1, j - 1] - dd[i, j - 1]) / (xs[i + j] - xs[i])
    # Horner evaluation of the Newton form at H
    d = h.shape[0]
    p = dd[0, n - 1] * np.eye(d)
    for j in range(n - 2, -1, -1):
        p = p @ (h - xs[j] * np.eye(d)) + dd[0, j] * np.eye(d)
    return p


def affine_contour_is_good(contour: AffineContour, phase: QuadraticPhase) -> dict:
    """Good iff ||N M^{-1}|| < 1 (M + iN = P A, real/imaginary parts) and the
    critical point lies on the contour (real linear solve, residual < 1e-10)."""
    p = complex_sym_sqrt(phase.hessian)
    pa = p @ contour.a
    m, n = pa.real, pa.imag
    det_m = np.linalg.det(m)
    if abs(det_m) < 1e-13 * max(1.0, np.abs(pa).max() ** contour.dim):
        return {
            "good": False,
            "contraction": np.inf,
            "passes_through_critical": _on_contour(contour, phase.critical_point),
            "singular_m": True,
        }
    contraction = float(np.linalg.norm(n @ np.linalg.inv(m), 2))
    through = _on_contour(contour, phase.critical_point)
    return {
        "good": bool(contraction < 1.0 and through),
        "contraction": contraction,
        "passes_through_critical": through,
        "singular_m": False,
    }


def _on_contour(contour: AffineContour, y: np.ndarray) -> bool:
    """Solve A w = y - b over real w in the least-squares sense."""
    d = contour.dim
    rhs = np.concatenate([(y - contour.b).real, (y - contour.b).imag])
    mat = np.vstack([contour.a.real, contour.a.imag])
    w, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    res = np.linalg.norm(mat @ w - rhs)
    return bool(res < 1e-10 * max(1.0, np.linalg.norm(rhs)))


@dataclass
class GaussianExpansionResult:
    value: complex
    n_used: int
    n_requested: int
    tail_bound: float
    degree_too_low: bool


def gaussian_expansion(
    f: TaylorTable2D, hbar: float, rho: float, eta: float, delta: float
) -> GaussianExpansionResult:
    """Truncated expansion of int e^{-|y|^2/hbar} F(y, ybar) dy/(pi hbar):

        sum_{k < N} hbar^k / k! (d_x d_ybar)^k F(0),   N = ceil(delta min(rho-eta, eta)/hbar),

    N capped by the table degree (flagging degree_too_low).  The reported
    tail_bound is the envelope N^2 N! (hbar / min(rho-eta, eta))^N; its
    prefactor constant is unspecified, so it is reported, never asserted.
    """
    if not 0 < eta < rho:
        raise ValueError("need 0 < eta < rho")
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    width = min(rho - eta, eta)
    n_requested = int(np.ceil(delta * width / hbar))
    n_supported = f.degree // 2 + 1
    n_used = min(n_requested, n_supported)
    # (d_x d_ybar)^k F(0) = k!^2 t[k, k]
    value = 0.0 + 0.0j
    for k in range(n_used):
        value += hbar**k * factorial(k) * f.t[k, k]
    tail = float(n_requested**2 * _factorial_float(n_requested) * (hbar / width) ** n_requested)
    return GaussianExpansionResult(
        value=complex(value),
        n_used=n_used,
        n_requested=n_requested,
        tail_bound=tail,
        degree_too_low=n_used < n_requested,
    )


def _factorial_float(n: int) -> float:
    return float(np.exp(lgamma(n + 1)))


_NEWTON_STEPS = 50


def critical_point_data(phi_sum: TaylorTable2D) -> dict:
    """Newton search from the origin for the critical point of the two-slot
    phase F(z, vbar), to gradient norm 1e-12 within _NEWTON_STEPS steps,
    plus the stationary-phase normalisation factor

        s(0,0) = (-det Hess F(crit))^{-1/2}   (principal branch).
    """
    fz = dz(phi_sum)
    fv = dzbar(phi_sum)
    fzz = dz(fz)
    fzv = dzbar(fz)
    fvv = dzbar(fv)

    zc, vc = 0.0 + 0.0j, 0.0 + 0.0j
    for _ in range(_NEWTON_STEPS):
        grad = np.array([fz(zc, vc), fv(zc, vc)])
        if np.linalg.norm(grad) < 1e-12:
            break
        hess = np.array(
            [[fzz(zc, vc), fzv(zc, vc)], [fzv(zc, vc), fvv(zc, vc)]]
        )
        if abs(np.linalg.det(hess)) < 1e-14:
            raise DegenerateHessian("singular Hessian during Newton iteration")
        step = np.linalg.solve(hess, grad)
        zc, vc = zc - step[0], vc - step[1]
        if not (np.isfinite(zc) and np.isfinite(vc)) or max(abs(zc), abs(vc)) > 1e6:
            raise NewtonDiverged("Newton iterate escaped")
    else:
        raise NewtonDiverged(f"no convergence within {_NEWTON_STEPS} iterations")

    hess = np.array([[fzz(zc, vc), fzv(zc, vc)], [fzv(zc, vc), fvv(zc, vc)]])
    det = np.linalg.det(hess)
    if abs(det) < 1e-14:
        raise DegenerateHessian("degenerate Hessian at the critical point")
    factor = (-det) ** (-0.5)  # principal branch
    return {
        "z_c": complex(zc),
        "v_c": complex(vc),
        "hessian_factor": complex(factor),
        "value_at_critical": complex(phi_sum(zc, vc)),
    }
