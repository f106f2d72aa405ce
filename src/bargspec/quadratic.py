"""Exact treatment of elliptic complex quadratic symbols.

Pipeline for f(p,q) = a p^2 + b q^2 + 2 c p q with complex a, b, c and
z = (p + iq)/sqrt(2):

  ellipticity test -> admissible rotation delta -> kappa_1 (real scaling)
  -> kappa_2 (real rotation) -> kappa_3 (complex diagonal stretch), composed
  on the holomorphic extension so that  f~ o kappa~^{-1} (z, vbar) = d0 z vbar.

The admissible rotation is closed form.  Re(e^{i theta} F) has trace
P cos(theta) + Q sin(theta) and determinant A + B cos(2 theta) + C sin(2 theta)
(`_arc_centre`), so the arc of angles where it is positive definite is centred
on atan2(C, B)/2 or that plus pi, whichever has positive trace; delta is
e^{i theta} at that centre and the proper-range test reads the closed-form
smallest eigenvalue there.  No angle is scanned.

Convention pinned by the matrix oracle: d0 is the coefficient of z*vbar in
the reduced normal form, d0 = 2 sqrt(det(delta F)) / delta with F the
coefficient matrix [[a, c], [c, b]].  (Equivalently sqrt of the determinant
of the delta-rotated Hessian matrix, divided by delta: the Hessian is 2F.)
With this d0 the exact spectrum reads

    lambda_k = hbar ( d0 (2k+1)/2 + (a+b)/2 ),   k = 0, 1, 2, ...

which reproduces T(p^2+q^2) = T(2|z|^2) = diag 2 hbar (k+1).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bargmann import MonomialSymbol, check_hbar

__all__ = [
    "ComplexQuadraticForm",
    "NormalFormData",
    "PhaseQuadratic",
    "QuadraticWeightPair",
    "NoDeltaFound",
    "PhaseConditionViolated",
    "PQ_TO_ZV",
    "ZV_TO_PQ",
    "real_map_extension",
    "ellipticity_check",
    "find_delta",
    "reduce_quadratic",
    "phase_and_weights",
    "exact_quadratic_spectrum",
]


class NoDeltaFound(ValueError):
    """No rotation delta makes Re(delta f) positive definite."""


class PhaseConditionViolated(ValueError):
    """|b/d| >= 1 for the composed map: no phase function exists."""


# z = (p + iq)/sqrt(2), vbar = (p - iq)/sqrt(2): (z, vbar)^T = C (p, q)^T
PQ_TO_ZV = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / np.sqrt(2.0)
ZV_TO_PQ = np.linalg.inv(PQ_TO_ZV)


def real_map_extension(kappa: np.ndarray) -> np.ndarray:
    """Holomorphic extension of a real linear map of (p, q) to (z, vbar)."""
    return PQ_TO_ZV @ np.asarray(kappa, dtype=complex) @ ZV_TO_PQ


@dataclass(frozen=True)
class ComplexQuadraticForm:
    """f(p, q) = a p^2 + b q^2 + 2 c p q with complex coefficients."""

    a: complex
    b: complex
    c: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.c], [self.c, self.b]])

    @property
    def det_f(self) -> complex:
        return self.a * self.b - self.c**2

    @property
    def tr_f(self) -> complex:
        return self.a + self.b

    def __call__(self, p: float, q: float) -> complex:
        return self.a * p**2 + self.b * q**2 + 2 * self.c * p * q

    def scaled(self, t: complex) -> "ComplexQuadraticForm":
        return ComplexQuadraticForm(t * self.a, t * self.b, t * self.c)

    def extension(self, z: complex, vbar: complex) -> complex:
        """f~(z, vbar): evaluate on the complexification via p, q."""
        p = (z + vbar) / np.sqrt(2.0)
        q = -1j * (z - vbar) / np.sqrt(2.0)
        return self(p, q)

    def to_symbol(self) -> MonomialSymbol:
        """Rewrite in z, zbar monomials (p^2+q^2 = 2 z zbar, etc.)."""
        a, b, c = self.a, self.b, self.c
        return MonomialSymbol(
            {
                (2, 0): (a - b) / 2 - 1j * c,
                (1, 1): a + b,
                (0, 2): (a - b) / 2 + 1j * c,
            }
        )

    @classmethod
    def from_zv_coefficients(cls, t20: complex, t11: complex, t02: complex):
        """Inverse of to_symbol: quadratic t20 z^2 + t11 z zbar + t02 zbar^2."""
        a = (t20 + t02 + t11) / 2
        b = (t11 - t20 - t02) / 2
        c = 1j * (t20 - t02) / 2
        return cls(a, b, c)


@dataclass(frozen=True)
class PhaseQuadratic:
    """phi(x, vbar) = (-c/2d) x^2 + (1/d) x vbar + (b/2d) vbar^2 for the
    composed map [[a, b], [c, d]] acting on (z, vbar)."""

    coeff_x2: complex
    coeff_xv: complex
    coeff_v2: complex
    b_over_d: complex

    def __call__(self, x: complex, vbar: complex) -> complex:
        return self.coeff_x2 * x**2 + self.coeff_xv * x * vbar + self.coeff_v2 * vbar**2


@dataclass(frozen=True)
class QuadraticWeightPair:
    """(r + ij)^2 = zeta/|zeta|; W is the transformed weight of 0."""

    r: float
    j: float

    def w_matrix(self) -> np.ndarray:
        r, j = self.r, self.j
        return np.array([[(r - 1) / r, j / r], [j / r, (r - 1) / r]])

    def w(self, x: complex) -> float:
        u, v = x.real, x.imag
        return (self.r - 1) / self.r * (u * u + v * v) + 2 * self.j / self.r * u * v

    @property
    def vanishes_to_second_order(self) -> bool:
        # W = 0 iff zeta/|zeta| = 1, i.e. r = 1, j = 0
        return abs(self.r - 1.0) < 1e-12 and abs(self.j) < 1e-12


@dataclass(frozen=True)
class NormalFormData:
    delta: complex
    kappa1: np.ndarray  # real map on (p, q)
    kappa2: np.ndarray  # real map on (p, q)
    kappa3: np.ndarray  # complex map on (z, vbar)
    zeta: complex
    Delta: float
    d0: complex  # coefficient of z vbar in the reduced form
    alpha: float
    beta: float
    gamma: float
    composed: np.ndarray  # kappa3 @ kappa2~ @ kappa1~ on (z, vbar)
    phase: PhaseQuadratic
    form: ComplexQuadraticForm


def _exponent(z: complex) -> int:
    """The e with max(|Re z|, |Im z|) in [2^(e-1), 2^e); 0 for z = 0."""
    return math.frexp(max(abs(z.real), abs(z.imag)))[1]


def _ldexp(z: complex, e: int) -> complex:
    """z 2^e, part by part: exact unless a part leaves the normal range; a
    part that overflows is infinite, with its sign."""

    def part(x: float) -> float:
        try:
            return math.ldexp(x, e)
        except OverflowError:
            return math.copysign(math.inf, x)

    return complex(part(z.real), part(z.imag))


def _lambda_min(form: ComplexQuadraticForm, theta: float) -> float:
    """Smaller eigenvalue tr/2 - sqrt(tr^2/4 - det) of
    Re(e^{i theta} F) = cos(theta) Re F - sin(theta) Im F, with the radicand
    written as the sum of squares it equals."""
    cos, sin = math.cos(theta), math.sin(theta)
    m00, m11 = cos * form.a.real - sin * form.a.imag, cos * form.b.real - sin * form.b.imag
    m01 = cos * form.c.real - sin * form.c.imag
    return (m00 + m11) / 2 - math.hypot((m00 - m11) / 2, m01)


def _arc_centre(form: ComplexQuadraticForm) -> float:
    """Centre of the arc of theta with Re(e^{i theta} F) positive definite.

    With R = Re F and I = Im F, M(theta) = cos(theta) R - sin(theta) I has
    trace P cos(theta) + Q sin(theta) (P = tr R, Q = -tr I) and determinant
    A + rho cos(2 theta - phi), where A = (det R + det I)/2, rho = hypot(B, C),
    phi = atan2(C, B), B = (det R - det I)/2 and
    C = -(R00 I11 + R11 I00 - 2 R01 I01)/2.  So det M > 0 exactly on
    phi/2 +- arccos(-A/rho)/2 (mod pi).  A real symmetric 2x2 matrix with
    positive determinant has nonzero trace, and M(theta + pi) = -M(theta), so
    the trace is positive on exactly one copy: the arc is centred on phi/2 or
    phi/2 + pi, whichever has positive trace, and is non-empty exactly when M
    is positive definite there.  Callers test that with `_lambda_min` rather
    than A > -rho, which cancels when the peak determinant is far below
    |F|^2: F = [[1, 1], [1, 1e-10 i]] has A + rho = 2.5e-21, lost in
    rho = 0.5, while the centre has smallest eigenvalue 5e-11.  (rho = 0
    leaves det M constant while the trace changes sign, so no angle works;
    atan2(0, 0) = 0 then fails the test.)  F is first divided by its largest
    entry, which moves no angle and keeps the determinants in range.  All on
    Python floats: a 2 x 2 array costs more than the arithmetic.
    """
    # numpy's abs and arctan2 on purpose: Python's abs and math.atan2 round
    # differently in the last bit, and every output of the reduction follows delta
    scale = float(np.abs([form.a, form.b, form.c]).max()) or 1.0
    (r00, i00), (r11, i11), (r01, i01) = ((x.real / scale, x.imag / scale) for x in (form.a, form.b, form.c))
    b = ((r00 * r11 - r01**2) - (i00 * i11 - i01**2)) / 2
    c = -(r00 * i11 + r11 * i00 - 2 * r01 * i01) / 2
    mid = float(np.arctan2(c, b)) / 2
    if (r00 + r11) * math.cos(mid) - (i00 + i11) * math.sin(mid) < 0:
        mid += math.pi
    return mid


def _unit_size(form: ComplexQuadraticForm) -> tuple[ComplexQuadraticForm, int]:
    """The form divided by the power of 2, 2^e, that brings its largest real
    or imaginary part into [1/2, 1), and e: exact, and it keeps every square
    of the reduction in the double range."""
    e = max(_exponent(x) for x in (form.a, form.b, form.c))
    return (ComplexQuadraticForm(*(_ldexp(x, -e) for x in (form.a, form.b, form.c))) if e else form), e


def _unit_conditions(unit: ComplexQuadraticForm) -> tuple[bool, complex, float, float]:
    """(elliptic, E) of a form of unit size (`_unit_size`), as
    `ellipticity_check` defines them, and the centre of the admissible arc
    (`_arc_centre`) with the smallest eigenvalue there (`_lambda_min`), from
    which range_proper and delta are read."""
    a, b, c = unit.a, unit.b, unit.c  # explicit: np.linalg.det loses |log det| ulps
    re_det, im_det = a.real * b.real - c.real**2, a.imag * b.imag - c.imag**2
    disc = unit.det_f.imag ** 2 - 4.0 * re_det * im_det
    # the terms of disc in absolute value bound its rounding
    cross = abs(a.real * b.imag) + abs(b.real * a.imag) + 2 * abs(c.real * c.imag)
    scale = cross**2 + 4 * (abs(a.real * b.real) + c.real**2) * (abs(a.imag * b.imag) + c.imag**2)
    real_value = abs(disc) <= 32 * sys.float_info.epsilon * scale + sys.float_info.min
    value = re_det + im_det + 1j * (0.0 if real_value else math.sqrt(abs(disc)))
    mid = _arc_centre(unit)
    return not (real_value and value.real <= 0.0), value, mid, _lambda_min(unit, mid)


def ellipticity_check(form: ComplexQuadraticForm) -> dict:
    """Evaluate the ellipticity condition and the proper-range condition.

    condition_value E = det(Re f) + det(Im f) + i sqrt(|Im(det f)^2
    - 4 det(Re f) det(Im f)|); elliptic iff E is not in (-inf, 0].  The
    discriminant cancels exactly for e^{i theta}(p^2 - q^2), and the root would
    blow its rounding up to sqrt(eps): within 32 eps of its terms' magnitudes,
    or below the underflow threshold, it counts as zero.
    range_proper: some delta on the circle makes Re(delta f) positive
    semidefinite.  det Re(e^{i theta} f) is largest at the centre of the
    admissible arc (`_arc_centre`), also when the arc is empty, so the test
    is the closed-form smallest eigenvalue there against -1e-14.
    Both are computed for the form divided by the power of 2, 2^e, that
    brings its largest real or imaginary part into [1/2, 1), by the test
    `reduce_quadratic` makes, so that no square overflows and the answer
    does not depend on the size of the form; E is multiplied back by 2^(2e).
    """
    unit, e = _unit_size(form)
    elliptic, value, _, lam = _unit_conditions(unit)
    return {"elliptic": elliptic, "range_proper": lam > -1e-14, "condition_value": _ldexp(value, 2 * e)}


def _delta_at(mid: float, lam: float) -> complex:
    """e^{i mid}, the delta at the arc centre mid, whose smallest eigenvalue
    is lam; raises NoDeltaFound unless lam > 0."""
    if lam <= 0:
        raise NoDeltaFound("no rotation makes Re(delta f) positive definite")
    return complex(math.cos(mid), math.sin(mid))


def find_delta(form: ComplexQuadraticForm) -> complex:
    """Unit complex delta with Re(delta f) positive definite, chosen at the
    midpoint of the admissible angle arc, in closed form (`_arc_centre`)."""
    mid = _arc_centre(form)
    return _delta_at(mid, _lambda_min(form, mid))


def _kappa2_matrix(alpha: float, beta: float, gamma: float, Delta: float) -> np.ndarray:
    """Rotation with kappa2 S kappa2^T = diag((a+b+D)/2, (a+b-D)/2) for
    S = [[alpha, gamma], [gamma, beta]].

    The larger eigenvalue must land on the p-axis so that the reduced form
    reads r (zeta p^2 + q^2) with the branch-normalised zeta; when gamma = 0
    this means the identity if alpha >= beta and the quarter turn otherwise.
    `eigh` returns the eigenvalues ascending with orthonormal eigenvectors,
    so for finite S the rows diagonalise it, larger eigenvalue first, up to
    roundoff of order eps |S| (checked by the tests).
    """
    if Delta == 0.0:
        return np.eye(2)
    if gamma == 0.0:
        if alpha >= beta:
            return np.eye(2)
        return np.array([[0.0, 1.0], [-1.0, 0.0]])
    s = np.array([[alpha, gamma], [gamma, beta]])
    evals, vecs = np.linalg.eigh(s)  # ascending: columns are v_minus, v_plus
    rows = np.array([vecs[:, 1], vecs[:, 0]])
    if rows[0, 0] * rows[1, 1] < rows[0, 1] * rows[1, 0]:  # det < 0
        rows[1] = -rows[1]
    return rows


def reduce_quadratic(form: ComplexQuadraticForm, delta: complex | None = None) -> NormalFormData:
    """Full reduction to d0 * z * vbar on the complexification.

    `delta` may be forced (used by the delta-invariance tests); by default the
    arc-midpoint rule picks it.  Raises NoDeltaFound when the form fails the
    ellipticity or proper-range test, or when Re(delta f) is not positive
    definite in floating point (a form within roundoff of degenerate), and
    ValueError when a quantity of the reduction leaves the double range.

    The form is first divided by the power of 2, 2^e, that brings its
    largest real or imaginary part into [1/2, 1) (`_unit_size`).  Only d0
    scales with the form, so it is multiplied back by 2^e.
    """
    unit, e = _unit_size(form)
    elliptic, _, mid, lam = _unit_conditions(unit)
    if not (elliptic and lam > -1e-14):
        raise NoDeltaFound("form fails the ellipticity / proper-range conditions")
    if delta is None:
        delta = _delta_at(mid, lam)
    else:
        delta = complex(delta / abs(delta))
        if _lambda_min(unit, np.angle(delta)) <= 0:
            raise NoDeltaFound("supplied delta does not make Re(delta f) positive definite")

    g = unit.scaled(delta)
    a0, b0, c0 = g.a.real, g.b.real, g.c.real
    ap, bp, cp = g.a.imag, g.b.imag, g.c.imag
    det0 = a0 * b0 - c0 * c0
    if not (a0 > 0 and det0 > 0):
        raise NoDeltaFound(f"Re(delta f) is not positive definite in floating point: a = {a0:.3e}, det = {det0:.3e}")
    d0_real = math.sqrt(det0)

    kappa1 = np.array(
        [
            [math.sqrt(a0 / d0_real), c0 / math.sqrt(d0_real * a0)],
            [0.0, math.sqrt(d0_real / a0)],
        ]
    )
    alpha = ap / a0
    gamma = (cp * a0 - ap * c0) / (d0_real * a0)
    beta = (a0 * bp - 2 * cp * c0 + c0**2 * ap / a0) / det0
    Delta = math.sqrt((beta - alpha) ** 2 + 4.0 * gamma**2)
    zeta = (1 + 1j * (beta + alpha + Delta) / 2) / (1 + 1j * (beta + alpha - Delta) / 2)
    if not (all(map(math.isfinite, (d0_real, alpha, beta, gamma, Delta))) and cmath.isfinite(zeta)):
        raise ValueError(f"the reduction of {form} leaves the double range")
    kappa2 = _kappa2_matrix(alpha, beta, gamma, Delta)
    # principal root of a finite zeta != 0 (|1 + i x| >= 1): |arg w| <= pi/4, so Re w > 0
    w = zeta ** 0.25
    kappa3 = 0.5 * np.array([[w + 1 / w, w - 1 / w], [w - 1 / w, w + 1 / w]])

    composed = kappa3 @ real_map_extension(kappa2) @ real_map_extension(kappa1)
    # normal-form coefficient for delta*f is 2 r sqrt(zeta) = 2 sqrt(det(delta F));
    # dividing by delta gives the coefficient for f itself
    r_val = d0_real * (1 + 1j * (beta + alpha - Delta) / 2)
    d0 = 2.0 * r_val * np.sqrt(zeta) / delta
    d0 = _ldexp(d0, e)
    if not np.isfinite(d0):
        raise ValueError(f"the reduction of {form} gives d0 outside the double range")

    A, B = composed[0, 0], composed[0, 1]
    C, D = composed[1, 0], composed[1, 1]
    if D == 0:
        raise PhaseConditionViolated("composed map has d = 0: no associated phase")
    phase = PhaseQuadratic(
        coeff_x2=-C / (2 * D),
        coeff_xv=1 / D,
        coeff_v2=B / (2 * D),
        b_over_d=B / D,
    )

    return NormalFormData(
        delta=delta,
        kappa1=kappa1,
        kappa2=kappa2,
        kappa3=kappa3,
        zeta=complex(zeta),
        Delta=Delta,
        d0=complex(d0),
        alpha=float(alpha),
        beta=float(beta),
        gamma=float(gamma),
        composed=composed,
        phase=phase,
        form=form,
    )


def phase_and_weights(nf: NormalFormData) -> tuple[PhaseQuadratic, QuadraticWeightPair]:
    """Phase function data and the transformed-weight pair of Theorem-level
    formulas: (r + ij)^2 = zeta/|zeta|, W = (r-1)/r |x|^2 + (2j/r) Re x Im x.

    Raises PhaseConditionViolated when |b/d| >= 1.  r > 0 needs no check:
    `reduce_quadratic` returns a finite zeta != 0, and the principal square
    root of zeta/|zeta| has r >= cos(pi/2) > 0 in floating point."""
    if abs(nf.phase.b_over_d) >= 1.0:
        raise PhaseConditionViolated(
            f"|b/d| = {abs(nf.phase.b_over_d):.6f} >= 1: phase condition fails"
        )
    root = (nf.zeta / abs(nf.zeta)) ** 0.5
    pair = QuadraticWeightPair(r=float(root.real), j=float(root.imag))
    return nf.phase, pair


def exact_quadratic_spectrum(
    form: ComplexQuadraticForm, hbar: float, count: int, delta: complex | None = None
) -> np.ndarray:
    """lambda_k = hbar (d0 (2k+1)/2 + tr f / 2), k = 0..count-1."""
    hbar = check_hbar(hbar)
    nf = reduce_quadratic(form, delta=delta)
    k = np.arange(int(count))
    return hbar * (nf.d0 * (2 * k + 1) / 2.0 + form.tr_f / 2.0)
