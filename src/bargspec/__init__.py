"""Numerical laboratory for non-self-adjoint Toeplitz operators on the
Bargmann space: exact quadratic normal forms, truncated analytic-symbol
calculus, stationary-phase contour machinery, and brute-force spectral
verification (eigenvalues, pseudospectra, Bohr-Sommerfeld lattices)."""

from .bargmann import (
    MonomialSymbol,
    ToeplitzMatrix,
    assemble_toeplitz,
    inner_product_oracle,
    monomial_matrix,
    toeplitz_radial,
)
from .quadratic import (
    ComplexQuadraticForm,
    NormalFormData,
    ellipticity_check,
    exact_quadratic_spectrum,
    find_delta,
    phase_and_weights,
    reduce_quadratic,
)
from .symbols import (
    FormalSymbol,
    TaylorTable2D,
    birkhoff_normal_form,
    cohomology_solve,
    formal_norm,
    moser_normal_form,
    poisson_bracket,
    radial_average,
    sharp_inverse,
    sharp_product,
    theta_antiderivative,
)
from .contours import (
    AffineContour,
    QuadraticPhase,
    affine_contour_is_good,
    complex_sym_sqrt,
    critical_point_data,
    gaussian_expansion,
)
from .spectral import (
    PseudospectrumField,
    SpectrumResult,
    action_integral,
    analytic_pseudospectrum,
    bohr_sommerfeld_residuals,
    eigen_spectrum,
    multiwell_compare,
    resolvent_grid,
)

__version__ = "0.1.0"
