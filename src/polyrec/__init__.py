"""Desk-scale computational machinery for simultaneous polynomial recurrence.

The package follows one pipeline: a subset of [1, N] and a family of
integer polynomials with zero constant term go in; Fourier analysis on
Z_N, exponential-sum moments, lattice Gaussian sums, and finite
recurrence searches certify which shifts P_i(n) nearly preserve the
set's density, and why.
"""

from .config import (Constants, ExperimentConfig, Tolerances, ConfigError,
                     DEFAULT_CONSTANTS, DEFAULT_TOLERANCES, load_config)
from .intset import IntegerSet, generate_set
from .zn_fourier import (ExactnessError, Spectrum, ZnFunction, balanced_function,
                         correlation, dft, ellp_norm, exact_correlation,
                         indicator, inverse_dft, lp_norm)
from .polyfam import (CoefficientMatrix, IntPolynomial, LiftResult,
                      PolynomialFamily, ShiftRange, check_difference_identity,
                      check_lift_implication, coefficient_analysis,
                      lift_construction, shift_range)
from .weyl_tarry import (GrowthProbe, TarryCount, WeylSum, count_solutions_mod,
                         growth_probe, moment_2k, tarry_count, tarry_count_poly,
                         value_range, weyl_sum, wrap_free)
from .recurrence import (DecompositionResult, ShiftReport, UniformCertificate,
                         decompose, default_schedule, error_term_census,
                         find_good_shifts, intersection_profile, main_term,
                         reference_schedule_log, uniform_certificate)
from .lattice_dioph import (AverageBoundsReport, BlockVector, GoodSet,
                            ProductLattice, SchmidtReport,
                            WeylDenominatorReport, approx_good_set_family,
                            approx_good_set_power, check_average_bounds,
                            gaussian_average, gaussian_mass,
                            nearest_integer_norm, schmidt_scan, theta,
                            weyl_denominator)
from .ergodic_lab import (FiniteMPSystem, GriesmerResult, KhintchineResult,
                          griesmer_search, khintchine_search,
                          recurrence_measure)

__version__ = "0.1.0"

__all__ = [
    "Constants", "ExperimentConfig", "Tolerances", "ConfigError",
    "DEFAULT_CONSTANTS", "DEFAULT_TOLERANCES", "load_config",
    "IntegerSet", "generate_set",
    "ExactnessError", "Spectrum", "ZnFunction", "balanced_function",
    "correlation", "dft", "ellp_norm", "exact_correlation", "indicator",
    "inverse_dft", "lp_norm",
    "CoefficientMatrix", "IntPolynomial", "LiftResult", "PolynomialFamily",
    "ShiftRange", "check_difference_identity", "check_lift_implication",
    "coefficient_analysis", "lift_construction", "shift_range",
    "GrowthProbe", "TarryCount", "WeylSum", "count_solutions_mod",
    "growth_probe", "moment_2k", "tarry_count", "tarry_count_poly",
    "value_range", "weyl_sum", "wrap_free",
    "DecompositionResult", "ShiftReport", "UniformCertificate", "decompose",
    "default_schedule", "error_term_census", "find_good_shifts",
    "intersection_profile", "main_term", "reference_schedule_log",
    "uniform_certificate",
    "AverageBoundsReport", "BlockVector", "GoodSet", "ProductLattice",
    "SchmidtReport", "WeylDenominatorReport", "approx_good_set_family",
    "approx_good_set_power", "check_average_bounds", "gaussian_average",
    "gaussian_mass", "nearest_integer_norm", "schmidt_scan", "theta",
    "weyl_denominator",
    "FiniteMPSystem", "GriesmerResult", "KhintchineResult", "griesmer_search",
    "khintchine_search", "recurrence_measure",
]
