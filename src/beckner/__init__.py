"""Numerical verification of Beckner-type inequalities for generalized
Cauchy measures, their harmonic-extension representation, and the
companion spherical inequalities."""

__version__ = "0.1.0"

from .errors import (AdmissibilityError, BecknerError, ConfigError,
                     DegenerateFit, DomainError, IllConditioned, Inconclusive,
                     NonConvergence, ParamError, UnknownCheck)
from .numerics import Estimate, MonteCarloConfig, QuadratureConfig
from .fields import DifferentiableField, affine_precompose, standard_library
from .measures import (CauchyMeasure, GaussianMeasure, HittingTimeLaw, Measure,
                       SphereMeasure, TKernel, norm_const)
from .qtm import QtmField, qtm_mc, qtm_quadrature, qtm_subordinated
from .inequalities import (BecknerRow, DeficitReport, PhiEntropySpec,
                           admissibility_check, beckner_cauchy_deficit,
                           beckner_deficit, beckner_qt_deficit,
                           gaussian_limit_probe, optimal_constant_rayleigh,
                           phi_entropy_deficit, poincare_cauchy_deficit)
from .sphere import (SphereBecknerParams, classical_beckner_deficit,
                     sphere_beckner_deficit)
