"""Shifted convolution L-values for elliptic curves of modular degree one."""

from .config import Estimate, PrecisionConfig
from .curves import EllipticCurveModel, load_registry, get_curve
from .eisenstein import enumerate_cusps, indicator_basis, infinity_indicator
from .lattice import Lattice, build_lattice
from .mockform import zhat_plus, eta_quotient
from .newform import an_coefficients, ap_point_count, eichler_integral
from .poincare import bp_coefficient, bq_coefficient
from .series import FourierSeries
from .shifted import (ShiftedConvolutionTable, d_direct, l_series_closed_form,
                      alpha_constant, hol_projection_hat)

__all__ = [
    "Estimate", "PrecisionConfig", "EllipticCurveModel", "load_registry", "get_curve",
    "enumerate_cusps", "indicator_basis", "infinity_indicator",
    "Lattice", "build_lattice",
    "zhat_plus", "eta_quotient",
    "an_coefficients", "ap_point_count", "eichler_integral",
    "bp_coefficient", "bq_coefficient",
    "FourierSeries", "ShiftedConvolutionTable", "d_direct",
    "l_series_closed_form", "alpha_constant", "hol_projection_hat",
]

__version__ = "0.1.0"
