"""Interval implicit projection networks: certificates, equilibria, and
Caputo fractional dynamics."""

from .certify import (Certificate, Weights, certificate, comparison_system,
                      find_weights, weighted_norm)
from .equilibrium import CertificateError, Equilibrium, picard_solve, residual
from .fde import EnvelopeReport, IntegrationError, Trajectory, envelope_check, integrate
from .mlf import mittag_leffler, ml_envelope
from .model import (BoxSet, IntervalMatrix, SpecError, SystemSpec,
                    check_realization, sample_matrix, sample_realization,
                    validate_system)
from .projection import StateVector, picard_map, project_box, project_implicit, rhs
from .scenarios import BUILTIN_NAMES, builtin_scenario, load_spec, serialize

__all__ = [
    "BUILTIN_NAMES", "BoxSet", "Certificate", "CertificateError",
    "EnvelopeReport", "Equilibrium", "IntegrationError", "IntervalMatrix",
    "SpecError", "StateVector", "SystemSpec", "Trajectory", "Weights",
    "builtin_scenario", "certificate", "check_realization", "comparison_system",
    "envelope_check", "find_weights", "integrate", "load_spec", "mittag_leffler",
    "ml_envelope", "picard_map", "picard_solve", "project_box", "project_implicit",
    "residual", "rhs", "sample_matrix", "sample_realization", "serialize",
    "validate_system", "weighted_norm",
]
