"""Interval implicit projection networks: certificates, equilibria, and
Caputo fractional dynamics."""

from .certify import Certificate, Weights, certificate, find_weights
from .equilibrium import CertificateError, Equilibrium, picard_solve
from .fde import EnvelopeReport, IntegrationError, Trajectory, envelope_check, integrate
from .mlf import mittag_leffler, ml_envelope
from .model import (BoxSet, IntervalMatrix, SpecError, SystemSpec,
                    check_realization, sample_realization, validate_system)
from .projection import StateVector, project_box, project_implicit
from .scenarios import BUILTIN_NAMES, builtin_scenario, load_spec, serialize

__all__ = [
    "BUILTIN_NAMES", "BoxSet", "Certificate", "CertificateError",
    "EnvelopeReport", "Equilibrium", "IntegrationError", "IntervalMatrix",
    "SpecError", "StateVector", "SystemSpec", "Trajectory", "Weights",
    "builtin_scenario", "certificate", "check_realization", "envelope_check",
    "find_weights", "integrate", "load_spec", "mittag_leffler", "ml_envelope",
    "picard_solve", "project_box", "project_implicit", "sample_realization",
    "serialize", "validate_system",
]
