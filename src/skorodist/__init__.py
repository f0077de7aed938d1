"""Exact Skorohod distances on step functions, with certificates, pseudometric
families, topology-transfer checks, and the K-topology counterexample.

The package exports the library API that the README documents; every other
name stays importable from its own module."""

from .cadlag import StepFunction, TraceParseError, ValueSpaceMismatch, make_step
from .distance import (
    CertificateError,
    DistanceResult,
    TimeChange,
    bisect_distance,
    check_certificate,
    feasible,
    oracle_distance,
    skorohod_distance,
    uniform_distance,
)
from .pseudometric import (
    Coordinate,
    Discrete,
    Euclidean,
    MaxOf,
    Pseudometric,
    coordinate_family,
    euclidean_family,
    family_from_config,
)
from .topology import pushforward, t1_transfer_check, uniform_modulus

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "Coordinate",
    "Discrete",
    "DistanceResult",
    "Euclidean",
    "MaxOf",
    "Pseudometric",
    "StepFunction",
    "TimeChange",
    "TraceParseError",
    "ValueSpaceMismatch",
    "bisect_distance",
    "check_certificate",
    "coordinate_family",
    "euclidean_family",
    "family_from_config",
    "feasible",
    "make_step",
    "oracle_distance",
    "pushforward",
    "skorohod_distance",
    "t1_transfer_check",
    "uniform_distance",
    "uniform_modulus",
]
