"""Metric geometry of finite-dimensional quantum states.

Fidelity, Bures and trace-norm distances on density operators; numerical
verification of the metric characterizations of zero and of the
unitary/antiunitary structure of isometries; reconstruction of the
implementing operator from a black-box isometry.
"""

from .errors import QsmError
from .maps import (
    MapDomain,
    MapKind,
    apply_map,
    oracle_map,
    reconstruct_implementer,
    unitary_conjugation,
)
from .metrics import are_orthogonal, bures_distance, fidelity, trace_distance
from .states import DensityOperator, QuantumState, RngStream, random_state, random_unitary
from .suites import SUITE_IDS, run_suite

__version__ = "0.1.0"
