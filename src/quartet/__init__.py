"""Construction, analysis, canonicalization, and optimization of small
multi-qubit pure states, centered on pair entanglement entropies."""

__version__ = "0.1.0"

from .ame import AmeDeviation, DeviationReport, ame_deviation, minimize_deviation
from .ascent import (
    OptReport,
    maximize,
    stationarity_report,
)
from .canonical import CanonicalForm, canonicalize
from .catalog import cat_state, make, tags
from .core import (
    DomainError,
    PureState,
    ShapeError,
    apply_local_unitary,
    from_terms,
    partial_trace,
    random_state,
    random_unitary,
    state_from_json,
    state_to_json,
    unitary_from_first_column,
)
from .entropy import EntropyProfile, pair_entropies, profile
from .measure import (
    MeasurementBasis,
    MeasurementOutcome,
    computational_basis,
    equivariance_overlap,
    plus_minus_basis,
    random_basis,
    robustness_report,
)
