"""Construction, analysis, canonicalization, and optimization of small
multi-qubit pure states, centered on pair entanglement entropies."""

__version__ = "0.1.0"

from .ame import AmeDeviation, DeviationReport, ReshapeMatrix, ame_deviation, minimize_deviation, reshape
from .ascent import (
    OptReport,
    entropy_gradient,
    maximize,
    stationarity_report,
)
from .canonical import CanonicalForm, best_local_vector, canonicalize, unitary_from_first_column
from .catalog import cat_state, even_permutation, make, tags
from .core import (
    DensityMatrix,
    DomainError,
    PureState,
    ShapeError,
    Spectrum,
    apply_local_unitary,
    basis_state,
    conjugate,
    eigh,
    from_terms,
    inner,
    normalize,
    partial_trace,
    random_state,
    random_unitary,
    state_from_json,
    state_to_json,
    tensor_product,
)
from .entropy import EntropyProfile, entropy, fingerprint_match, fingerprint_residual, pair_entropies, profile
from .measure import (
    MeasurementBasis,
    MeasurementOutcome,
    computational_basis,
    equivariance_overlap,
    measure,
    plus_minus_basis,
    random_basis,
    robustness_report,
)
