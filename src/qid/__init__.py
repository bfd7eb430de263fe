"""Toy QKD simulator verifying an algorithmic information-disturbance trade-off.

Alice sends an N-bit message encoded in the Z or X basis through an
eavesdropping channel splitting the system between Bob and Eve.  The
package builds a computable proxy for reconstruction complexity out of
prefix-free decoder catalogues and verifies, for a library of attacks,
that the number of cheaply reconstructible messages on the two
conjugate sides obeys the counting bound implied by the Landau-Pollak
uncertainty relation.
"""

from .attacks import (
    KINDS,
    AttackSpec,
    make_attack,
    natural_bases,
    product_attack,
    standard_attacks,
)
from .channels import (
    ProductChannel,
    QuantumChannel,
    apply_channel,
    apply_channel_to_vector,
    dense_channel,
    isometry_to_channel,
    validate_channel,
)
from .complexity import (
    CatalogueEntry,
    ComplexityProfile,
    DecoderCatalogue,
    StructuredProjector,
    build_catalogue,
    cumulative_projector,
    expectation_identity_check,
    program_projector,
    proxy_complexity,
)
from .distinguishability import (
    DistinguishableClass,
    distinguishable_partition,
    support_projector,
)
from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    QidError,
    ValidationError,
)
from .operators import (
    DECISION_TOL,
    SPECTRAL_TOL,
    STRUCTURAL_TOL,
    DensityOperator,
    Projector,
    StateReport,
    dagger,
    hermitian_eigensystem,
    operator_norm,
    partial_trace,
    permutation_matrix,
    tensor,
    validate_state,
)
from .protocol import (
    DENSE_THETA_LIMIT,
    FAMILY_BASIS,
    ProtocolInstance,
    encode,
    epr_state,
    equivalence_check,
    global_state_theta,
    joint_state,
)
from .tradeoff import (
    TradeoffReport,
    average_complexity_check,
    catalogues_for,
    conjugate_overlap_norm,
    cross_norm_bound,
    discussion_counterexample,
    landau_pollak_check,
    max_complexity_corollary,
    mutual_information,
    no_cloning_check,
    outcome_distribution,
    shannon_tradeoff_check,
    theorem_form_bound,
    tradeoff_bound,
    verify_tradeoff,
)

__version__ = "0.1.0"
