"""Jensen divergences of order alpha, their metric geometry, and
distance bounds, for finite probability distributions and quantum states.

Everything here is a pure function of immutable values; concurrent use
is safe. The one value that memoizes is a ``DistanceMatrix``: it keeps
its centred eigenpairs, checks them against its entries before each
use, and two threads that both write them store the same result.
Results are deterministic for a given input and numpy build, and each
entry of a divergence matrix equals the scalar call on its pair.
"""

from .classical import (
    Distribution,
    alpha_entropy,
    alpha_norm_power,
    as_distribution,
    binary_alpha_entropy,
    check_alpha,
    kl_divergence,
    random_distribution,
    shannon_entropy,
    total_variation,
)
from .quantum import (
    DensityMatrix,
    Spectrum,
    alpha_entropy_q,
    as_density,
    ginibre_state,
    hs_distance_sq,
    is_pure,
    pure_overlap_eigenvalues,
    qubit_mixture_eigenvalues,
    random_pure_state,
    random_unitary,
    relative_entropy,
    spectrum,
    trace_distance,
    trace_exp_qubit,
    validate_density,
    von_neumann_entropy,
)
from .jensen import (
    DivergenceResult,
    WeightedFamily,
    compensation_residual,
    donald_residual,
    holevo_bound,
    jd_alpha,
    jd_alpha_general,
    jd_general,
    mixture,
    q_redundancy,
    qjd_alpha,
    qjd_alpha_general,
    qjd_general,
    redundancy,
    weighted_family,
)
from .geometry import (
    COUNTEREXAMPLE_TRIPLE,
    DistanceMatrix,
    Embedding,
    ExpConvexityReport,
    NegativeTypeError,
    NegativeTypeReport,
    as_distance_matrix,
    cayley_menger_det,
    cm_leading_sign,
    cm_sign_prediction,
    counterexample_energy,
    counterexample_numerator,
    divergence_matrix,
    embed,
    exp_convexity_check,
    menger_embeddability,
    negative_type_check,
    power_integral,
    quadruple_cm_determinant,
    s_alpha_even_derivative,
    triangle_gap,
)
from .bounds import (
    BoundReport,
    ChainBounds,
    DiagramPoints,
    bound_report,
    chain_check,
    diagram,
    diagram_to_csv,
    lower_L,
    q_bound_report,
    upper_U2,
    upper_Un,
)

__version__ = "0.1.0"
