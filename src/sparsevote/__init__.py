"""Communication-efficient distributed SGD, simulated at desk scale.

Workers compress stochastic gradients to sparse sign messages (top-K or
random-K selection, with optional error feedback); the server aggregates by
majority vote.  The package bundles the compression operators, a bit-exact
wire codec with cost accounting, the closed-form convergence bounds, and a
deterministic round-based simulator with baselines for comparison.
"""

from .aggregation import VoteResult, average_aggregate, majority_vote, participation_count
from .codec import (
    ALGORITHMS,
    Bitstream,
    CommLedger,
    FormatError,
    analytic_round_cost,
    decode_sparse_sign,
    encode_sparse_sign,
    message_bit_lengths,
)
from .compression import (
    SignBatch,
    SparseSignVector,
    ThresholdReport,
    error_feedback_step,
    rand_k_select,
    rand_k_sign,
    top_k_select,
    top_k_sign,
)
from .models import (
    Dataset,
    IdxFormatError,
    load_idx_dataset,
    partition_dataset,
    synth_classification,
)
from .rng import derive_rng, worker_rng
from .simulator import (
    ExperimentConfig,
    RoundMetrics,
    SelectionStats,
    SweepRow,
    emit_results,
    emit_sweep,
    load_results,
    resolve_k,
    run_experiment,
    selection_histogram,
    sweep,
    update_model,
)
from .theory import (
    BoundInputs,
    alpha,
    beta,
    convergence_bound_randk,
    convergence_bound_topk,
    empty_coordinate_prob,
    gamma_star,
    m_participation_pmf,
    rho_lower_bound,
    sign_flip_bound,
    sparsity_surrogate,
    vote_error_bound,
    vote_error_exact,
)

__version__ = "0.1.0"
