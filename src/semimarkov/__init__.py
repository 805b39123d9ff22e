"""Fitting, comparison, and simulation of semi-Markov models over
categorical state sequences (with plain DTMC and multi-chain variants)."""

from . import errors, presets
from .compare import (
    ComparisonReport,
    bootstrap_group_fractions,
    compare_transition_matrices,
    kl_divergence,
    symmetric_kl,
    time_fractions,
)
from .dwell import (
    EXPONENTIAL,
    FAMILIES,
    GEV,
    GPD,
    INVERSE_GAUSSIAN,
    DwellFit,
    bic,
    cdf,
    fit_all_families,
    fit_exponential,
    fit_gev,
    fit_gpd,
    fit_inverse_gaussian,
    log_pdf,
    quantile,
    sample_dwell,
    select_family,
)
from .fitting import (
    MultiChainModel,
    SemiMarkovModel,
    TransitionCounts,
    TransitionMatrix,
    fit_dtmc,
    fit_multi_chain,
    fit_semi_markov,
    fit_semi_markov_transitions,
)
from .io import (
    CohortManifest,
    canonical_json,
    emit_histogram_csv,
    load_sequences,
    parse_label_csv,
    parse_runlength_csv,
    read_manifest,
    read_model_json,
    write_label_csv,
    write_manifest,
    write_model_json,
    write_runlength_csv,
)
from .sequences import (
    LabeledSequence,
    RunSequence,
    StateAlphabet,
    build_alphabet,
    decode_runs,
    durations_by_state,
    encode_runs,
    split_at_time,
)
from .simulate import (
    SimulationConfig,
    simulate_cohort,
    simulate_sequence,
)

__version__ = "0.1.0"
