"""Reasoning engine for reading conditional (in)dependencies off
covariance graphs, with a rule-based closure engine, a latent-DAG
construction, and a Gaussian determinant oracle for verification."""

from .graphs import (
    MAX_NODES,
    GraphKind,
    GraphParseError,
    LatentDag,
    MixedGraph,
    NodeSet,
    SizeLimitError,
    ancestors,
    bit,
    connectivity_components,
    format_graph,
    format_nodeset,
    is_chain_graph,
    is_forest,
    iter_nodes,
    latent_dag,
    parse_graph,
    submasks,
)
from .separation import (
    CITriple,
    PathWitness,
    all_dependencies,
    all_independencies,
    canonical_triples,
    ci_independent,
    conc_dependence_witness,
    conc_dependent,
    cov_dependence_witness,
    cov_dependent,
    sep,
)
from .closure import (
    ClosureState,
    Derivation,
    NotEstablishedError,
    explain,
    saturate,
)
from .gaussian import (
    DEFAULT_TOL,
    GaussianModel,
    ci_test,
    concentration_graph_of,
    covariance_graph_of,
    dump_model,
    nd_dimension,
    sample_markov_gaussian,
    trial_seed,
)
from .verify import (
    Report,
    faithfulness_report,
    replay_provenance,
    verify_forest_faithfulness,
    verify_latent_equivalence,
)

__version__ = "0.1.0"
