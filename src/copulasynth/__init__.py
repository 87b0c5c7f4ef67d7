"""Synthesize categorical micro-populations for a region known only
through marginal totals, transferring the dependence structure of a
related source sample through an empirical copula."""

__version__ = "0.1.0"

from .bayesnet import fit_parameters, learn_structure
from .bayesnet import sample as sample_bayesnet
from .dataset import (
    MarginalTable,
    MicroTable,
    Schema,
    VariableSpec,
    load_marginals_csv,
    load_micro_csv,
    load_schema,
    marginals_of,
    write_marginals_csv,
    write_micro_csv,
    write_schema,
)
from .errors import SynthesisError
from .ipf import allocate, build_seed
from .ipf import fit as fit_ipf
from .metrics import evaluate, srmse_by_size, srmse_projected
from .pipeline import (
    SynthesisConfig,
    generate_table,
    load_config,
    make_transfer_benchmark,
    run_experiment,
    run_permutation_study,
)

__all__ = [
    "__version__",
    "SynthesisError",
    "Schema",
    "VariableSpec",
    "MicroTable",
    "MarginalTable",
    "load_schema",
    "write_schema",
    "load_micro_csv",
    "write_micro_csv",
    "load_marginals_csv",
    "write_marginals_csv",
    "marginals_of",
    "SynthesisConfig",
    "load_config",
    "generate_table",
    "run_experiment",
    "run_permutation_study",
    "make_transfer_benchmark",
    "learn_structure",
    "fit_parameters",
    "sample_bayesnet",
    "build_seed",
    "fit_ipf",
    "allocate",
    "evaluate",
    "srmse_by_size",
    "srmse_projected",
]
