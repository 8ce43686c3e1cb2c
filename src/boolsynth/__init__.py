"""Distributed controller synthesis for networks of memoryless boolean
subsystems, from a global assume-guarantee contract."""

from .boolfunc import BoolFunc, TableTooLargeError, Valuation, VariableSet, all_valuations
from .contracts import (
    ContractPair,
    Distribution,
    DistributionGraph,
    build_distribution_graph,
    conjunctive_decomposition,
    distributions_from_graph,
    maximal_distributions,
    project_assumption,
)
from .network import (
    BooleanNetwork,
    BooleanSystem,
    Controller,
    IllPosedNetworkError,
    Interconnection,
    Link,
    classify_inputs,
    compose,
    external_inputs,
    flatten,
    is_forest,
    remove_subsystem,
    validate,
)
from .oracle import (
    BudgetExceededError,
    VerificationResult,
    brute_force_distributed,
    enumerate_bicliques_subset,
    verify_closed_loop,
)
from .parser import ExprSyntaxError, UnknownIdentifierError, parse_expr
from .synthesis import (
    SynthesisOutcome,
    TraceEntry,
    UnrealizableError,
    centralized_synthesis,
    check_realizable,
    completeness_certificate,
    distributed_synthesis,
    extract_controller,
    least_restrictive_assumption,
    rewire_to_parent_outputs,
    update_contract,
)

__version__ = "0.1.0"
