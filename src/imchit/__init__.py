"""Expected hitting-time bounds for imprecise Markov chains.

Models specify one credal polytope of transition distributions per state;
the package computes the tight lower and upper bounds on the expected
number of steps until a target set is first entered, over all transition
matrices compatible with the model.
"""

from .bench import (BenchConfig, TrialRecord, iteration_histogram,
                    random_model, run_experiment, write_csv)
from .errors import (ImcError, Infeasible, InvalidModel,
                     MaxIterationsExceeded, ReachabilityViolation,
                     SingularSystem, TooManyCombinations)
from .linsolve import HittingTimeVector
from .lp import LpSolution, minimize_row
from .model import (Constraint, Model, RowPolytopeH, RowPolytopeV,
                    StateSpace, TargetSet, ValidationIssue, ValidationReport,
                    load_model, model_from_dict, model_to_dict, save_model,
                    validate)
from .reachability import ReachabilityReport, check_reachability
from .solvers import (IterationStat, SolveReport, fixed_point_residual,
                      solve_brute, solve_policy, solve_value)
from .transition import OperatorResult, apply

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "Constraint", "HittingTimeVector", "ImcError",
    "Infeasible", "InvalidModel", "IterationStat", "LpSolution",
    "MaxIterationsExceeded",
    "Model", "OperatorResult", "ReachabilityReport",
    "ReachabilityViolation", "RowPolytopeH", "RowPolytopeV",
    "SingularSystem", "SolveReport", "StateSpace", "TargetSet",
    "TooManyCombinations", "TrialRecord",
    "ValidationIssue", "ValidationReport", "apply", "check_reachability",
    "fixed_point_residual", "iteration_histogram",
    "load_model", "minimize_row", "model_from_dict",
    "model_to_dict", "random_model", "run_experiment", "save_model",
    "solve_brute", "solve_policy", "solve_value",
    "validate", "write_csv",
]
