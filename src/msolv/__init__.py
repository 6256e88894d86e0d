"""MicroSol contract verifier: parse, analyze participation, build local
bundles from interference invariants, and model-check guarded safety
properties with an exhaustive oracle to cross-check the proof rules."""

from .checker import (Stats, Trace, Verdict, check_compositional, check_safety,
                      check_spec, global_oracle, replay_trace, verdict_to_json)
from .errors import (BudgetExceeded, MicroSolSyntaxError, MsolvError,
                     ResourceExhausted, SpecBindingError, SpecSyntaxError,
                     TooFewUsers, UnknownFunction, ValidationError)
from .localization import (Neighbourhood, extend_neighbourhood,
                           interference_successors, local_step,
                           saturating_neighbourhood)
from .parser import parse
from .properties import (GuardedProperty, ObliviousPredicate, SpecFile,
                         SplitInvariant, check_universal, eval_guarded,
                         eval_split, parse_predicate, parse_spec,
                         trivial_invariant)
from .ptg import (PtGraph, SemanticPT, TaintSummary, build_ptg,
                  coverage_violations, semantic_pt, semantic_pt_naive,
                  taint_summary)
from .semantics import (BOTTOM, Action, BundleState, ControlState, DataDomain,
                        UserRecord, enumerate_actions, init_state, step,
                        swap_addresses)
from .validator import ContractBundle, VariableLayout, validate

__version__ = "0.1.0"


def load(source: str) -> ContractBundle:
    """Parse and validate MicroSol source text in one call."""
    return validate(parse(source))
