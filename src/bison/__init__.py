"""Bilevel condition-action policies over relational abstractions.

Learn a first-order HL rule policy from demonstrations by goal regression and
lifting, clone a small GNN LL policy, and execute the composed bilevel policy
against planner baselines in desk-scale 2D environments.
"""

from .core import (ActionSchema, BisonError, Domain, GroundAction, HLProblem,
                   ObjectTable, Predicate, PreconditionError, StructuralError,
                   applicable, successors)
from .envs import (EnvConfig, builtin_policy, env_domain, generate_demos, make_env,
                   make_labeller)
from .formats import (Demo, DemoStep, ParseError, parse_domain, parse_policy,
                      parse_traces, serialize_domain, serialize_policy,
                      serialize_traces)
from .gnn import EncodingSpec, GnnParams, TrainConfig, backward, build_dataset, \
    encode, forward, load_params, save_params, train
from .learn import (AbstractionGapError, HLTrace, extract_hl_trace,
                    learn_hl_policy, lift, regress)
from .rules import (HLPolicy, NdrpReport, Rule, StateIndex, canonical_rule_str,
                    check_ndrp, match_rule, select_action, solve_hl)
from .runner import EpisodeResult, Executor, run_episode
from .search import Plan, SearchStats, find_plan, find_policy

__version__ = "0.1.0"
