"""Episode executors: the composed bilevel policy and the planner baselines.

The bilevel loop queries the HL policy at every LL step (the composition is
pointwise in the LL state), so exactly one HL query and one LL query happen
per environment step.  The rule policy answers a query from an earlier
answer when the HL state, the goal and the object count are ones it has met
in the episode, since rule selection is a pure function of those three.
Baselines follow the plan/policy bookkeeping of the replanning literature:
track a plan index, advance when the next action's precondition holds, fail
or replan when neither does.  ``Executor.ll`` alone says which LL a strategy
runs, and every LL returns the ``[x, y, grip]`` float list ``env.step`` takes.
Without a learned policy the rule strategies read ``env.builtin_policy``.
With ``record``, ``run_episode`` keeps each rendered ``formats.DemoStep`` it
acts on, with that very list as its ``action``, so a rollout is a demo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import gnn
from .core import BisonError, HLProblem, applicable
from .rules import HLPolicy, StateIndex, select_action
from .search import find_plan, find_policy

STRATEGIES = ("bison", "det_plan", "det_replan", "ndt_plan", "ndt_replan",
              "oracle", "pure_nn_stub")

LL_MODES = ("oracle", "gnn")

FAILURE_KINDS = ("none", "no_hl_action", "step_cap", "plan_broken")

PLAN_TIME_BUDGET = 30.0  # seconds per find_plan/find_policy call


@dataclass
class EpisodeResult:
    success: bool = False
    ll_steps: int = 0
    hl_actions_fired: int = 0  # number of distinct consecutive HL action segments
    replans: int = 0
    wall_time: float = 0.0
    failure_kind: str = "none"

    def fail(self, kind: str):
        assert kind in FAILURE_KINDS and kind != "none"
        self.success = False
        self.failure_kind = kind
        return self


@dataclass
class Executor:
    """Strategy plus the handles it needs.

    ll_mode: "oracle" (scripted skill) or "gnn".  The oracle strategy forces
    the scripted skill and pure_nn_stub the network, whose schema one-hot
    ``_make_ll`` zeroes before each forward pass; bison uses hl_policy or the
    env's built-in policy when None.  A strategy whose LL is the network
    needs ``gnn_params``; construction raises ``BisonError`` without them.
    """

    strategy: str
    hl_policy: Optional[HLPolicy] = None
    gnn_params: Optional[object] = None
    ll_mode: str = "oracle"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError("unknown strategy %r" % self.strategy)
        if self.ll_mode not in LL_MODES:
            raise ValueError("unknown ll_mode %r" % self.ll_mode)
        if self.ll == "gnn" and self.gnn_params is None:
            raise BisonError("strategy %s with ll_mode %s runs the GNN and needs trained "
                             "parameters (eval: --params)" % (self.strategy, self.ll_mode))

    @property
    def ll(self) -> str:
        """The LL this strategy runs: "oracle" or "gnn"."""
        return {"oracle": "oracle", "pure_nn_stub": "gnn"}.get(self.strategy, self.ll_mode)


def _make_ll(executor: Executor, env) -> Callable:
    if executor.ll == "oracle":
        return lambda lls, hla, goal, hls: env.oracle_skill(hla)
    encode, forward = gnn.encode, gnn.forward
    params, ablate = executor.gnn_params, executor.strategy == "pure_nn_stub"

    def ll(lls, hla, goal, hls):
        inp = encode(params.spec, lls, hla, goal, hls, env.table)
        if ablate:  # pure_nn_stub: the network never sees which schema runs
            inp.h_action[:] = 0.0
        return forward(params, inp).tolist()  # as a list; the env checks and clips it
    return ll


def run_episode(env, executor: Executor, step_cap: int = None,
                record: list = None) -> EpisodeResult:
    """Run one episode of the given strategy; never raises on planning failure."""
    t0 = time.perf_counter()
    lls, _ = env.reset()
    cap = step_cap if step_cap is not None else env.config.max_steps
    result = _run_loop(env, executor, lls, cap, record)
    result.wall_time = time.perf_counter() - t0
    return result


def _rule_selector(env, executor) -> Callable:
    """The rule policy (bison: hl_policy or the built-in one); None when no
    rule fires.

    Selection runs once per (state, goal, object count) the episode meets and
    its answer is kept for the episode: factory reassigns env.goal, and
    factory and gacha grow env.table, mid-episode.  The labelled state often
    flickers between a few states while a skill runs, so answers are kept for
    every key seen, not only the last one.
    """
    policy = executor.hl_policy
    if policy is None or executor.strategy == "oracle":
        policy = env.builtin_policy
    chosen = {}

    def select(hls):
        key = (hls, env.goal, len(env.table))
        if key not in chosen:
            chosen[key] = select_action(policy, StateIndex(hls, env.goal), key[2])
        return chosen[key]
    return select


def _plan_from(search: Callable, env, hls):
    """``search`` (``find_plan`` or ``find_policy``) on the problem of reaching
    env.goal from hls, stopped after PLAN_TIME_BUDGET seconds."""
    deadline = time.perf_counter() + PLAN_TIME_BUDGET
    problem = HLProblem(env.domain, env.table, frozenset(hls), frozenset(env.goal))
    return search(problem, deadline=deadline)


def _plan_cursor(env, hls) -> Optional[Callable]:
    """Plan from hls, walked by index: the next action if its precondition
    holds, else the one after it (one-step lookahead), else None (broken)."""
    plan = _plan_from(find_plan, env, hls)
    if plan is None:
        return None
    actions, domain, i = plan.actions, env.domain, 0

    def next_action(hls):
        nonlocal i
        for j in (i, i + 1):
            if j < len(actions) and applicable(domain, hls, actions[j]):
                i = j
                return actions[j]
        return None
    return next_action


def _policy_lookup(env, hls) -> Optional[Callable]:
    """AND-OR policy from hls, queried by state lookup (None when uncovered)."""
    policy = _plan_from(find_policy, env, hls)
    return None if policy is None else policy.get


def _run_loop(env, executor, lls, cap, record) -> EpisodeResult:
    """The control loop every strategy shares: one HL and one LL query per step.

    The rule selector, or a planner at the first unsolved state, is a "state
    → next action or None" callable.  None from the rule policy means no rule
    fires; from a plan or policy it means the state left what was planned,
    which fails the episode or, for the *_replan strategies, plans again.
    """
    planner = next_action = prev = None
    if executor.strategy in ("bison", "oracle", "pure_nn_stub"):
        next_action, broken_kind = _rule_selector(env, executor), "no_hl_action"
    elif executor.strategy.startswith("det"):
        planner, broken_kind = _plan_cursor, "plan_broken"
    else:
        planner, broken_kind = _policy_lookup, "no_hl_action"
    replan = executor.strategy.endswith("_replan")
    ll = _make_ll(executor, env)
    result = EpisodeResult()
    while True:
        hls = env.label(lls)
        goal = env.goal
        if goal <= hls:
            result.success = True
            if record is not None:
                lls.action = [0.0, 0.0, 0.0]
                record.append(lls)
            return result
        if result.ll_steps >= cap:
            return result.fail("step_cap")
        hla = None if next_action is None else next_action(hls)
        if hla is None:
            if next_action is not None:  # an answer broke
                if not replan:
                    return result.fail(broken_kind)
                result.replans += 1
            next_action = planner(env, hls)
            hla = None if next_action is None else next_action(hls)
            if hla is None:
                return result.fail("no_hl_action")
        if hla != prev:
            result.hl_actions_fired += 1
        prev = hla
        action = ll(lls, hla, goal, hls)
        if record is not None:
            lls.action = action
            record.append(lls)
        lls = env.step(action)
        result.ll_steps += 1
