"""Learning HL policies from demonstrations by goal regression.

Pipeline: abstract each LL demo into an HL trace (labelling every step and
explaining each change of the label by a ground action), walk the trace's
actions backwards regressing the achieved goal through each, and lift the
resulting ground condition-action pairs into first-order rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List

from .core import (BisonError, Domain, GroundAction, HLState, ObjectTable,
                   ground_outcomes, ground_pre)
from .formats import Demo
from .rules import HLPolicy, Rule, StateIndex, applicable_actions


class AbstractionGapError(BisonError):
    """No modelled action explains an observed abstraction change."""

    def __init__(self, message: str, step: int):
        super().__init__("%s (LL step %d)" % (message, step))
        self.step = step


@dataclass
class HLTrace:
    goal: frozenset
    actions: list  # list[GroundAction]
    table: ObjectTable
    step_states: list  # list[HLState], the label of every LL step
    changes: list  # list[int], the LL step whose label actions[k] explains

    @property
    def goal_reached(self) -> bool:
        return self.goal <= self.step_states[-1]

    @property
    def achieved(self) -> frozenset:
        return self.goal & self.step_states[-1]


def _explain_change(domain: Domain, prev: HLState, nxt: HLState, table: ObjectTable):
    """Least action (by schema id, then arguments) applicable in prev with an
    outcome giving nxt = (prev \\ del) ∪ add, or None."""
    idx = StateIndex(prev, frozenset())
    explaining = [act for act in applicable_actions(domain, idx, len(table))
                  if any((prev - dele) | add == nxt
                         for add, dele in ground_outcomes(domain, act))]
    return min(explaining, default=None)


def extract_hl_trace(demo: Demo, domain: Domain, labeller: Callable) -> HLTrace:
    """Abstract an LL demo and explain each change of its label.

    ``labeller(step, table)`` must return the HL state of one demo step,
    interning object names into ``table``.
    """
    if not demo.steps:
        raise BisonError("cannot abstract an empty demo")
    table = ObjectTable(demo.steps[0].objects)
    states = [labeller(s, table) for s in demo.steps]
    goal = frozenset(domain.ground_fact(g[0], g[1:], table) for g in demo.goal)
    changes = [i for i in range(1, len(states)) if states[i] != states[i - 1]]
    actions = []
    for i in changes:
        act = _explain_change(domain, states[i - 1], states[i], table)
        if act is None:
            raise AbstractionGapError("unexplained abstraction change", i)
        actions.append(act)
    return HLTrace(goal, actions, table, states, changes)


def regress(domain: Domain, goal: frozenset, action: GroundAction) -> List[frozenset]:
    """Pre-images of a goal set through an action, one per outcome.

    Regressable iff no outcome deletes a goal fact; an empty list encodes
    non-regressable.
    """
    pre = None
    results = []
    for add, dele in ground_outcomes(domain, action):
        if dele & goal:
            return []
        if pre is None:
            pre = ground_pre(domain, action)
        results.append((goal - add) | pre)
    return results


def lift(action: GroundAction, state_cond: frozenset, goal_cond: frozenset,
         val: int) -> Rule:
    """Replace objects by fresh variables in first-occurrence order.

    Occurrence order: action arguments, then state condition facts in
    canonical fact order, then goal condition facts.
    """
    var_of = {}

    def v(obj):
        if obj not in var_of:
            var_of[obj] = len(var_of)
        return var_of[obj]

    head_args = tuple(v(o) for o in action.args)
    s_atoms = []
    for f in sorted(state_cond):
        s_atoms.append((f[0],) + tuple(v(o) for o in f[1:]))
    g_atoms = []
    for f in sorted(goal_cond):
        g_atoms.append((f[0],) + tuple(v(o) for o in f[1:]))
    return Rule(val, len(var_of), frozenset(s_atoms), frozenset(g_atoms),
                action.schema_id, head_args)


@dataclass
class LearnReport:
    demos_used: int = 0
    # (demo index, LL step of its first unexplained abstraction change) per skipped demo
    demos_skipped: list = field(default_factory=list)
    unreached_goals: int = 0
    subgoals_dropped: int = 0


def learn_hl_policy(demos: Iterable[Demo], domain: Domain, labeller: Callable,
                    subgoal_cap: int = 256, report: LearnReport = None) -> HLPolicy:
    """Algorithmic core: per-trace backward goal regression with lifting.

    The subgoal set starts from the goal atoms the trace actually achieved and
    is regressed through the actions in reverse; each regressed condition is
    lifted together with the achieved goal subset into a rule with priority
    m - j.  Non-regressable subgoals carry over unchanged.  Rules from all
    demos are unioned, duplicates merged keeping the minimum priority.  The
    ``HLPolicy`` holds each kept rule in canonical form, so the learned policy
    selects what its ``.bsp`` file selects.
    """
    rep = report if report is not None else LearnReport()
    rules = []
    for k, demo in enumerate(demos):
        try:
            trace = extract_hl_trace(demo, domain, labeller)
        except AbstractionGapError as e:
            rep.demos_skipped.append((k, e.step))
            continue
        if not trace.goal_reached:
            rep.unreached_goals += 1
        achieved = trace.achieved
        if not achieved or not trace.actions:
            rep.demos_used += 1
            continue
        m = len(trace.actions) - 1
        subgoals = [achieved]
        for j in range(m, -1, -1):
            action = trace.actions[j]
            nxt = []
            for goal_set in subgoals:
                regressed = regress(domain, goal_set, action)
                rules.extend(lift(action, cond, achieved, val=m - j) for cond in regressed)
                nxt.extend(regressed or [goal_set])  # non-regressable: carry over
            nxt = list(dict.fromkeys(nxt))  # first occurrences, in order
            if len(nxt) > subgoal_cap:
                rep.subgoals_dropped += len(nxt) - subgoal_cap
                nxt = nxt[:subgoal_cap]
            subgoals = nxt
        rep.demos_used += 1
    return HLPolicy(rules, domain)
