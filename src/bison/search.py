"""Internal HL planners used by the baselines.

``find_plan``: greedy best-first search with a goal-count heuristic on the
all-outcomes determinisation (every nondeterministic outcome becomes its own
deterministic action).  ``find_policy``: depth-bounded AND-OR search with
memoization returning an explicit state → action ``dict`` keyed by frozenset
HL states (weak/acyclic policies; the replanning executors compensate for
uncovered states).

Both searches count unmet goal facts incrementally: a successor's count is
its parent's plus ``_goal_delta`` of the outcome's goal effects.  Successor
states are materialized lazily at expansion to keep memory bounded by the
closed set.  ``find_policy`` builds one canonically sorted ``StateIndex`` per
expanded state, since its enumeration order decides which action is tried
first.  Its lookahead moves that index to each successor and back, and joins
there from the goal side: one compiled plan per (schema, outcome, goal-
predicate add atom) matches the precondition against the state and the atom
against the unmet goals.  An outcome can lower the count only by adding an
unmet goal fact, so these joins find every grandchild below its successor's
count, and nothing else is enumerated.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass
from typing import Optional

from .core import HLProblem, HLState, ground_outcomes, instantiate
from .rules import (StateIndex, _compile_plan, _goal_delta, _matches,
                    applicable_actions, fill_free)

DEFAULT_NODE_BUDGET = 10 ** 6
GENERATED_CAP = 2 * 10 ** 6


@dataclass
class Plan:
    actions: list  # list[GroundAction]
    outcomes: list  # chosen outcome index per action (determinisation witness)

    def __len__(self):
        return len(self.actions)


@dataclass
class SearchStats:
    status: str = "solved"  # solved | exhausted | budget | timeout
    expanded: int = 0
    generated: int = 0
    seconds: float = 0.0


def find_plan(problem: HLProblem, node_budget: int = DEFAULT_NODE_BUDGET,
              deadline: Optional[float] = None,
              stats: SearchStats = None) -> Optional[Plan]:
    """Greedy best-first plan search; None on failure, budget exhaustion or
    a passed ``deadline`` (a ``time.perf_counter()`` value)."""
    st = stats if stats is not None else SearchStats()
    t0 = time.perf_counter()
    domain, goal = problem.domain, problem.goal
    n_obj = len(problem.objects)
    init = frozenset(problem.init)
    # frontier entries: (h, seq, parent_state, action, outcome_idx); the root
    # is (h, 0, init, None, -1).  States materialize at pop time, grounding the
    # outcome again: its two fact sets kept per entry would add about as much
    # again to a frontier that at blocks n=500 stops at 2,000,488 entries and
    # 698 MB peak RSS.
    frontier = [(len(goal - init), 0, init, None, -1)]
    closed = {}  # state -> (parent_state, action, outcome_idx)
    seq = 1

    def finish(status, plan=None):
        st.status = status
        st.seconds = time.perf_counter() - t0
        return plan

    def extract(state):
        acts, outs = [], []
        while True:
            parent, action, k = closed[state]
            if action is None:
                break
            acts.append(action)
            outs.append(k)
            state = parent
        acts.reverse()
        outs.reverse()
        return Plan(acts, outs)

    while frontier:
        if st.expanded >= node_budget or st.generated >= GENERATED_CAP:
            return finish("budget")
        if deadline is not None and time.perf_counter() > deadline:
            return finish("timeout")
        h, _, parent, action, k = heapq.heappop(frontier)
        if action is None:
            state = parent
        else:
            outs = list(ground_outcomes(domain, action))
            add, dele = outs[k]
            state = (parent - dele) | add
        if state in closed:
            continue
        closed[state] = (parent, action, k)
        if goal <= state:
            return finish("solved", extract(state))
        st.expanded += 1
        idx = StateIndex(state, goal)
        for act in applicable_actions(domain, idx, n_obj):
            for j, (add, dele) in enumerate(ground_outcomes(domain, act)):
                h2 = h + _goal_delta(add, dele, goal, state)
                heapq.heappush(frontier, (h2, seq, state, act, j))
                seq += 1
                st.generated += 1
    return finish("exhausted")


# ---------------------------------------------------------------------------
# AND-OR policy search
# ---------------------------------------------------------------------------

def default_depth_cap(problem: HLProblem) -> int:
    return max(1, 4 * max(1, len(problem.goal)) * max(1, len(problem.objects)))


def find_policy(problem: HLProblem, depth_cap: int = None,
                node_budget: int = DEFAULT_NODE_BUDGET,
                deadline: Optional[float] = None,
                stats: SearchStats = None) -> Optional[dict]:
    """Depth-bounded AND-OR search with memoization: a state → action map.

    A state is solved if some applicable action has every outcome solved
    within the remaining depth.  OR-branches try actions ordered by the best
    outcome's goal count, so deterministic chains are found greedily.  Cycles
    are cut (states on the current path fail), yielding acyclic policies.
    ``deadline`` is a ``time.perf_counter()`` value, as for ``find_plan``.

    With 2 to 64 candidate actions, ties on that count are broken by a one-ply
    lookahead: the least goal count two steps ahead, or the candidate's own
    count if none is lower.  It moves the expanded state's index to each
    successor and back.  There, for each outcome that adds a goal-predicate
    fact, it joins the schema's precondition (against the state) with each
    such add atom (against the unmet goals), fills the parameters neither
    binds with every object, and evaluates that one outcome.  This is exact:
    the least count starts at the least successor count and only falls, so
    a grandchild counts lower only if its outcome adds a goal fact its
    successor lacks, and that fact is unmet there.  A pair found through two
    atoms is evaluated twice, which leaves the minimum unchanged.  A schema
    whose largest gain cannot beat the least count found so far is skipped.
    Since only the minimum is kept, the order of the joins does not matter;
    the candidates themselves come from a fresh, canonically sorted index.
    """
    if depth_cap is None:
        depth_cap = default_depth_cap(problem)
    if depth_cap <= 0:
        raise ValueError("depth_cap must be positive")
    st = stats if stats is not None else SearchStats()
    t0 = time.perf_counter()
    domain, goal = problem.domain, problem.goal
    n_obj = len(problem.objects)
    # the lookahead's joins: per schema that can gain, one plan per (gain
    # outcome, goal-predicate add atom), the precondition on the state side
    # and the atom on the unmet-goal side
    goal_preds = {f[0] for f in goal}
    gain_plans = []  # (arity, largest gain, [(plan, add_g, dele_g), ...])
    for sch in domain.schemata:
        pre = [("s", a) for a in sch.pre]
        plans, gain = [], 0
        for add, dele in sch.outcomes:
            add_g = tuple(a for a in add if a[0] in goal_preds)
            dele_g = tuple(a for a in dele if a[0] in goal_preds)
            gain = max(gain, len(add_g))
            plans.extend((_compile_plan(pre + [("g", atom)]), add_g, dele_g)
                         for atom in add_g)
        if plans:
            gain_plans.append((sch.arity, gain, plans))
    solved_action = {}
    failed_at = {}  # state -> depth it failed with (retry only with more depth)
    on_path = set()
    aborted = []

    def lookahead(idx: StateIndex, state: HLState, succs: list, look: int) -> int:
        """Least goal count over the successors' successors, or ``look`` if
        none is lower.  ``idx`` indexes ``state``; it is moved to each
        successor and back, so it ends indexing ``state`` again, though its
        buckets may enumerate in another order."""
        for s2 in succs:
            idx.apply(s2 - state, state - s2)
            g2 = len(idx.unachieved.facts)
            for arity, gain, plans in gain_plans:
                # an outcome gains at most its goal-predicate adds
                if g2 - gain >= look:
                    continue
                for plan, add_g, dele_g in plans:
                    for binding in _matches(idx, plan, [None] * arity):
                        for args in fill_free(binding, n_obj):
                            h = g2 + _goal_delta({instantiate(a, args) for a in add_g},
                                                 {instantiate(a, args) for a in dele_g},
                                                 goal, s2)
                            if h < look:
                                look = h
            idx.apply(state - s2, s2 - state)
        return look

    def solve(state: HLState, depth: int) -> bool:
        if goal <= state:
            return True
        if state in solved_action:
            return True
        if depth <= 0 or state in on_path:
            return False
        if failed_at.get(state, -1) >= depth:
            return False
        if st.expanded >= node_budget:
            aborted.append("budget")
            return False
        if deadline is not None and time.perf_counter() > deadline:
            aborted.append("timeout")
            return False
        st.expanded += 1
        on_path.add(state)
        idx = StateIndex(state, goal)
        unmet = len(idx.unachieved.facts)
        candidates = []
        for act in applicable_actions(domain, idx, n_obj):
            outs = list(ground_outcomes(domain, act))
            succs = [(state - dele) | add for add, dele in outs]
            best_h = unmet + min(_goal_delta(add, dele, goal, state) for add, dele in outs)
            candidates.append((best_h, len(candidates), act, succs))
            st.generated += len(succs)
        # one-ply lookahead tie-break keeps greedy descent off plateau actions
        # whose successors enable no improvement; sort computes the keys in
        # candidate order, each lookahead leaving idx as it found it
        look = 1 < len(candidates) <= 64
        candidates.sort(key=lambda c: (c[0], lookahead(idx, state, c[3], c[0])
                                       if look else 0, c[1]))
        ok = False
        for _, _, act, succs in candidates:
            if all(solve(s2, depth - 1) for s2 in succs):
                solved_action[state] = act
                ok = True
                break
            if aborted:
                break
        on_path.discard(state)
        if not ok:
            failed_at[state] = max(failed_at.get(state, -1), depth)
        return ok

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, depth_cap * 8 + 1000))
    try:
        ok = solve(frozenset(problem.init), depth_cap)
    finally:
        sys.setrecursionlimit(old_limit)
    st.seconds = time.perf_counter() - t0
    if not ok:
        st.status = aborted[0] if aborted else "exhausted"
        return None
    st.status = "solved"
    return solved_action
