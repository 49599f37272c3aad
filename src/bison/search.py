"""Internal HL planners used by the baselines.

``find_plan``: greedy best-first search with a goal-count heuristic on the
all-outcomes determinisation (every nondeterministic outcome becomes its own
deterministic action).  ``find_policy``: depth-bounded AND-OR search with
memoization returning an explicit state → action ``dict`` keyed by frozenset
HL states (weak/acyclic policies; the replanning executors compensate for
uncovered states).

Both searches count unmet goal facts incrementally: a successor's count is
its parent's plus ``_goal_delta`` of the outcome's effects.  Each search call
grounds an action's outcomes once and keeps them until it returns, keyed by
the ``GroundAction``.  ``find_plan`` materializes successor states lazily at
expansion to keep memory bounded by the closed set.  ``find_policy`` builds
one canonically sorted ``StateIndex`` per expanded state, since its
enumeration order decides which action is tried first.  Candidates are tried
by their best successor count; a one-ply lookahead breaks ties, and it runs
for a group of tied candidates only when the search reaches that group.  It
moves the expanded state's index to each successor and back by the facts the
outcome changes, and joins there
from the goal side with ``rules.gain_joins``: per (schema, outcome,
goal-predicate add atom), the precondition against the state and the atom
against the unmet goals.  An outcome can lower the count only by adding an
unmet goal fact, so these joins find every grandchild below its successor's
count, and nothing else is enumerated.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .core import HLProblem, HLState, ground_outcomes
from .rules import StateIndex, applicable_actions, gain_joins

DEFAULT_NODE_BUDGET = 10 ** 6
GENERATED_CAP = 2 * 10 ** 6


@dataclass
class Plan:
    actions: list  # list[GroundAction]
    outcomes: list  # chosen outcome index per action (determinisation witness)

    def __len__(self):
        return len(self.actions)


class _Stop(Exception):
    """Unwinds ``find_policy`` at its budget or deadline; args: the status."""


@dataclass
class SearchStats:
    status: str = "solved"  # solved | exhausted | budget | timeout
    expanded: int = 0
    generated: int = 0


def _goal_delta(add, dele, goal: frozenset, state) -> int:
    """Change in the unmet goal count when ground fact sets ``add`` and
    ``dele`` are applied to ``state``: ``|goal - state'| - |goal - state|``
    for ``state' = (state - dele) | add``.

    A ground outcome may add and delete the same fact (two lifted atoms can
    meet under a binding); it then holds afterwards, so only a deleted fact
    that is not also added counts as lost.
    """
    return (sum(1 for f in dele if f in goal and f in state and f not in add)
            - sum(1 for f in add if f in goal and f not in state))


class _Grounded(dict):
    """One search call's ground outcomes: ``GroundAction`` → its (add,
    delete) pairs in declared outcome order, grounded at first use."""

    def __init__(self, domain):
        super().__init__()
        self.domain = domain

    def __missing__(self, action):
        outs = self[action] = ground_outcomes(self.domain, action)
        return outs


def find_plan(problem: HLProblem, node_budget: int = DEFAULT_NODE_BUDGET,
              deadline: Optional[float] = None,
              stats: SearchStats = None) -> Optional[Plan]:
    """Greedy best-first plan search; None on failure, budget exhaustion or
    a passed ``deadline`` (a ``time.perf_counter()`` value)."""
    st = stats if stats is not None else SearchStats()
    domain, goal = problem.domain, problem.goal
    n_obj = len(problem.objects)
    init = frozenset(problem.init)
    # frontier entries: (h, seq, parent_state, action, outcome_idx); the root
    # is (h, 0, init, None, -1).  States materialize at pop time from the
    # outcome grounded when the entry was pushed; an entry holds only the
    # action, since many entries share one, so the memo adds one pair of fact
    # sets per distinct action, not per entry.
    frontier = [(len(goal - init), 0, init, None, -1)]
    closed = {}  # state -> (parent_state, action, outcome_idx)
    grounded = _Grounded(domain)
    seq = 1

    def finish(status, plan=None):
        st.status = status
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
            add, dele = grounded[action][k]
            state = (parent - dele) | add
        if state in closed:
            continue
        closed[state] = (parent, action, k)
        if goal <= state:
            return finish("solved", extract(state))
        st.expanded += 1
        idx = StateIndex(state, goal)
        for act in applicable_actions(domain, idx, n_obj):
            for j, (add, dele) in enumerate(grounded[act]):
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
    count if none is lower; equal lookaheads keep enumeration order.  It runs
    for the candidates of a tied count only when the search reaches them, so
    a count held by one candidate, or one never reached, costs no lookahead.
    It moves the expanded state's index to each successor and back by the
    facts the outcome adds and deletes, and there evaluates each (action, outcome) that ``rules.gain_joins`` finds
    adding an unmet goal fact.  This is exact: the least count starts at the
    least successor count and only falls, so a grandchild counts lower only
    if its outcome adds a goal fact its successor lacks, and that fact is
    unmet there.  A pair found twice leaves the minimum unchanged, and a
    schema whose largest gain cannot beat the least count found so far is
    skipped.  Since only the minimum is kept, the order of the joins does not
    matter; the candidates come from a fresh, canonically sorted index.
    """
    if depth_cap is None:
        depth_cap = default_depth_cap(problem)
    if depth_cap <= 0:
        raise ValueError("depth_cap must be positive")
    st = stats if stats is not None else SearchStats()
    domain, goal = problem.domain, problem.goal
    n_obj = len(problem.objects)
    gains = gain_joins(domain, frozenset(f[0] for f in goal))
    grounded = _Grounded(domain)
    solved_action = {}
    failed_at = {}  # state -> depth it failed with (retry only with more depth)
    on_path = set()

    def lookahead(idx: StateIndex, state: HLState, succs: list, outs: list,
                  look: int) -> int:
        """Least goal count over the successors' successors, or ``look`` if
        none is lower.  ``idx`` indexes ``state``; it is moved to each
        successor ``succs[i]`` by the facts outcome ``outs[i]`` changes and
        back, so it ends indexing ``state`` again, though its buckets may
        enumerate in another order."""
        for s2, (add1, dele1) in zip(succs, outs):
            new = add1 - state
            gone = [f for f in dele1 if f in state and f not in add1]
            idx.apply(new, gone)
            g2 = len(idx.unachieved.facts)
            for gain, schema_joins in gains:
                # an outcome gains at most its goal-predicate adds
                if g2 - gain >= look:
                    continue
                for actions, j in schema_joins:
                    for action in actions(idx, n_obj):
                        # the whole outcome: _goal_delta counts goal facts only
                        add, dele = grounded[action][j]
                        h = g2 + _goal_delta(add, dele, goal, s2)
                        if h < look:
                            look = h
            idx.apply(gone, new)
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
            raise _Stop("budget")
        if deadline is not None and time.perf_counter() > deadline:
            raise _Stop("timeout")
        st.expanded += 1
        on_path.add(state)
        idx = StateIndex(state, goal)
        unmet = len(idx.unachieved.facts)
        candidates = []
        for act in applicable_actions(domain, idx, n_obj):
            outs = grounded[act]
            succs = [(state - dele) | add for add, dele in outs]
            best_h = unmet + min(_goal_delta(add, dele, goal, state) for add, dele in outs)
            candidates.append((best_h, act, succs, outs))
            st.generated += len(succs)
        # one-ply lookahead tie-break keeps greedy descent off plateau actions
        # whose successors enable no improvement; the stable sort keeps
        # enumeration order within a count, and each lookahead leaves idx as
        # it found it, so a group ranked late ranks as it would have at once
        look = 1 < len(candidates) <= 64
        candidates.sort(key=itemgetter(0))
        for best_h, group in groupby(candidates, itemgetter(0)):
            group = list(group)
            if look and len(group) > 1:
                group.sort(key=lambda c: lookahead(idx, state, c[2], c[3], best_h))
            for _, act, succs, _ in group:
                if all(solve(s2, depth - 1) for s2 in succs):
                    solved_action[state] = act
                    on_path.discard(state)
                    return True
        on_path.discard(state)
        failed_at[state] = max(failed_at.get(state, -1), depth)
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, depth_cap * 8 + 1000))
    try:
        st.status = "solved" if solve(frozenset(problem.init), depth_cap) else "exhausted"
    except _Stop as stop:
        st.status = stop.args[0]
    finally:
        sys.setrecursionlimit(old_limit)
        solve = None  # solve refers to itself; unbinding frees the search at once
    return solved_action if st.status == "solved" else None
