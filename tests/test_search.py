import random
import sys
from collections import deque

import pytest

from bison.core import HLProblem, ObjectTable, ground_outcomes, instantiate
from bison.envs import EnvConfig, env_domain, make_env
from bison.formats import parse_domain
from bison.rules import StateIndex, applicable_actions
from bison.search import (SearchStats, default_depth_cap,
                          find_plan, find_policy, validate_plan,
                          validate_policy)
from bison.bench import gen_blocks_hl_problem

import test_properties as props


def example1_problem():
    dom = env_domain("pickplace")
    table = ObjectTable(["obj1", "loc1", "loc2"])
    f = lambda n, *a: dom.ground_fact(n, a, table)
    init = frozenset({f("rAt", "loc1"), f("at", "obj1", "loc1"), f("free")})
    goal = frozenset({f("at", "obj1", "loc2")})
    return HLProblem(dom, table, init, goal)


def bfs_oracle(problem):
    """Independent breadth-first search over the outcome-0 determinisation."""
    from bison.rules import StateIndex
    from bison.search import applicable_actions
    start = frozenset(problem.init)
    frontier = deque([start])
    parent = {start: None}
    while frontier:
        state = frontier.popleft()
        if problem.goal <= state:
            plan = []
            while parent[state] is not None:
                state, act = parent[state]
                plan.append(act)
            return list(reversed(plan))
        idx = StateIndex(state, problem.goal)
        for act in applicable_actions(problem.domain, idx, len(problem.objects)):
            for add, dele in ground_outcomes(problem.domain, act):
                nxt = (state - dele) | add
                if nxt not in parent:
                    parent[nxt] = (state, act)
                    frontier.append(nxt)
    return None


def test_find_plan_solved_instance():
    prob = example1_problem()
    solved = HLProblem(prob.domain, prob.objects, prob.init | prob.goal, prob.goal)
    plan = find_plan(solved)
    assert plan is not None and len(plan) == 0


def test_find_plan_example1_matches_bfs_oracle():
    prob = example1_problem()
    plan = find_plan(prob)
    assert plan is not None and validate_plan(prob, plan)
    oracle = bfs_oracle(prob)
    assert len(plan.actions) == len(oracle) == 3
    names = [prob.domain.schemata[a.schema_id].name for a in plan.actions]
    assert names == ["pick", "move", "place"]
    assert plan.actions == oracle


def test_find_plan_unsolvable():
    dom = parse_domain("""
    (define (domain d) (:predicates (p ?x) (q ?x))
      (:action a :parameters (?x) :precondition (and (p ?x)) :effect (and)))""")
    table = ObjectTable(["o"])
    prob = HLProblem(dom, table, frozenset({dom.ground_fact("p", ("o",), table)}),
                     frozenset({dom.ground_fact("q", ("o",), table)}))
    stats = SearchStats()
    assert find_plan(prob, stats=stats) is None
    assert stats.status == "exhausted"


def test_find_plan_budget_exhaustion():
    prob = gen_blocks_hl_problem(12, seed=0)
    stats = SearchStats()
    plan = find_plan(prob, node_budget=3, stats=stats)
    assert plan is None and stats.status == "budget"


def test_find_policy_solved_instance():
    prob = example1_problem()
    solved = HLProblem(prob.domain, prob.objects, prob.init | prob.goal, prob.goal)
    pol = find_policy(solved)
    assert pol is not None and len(pol) == 0


def test_find_policy_deterministic_matches_plan_states():
    prob = example1_problem()
    pol = find_policy(prob)
    assert pol is not None
    assert len(pol) == 3  # one entry per non-goal state along the plan
    assert validate_policy(prob, pol)
    plan = find_plan(prob)
    state = frozenset(prob.init)
    for act in plan.actions:
        assert pol.get(state) == act
        add, dele = next(iter(ground_outcomes(prob.domain, act)))
        state = (state - dele) | add


def test_find_policy_covers_both_outcomes():
    dom = parse_domain("""
    (define (domain d) (:predicates (ready ?x) (done ?x) (retry ?x))
      (:action attempt :parameters (?x)
        :precondition (and (ready ?x))
        :effect (oneof (and (done ?x)) (and (retry ?x) (not (ready ?x)))))
      (:action reset :parameters (?x)
        :precondition (and (retry ?x))
        :effect (and (done ?x) (not (retry ?x)))))""")
    table = ObjectTable(["t"])
    f = lambda n, *a: dom.ground_fact(n, a, table)
    prob = HLProblem(dom, table, frozenset({f("ready", "t")}),
                     frozenset({f("done", "t")}))
    pol = find_policy(prob)
    assert pol is not None
    assert validate_policy(prob, pol)
    # both successor branches of the 2-outcome attempt are covered
    assert len(pol) == 2


def test_find_policy_depth_cap():
    prob = example1_problem()
    assert find_policy(prob, depth_cap=1) is None
    assert default_depth_cap(prob) >= 4


def test_deterministic_policy_iff_plan():
    # on deterministic problems find_policy succeeds exactly when find_plan does
    for n in (1, 2):
        prob = gen_blocks_hl_problem(n, seed=n)
        assert (find_plan(prob) is not None) == (find_policy(prob) is not None)
    dom = parse_domain("""
    (define (domain d) (:predicates (p ?x) (q ?x))
      (:action a :parameters (?x) :precondition (and (p ?x)) :effect (and)))""")
    table = ObjectTable(["o"])
    prob = HLProblem(dom, table, frozenset({dom.ground_fact("p", ("o",), table)}),
                     frozenset({dom.ground_fact("q", ("o",), table)}))
    assert find_plan(prob) is None and find_policy(prob) is None


# ---------------------------------------------------------------------------
# find_policy against a reference that builds every lookahead state
# ---------------------------------------------------------------------------

def reference_find_policy(problem, depth_cap, node_budget):
    """find_policy as written before its lookahead reused the parent's index:
    a fresh StateIndex per successor, and every grandchild state built in
    full.  Returns (mapping or None, stats)."""
    st = SearchStats()
    domain, goal = problem.domain, problem.goal
    n_obj = len(problem.objects)
    solved_action, failed_at, on_path, aborted = {}, {}, set(), []

    def solve(state, depth):
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
        st.expanded += 1
        on_path.add(state)
        idx = StateIndex(state, goal)
        candidates = []
        for act in applicable_actions(domain, idx, n_obj):
            succs = [(state - dele) | add for add, dele in ground_outcomes(domain, act)]
            best_h = min(props.goal_count(s2, goal) for s2 in succs)
            candidates.append((best_h, len(candidates), act, succs))
            st.generated += len(succs)
        if 1 < len(candidates) <= 64:
            ranked = []
            for best_h, i, act, succs in candidates:
                look = best_h
                for s2 in succs:
                    idx2 = StateIndex(s2, goal)
                    for a2 in applicable_actions(domain, idx2, n_obj):
                        for add2, dele2 in ground_outcomes(domain, a2):
                            look = min(look, props.goal_count((s2 - dele2) | add2,
                                                              goal))
                ranked.append((best_h, look, i, act, succs))
            ranked.sort(key=lambda c: (c[0], c[1], c[2]))
            candidates = [(b, i, a, s) for b, _, i, a, s in ranked]
        else:
            candidates.sort(key=lambda c: (c[0], c[1]))
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
    st.status = "solved" if ok else aborted[0] if aborted else "exhausted"
    return (solved_action if ok else None), st


def assert_same_as_reference(problem, depth_cap, node_budget):
    stats = SearchStats()
    policy = find_policy(problem, depth_cap=depth_cap, node_budget=node_budget,
                         stats=stats)
    ref_mapping, ref = reference_find_policy(problem, depth_cap, node_budget)
    assert policy == ref_mapping
    assert (stats.status, stats.expanded, stats.generated) == \
        (ref.status, ref.expanded, ref.generated)


def ground_effect_shapes(problem):
    """Whether an action applicable at init has a ground outcome that adds and
    deletes one fact, and whether one has two lifted atoms grounding alike."""
    domain = problem.domain
    overlap = duplicate = False
    idx = StateIndex(problem.init, problem.goal)
    for act in applicable_actions(domain, idx, len(problem.objects)):
        for add, dele in domain.schemata[act.schema_id].outcomes:
            add_g = [instantiate(a, act.args) for a in add]
            dele_g = [instantiate(a, act.args) for a in dele]
            overlap |= bool(set(add_g) & set(dele_g))
            duplicate |= len(set(add_g)) < len(add_g) or len(set(dele_g)) < len(dele_g)
    return overlap, duplicate


def test_find_policy_matches_reference_on_random_domains():
    rng = random.Random(7)
    overlaps = duplicates = 0
    for _ in range(1000):
        domain = props.random_domain(rng)
        n = rng.randint(1, 3)
        table = ObjectTable(["o%d" % i for i in range(n)])
        problem = HLProblem(domain, table, props.random_state(rng, domain, n),
                            props.random_state(rng, domain, n))
        overlap, duplicate = ground_effect_shapes(problem)
        overlaps += overlap
        duplicates += duplicate
        assert_same_as_reference(problem, rng.randint(1, 8), node_budget=20)
    # the two ground shapes a lifted effect count can get wrong are exercised
    assert overlaps >= 50 and duplicates >= 50


def test_find_policy_lookahead_keeps_a_fact_added_and_deleted():
    # shift(o0, o0) adds and deletes (on o0), so its successor keeps it; the
    # lookahead must see finish(o0) there, which ranks shift before prep
    dom = parse_domain("""
    (define (domain d) (:predicates (on ?x) (ready ?x) (done ?x))
      (:action shift :parameters (?x ?y) :precondition (and (on ?x))
        :effect (and (on ?y) (ready ?y) (not (on ?x))))
      (:action prep :parameters (?x) :precondition (and (on ?x))
        :effect (and (ready ?x)))
      (:action finish :parameters (?x) :precondition (and (on ?x) (ready ?x))
        :effect (and (done ?x))))""")
    table = ObjectTable(["o0", "o1"])
    f = lambda n, *a: dom.ground_fact(n, a, table)
    problem = HLProblem(dom, table, frozenset({f("on", "o0")}),
                        frozenset({f("done", "o0")}))
    assert_same_as_reference(problem, default_depth_cap(problem), node_budget=100)
    policy = find_policy(problem)
    assert policy.get(problem.init) == dom.ground_action("shift", ("o0", "o0"), table)


@pytest.mark.parametrize("kind", ["factory", "blocks-noisy", "pickplace", "gacha"])
def test_find_policy_matches_reference_on_env_resets(kind):
    for n in range(1, 6):
        env = make_env(EnvConfig(kind, n, seed=n))
        lls, _ = env.reset()
        problem = HLProblem(env.domain, env.table, frozenset(env.label(lls)),
                            frozenset(env.goal))
        assert_same_as_reference(problem, default_depth_cap(problem), node_budget=300)
