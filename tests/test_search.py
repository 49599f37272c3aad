import gc
import heapq
import random
import sys
import time
from collections import Counter, deque

import pytest

from bison.core import (GroundAction, HLProblem, ObjectTable, PreconditionError,
                        ground_outcomes, successors)
from bison import rules, runner, search
from bison.envs import EnvConfig, env_domain, episode_seed, make_env
from bison.formats import parse_domain
from bison.rules import StateIndex, applicable_actions
from bison.search import (DEFAULT_NODE_BUDGET, Plan, SearchStats,
                          default_depth_cap, find_plan, find_policy)
from bison.bench import gen_blocks_hl_problem

from helpers import ground_action, instantiate
import test_properties as props


# ---------------------------------------------------------------------------
# Reference validators: a plan replayed, a policy map closed under its outcomes
# ---------------------------------------------------------------------------

def validate_plan(problem: HLProblem, plan: Plan) -> bool:
    """Replaying the plan under its chosen determinisation reaches the goal."""
    state = frozenset(problem.init)
    for act, k in zip(plan.actions, plan.outcomes):
        try:
            state = successors(problem.domain, state, act)[k]
        except PreconditionError:
            return False
    return problem.goal <= state


def validate_policy(problem: HLProblem, policy: dict,
                    max_states: int = 100000) -> bool:
    """Closedness: every state reachable under the map is a goal or has an applicable entry."""
    domain, goal = problem.domain, problem.goal
    seen = set()
    stack = [frozenset(problem.init)]
    while stack:
        state = stack.pop()
        if state in seen or goal <= state:
            continue
        seen.add(state)
        if len(seen) > max_states:
            return False
        act = policy.get(state)
        if act is None:
            return False
        try:
            stack.extend(successors(domain, state, act))
        except PreconditionError:
            return False
    return True


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


@pytest.mark.parametrize("planner", [find_plan, find_policy])
def test_planner_past_deadline_times_out(planner):
    prob = example1_problem()
    stats = SearchStats()
    assert planner(prob, deadline=time.perf_counter() - 1.0, stats=stats) is None
    assert stats.status == "timeout" and stats.expanded == 0
    assert planner(prob, deadline=time.perf_counter() + 60.0) is not None


def test_validators_reject_an_inapplicable_action():
    dom = parse_domain("""
    (define (domain d) (:predicates (ready ?x) (done ?x))
      (:action finish :parameters (?x)
        :precondition (and (ready ?x))
        :effect (and (done ?x))))""")
    table = ObjectTable(["a"])
    prob = HLProblem(dom, table, frozenset(),
                     frozenset({dom.ground_fact("done", ("a",), table)}))
    # (ready a) does not hold, yet finish(a)'s only outcome reaches the goal
    finish = GroundAction(dom.schema_ids["finish"], (table.ids["a"],))
    assert not validate_policy(prob, {frozenset(): finish})
    assert not validate_plan(prob, Plan([finish], [0]))


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
    assert policy.get(problem.init) == ground_action(dom, "shift", ("o0", "o0"), table)


@pytest.mark.parametrize("kind", ["factory", "blocks-noisy", "pickplace", "gacha"])
def test_find_policy_matches_reference_on_env_resets(kind):
    for n in range(1, 6):
        env = make_env(EnvConfig(kind, n, seed=n))
        lls, _ = env.reset()
        problem = HLProblem(env.domain, env.table, frozenset(env.label(lls)),
                            frozenset(env.goal))
        assert_same_as_reference(problem, default_depth_cap(problem), node_budget=300)


# ---------------------------------------------------------------------------
# The goal-side lookahead join
# ---------------------------------------------------------------------------

# Each case is (domain, objects, init, goal, whether the lookahead picks
# another first action than the plain goal-count order); facts are written
# "pred arg ...".  The wander/prep-style domains tie their first candidates on
# the goal count, so only the lookahead can rank the one that enables a gain.
LOOKAHEAD_SHAPES = {
    # finish's goal atom repeats ?x: prep(o1) enables (done o1 o1), prep(o0)
    # only (done o0 o0), which is not a goal, while the unmet (done o0 o1)
    # shares a bucket with it
    "repeated_variable": ("""
    (define (domain d) (:predicates (on ?x) (ready ?x) (done ?x ?y))
      (:action prep :parameters (?x) :precondition (and (on ?x))
        :effect (and (ready ?x)))
      (:action finish :parameters (?x) :precondition (and (ready ?x))
        :effect (and (done ?x ?x)))
      (:action link :parameters (?x ?y)
        :precondition (and (ready ?x) (ready ?y))
        :effect (and (done ?x ?y))))""",
        ["o0", "o1"], ["on o0", "on o1"], ["done o1 o1", "done o0 o1"], True),
    # only the goal atom binds finish's ?y
    "bound_by_goal_atom_only": ("""
    (define (domain d) (:predicates (on ?x) (ready ?x) (mark ?x) (done ?x ?y))
      (:action wander :parameters (?x) :precondition (and (on ?x))
        :effect (and (mark ?x)))
      (:action prep :parameters (?x) :precondition (and (on ?x))
        :effect (and (ready ?x)))
      (:action finish :parameters (?x ?y) :precondition (and (ready ?x))
        :effect (and (done ?x ?y))))""",
        ["o0", "o1"], ["on o0"], ["done o0 o1"], True),
    # trade's ?z is in neither its precondition nor its goal atom, and only
    # z != o0 keeps (done o0)
    "bound_by_neither": ("""
    (define (domain d) (:predicates (spare ?x) (ready ?x) (done ?x))
      (:action prep :parameters (?x) :precondition (and (spare ?x))
        :effect (and (ready ?x) (not (spare ?x))))
      (:action trade :parameters (?x ?z) :precondition (and (ready ?x))
        :effect (and (done ?x) (not (done ?z)))))""",
        ["o0", "o1", "o2"], ["done o0", "spare o1", "spare o2"],
        ["done o0", "done o2"], True),
    # a 0-ary goal predicate, once behind a precondition and once with a
    # parameter that nothing binds
    "zero_ary_goal": ("""
    (define (domain d) (:predicates (on ?x) (ready ?x) (mark ?x) (flag) (bell))
      (:action wander :parameters (?x) :precondition (and (on ?x))
        :effect (and (mark ?x)))
      (:action prep :parameters (?x) :precondition (and (on ?x))
        :effect (and (ready ?x)))
      (:action raise :parameters (?x) :precondition (and (ready ?x))
        :effect (and (flag)))
      (:action ring :parameters (?x) :precondition (and (flag))
        :effect (and (bell))))""",
        ["o0", "o1"], ["on o0"], ["flag", "bell"], True),
    # pair's first outcome adds two goal facts, which beats single's one
    "two_goal_atoms": ("""
    (define (domain d)
      (:predicates (on ?x) (ready ?x) (mark ?x) (spare ?x) (done ?x))
      (:action wander :parameters (?x) :precondition (and (on ?x))
        :effect (and (mark ?x)))
      (:action prep :parameters (?x) :precondition (and (on ?x))
        :effect (and (ready ?x)))
      (:action single :parameters (?x) :precondition (and (mark ?x))
        :effect (and (done ?x)))
      (:action pair :parameters (?x ?y)
        :precondition (and (ready ?x) (spare ?y))
        :effect (oneof (and (done ?x) (done ?y)) (and (done ?x) (mark ?y)))))""",
        ["o0", "o1"], ["on o0", "spare o1"], ["done o0", "done o1"], True),
    # swap adds (done o1) but deletes (done o0), so prep(o1) gains nothing
    # over wander(o1) and the plain order stands
    "add_one_delete_another": ("""
    (define (domain d) (:predicates (on ?x) (ready ?x) (mark ?x) (done ?x))
      (:action wander :parameters (?x) :precondition (and (on ?x))
        :effect (and (mark ?x)))
      (:action prep :parameters (?x) :precondition (and (on ?x))
        :effect (and (ready ?x)))
      (:action swap :parameters (?x ?y)
        :precondition (and (done ?x) (ready ?y))
        :effect (and (done ?y) (not (done ?x))))
      (:action finish :parameters (?x)
        :precondition (and (ready ?x) (mark ?x))
        :effect (and (done ?x))))""",
        ["o0", "o1"], ["done o0", "on o1"], ["done o0", "done o1"], False),
}


def shape_problem(name):
    text, objects, init, goal, _ = LOOKAHEAD_SHAPES[name]
    dom = parse_domain(text)
    table = ObjectTable(objects)

    def facts(lines):
        return frozenset(dom.ground_fact(p, a, table)
                         for p, *a in (line.split() for line in lines))
    return HLProblem(dom, table, facts(init), facts(goal))


def first_by_goal_count(problem):
    """The action a plain (best goal count, enumeration index) order tries
    first at init."""
    idx = StateIndex(problem.init, problem.goal)
    ranked = []
    for i, act in enumerate(applicable_actions(problem.domain, idx,
                                               len(problem.objects))):
        best = min(props.goal_count((problem.init - dele) | add, problem.goal)
                   for add, dele in ground_outcomes(problem.domain, act))
        ranked.append((best, i, act))
    return min(ranked)[2]


@pytest.mark.parametrize("name", sorted(LOOKAHEAD_SHAPES))
def test_lookahead_goal_join_shapes(name):
    problem = shape_problem(name)
    for depth_cap in (2, 3, default_depth_cap(problem)):
        assert_same_as_reference(problem, depth_cap, node_budget=200)
    policy = find_policy(problem)
    assert policy is not None and validate_policy(problem, policy)
    lookahead_decides = LOOKAHEAD_SHAPES[name][-1]
    assert (policy[problem.init] != first_by_goal_count(problem)) == lookahead_decides


def test_find_policy_matches_reference_mid_episode(monkeypatch):
    # every state an ndt_replan episode plans from, on plan-replan's pool
    real, calls = runner.find_policy, []

    def checked(problem, **kw):
        stats = SearchStats()
        policy = real(problem, stats=stats, **kw)
        ref_mapping, ref = reference_find_policy(
            problem, default_depth_cap(problem), DEFAULT_NODE_BUDGET)
        assert policy == ref_mapping
        assert (stats.status, stats.expanded, stats.generated) == \
            (ref.status, ref.expanded, ref.generated)
        calls.append(problem.init)
        return policy

    monkeypatch.setattr(runner, "find_policy", checked)
    replans = 0
    for kind in ("factory", "blocks-noisy"):
        for n in range(5, 9):
            for ep in range(3):
                env = make_env(EnvConfig(kind, n, seed=episode_seed(0, ep)))
                result = runner.run_episode(env, runner.Executor("ndt_replan"))
                assert result.success
                replans += result.replans
    # one call at each reset, one at each replan
    assert len(calls) == 24 + replans and replans >= 60


def test_lookahead_evaluates_only_goal_joined_outcomes(monkeypatch):
    # each lookahead evaluation is an (action, gain outcome) pair whose goal
    # atom met an unmet goal fact, at most one per successor here; every
    # applicable action of every gain schema would be 4,250 pairs
    env = make_env(EnvConfig("blocks-noisy", 12, seed=12))
    lls, _ = env.reset()
    problem = HLProblem(env.domain, env.table, frozenset(env.label(lls)),
                        frozenset(env.goal))
    deltas, applies = [0], [0]
    goal_delta, apply = search._goal_delta, StateIndex.apply

    def counted_delta(*args):
        deltas[0] += 1
        return goal_delta(*args)

    def counted_apply(self, add, dele):
        applies[0] += 1
        return apply(self, add, dele)

    monkeypatch.setattr(search, "_goal_delta", counted_delta)
    monkeypatch.setattr(StateIndex, "apply", counted_apply)
    stats = SearchStats()
    assert find_policy(problem, stats=stats) is not None
    visited = applies[0] // 2  # the lookahead moves its index there and back
    assert visited > 0
    assert deltas[0] - stats.generated <= visited


# ---------------------------------------------------------------------------
# find_plan against a reference that grounds an outcome at push and at pop
# ---------------------------------------------------------------------------

def reference_find_plan(problem, node_budget):
    """find_plan as written before it kept each action's ground outcomes for
    the call: the popped entry's outcome is grounded again.  Returns (plan or
    None, stats)."""
    st = SearchStats()
    domain, goal = problem.domain, problem.goal
    n_obj = len(problem.objects)
    init = frozenset(problem.init)
    frontier = [(len(goal - init), 0, init, None, -1)]
    closed = {}
    seq = 1
    while frontier:
        if st.expanded >= node_budget or st.generated >= search.GENERATED_CAP:
            st.status = "budget"
            return None, st
        h, _, parent, action, k = heapq.heappop(frontier)
        if action is None:
            state = parent
        else:
            add, dele = list(ground_outcomes(domain, action))[k]
            state = (parent - dele) | add
        if state in closed:
            continue
        closed[state] = (parent, action, k)
        if goal <= state:
            acts, outs = [], []
            while closed[state][1] is not None:
                state, action, k = closed[state]
                acts.append(action)
                outs.append(k)
            st.status = "solved"
            return Plan(acts[::-1], outs[::-1]), st
        st.expanded += 1
        idx = StateIndex(state, goal)
        for act in applicable_actions(domain, idx, n_obj):
            for j, (add, dele) in enumerate(ground_outcomes(domain, act)):
                h2 = h + props.goal_count((state - dele) | add, goal) \
                    - props.goal_count(state, goal)
                heapq.heappush(frontier, (h2, seq, state, act, j))
                seq += 1
                st.generated += 1
    st.status = "exhausted"
    return None, st


def assert_plan_same_as_reference(problem, node_budget):
    stats = SearchStats()
    plan = find_plan(problem, node_budget=node_budget, stats=stats)
    ref_plan, ref = reference_find_plan(problem, node_budget)
    assert (plan is None) == (ref_plan is None)
    if plan is not None:
        assert plan.actions == ref_plan.actions
        assert plan.outcomes == ref_plan.outcomes
    assert (stats.status, stats.expanded, stats.generated) == \
        (ref.status, ref.expanded, ref.generated)
    return stats.status


def test_find_plan_matches_reference_on_random_domains():
    rng = random.Random(11)
    statuses = Counter()
    for _ in range(1000):
        domain = props.random_domain(rng)
        n = rng.randint(1, 3)
        table = ObjectTable(["o%d" % i for i in range(n)])
        problem = HLProblem(domain, table, props.random_state(rng, domain, n),
                            props.random_state(rng, domain, n))
        statuses[assert_plan_same_as_reference(problem, rng.randint(1, 20))] += 1
    # solved, unsolvable and cut-off searches are all compared
    assert min(statuses[s] for s in ("solved", "exhausted", "budget")) >= 50


def reset_problem(kind, n, seed):
    env = make_env(EnvConfig(kind, n, seed=seed))
    lls, _ = env.reset()
    return HLProblem(env.domain, env.table, frozenset(env.label(lls)),
                     frozenset(env.goal))


@pytest.mark.parametrize("kind", ["factory", "blocks-noisy", "pickplace", "gacha"])
def test_find_plan_matches_reference_on_env_resets(kind):
    for n in range(1, 6):
        assert_plan_same_as_reference(reset_problem(kind, n, n), node_budget=2000)


# ---------------------------------------------------------------------------
# Work done once per search call
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("planner", [find_plan, find_policy])
def test_each_action_is_grounded_once_per_call(monkeypatch, planner):
    real, grounded = search.ground_outcomes, Counter()

    def counted(domain, action):
        grounded[action] += 1
        return real(domain, action)

    monkeypatch.setattr(search, "ground_outcomes", counted)
    for kind, n in (("blocks-noisy", 8), ("factory", 8), ("pickplace", 3)):
        grounded.clear()
        assert planner(reset_problem(kind, n, n)) is not None
        assert len(grounded) >= 20
        assert max(grounded.values()) == 1


def test_lookahead_plans_compile_once_per_domain_and_goal_predicates(monkeypatch):
    # factory and blocks-noisy share the blocks domain and its goal predicate
    compiled = []
    compile_plan = rules._compile_plan
    monkeypatch.setattr(rules, "_compile_plan",
                        lambda atoms: compiled.append(1) or compile_plan(atoms))
    rules._precondition_plans.cache_clear()
    rules.gain_joins.cache_clear()
    factory, noisy = reset_problem("factory", 6, 6), reset_problem("blocks-noisy", 6, 6)
    domain, goal_preds = factory.domain, frozenset(f[0] for f in factory.goal)
    assert noisy.domain is domain and {f[0] for f in noisy.goal} == goal_preds
    assert find_policy(factory) is not None
    lookahead_plans = sum(len(joins) for _, joins in rules.gain_joins(domain, goal_preds))
    assert lookahead_plans > 0
    assert len(compiled) == len(domain.schemata) + lookahead_plans
    assert find_policy(noisy) is not None
    assert len(compiled) == len(domain.schemata) + lookahead_plans


def test_no_lookahead_where_the_least_count_is_unique(monkeypatch):
    # the lookahead breaks ties on the least goal count; an expanded state
    # whose least-count action is alone and solves it runs none
    expansions = []  # [state, StateIndex.apply calls on its index]

    class Recorded(StateIndex):
        def __init__(self, facts, goal):
            super().__init__(facts, goal)
            self.record = [frozenset(facts), 0]
            expansions.append(self.record)

        def apply(self, add, dele):
            self.record[1] += 1
            super().apply(add, dele)

    monkeypatch.setattr(search, "StateIndex", Recorded)
    unique = tied = 0
    for kind in ("blocks-noisy", "factory"):
        for n in range(5, 9):
            problem = reset_problem(kind, n, n)
            domain, goal = problem.domain, problem.goal
            expansions.clear()
            policy = find_policy(problem)
            assert policy is not None
            times = Counter(state for state, _ in expansions)
            for state, applies in expansions:
                idx = StateIndex(state, goal)
                ranked = sorted(
                    (min(props.goal_count((state - dele) | add, goal)
                         for add, dele in ground_outcomes(domain, act)), i, act)
                    for i, act in enumerate(applicable_actions(
                        domain, idx, len(problem.objects))))
                if len(ranked) > 1 and ranked[0][0] < ranked[1][0]:
                    if times[state] == 1 and policy.get(state) == ranked[0][2]:
                        assert applies == 0
                        unique += 1
                elif applies:
                    tied += 1
    assert unique >= 40 and tied >= 40


@pytest.mark.parametrize("planner", [find_plan, find_policy])
def test_search_leaves_no_garbage_cycle(planner):
    # what a call builds (its memo, its closed and failed sets) is freed when
    # it returns, not when the cyclic collector next runs
    problem = reset_problem("blocks-noisy", 8, 8)
    gc.collect()
    gc.disable()
    try:
        assert planner(problem) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()
