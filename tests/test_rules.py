import itertools
import time

from bison import rules as rules_mod
from bison.core import HLProblem, ObjectTable, applicable, ground_outcomes
from bison.envs import (EnvConfig, builtin_policy, env_domain, generate_demos,
                        make_env, make_labeller)
from bison.formats import parse_policy, serialize_policy
from bison.learn import learn_hl_policy
from bison.rules import (HLPolicy, Rule, StateIndex, canonical_rule_str, match_rule,
                         select_action, solve_hl, unconstrained_vars)
from bison.bench import gen_blocks_hl_problem

from helpers import DEAD_RULE_BLOCKS_POLICY, adversarial_outcome, fixed_outcome, random_outcome
from test_properties import selected_rule_index


def pp():
    dom = env_domain("pickplace")
    table = ObjectTable(["b1", "p1", "p2"])
    f = lambda n, *a: dom.ground_fact(n, a, table)
    return dom, table, f


def test_match_rule_example_binding():
    _, table, f = pp()
    rule = builtin_policy("pickplace").rules[0]  # hold(x) ∧ rAt(l) ∧ ĝ at(x,l)
    state = frozenset({f("hold", "b1"), f("rAt", "p2")})
    goal = frozenset({f("at", "b1", "p2")})
    binding = match_rule(rule, StateIndex(state, goal), len(table))
    assert binding is not None
    head = tuple(binding[v] for v in rule.head_args)
    assert head == (table.ids["b1"], table.ids["p2"])


def test_match_rule_rejects_achieved_goal_atom():
    _, table, f = pp()
    rule = builtin_policy("pickplace").rules[0]
    state = frozenset({f("hold", "b1"), f("rAt", "p2"), f("at", "b1", "p2")})
    goal = frozenset({f("at", "b1", "p2")})
    assert match_rule(rule, StateIndex(state, goal), len(table)) is None


def test_match_rule_unconstrained_variable():
    dom, table, f = pp()
    # rule with empty conditions and one unconstrained head variable
    move = dom.schema_ids["move"]
    rule = Rule(0, 2, frozenset({(dom.pred_ids["rAt"], 0)}), frozenset(), move, (0, 1))
    state = frozenset({f("rAt", "p1")})
    binding = match_rule(rule, StateIndex(state, frozenset()), len(table))
    assert binding == (table.ids["p1"], table.ids["b1"])
    assert unconstrained_vars(rule) == (1,)


def test_match_agrees_with_bruteforce_small():
    _, table, f = pp()
    policy = builtin_policy("pickplace")
    state = frozenset({f("rAt", "p1"), f("at", "b1", "p1"), f("free")})
    goal = frozenset({f("at", "b1", "p2")})
    objs = range(len(table))
    for rule in policy.rules:
        got = match_rule(rule, StateIndex(state, goal), len(objs))
        brute = None
        for combo in itertools.product(objs, repeat=rule.n_vars):
            ok = all((a[0],) + tuple(combo[v] for v in a[1:]) in state
                     for a in rule.s_cond)
            ok = ok and all((a[0],) + tuple(combo[v] for v in a[1:]) in goal - state
                            for a in rule.g_cond)
            if ok:
                brute = combo
                break
        assert (got is None) == (brute is None)
        if got is not None:
            assert all((a[0],) + tuple(got[v] for v in a[1:]) in state
                       for a in rule.s_cond)
            assert all((a[0],) + tuple(got[v] for v in a[1:]) in goal - state
                       for a in rule.g_cond)


def test_select_action_blocks_initial_pick(blocks_policy):
    dom = env_domain("blocks")
    table = ObjectTable(["b0", "p0"])
    f = lambda n, *a: dom.ground_fact(n, a, table)
    state = frozenset({f("clear", "b0"), f("clear", "p0"), f("gripperFree")})
    goal = frozenset({f("at", "b0", "p0")})
    act = select_action(blocks_policy, StateIndex(state, goal), 2)
    assert act is not None
    assert dom.schemata[act.schema_id].name == "pick"
    assert act.args == (table.ids["b0"],)


def test_select_action_none_when_solved(blocks_policy):
    dom = env_domain("blocks")
    table = ObjectTable(["b0", "p0"])
    f = lambda n, *a: dom.ground_fact(n, a, table)
    state = frozenset({f("at", "b0", "p0"), f("clear", "b0"), f("gripperFree")})
    goal = frozenset({f("at", "b0", "p0")})
    assert select_action(blocks_policy, StateIndex(state, goal), 2) is None


def test_select_action_tie_break_deterministic():
    dom = env_domain("pickplace")
    table = ObjectTable(["a", "b"])
    rat = dom.pred_ids["rAt"]
    move = dom.schema_ids["move"]
    r1 = Rule(0, 2, frozenset({(rat, 0)}), frozenset(), move, (0, 1))
    r2 = Rule(0, 2, frozenset({(rat, 1)}), frozenset(), move, (1, 0))
    pol = HLPolicy([r1, r2], dom)
    state = frozenset({(rat, 0), (rat, 1)})
    picks = {select_action(pol, StateIndex(state, frozenset()), len(table))
             for _ in range(5)}
    assert len(picks) == 1  # canonical rule order breaks the val tie


def test_selected_rule_recheck_exhaustive(blocks_policy):
    # the selected grounding satisfies both conditions, and no rule of
    # strictly smaller val has any grounding (exhaustive recheck, small state)
    dom = env_domain("blocks")
    prob = gen_blocks_hl_problem(2, seed=1)
    idx = StateIndex(prob.init, prob.goal)
    act = select_action(blocks_policy, idx, len(prob.objects))
    assert act is not None and applicable(dom, prob.init, act)
    for i in range(selected_rule_index(blocks_policy, idx, len(prob.objects), act)):
        if blocks_policy.dead[i]:
            continue
        rule = blocks_policy.rules[i]
        for combo in itertools.product(range(len(prob.objects)), repeat=rule.n_vars):
            ok = all((a[0],) + tuple(combo[v] for v in a[1:]) in prob.init
                     for a in rule.s_cond)
            ok = ok and all(
                (a[0],) + tuple(combo[v] for v in a[1:]) in prob.goal - prob.init
                for a in rule.g_cond)
            assert not ok, "a lower-val rule had a valid grounding"


def test_dead_rule_detection(blocks_policy):
    assert any(blocks_policy.dead)  # 3-block regression makes inert rules
    live = [r for i, r in enumerate(blocks_policy.rules) if not blocks_policy.dead[i]]
    assert len(live) == 2


def rule_body(rule):
    return (rule.n_vars, rule.s_cond, rule.g_cond, rule.head_schema, rule.head_args)


def test_dead_rule_of_a_hand_written_policy_is_flagged():
    policy = parse_policy(DEAD_RULE_BLOCKS_POLICY, env_domain("blocks"))
    assert policy.dead == (True, False, False)
    # the live rules are the built-in ones, one priority later
    assert [rule_body(r) for r, dead in zip(policy.rules, policy.dead) if not dead] == \
        [rule_body(r) for r in builtin_policy("blocks").rules]


def test_select_action_never_joins_a_dead_rule(monkeypatch):
    policy = parse_policy(DEAD_RULE_BLOCKS_POLICY, env_domain("blocks"))
    builtin = builtin_policy("blocks")
    joined = []
    real = rules_mod.match_rule
    monkeypatch.setattr(rules_mod, "match_rule",
                        lambda rule, *args: joined.append(rule) or real(rule, *args))
    states = 0
    for n in range(1, 6):
        for seed in range(3):
            env = make_env(EnvConfig("blocks", n, seed=seed))
            lls, goal = env.reset()
            idx, n_objects = StateIndex(env.label(lls), goal), len(env.table)
            joined.clear()
            want = select_action(builtin, idx, n_objects)
            builtin_joins = [rule_body(r) for r in joined]
            joined.clear()
            assert select_action(policy, idx, n_objects) == want is not None
            assert [rule_body(r) for r in joined] == builtin_joins  # none of the dead rule
            assert policy.rules[0] not in joined
            states += 1
    assert states == 15


def test_solve_hl_empty_on_solved(blocks_policy):
    prob = gen_blocks_hl_problem(1, seed=0)
    solved = HLProblem(prob.domain, prob.objects, prob.init | prob.goal, prob.goal)
    res = solve_hl(blocks_policy, solved)
    assert res.solved and res.actions == []


def test_solve_hl_three_blocks(blocks_policy):
    prob = gen_blocks_hl_problem(3, seed=7)
    res = solve_hl(blocks_policy, prob)
    assert res.solved
    assert res.steps <= 4 * 3
    # replay the chosen outcomes: the run never revisits an HL state
    states = [prob.init]
    for act, k in zip(res.actions, res.outcomes):
        add, dele = list(ground_outcomes(prob.domain, act))[k]
        states.append((states[-1] - dele) | add)
    assert len(set(states)) == len(states)


def test_solve_hl_step_cap(blocks_policy):
    prob = gen_blocks_hl_problem(2, seed=0)
    res = solve_hl(blocks_policy, prob, step_cap=1)
    assert not res.solved and res.status == "cap_exceeded"


def test_solve_hl_past_deadline_times_out(blocks_policy):
    prob = gen_blocks_hl_problem(2, seed=0)
    res = solve_hl(blocks_policy, prob, deadline=time.perf_counter() - 1.0)
    assert res.status == "timeout" and res.steps == 0 and not res.solved
    assert solve_hl(blocks_policy, prob, deadline=time.perf_counter() + 60.0).solved


def test_solve_hl_defect_records_the_inapplicable_action():
    dom = env_domain("blocks")
    # the head needs (holding ?x), which the rule's state condition leaves out
    pol = parse_policy("1: (:vars ?x ?l) (:state (clear ?x) (clear ?l)) "
                       "(:goal (at ?x ?l)) => (place ?x ?l)", dom)
    prob = gen_blocks_hl_problem(2, seed=0)
    res = solve_hl(pol, prob)
    assert res.status == "defect" and not res.solved
    assert res.steps == 0 and res.outcomes == []
    (action,) = res.actions
    assert dom.schemata[action.schema_id].name == "place"
    assert (dom.pred_ids["at"],) + action.args in prob.goal
    assert not applicable(dom, prob.init, action)


def test_solve_hl_no_action_when_no_rule_fires():
    dom = env_domain("blocks")
    # nothing is held at the start, so the only rule never fires
    pol = parse_policy("1: (:vars ?x ?l) (:state (holding ?x) (clear ?l)) "
                       "(:goal (at ?x ?l)) => (place ?x ?l)", dom)
    prob = gen_blocks_hl_problem(2, seed=0)
    res = solve_hl(pol, prob)
    assert res.status == "no_action" and not res.solved
    assert res.actions == [] and res.steps == 0


def test_solve_hl_outcome_choosers():
    import random
    from bison.formats import parse_domain
    dom = parse_domain("""
    (define (domain toy) (:predicates (ready ?x) (done ?x))
      (:action attempt :parameters (?x)
        :precondition (and (ready ?x))
        :effect (oneof (and (done ?x)) (and))))""")
    pol = parse_policy(
        "1: (:vars ?x) (:state (ready ?x)) (:goal (done ?x)) => (attempt ?x)", dom)
    table = ObjectTable(["t0"])
    f = lambda n, *a: dom.ground_fact(n, a, table)
    prob = HLProblem(dom, table, frozenset({f("ready", "t0")}),
                     frozenset({f("done", "t0")}))
    res = solve_hl(pol, prob, outcome_chooser=fixed_outcome(0), step_cap=3)
    assert res.solved and res.outcomes == [0]
    # the adversarial chooser always takes the no-progress outcome
    res = solve_hl(pol, prob, outcome_chooser=adversarial_outcome, step_cap=3)
    assert res.status == "cap_exceeded" and set(res.outcomes) == {1}
    res = solve_hl(pol, prob, outcome_chooser=random_outcome(random.Random(4)),
                   step_cap=60)
    assert res.solved  # a fair coin eventually lands on the lucky outcome


def test_canonical_str_invariant_under_renaming():
    dom = env_domain("pickplace")
    rat, at = dom.pred_ids["rAt"], dom.pred_ids["at"]
    move = dom.schema_ids["move"]
    r = Rule(2, 4, frozenset({(rat, 0), (at, 2, 1)}), frozenset({(at, 2, 3)}),
             move, (0, 1))
    # permute variable indices consistently: 0→3, 1→0, 2→1, 3→2
    perm = {0: 3, 1: 0, 2: 1, 3: 2}
    r2 = Rule(2, 4,
              frozenset({(rat, perm[0]), (at, perm[2], perm[1])}),
              frozenset({(at, perm[2], perm[3])}), move, (perm[0], perm[1]))
    assert canonical_rule_str(r, dom) == canonical_rule_str(r2, dom)


def test_policy_dedup_keeps_min_val():
    dom = env_domain("pickplace")
    rat = dom.pred_ids["rAt"]
    move = dom.schema_ids["move"]
    r_hi = Rule(5, 2, frozenset({(rat, 0)}), frozenset(), move, (0, 1))
    r_lo = Rule(1, 2, frozenset({(rat, 0)}), frozenset(), move, (0, 1))
    pol = HLPolicy([r_hi, r_lo], dom)
    assert len(pol) == 1 and pol.rules[0].val == 1


def test_empty_gcond_is_vacuously_true():
    dom = env_domain("pickplace")
    rat = dom.pred_ids["rAt"]
    move = dom.schema_ids["move"]
    rule = Rule(0, 2, frozenset({(rat, 0)}), frozenset(), move, (0, 1))
    pol = HLPolicy([rule], dom)
    state = frozenset({(rat, 1)})
    act = select_action(pol, StateIndex(state, frozenset()), 2)
    assert act is not None  # fires with no goal condition at all


def test_unconstrained_vars_flagged_at_load():
    pol = builtin_policy("gacha")
    flagged = [r for r in pol.rules if unconstrained_vars(r)]
    assert flagged  # the roll rule's ?b ranges over objects
    assert any(pol.domain.schemata[r.head_schema].name == "roll" for r in flagged)


def test_replay_leaves_no_empty_position_buckets(blocks_policy):
    # a bucket that empties is deleted, so after a whole solve each side
    # holds per-argument buckets only for the facts it still holds, and only
    # for those of arity 2 or more: no join probes a unary fact's argument
    prob = gen_blocks_hl_problem(1000, seed=0)
    res = solve_hl(blocks_policy, prob, step_cap=8 * 1000 + 64)
    assert res.solved
    idx = StateIndex(prob.init, prob.goal)
    for action, k in zip(res.actions, res.outcomes):
        add, dele = list(ground_outcomes(prob.domain, action))[k]
        idx.apply(add, dele)
    assert idx.solved() and idx.held.by_pos
    for side in (idx.held, idx.unachieved):
        assert all(side.by_pos.values())
        assert set(side.by_pos) == {(f[0], pos, o) for f in side.facts if len(f) > 2
                                    for pos, o in enumerate(f[1:])}
    assert not idx.unachieved.by_pos


def test_rule_plans_compile_on_first_match(monkeypatch):
    domain = env_domain("blocks")
    demos = generate_demos(EnvConfig("blocks", 3, seed=5), 20)
    compiled = []
    compile_plan = rules_mod._compile_plan
    monkeypatch.setattr(rules_mod, "_compile_plan",
                        lambda atoms: compiled.append(1) or compile_plan(atoms))
    learned = learn_hl_policy(demos, domain, make_labeller("blocks"))
    # the precondition plans, once per domain, are all that learning compiles
    assert len(compiled) <= len(domain.schemata)
    text = serialize_policy(learned)
    assert not any("plan" in vars(r) for r in learned.rules)
    assert not any("plan" in vars(r) for r in parse_policy(text, domain).rules)

    env = make_env(EnvConfig("blocks", 3, seed=1))
    init, goal, n = env.label(env.reset()[0]), env.goal, len(env.table)
    pick = select_action(parse_policy(text, domain), StateIndex(init, goal), n)
    add, dele = list(ground_outcomes(domain, pick))[0]
    holding = (init - dele) | add
    live = [i for i, dead in enumerate(learned.dead) if not dead]

    def walked(state):
        # the live rules in order, up to and including the first that matches,
        # found on a copy of the policy so nothing compiles on the one tested
        copy, idx = parse_policy(text, domain), StateIndex(state, goal)
        first = next(k for k, i in enumerate(live)
                     if match_rule(copy.rules[i], idx, n) is not None)
        return live[:first + 1]

    # selection compiles the rules it walks, and the later rules stay raw
    for state in (init, holding):
        reached = walked(state)
        policy = parse_policy(text, domain)
        assert select_action(policy, StateIndex(state, goal), n) is not None
        assert [i for i, r in enumerate(policy.rules) if "plan" in vars(r)] == reached
