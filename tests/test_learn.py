import pytest

from bison.core import GroundAction, ObjectTable
from bison.envs import EnvConfig, builtin_policy, generate_demos, make_labeller
from bison.formats import Demo, DemoStep, parse_domain, parse_policy, serialize_policy
from bison.learn import (AbstractionGapError, LearnReport, extract_hl_trace,
                         learn_hl_policy, lift, regress)
from bison.rules import StateIndex, canonical_rule_str, select_action

from helpers import blocks_demo_cut_before_its_last_place, ground_action


def pp_fact(dom, table, name, *args):
    return dom.ground_fact(name, args, table)


def test_extract_oracle_pickplace_demo(pickplace_domain):
    demos = generate_demos(EnvConfig("pickplace", 1, seed=3, start_at_block=True), 1)
    trace = extract_hl_trace(demos[0], pickplace_domain, make_labeller("pickplace"))
    names = [pickplace_domain.schemata[a.schema_id].name for a in trace.actions]
    assert names == ["pick", "move", "place"]
    assert trace.goal_reached
    assert len(trace.changes) == len(trace.actions)


def test_extract_constant_abstraction_demo(blocks_demos, blocks_domain):
    base = blocks_demos[0]
    still = Demo(base.goal, [DemoStep(s.ego, s.objects, [0.0, 0.0, 0.0])
                             for s in base.steps[:1]] * 4)
    trace = extract_hl_trace(still, blocks_domain, make_labeller("blocks"))
    assert trace.actions == []
    assert trace.changes == []


def test_extract_lists_every_label_flip(pickplace_domain):
    # pick o at l1 and put it back: the label goes A -> B -> A, and both
    # flips are changes, though the second returns to a label seen before
    dom = pickplace_domain

    def label(step, table):
        names = [("rAt", "l1"), ("at", "o", "l1"), ("free",)] if step.action[0] == 0 \
            else [("rAt", "l1"), ("hold", "o")]
        return frozenset(dom.ground_fact(n[0], n[1:], table) for n in names)

    objects = {"o": [0.0], "l1": [0.0]}
    demo = Demo((("at", "o", "l1"),),
                [DemoStep([0.0], objects, [float(k)]) for k in (0, 0, 1, 1, 1, 0, 0)])
    trace = extract_hl_trace(demo, dom, label)
    assert trace.changes == [2, 5]
    assert [(dom.schemata[a.schema_id].name, a.args) for a in trace.actions] \
        == [("pick", (0, 1)), ("place", (0, 1))]
    assert trace.step_states[0] == trace.step_states[-1] != trace.step_states[2]
    assert trace.goal_reached and trace.achieved == trace.goal


def test_extract_abstraction_gap(blocks_demos, blocks_domain):
    base = blocks_demos[0]
    # corrupt one labelled state: teleport every object somewhere absurd so
    # the abstraction jumps without a modelled action
    steps = [DemoStep(s.ego, dict(s.objects), list(s.action)) for s in base.steps]
    mid = len(steps) // 2
    broken = {}
    for j, (k, v) in enumerate(steps[mid].objects.items()):
        vec = list(v)
        vec[0] = 0.9 - 0.1 * j
        vec[1] = 0.9
        broken[k] = vec
    steps[mid] = DemoStep(steps[mid].ego, broken, steps[mid].action)
    with pytest.raises(AbstractionGapError) as ei:
        extract_hl_trace(Demo(base.goal, steps), blocks_domain,
                         make_labeller("blocks"))
    assert ei.value.step > 0


def test_regress_place_rule(pickplace_domain):
    dom = pickplace_domain
    table = ObjectTable(["obj1", "loc1", "loc2"])
    f = lambda n, *a: pp_fact(dom, table, n, *a)
    place = ground_action(dom, "place", ("obj1", "loc2"), table)
    out = regress(dom, frozenset({f("at", "obj1", "loc2")}), place)
    assert out == [frozenset({f("rAt", "loc2"), f("hold", "obj1")})]


def test_regress_move_rule(pickplace_domain):
    dom = pickplace_domain
    table = ObjectTable(["obj1", "loc1", "loc2"])
    f = lambda n, *a: pp_fact(dom, table, n, *a)
    move = ground_action(dom, "move", ("loc1", "loc2"), table)
    out = regress(dom, frozenset({f("rAt", "loc2"), f("hold", "obj1")}), move)
    assert out == [frozenset({f("hold", "obj1"), f("rAt", "loc1")})]


def test_regress_non_regressable_on_delete_overlap(pickplace_domain):
    dom = pickplace_domain
    table = ObjectTable(["obj1", "loc1"])
    f = lambda n, *a: pp_fact(dom, table, n, *a)
    pick = ground_action(dom, "pick", ("obj1", "loc1"), table)
    assert regress(dom, frozenset({f("free")}), pick) == []


def test_lift_example_rule_shape(pickplace_domain):
    dom = pickplace_domain
    table = ObjectTable(["obj1", "loc1", "loc2"])
    f = lambda n, *a: pp_fact(dom, table, n, *a)
    place = ground_action(dom, "place", ("obj1", "loc2"), table)
    rule = lift(place,
                frozenset({f("hold", "obj1"), f("rAt", "loc2")}),
                frozenset({f("at", "obj1", "loc2")}), val=0)
    assert rule.n_vars == 2
    assert canonical_rule_str(rule, dom) == \
        "1: (:vars ?v0 ?v1) (:state (rAt ?v1) (hold ?v0)) (:goal (at ?v0 ?v1)) => (place ?v0 ?v1)"


def test_lift_action_only(pickplace_domain):
    dom = pickplace_domain
    table = ObjectTable(["loc1", "loc2"])
    move = ground_action(dom, "move", ("loc1", "loc2"), table)
    rule = lift(move, frozenset(), frozenset(), val=0)
    assert rule.n_vars == 2
    assert rule.s_cond == frozenset() and rule.g_cond == frozenset()


def test_lift_distinct_objects_distinct_vars(pickplace_domain):
    dom = pickplace_domain
    table = ObjectTable(["a", "b", "c", "d"])
    f = lambda n, *a: pp_fact(dom, table, n, *a)
    move = ground_action(dom, "move", ("a", "b"), table)
    rule = lift(move, frozenset({f("rAt", "c"), f("rAt", "d")}),
                frozenset(), val=0)
    assert rule.n_vars == 4  # no variable merging across equal predicates


def test_learn_single_demo_reproduces_first_three_rules(pickplace_domain):
    demos = generate_demos(EnvConfig("pickplace", 1, seed=3, start_at_block=True), 1)
    pol = learn_hl_policy(demos, pickplace_domain, make_labeller("pickplace"))
    builtin = builtin_policy("pickplace")
    expect = serialize_policy(builtin).splitlines()[:3]
    assert serialize_policy(pol).splitlines() == expect
    assert [r.val for r in pol.rules] == [0, 1, 2]


def test_learned_policy_selects_what_its_file_selects(pickplace_domain):
    # the join breaks its last ties by the order a rule's atoms iterate in, so
    # the learned rules must be the ones the .bsp reads back, not lift's
    lab = make_labeller("pickplace")
    demos = generate_demos(EnvConfig("pickplace", 4, seed=7), 10)
    learned = learn_hl_policy(demos, pickplace_domain, lab)
    parsed = parse_policy(serialize_policy(learned), pickplace_domain)
    assert learned.rules == parsed.rules
    states = 0
    for demo in demos:
        try:
            trace = extract_hl_trace(demo, pickplace_domain, lab)
        except AbstractionGapError:
            continue
        n = len(trace.table)
        for hls in trace.step_states:
            idx = StateIndex(hls, trace.goal)
            assert select_action(learned, idx, n) == select_action(parsed, idx, n)
            states += 1
    assert states > 1000


def test_learn_empty_demo_set(pickplace_domain):
    pol = learn_hl_policy([], pickplace_domain, make_labeller("pickplace"))
    assert len(pol) == 0


def test_learn_move_demo_adds_rule_four(pickplace_demos, pickplace_domain,
                                        pickplace_policy):
    assert serialize_policy(pickplace_policy) == serialize_policy(builtin_policy("pickplace"))
    assert [r.val for r in pickplace_policy.rules] == [0, 1, 2, 3]


def test_learn_deterministic_and_idempotent(blocks_demos, blocks_domain):
    lab = make_labeller("blocks")
    a = serialize_policy(learn_hl_policy(blocks_demos[:40], blocks_domain, lab))
    b = serialize_policy(learn_hl_policy(list(reversed(blocks_demos[:40])), blocks_domain, lab))
    c = serialize_policy(learn_hl_policy(blocks_demos[:40] * 2, blocks_domain, lab))
    assert a == b == c


def test_learn_renaming_invariance(blocks_demos, blocks_domain):
    lab = make_labeller("blocks")
    base = serialize_policy(learn_hl_policy(blocks_demos[:10], blocks_domain, lab))
    renamed = []
    for demo in blocks_demos[:10]:
        mapping = {}
        for name in demo.steps[0].objects:
            mapping[name] = "x_" + name
        steps = [DemoStep(s.ego, {mapping[k]: v for k, v in s.objects.items()},
                          s.action) for s in demo.steps]
        goal = tuple((g[0],) + tuple(mapping[o] for o in g[1:]) for g in demo.goal)
        renamed.append(Demo(goal, steps))
    assert serialize_policy(learn_hl_policy(renamed, blocks_domain, lab)) == base


# A FOND toy: roll either achieves g or loses b, and make deletes g
FOND_DOMAIN_TEXT = """
(define (domain fond)
  (:predicates (a) (b) (g) (s))
  (:action prep :parameters () :precondition (s) :effect (and (a) (not (s))))
  (:action make :parameters () :precondition (a) :effect (and (b) (not (g))))
  (:action roll :parameters () :precondition (b) :effect (oneof (g) (not (b)))))
"""


def test_learn_carries_a_subgoal_an_action_deletes():
    # prep, make, roll from {s, g}: regressing g through roll's two outcomes
    # gives {b} and {b, g}; make deletes g, so {b, g} is carried over past
    # make unchanged and lifted again at prep, into a rule of its own
    dom = parse_domain(FOND_DOMAIN_TEXT)

    def label(step, table):  # step.ego flags (a, b, g, s)
        return frozenset((i,) for i, on in enumerate(step.ego) if on)

    labels = [[0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 1, 0]]
    demo = Demo((("g",),), [DemoStep([float(x) for x in v], {}, []) for v in labels])
    b, g = dom.pred_ids["b"], dom.pred_ids["g"]
    assert regress(dom, frozenset({(b,), (g,)}), GroundAction(dom.schema_ids["make"], ())) == []
    report = LearnReport()
    pol = learn_hl_policy([demo], dom, label, report=report)
    assert serialize_policy(pol).splitlines() == [
        "1: (:vars ) (:state (b) (g)) (:goal (g)) => (roll)",
        "1: (:vars ) (:state (b)) (:goal (g)) => (roll)",
        "2: (:vars ) (:state (a)) (:goal (g)) => (make)",
        "3: (:vars ) (:state (b) (g) (s)) (:goal (g)) => (prep)",
        "3: (:vars ) (:state (s)) (:goal (g)) => (prep)"]
    assert [r.val for r in pol.rules] == [0, 0, 1, 2, 2]
    assert pol.dead == (True, False, False, True, False)
    assert (report.demos_used, report.unreached_goals) == (1, 0)


def test_learn_counts_a_demo_that_misses_its_goal(blocks_domain):
    cut = blocks_demo_cut_before_its_last_place(3, seed=5)
    report = LearnReport()
    pol = learn_hl_policy([cut], blocks_domain, make_labeller("blocks"), report=report)
    assert (report.demos_used, report.unreached_goals) == (1, 1)
    assert len(pol) > 0  # the goal facts the demo did achieve still make rules
