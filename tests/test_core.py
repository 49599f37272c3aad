import pickle

import pytest

from bison.core import (GroundAction, ObjectTable, PreconditionError, StructuralError,
                        applicable, successors)
from bison.envs import EnvConfig, env_domain, make_env, make_labeller
from bison.formats import parse_domain, parse_policy
from bison.rules import check_ndrp

from helpers import ground_action, rename_action, rename_state


def pp_setup():
    dom = env_domain("pickplace")
    table = ObjectTable(["obj1", "loc1", "loc2"])
    f = lambda name, *args: dom.ground_fact(name, args, table)
    return dom, table, f


def test_applicable_pick_in_example_state():
    dom, table, f = pp_setup()
    state = frozenset({f("rAt", "loc1"), f("at", "obj1", "loc1"), f("free")})
    pick = ground_action(dom, "pick", ("obj1", "loc1"), table)
    assert applicable(dom, state, pick)


def test_applicable_empty_precondition():
    dom = parse_domain("""
        (define (domain d) (:predicates (p ?x))
          (:action noop :parameters () :precondition (and) :effect (and)))""")
    act = GroundAction(0, ())
    assert applicable(dom, frozenset(), act)


def test_ground_action_is_a_value():
    act = GroundAction(2, (0, 3))
    same = GroundAction(2, tuple([0, 3]))
    assert act == same and act is not same and hash(act) == hash(same)
    assert act != GroundAction(2, (3, 0)) and act != GroundAction(1, (0, 3))
    assert {act: "hit"}[same] == "hit"
    assert str(act) == "a2(0,3)" and str(GroundAction(0, ())) == "a0()"
    again = pickle.loads(pickle.dumps(act))
    assert again == act and type(again) is GroundAction
    assert (again.schema_id, again.args) == (2, (0, 3))


def test_applicable_false_when_precondition_missing():
    dom, table, f = pp_setup()
    state = frozenset({f("rAt", "loc2")})
    pick = ground_action(dom, "pick", ("obj1", "loc1"), table)
    assert not applicable(dom, state, pick)


def test_successors_pick():
    dom, table, f = pp_setup()
    state = frozenset({f("rAt", "loc1"), f("at", "obj1", "loc1"), f("free")})
    pick = ground_action(dom, "pick", ("obj1", "loc1"), table)
    assert successors(dom, state, pick) == [
        frozenset({f("rAt", "loc1"), f("hold", "obj1")})]


def test_successors_deterministic_single():
    dom, table, f = pp_setup()
    state = frozenset({f("rAt", "loc1")})
    move = ground_action(dom, "move", ("loc1", "loc2"), table)
    outs = successors(dom, state, move)
    assert len(outs) == 1
    assert outs[0] == frozenset({f("rAt", "loc2")})


def test_successors_two_outcome_roll():
    dom = env_domain("gacha")
    table = ObjectTable(["box0", "b"])
    f = lambda name, *args: dom.ground_fact(name, args, table)
    state = frozenset({f("closed", "box0"), f("clear", "box0"), f("gripperFree")})
    roll = ground_action(dom, "roll", ("box0", "b"), table)
    outs = successors(dom, state, roll)
    assert len(outs) == 2
    assert outs[0] != outs[1]
    assert outs[1] == state  # jam outcome leaves the state unchanged


def test_successors_requires_applicability():
    dom, table, _ = pp_setup()
    pick = ground_action(dom, "pick", ("obj1", "loc1"), table)
    with pytest.raises(PreconditionError):
        successors(dom, frozenset(), pick)


def test_rename_identity_and_inverse():
    _, table, f = pp_setup()
    state = frozenset({f("at", "obj1", "loc1"), f("free")})
    ident = {i: i for i in range(len(table))}
    assert rename_state(state, ident) == state
    mapping = {0: 2, 1: 0, 2: 1}
    inverse = {v: k for k, v in mapping.items()}
    assert rename_state(rename_state(state, mapping), inverse) == state


def test_rename_substitutes_objects():
    dom = env_domain("pickplace")
    table = ObjectTable(["obj1", "loc1", "b", "p"])
    f = lambda name, *args: dom.ground_fact(name, args, table)
    mapping = {table.ids["obj1"]: table.ids["b"], table.ids["loc1"]: table.ids["p"]}
    assert rename_state(frozenset({f("at", "obj1", "loc1")}), mapping) == \
        frozenset({f("at", "b", "p")})


def test_rename_rejects_non_bijection():
    _, _, f = pp_setup()
    with pytest.raises(StructuralError):
        rename_state(frozenset({f("at", "obj1", "loc1")}), {0: 1, 1: 1, 2: 2})
    with pytest.raises(StructuralError):
        rename_action(GroundAction(0, (0, 1)), {0: 0})


def test_check_ndrp_constant_abstraction():
    env = make_env(EnvConfig("blocks", 1, seed=0))
    lls, goal = env.reset()
    # zero actions leave the abstraction unchanged: the {λ(s)} clause applies
    steps = [lls]
    import numpy as np
    for _ in range(3):
        steps.append(env.step(np.zeros(3)))
    lab = make_labeller("blocks")
    rep = check_ndrp([lab(s, env.table) for s in steps], None, goal, len(env.table))
    assert rep.ok


def test_check_ndrp_oracle_demo_against_learned_policy(blocks_demos, blocks_domain,
                                                       blocks_policy):
    demo = blocks_demos[0]
    table = ObjectTable()
    for name in demo.steps[0].objects:
        table.intern(name)
    goal = frozenset(blocks_domain.ground_fact(g[0], g[1:], table)
                     for g in demo.goal)
    lab = make_labeller("blocks")
    rep = check_ndrp([lab(s, table) for s in demo.steps], blocks_policy, goal,
                     len(table))
    assert rep.ok, rep.reason


def test_check_ndrp_flags_injected_jump(blocks_demos, blocks_domain, blocks_policy):
    demo = blocks_demos[0]
    table = ObjectTable()
    for name in demo.steps[0].objects:
        table.intern(name)
    goal = frozenset(blocks_domain.ground_fact(g[0], g[1:], table)
                     for g in demo.goal)
    # skip an HL state: jump straight from the first step to a much later one
    lab = make_labeller("blocks")
    labels = [lab(demo.steps[0], table), lab(demo.steps[-1], table)]
    rep = check_ndrp(labels, blocks_policy, goal, len(table))
    assert not rep.ok
    assert rep.step == 0


def test_check_ndrp_flags_an_inapplicable_selected_action():
    # the rule fires on a clear block, but place needs the block held
    dom = env_domain("blocks")
    policy = parse_policy("1: (:vars ?x ?l) (:state (clear ?x)) (:goal (at ?x ?l)) "
                          "=> (place ?x ?l)\n", dom)
    table = ObjectTable(["b", "p"])
    f = lambda name, *args: dom.ground_fact(name, args, table)
    before = frozenset({f("clear", "b"), f("clear", "p"), f("gripperFree")})
    after = frozenset({f("holding", "b"), f("clear", "p")})
    rep = check_ndrp([before, before, after], policy, frozenset({f("at", "b", "p")}),
                     len(table))
    assert (rep.ok, rep.step, rep.reason) == (False, 1, "selected action inapplicable")
