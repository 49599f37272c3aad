import pickle
import random

import pytest

from bison.core import (ActionSchema, Domain, GroundAction, ObjectTable, Predicate,
                        PreconditionError, StructuralError, applicable, ground_outcomes,
                        ground_pre, successors)
from bison.envs import ENV_KINDS, EnvConfig, env_domain, make_env, make_labeller
from bison.formats import parse_domain, parse_policy
from bison.rules import check_ndrp

from helpers import ground_action, instantiate, rename_action, rename_state


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


# ---------------------------------------------------------------------------
# The compiled grounding against the reference
# ---------------------------------------------------------------------------

class ProbedState(frozenset):
    """A state that records each fact its membership test is asked about."""

    def __new__(cls, facts, probes):
        state = super().__new__(cls, facts)
        state.probes = probes
        return state

    def __contains__(self, fact):
        self.probes.append(fact)
        return super().__contains__(fact)


def random_schema_domain(rng):
    """Predicates of arity 0-3 and schemata of arity 0-4 whose atoms may
    repeat a variable."""
    preds = [Predicate("p%d" % i, a) for i, a in enumerate((0, 1, 2, 3))]
    schemata = []
    for i in range(rng.randint(1, 4)):
        arity = rng.randint(0, 4)
        usable = [p for p in range(len(preds)) if arity or not preds[p].arity]

        def atoms(k):
            out = set()
            for _ in range(k):
                p = rng.choice(usable)
                out.add((p,) + tuple(rng.randrange(arity) for _ in range(preds[p].arity)))
            return out
        pre = frozenset(atoms(rng.randint(0, 5)))
        outcomes = []
        for _ in range(rng.randint(1, 3)):
            add, dele = atoms(rng.randint(0, 4)), atoms(rng.randint(0, 4))
            outcomes.append((frozenset(add - dele), frozenset(dele)))
        schemata.append(ActionSchema("a%d" % i, tuple("?v%d" % v for v in range(arity)),
                                     pre, tuple(outcomes)))
    return Domain(preds, schemata, "random")


def reference_outcomes(sch, args):
    return [(frozenset(instantiate(a, args) for a in add),
             frozenset(instantiate(a, args) for a in dele)) for add, dele in sch.outcomes]


def assert_grounds_as_reference(domain, rng, n_obj, seen):
    for sid, sch in enumerate(domain.schemata):
        args = tuple(rng.randrange(n_obj) for _ in range(sch.arity))
        action = GroundAction(sid, args)
        pre = [instantiate(a, args) for a in sch.pre]
        got, want = ground_pre(domain, action), frozenset(pre)
        assert got == want and list(got) == list(want)
        outs, want_outs = ground_outcomes(domain, action), reference_outcomes(sch, args)
        assert outs == want_outs
        for (add, dele), (add2, dele2) in zip(outs, want_outs):
            assert list(add) == list(add2) and list(dele) == list(dele2)
        # a state that holds a random part of the precondition: applicable
        # asks about the facts in the atoms' order and stops at the first missing
        held = [f for f in pre if rng.random() < 0.8]
        probes = []
        state = ProbedState(held + [(0,)] * rng.randint(0, 1), probes)
        want_probes = []
        for fact in pre:
            want_probes.append(fact)
            if fact not in state:
                break
        probes.clear()
        ok = applicable(domain, state, action)
        assert probes == want_probes
        assert ok == all(f in state for f in pre)
        seen["applicable"] += ok
        seen["inapplicable"] += not ok
        for wrong in (args + (0,), args[:-1]):
            if len(wrong) != sch.arity:
                with pytest.raises(StructuralError):
                    applicable(domain, state, GroundAction(sid, wrong))
                seen["wrong_length"] += 1
        seen["repeated"] += any(len(set(a[1:])) < len(a) - 1 for a in sch.pre)
        seen["nullary"] += any(len(a) == 1 for a in sch.pre)
        seen["unary"] += any(len(a) == 2 for a in sch.pre)
        seen["ternary"] += any(len(a) == 4 for a in sch.pre)


def test_compiled_grounding_equals_reference():
    rng = random.Random(35)
    seen = dict.fromkeys(("applicable", "inapplicable", "wrong_length", "repeated",
                          "nullary", "unary", "ternary"), 0)
    domains = [env_domain(kind) for kind in ENV_KINDS]
    for domain in domains:
        for _ in range(50):
            assert_grounds_as_reference(domain, rng, rng.randint(1, 8), seen)
    for _ in range(1500):
        assert_grounds_as_reference(random_schema_domain(rng), rng, rng.randint(1, 6), seen)
    assert min(seen.values()) >= 100, seen


def test_a_copied_domain_compiles_its_own_grounding():
    # the grounders are closures, which pickle cannot copy: a copy is rebuilt
    # from its predicates, schemata and name, as an eval worker receives it
    rng = random.Random(36)
    for domain in [env_domain(kind) for kind in ENV_KINDS] + \
            [random_schema_domain(rng) for _ in range(50)]:
        again = pickle.loads(pickle.dumps(domain))
        assert (again.name, again.predicates, again.schemata) == \
            (domain.name, domain.predicates, domain.schemata)
        for sid, sch in enumerate(again.schemata):
            action = GroundAction(sid, tuple(rng.randrange(5) for _ in range(sch.arity)))
            assert ground_outcomes(again, action) == reference_outcomes(sch, action.args)
