"""Quantified property suites over seeded random instances.

Each suite runs at least 200 generated cases; generation is deterministic so
failures reproduce.  These back the soundness portion of the acceptance
criteria and are reused by the acceptance module.
"""

import itertools
import random
import string
from collections import Counter

import pytest

from bison.core import (ActionSchema, Domain, GroundAction, ObjectTable, Predicate,
                        applicable, ground_outcomes, successors)
from bison.envs import env_domain, make_labeller
from bison.formats import (Demo, DemoStep, ParseError, parse_domain, parse_policy,
                           parse_traces, serialize_domain, serialize_policy,
                           serialize_traces)
from bison.learn import _explain_change, lift, regress
from bison.rules import (FactIndex, HLPolicy, Rule, StateIndex, _compile_plan, _matches,
                         canonical_rule_str, check_ndrp, match_rule)
from bison.search import _goal_delta

from helpers import adversarial_outcome, instantiate, rename_action, rename_state

N_CASES = 200


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def random_domain(rng: random.Random) -> Domain:
    n_pred = rng.randint(1, 4)
    preds = [Predicate("p%d" % i, rng.randint(0, 2)) for i in range(n_pred)]
    schemata = []
    for i in range(rng.randint(1, 3)):
        arity = rng.randint(0, 3)
        atoms = []
        for pid, p in enumerate(preds):
            if arity == 0 and p.arity > 0:
                continue
            for _ in range(3):
                atoms.append((pid,) + tuple(rng.randrange(arity)
                                            for _ in range(p.arity)))
        atoms = sorted(set(atoms))
        if not atoms:
            atoms = [(pid,) for pid, p in enumerate(preds) if p.arity == 0]
        if not atoms:
            continue
        pre = frozenset(rng.sample(atoms, min(len(atoms), rng.randint(0, 2))))
        outcomes = []
        for _ in range(rng.randint(1, 2)):
            k = min(len(atoms), 3)
            eff = rng.sample(atoms, rng.randint(0, k))
            split = rng.randint(0, len(eff))
            add, dele = frozenset(eff[:split]), frozenset(eff[split:])
            outcomes.append((add - dele, dele - add))
        schemata.append(ActionSchema("a%d" % i,
                                     tuple("?v%d" % v for v in range(arity)),
                                     pre, tuple(outcomes)))
    if not schemata:
        schemata = [ActionSchema("a0", (), frozenset(), ((frozenset(), frozenset()),))]
    return Domain(preds, schemata, "rand")


def random_state(rng, domain, n_objects):
    facts = set()
    for _ in range(rng.randint(0, 3 + 2 * n_objects)):
        p = rng.randrange(len(domain.predicates))
        arity = domain.predicates[p].arity
        facts.add((p,) + tuple(rng.randrange(n_objects) for _ in range(arity)))
    return frozenset(facts)


def goal_count(state, goal) -> int:
    """Unmet goal facts, counted afresh."""
    return sum(1 for f in goal if f not in state)


def random_action(rng, domain, n_objects):
    sid = rng.randrange(len(domain.schemata))
    arity = domain.schemata[sid].arity
    return GroundAction(sid, tuple(rng.randrange(n_objects) for _ in range(arity)))


# ---------------------------------------------------------------------------
# Suite 1: regression soundness
# ---------------------------------------------------------------------------

def test_regression_soundness():
    rng = random.Random(101)
    checked = 0
    while checked < N_CASES:
        domain = random_domain(rng)
        n_obj = rng.randint(1, 4)
        goal = random_state(rng, domain, n_obj)
        action = random_action(rng, domain, n_obj)
        results = regress(domain, goal, action)
        if not results:
            # non-regressable exactly when some outcome deletes a goal fact
            outs = list(ground_outcomes(domain, action))
            assert any(dele & goal for _, dele in outs)
            continue
        outs = list(ground_outcomes(domain, action))
        assert len(results) == len(outs)
        for pre_image, (add, dele) in zip(results, outs):
            assert applicable(domain, pre_image, action)
            assert (pre_image - dele) | add >= goal
        checked += 1


# ---------------------------------------------------------------------------
# Suite 2: lifting round-trip
# ---------------------------------------------------------------------------

def _ground_rule(rule: Rule, obj_of_var):
    head = tuple(obj_of_var[v] for v in rule.head_args)
    s = frozenset((a[0],) + tuple(obj_of_var[v] for v in a[1:]) for a in rule.s_cond)
    g = frozenset((a[0],) + tuple(obj_of_var[v] for v in a[1:]) for a in rule.g_cond)
    return head, s, g


def test_lifting_round_trip():
    rng = random.Random(202)
    for _ in range(N_CASES):
        domain = random_domain(rng)
        n_obj = rng.randint(1, 5)
        action = random_action(rng, domain, n_obj)
        s_cond = random_state(rng, domain, n_obj)
        g_cond = random_state(rng, domain, n_obj)
        rule = lift(action, s_cond, g_cond, val=0)
        # rebuild the first-occurrence object order lift used
        obj_of_var = []
        for o in list(action.args) \
                + [o for f in sorted(s_cond) for o in f[1:]] \
                + [o for f in sorted(g_cond) for o in f[1:]]:
            if o not in obj_of_var:
                obj_of_var.append(o)
        head, s, g = _ground_rule(rule, obj_of_var)
        assert head == action.args
        assert s == s_cond and g == g_cond
        # q distinct objects always yield q distinct variables
        assert rule.n_vars == len(obj_of_var)


# ---------------------------------------------------------------------------
# Suite 3: renaming equivariance (successors commute with bijections)
# ---------------------------------------------------------------------------

def test_renaming_equivariance_and_frame():
    rng = random.Random(303)
    checked = 0
    while checked < N_CASES:
        domain = random_domain(rng)
        n_obj = rng.randint(1, 5)
        state = random_state(rng, domain, n_obj)
        action = random_action(rng, domain, n_obj)
        if not applicable(domain, state, action):
            continue
        perm = list(range(n_obj))
        rng.shuffle(perm)
        mapping = dict(enumerate(perm))
        succ = successors(domain, state, action)
        succ_renamed = successors(domain, rename_state(state, mapping),
                                  rename_action(action, mapping))
        assert succ_renamed == [rename_state(s, mapping) for s in succ]
        # frame property: untouched facts persist
        for s2, (add, dele) in zip(succ, ground_outcomes(domain, action)):
            for f in state:
                if f not in add and f not in dele:
                    assert f in s2
        # inverse renaming restores the original
        inverse = {v: k for k, v in mapping.items()}
        assert rename_state(rename_state(state, mapping), inverse) == state
        checked += 1


# ---------------------------------------------------------------------------
# Suite 4: match vs brute force, |O| <= 5
# ---------------------------------------------------------------------------

def random_rule(rng, domain):
    n_vars = rng.randint(1, 3)
    atoms = []
    for p, pred in enumerate(domain.predicates):
        for _ in range(2):
            atoms.append((p,) + tuple(rng.randrange(n_vars)
                                      for _ in range(pred.arity)))
    atoms = sorted(set(atoms))
    s_cond = frozenset(rng.sample(atoms, min(len(atoms), rng.randint(0, 3))))
    g_cond = frozenset(rng.sample(atoms, min(len(atoms), rng.randint(0, 2))))
    sid = rng.randrange(len(domain.schemata))
    arity = domain.schemata[sid].arity
    head = tuple(rng.randrange(n_vars) for _ in range(arity))
    return Rule(0, n_vars, s_cond, g_cond, sid, head)


def test_match_agrees_with_bruteforce():
    rng = random.Random(505)
    for _ in range(N_CASES):
        domain = random_domain(rng)
        n_obj = rng.randint(1, 5)
        rule = random_rule(rng, domain)
        state = random_state(rng, domain, n_obj)
        goal = random_state(rng, domain, n_obj)
        objects = range(n_obj)
        got = match_rule(rule, StateIndex(state, goal), n_obj)
        brute_exists = False
        for combo in itertools.product(objects, repeat=rule.n_vars):
            ok = all(instantiate(a, combo) in state for a in rule.s_cond) and \
                all(instantiate(a, combo) in goal - state for a in rule.g_cond)
            if ok:
                brute_exists = True
                break
        assert (got is not None) == brute_exists
        if got is not None:
            assert all(instantiate(a, got) in state for a in rule.s_cond)
            assert all(instantiate(a, got) in goal - state for a in rule.g_cond)


# ---------------------------------------------------------------------------
# Suite 5: NDRP holds on oracle demos vs the learned policy
# ---------------------------------------------------------------------------

def test_ndrp_on_oracle_demos(blocks_demos, blocks_domain, blocks_policy):
    lab = make_labeller("blocks")
    assert len(blocks_demos) >= N_CASES
    for demo in blocks_demos[:N_CASES]:
        table = ObjectTable()
        for name in demo.steps[0].objects:
            table.intern(name)
        goal = frozenset(blocks_domain.ground_fact(g[0], g[1:], table)
                         for g in demo.goal)
        rep = check_ndrp([lab(s, table) for s in demo.steps], blocks_policy, goal,
                         len(table))
        assert rep.ok, "demo violates NDRP at step %d: %s" % (rep.step, rep.reason)


# ---------------------------------------------------------------------------
# Suite 6: parse/serialize round-trips
# ---------------------------------------------------------------------------

def test_domain_round_trip_property():
    rng = random.Random(606)
    for _ in range(N_CASES):
        domain = random_domain(rng)
        text = serialize_domain(domain)
        again = parse_domain(text)
        assert serialize_domain(again) == text
        assert [ (p.name, p.arity) for p in again.predicates] == \
            [(p.name, p.arity) for p in domain.predicates]
        for a, b in zip(domain.schemata, again.schemata):
            assert (a.name, a.pre, a.outcomes) == (b.name, b.pre, b.outcomes)


def test_policy_round_trip_property():
    rng = random.Random(707)
    domain = env_domain("gacha")
    count = 0
    while count < N_CASES:
        rules = [random_rule(rng, domain) for _ in range(rng.randint(1, 4))]
        rules = [Rule(rng.randint(0, 5), r.n_vars, r.s_cond, r.g_cond,
                      r.head_schema, r.head_args) for r in rules]
        pol = HLPolicy(rules, domain)
        text = serialize_policy(pol)
        again = parse_policy(text, domain)
        assert serialize_policy(again) == text
        count += 1


def test_traces_round_trip_property():
    rng = random.Random(808)
    for _ in range(N_CASES):
        n_steps = rng.randint(1, 4)
        n_obj = rng.randint(1, 3)
        names = ["o%d" % i for i in range(n_obj)]
        steps = [DemoStep([rng.uniform(0, 1) for _ in range(3)],
                          {n: [rng.uniform(-1, 1) for _ in range(4)]
                           for n in names},
                          [rng.uniform(-1, 1) for _ in range(3)])
                 for _ in range(n_steps)]
        goal = tuple(("at", rng.choice(names), rng.choice(names))
                     for _ in range(rng.randint(0, 2)))
        text = serialize_traces([Demo(goal, steps)])
        again = parse_traces(text)
        assert serialize_traces(again) == text
        assert again[0].goal == goal


def test_parser_totality_fuzz():
    rng = random.Random(909)
    alphabet = string.printable
    gacha = env_domain("gacha")
    parsers = (parse_domain, parse_traces, lambda text: parse_policy(text, gacha))
    for _ in range(N_CASES):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        for parser in parsers:
            try:
                parser(text)
            except ParseError:
                pass  # positioned error is the contract; crashes are not


@pytest.mark.parametrize("depth", [3000, 100000])
@pytest.mark.parametrize("kind", ["domain", "policy", "traces"])
def test_parser_totality_deep_nesting(kind, depth):
    nest = "(" * depth + ")" * depth
    blocks = env_domain("blocks")
    parse = {
        "domain": lambda: parse_domain("(define (domain d) (:predicates %s))" % nest),
        "policy": lambda: parse_policy("1: (:vars ?x) (:state %s) (:goal) => (pick ?x)"
                                       % nest, blocks),
        "traces": lambda: parse_traces('{"goal": ["%s"], "steps": []}' % nest),  # in a goal
    }[kind]
    with pytest.raises(ParseError):
        parse()


def test_canonicalization_renaming_invariance_property():
    rng = random.Random(111)
    domain = env_domain("gacha")
    for _ in range(N_CASES):
        rule = random_rule(rng, domain)
        perm = list(range(rule.n_vars))
        rng.shuffle(perm)
        r2 = Rule(rule.val, rule.n_vars,
                  frozenset((a[0],) + tuple(perm[v] for v in a[1:])
                            for a in rule.s_cond),
                  frozenset((a[0],) + tuple(perm[v] for v in a[1:])
                            for a in rule.g_cond),
                  rule.head_schema, tuple(perm[v] for v in rule.head_args))
        assert canonical_rule_str(rule, domain) == canonical_rule_str(r2, domain)


def selected_rule_index(policy, idx, n_objects, action):
    """Index of the rule whose head ``select_action`` returned as ``action``:
    the first live rule with a binding, whose head under that binding must
    be ``action`` (-1, with ``action`` None, when no rule has one)."""
    for i, rule in enumerate(policy.rules):
        if policy.dead[i]:
            continue
        binding = match_rule(rule, idx, n_objects)
        if binding is not None:
            assert action == GroundAction(rule.head_schema,
                                          tuple(binding[v] for v in rule.head_args))
            return i
    assert action is None
    return -1


def test_selection_val_invariant_under_renaming(blocks_policy):
    # the val of the selected rule is invariant under bijective renaming
    from bison.bench import gen_blocks_hl_problem
    from bison.rules import select_action
    rng = random.Random(212)
    for case in range(N_CASES):
        prob = gen_blocks_hl_problem(rng.randint(1, 3), seed=case)
        n = len(prob.objects)
        perm = list(range(n))
        rng.shuffle(perm)
        mapping = dict(enumerate(perm))
        i1 = StateIndex(prob.init, prob.goal)
        i2 = StateIndex(rename_state(prob.init, mapping), rename_state(prob.goal, mapping))
        a1 = select_action(blocks_policy, i1, n)
        a2 = select_action(blocks_policy, i2, n)
        assert (a1 is None) == (a2 is None)
        if a1 is not None:
            assert blocks_policy.rules[selected_rule_index(blocks_policy, i1, n, a1)].val == \
                blocks_policy.rules[selected_rule_index(blocks_policy, i2, n, a2)].val


# ---------------------------------------------------------------------------
# Suite 7: the indexed join against brute force and against a rebuilt index
# ---------------------------------------------------------------------------

def explain_by_product(domain, prev, nxt, n_obj):
    """Reference explanation: first applicable binding in product order."""
    for sid, sch in enumerate(domain.schemata):
        for binding in itertools.product(range(n_obj), repeat=sch.arity):
            if not all(instantiate(a, binding) in prev for a in sch.pre):
                continue
            action = GroundAction(sid, binding)
            for add, dele in ground_outcomes(domain, action):
                if (prev - dele) | add == nxt:
                    return action
    return None


def test_explain_change_agrees_with_product_reference():
    # half the cases use random domains, whose free parameters and atom orders
    # make the join yield several explanations out of product order; that
    # happens in well under 1 % of cases, hence ten times the usual count
    rng = random.Random(313)
    domains = [env_domain(k) for k in ("blocks", "pickplace", "gacha")]
    explained = 0
    for case in range(10 * N_CASES):
        domain = domains[case % 3] if case % 2 else random_domain(rng)
        n_obj = rng.randint(1, 4)
        prev = random_state(rng, domain, n_obj)
        action = random_action(rng, domain, n_obj)
        prev |= frozenset(instantiate(a, action.args)
                          for a in domain.schemata[action.schema_id].pre)
        if rng.random() < 0.75:  # a modelled change, else an arbitrary jump
            add, dele = rng.choice(list(ground_outcomes(domain, action)))
            nxt = (prev - dele) | add
        else:
            nxt = random_state(rng, domain, n_obj)
        table = ObjectTable(["o%d" % i for i in range(n_obj)])
        got = _explain_change(domain, prev, nxt, table)
        assert got == explain_by_product(domain, prev, nxt, n_obj)
        explained += got is not None
    assert explained >= 5 * N_CASES


def random_atoms(rng, domain, n_vars):
    atoms = []
    for _ in range(rng.randint(0, 3)):
        pid = rng.randrange(len(domain.predicates))
        atom = (pid,) + tuple(rng.randrange(n_vars)
                              for _ in range(domain.predicates[pid].arity))
        atoms.append((rng.choice("sg"), atom))
    return atoms


def index_contents(side):
    nonempty = lambda buckets: {k: set(b) for k, b in buckets.items() if b}
    return set(side.facts), nonempty(side.by_pred), nonempty(side.by_pos)


def test_incremental_index_equals_rebuilt():
    rng = random.Random(414)
    domains = [env_domain(k) for k in ("blocks", "pickplace", "gacha")]
    for case in range(N_CASES):
        domain = domains[case % 3]
        n_obj = rng.randint(1, 4)
        goal = random_state(rng, domain, n_obj)
        idx = StateIndex(random_state(rng, domain, n_obj), goal)
        for _ in range(rng.randint(1, 8)):
            pool = sorted(random_state(rng, domain, n_obj) | goal)
            if not pool:
                break
            add = rng.sample(pool, rng.randint(0, min(3, len(pool))))
            dele = rng.sample(pool, rng.randint(0, min(3, len(pool))))
            idx.apply(add, dele)
        fresh = StateIndex(frozenset(idx.held.facts), goal)
        for side in ("s", "g"):
            assert index_contents(idx.sides[side]) == index_contents(fresh.sides[side])
        assert set(idx.unachieved.facts) == goal - frozenset(idx.held.facts)
        n_vars = rng.randint(1, 3)
        for _ in range(3):
            plan = _compile_plan(random_atoms(rng, domain, n_vars))
            assert Counter(_matches(idx, plan, n_vars)) == \
                Counter(_matches(fresh, plan, n_vars))


def test_compacted_buckets_keep_insertion_order():
    rng = random.Random(4141)
    domains = [env_domain(k) for k in ("blocks", "pickplace", "gacha")]
    compactions = 0
    for case in range(N_CASES // 4):
        domain = domains[case % 3]
        n_obj = rng.randint(1, 4)
        goal = random_state(rng, domain, n_obj)
        init = random_state(rng, domain, n_obj)
        idx = StateIndex(init, goal)
        # each side's facts in insertion order; a re-added fact goes last
        order = {"s": sorted(init), "g": sorted(goal - init)}
        pool = sorted(random_state(rng, domain, n_obj) | goal | init)
        for _ in range(300):
            fact = rng.choice(pool)
            buckets = {side: dict(idx.sides[side].by_pred) for side in "sg"}
            if rng.random() < 0.5:
                idx.add(fact)
                if fact not in order["s"]:
                    order["s"].append(fact)
                if fact in order["g"]:
                    order["g"].remove(fact)
            else:
                idx.remove(fact)
                if fact in order["s"]:
                    order["s"].remove(fact)
                if fact in goal and fact not in order["g"]:
                    order["g"].append(fact)
            for side in "sg":
                by_pred = idx.sides[side].by_pred
                compactions += sum(by_pred[p] is not b for p, b in buckets[side].items())
                for p, bucket in by_pred.items():
                    assert list(bucket) == [f for f in order[side] if f[0] == p]
            if rng.random() < 0.1:
                fresh = StateIndex(frozenset(idx.held.facts), goal)
                n_vars = rng.randint(1, 3)
                plan = _compile_plan(random_atoms(rng, domain, n_vars))
                assert Counter(_matches(idx, plan, n_vars)) == \
                    Counter(_matches(fresh, plan, n_vars))
    assert compactions > 1000


def assert_compaction_bound(index, order):
    """Every per-predicate bucket holds at most 1/16 of its facts in holes, or
    else at most its facts and at most 8, and enumerates in ``order``."""
    for p, bucket in index.by_pred.items():
        holes, n = index.holes.get(p, 0), len(bucket)
        assert holes * 16 <= n or holes <= min(n, 8), (p, holes, n)
        assert list(bucket) == [f for f in order if f[0] == p]


def test_compaction_bound_first_in_first_out():
    """Goals met in the order they were added leave the bucket from the
    front; its dead prefix stays within the bound as it drains."""
    index = FactIndex()
    order = [(0, i, i + 1) for i in range(10000)]
    for f in order:
        index.add(f)
    copies = 0
    while order:
        bucket = index.by_pred[0]
        index.remove(order.pop(0))
        copies += index.by_pred[0] is not bucket
        holes, n = index.holes[0], len(index.by_pred[0])
        assert holes * 16 <= n or holes <= min(n, 8), (holes, n)
        assert list(index.by_pred[0]) == order
    # each copy follows at least len/16 removals: a logarithmic number of them
    assert 60 <= copies <= 200, copies


def test_compaction_bound_under_random_adds_and_removes():
    rng = random.Random(4142)
    index = FactIndex()
    # three predicates whose buckets hold a few, tens and hundreds of facts
    pool = [(0, i) for i in range(6)] + [(1, i, i % 7) for i in range(60)] + \
        [(2, i, i % 11) for i in range(600)]
    order = []
    copies = removals = 0
    for step in range(20000):
        fact = rng.choice(pool)
        buckets = dict(index.by_pred)
        if rng.random() < 0.5 + 0.3 * (step // 2000 % 2):
            index.add(fact)
            if fact not in order:
                order.append(fact)
        elif fact in index.facts:
            index.remove(fact)
            order.remove(fact)
            removals += 1
            copies += index.by_pred[fact[0]] is not buckets[fact[0]]
        assert_compaction_bound(index, order)
    # tiny buckets are not copied on every removal
    assert removals >= 3000 and copies * 5 <= removals, (copies, removals)


# ---------------------------------------------------------------------------
# Incremental goal count
# ---------------------------------------------------------------------------

def test_goal_delta_equals_recount():
    rng = random.Random(7)
    overlaps = 0  # outcomes that add and delete a goal fact the state holds
    for _ in range(3000):
        domain = random_domain(rng)
        n_obj = rng.randint(1, 3)
        state = random_state(rng, domain, n_obj)
        goal = random_state(rng, domain, n_obj) | frozenset(
            rng.sample(sorted(state), min(len(state), rng.randint(0, 2))))
        action = random_action(rng, domain, n_obj)
        h = goal_count(state, goal)
        for add, dele in ground_outcomes(domain, action):
            overlaps += bool(add & dele & goal & state)
            assert h + _goal_delta(add, dele, goal, state) == \
                goal_count((state - dele) | add, goal)
    assert overlaps >= 40


def test_adversarial_outcome_equals_set_recount():
    rng = random.Random(71)
    picked_later = 0  # cases where the worst outcome is not the first
    for _ in range(2000):
        domain = random_domain(rng)
        n_obj = rng.randint(1, 3)
        goal = random_state(rng, domain, n_obj)
        idx = StateIndex(random_state(rng, domain, n_obj), goal)
        pool = sorted(random_state(rng, domain, n_obj) | goal)
        for _ in range(rng.randint(0, 6)):
            idx.apply(rng.sample(pool, rng.randint(0, min(2, len(pool)))),
                      rng.sample(pool, rng.randint(0, min(2, len(pool)))))
        # an outcome may add and delete the same fact
        outcomes = [(frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool))))),
                     frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool))))))
                    for _ in range(rng.randint(1, 4))]
        unmet = [len((set(idx.unachieved.facts) | (goal & dele)) - add)
                 for add, dele in outcomes]
        want = unmet.index(max(unmet))
        assert adversarial_outcome(outcomes, idx) == want
        picked_later += want > 0
    assert picked_later >= 300
