"""Ordered differential tests for the compiled rule join.

``reference_enum_matches`` is the interpreted join the compiled one replaced:
at every level it ranks all remaining atoms (bound argument positions
descending, candidate bucket size ascending, declaration order) and tests a
fully bound atom only when it ranks first.  The compiled join must yield the
same bindings in the same order, since the first binding decides which action
a rule selects and the order of ``schema_actions`` decides which plan a search
finds.
"""

import itertools
import random

from bison.bench import gen_blocks_hl_problem
from bison.core import (ActionSchema, Domain, GroundAction, HLProblem,
                        ObjectTable, Predicate, applicable, ground_outcomes,
                        instantiate)
from bison.envs import builtin_policy
from bison.rules import (HLPolicy, StateIndex, _compile_plan, _matches, match_rule,
                         schema_actions, solve_hl)

import test_properties as props
from helpers import adversarial_outcome


# ---------------------------------------------------------------------------
# The reference: the interpreted join, as it was
# ---------------------------------------------------------------------------

def reference_bucket(index, atom, binding):
    """Smallest candidate bucket for an atom under the current partial binding."""
    best = index.by_pred.get(atom[0])
    if best is None:
        best = {}
    for pos, v in enumerate(atom[1:]):
        if binding[v] is not None:
            b = index.by_pos.get((atom[0], pos, binding[v]))
            if b is None:
                return {}
            if len(b) < len(best):
                best = b
    return best


def reference_enum_matches(idx, atoms, binding):
    if not atoms:
        yield tuple(binding)
        return
    sides = idx.sides
    best_i, best_rank, best_bucket = -1, None, None
    for i, (src, atom) in enumerate(atoms):
        bound = sum(1 for v in atom[1:] if binding[v] is not None)
        bucket = reference_bucket(sides[src], atom, binding)
        rank = (-bound, len(bucket), i)
        if best_rank is None or rank < best_rank:
            best_i, best_rank, best_bucket = i, rank, bucket
    src, atom = atoms[best_i]
    rest = atoms[:best_i] + atoms[best_i + 1:]
    if all(binding[v] is not None for v in atom[1:]):
        if instantiate(atom, binding) in sides[src].facts:
            yield from reference_enum_matches(idx, rest, binding)
        return
    for fact in list(best_bucket):
        touched = []
        ok = True
        for v, o in zip(atom[1:], fact[1:]):
            if binding[v] is None:
                binding[v] = o
                touched.append(v)
            elif binding[v] != o:
                ok = False
                break
        if ok:
            yield from reference_enum_matches(idx, rest, binding)
        for v in touched:
            binding[v] = None


def reference_schema_actions(domain, sid, idx, n_objects):
    sch = domain.schemata[sid]
    seen = set()
    for binding in reference_enum_matches(idx, [("s", a) for a in sch.pre],
                                          [None] * sch.arity):
        if binding in seen:
            continue
        seen.add(binding)
        free = [v for v in range(sch.arity) if binding[v] is None]
        for combo in itertools.product(range(n_objects), repeat=len(free)):
            b = list(binding)
            for v, o in zip(free, combo):
                b[v] = o
            yield GroundAction(sid, tuple(b))


def reference_select(policy, idx, objects):
    for i, rule in enumerate(policy.rules):
        if policy.dead[i]:
            continue
        found = next(reference_enum_matches(idx, rule.atoms(), [None] * rule.n_vars),
                     None)
        if found is None:
            continue
        objs = list(objects)
        if None in found:
            if not objs:
                continue
            found = tuple(objs[0] if o is None else o for o in found)
        return GroundAction(rule.head_schema, tuple(found[v] for v in rule.head_args))
    return None


def reference_adversarial(outcomes, idx):
    worst, worst_n = 0, -1
    for i, (add, dele) in enumerate(outcomes):
        un = (set(idx.unachieved.facts) | (idx.goal & dele)) - add
        if len(un) > worst_n:
            worst, worst_n = i, len(un)
    return worst


def reference_solve(policy, problem, adversarial, step_cap):
    """(actions, outcomes) of the policy run the way ``solve_hl`` runs it."""
    domain = problem.domain
    idx = StateIndex(problem.init, problem.goal)
    objects = range(len(problem.objects))
    actions, outcomes = [], []
    while not idx.solved() and len(outcomes) < step_cap:
        action = reference_select(policy, idx, objects)
        if action is None:
            break
        actions.append(action)
        if not applicable(domain, idx.held.facts, action):
            break
        outs = list(ground_outcomes(domain, action))
        k = reference_adversarial(outs, idx) if adversarial and len(outs) > 1 else 0
        idx.apply(*outs[k])
        outcomes.append(k)
    return actions, outcomes


# ---------------------------------------------------------------------------
# Random instances with 0- to 3-ary predicates
# ---------------------------------------------------------------------------

def random_preds(rng):
    arities = [rng.choice((0, 1, 2, 2, 3, 3)) for _ in range(rng.randint(2, 4))]
    return [Predicate("p%d" % i, a) for i, a in enumerate(arities)]


def random_facts(rng, preds, n_obj, count):
    facts = set()
    for _ in range(count):
        p = rng.randrange(len(preds))
        facts.add((p,) + tuple(rng.randrange(n_obj) for _ in range(preds[p].arity)))
    return facts


def mutated_index(rng, preds, n_obj):
    """A StateIndex after random adds and removes; returns (index, compactions)."""
    goal = frozenset(random_facts(rng, preds, n_obj, rng.randint(0, 4 * n_obj)))
    idx = StateIndex(random_facts(rng, preds, n_obj, rng.randint(0, 8 * n_obj)), goal)
    pool = sorted(random_facts(rng, preds, n_obj, 10 * n_obj) | goal)
    compactions = 0
    for _ in range(rng.choice((0, 10, 80))):
        before = {side: dict(idx.sides[side].by_pred) for side in "sg"}
        fact = rng.choice(pool)
        if rng.random() < 0.45:
            idx.add(fact)
        else:
            idx.remove(fact)
        compactions += sum(idx.sides[side].by_pred[p] is not b
                           for side in "sg" for p, b in before[side].items())
    return idx, compactions


def random_join(rng, preds):
    """(side, atom) list over n_vars variables, and n_vars."""
    n_vars = rng.randint(1, 4)
    atoms = []
    for _ in range(rng.randint(0, 6)):
        p = rng.randrange(len(preds))
        atoms.append((rng.choice("sssg"),
                      (p,) + tuple(rng.randrange(n_vars) for _ in range(preds[p].arity))))
    return atoms, n_vars


def test_join_order_equals_reference():
    rng = random.Random(808)
    seen = dict.fromkeys(("compactions", "ordered", "g_side", "nullary",
                          "repeat_ranked"), 0)
    for _ in range(5000):
        preds = random_preds(rng)
        n_obj = rng.randint(2, 5)
        idx, compactions = mutated_index(rng, preds, n_obj)
        seen["compactions"] += compactions
        for _ in range(4):
            atoms, n_vars = random_join(rng, preds)
            want = list(reference_enum_matches(idx, atoms, [None] * n_vars))
            got = _matches(idx, _compile_plan(atoms), n_vars)
            assert got == want, atoms
            if got != sorted(got):
                seen["ordered"] += 1
                seen["g_side"] += any(side == "g" for side, _ in atoms)
                seen["nullary"] += any(len(a) == 1 for _, a in atoms)
                seen["repeat_ranked"] += any(
                    len(a) == 4 and len(set(a[1:])) == 2 for _, a in atoms)
    # every feature shows up in cases whose order is not the sorted one
    assert seen["compactions"] >= 1000, seen
    assert seen["ordered"] >= 700, seen
    assert min(seen.values()) >= 100, seen


def test_match_rule_is_reference_first_binding():
    rng = random.Random(809)
    firsts = 0
    for _ in range(800):
        domain = props.random_domain(rng)
        n_obj = rng.randint(1, 5)
        idx, _ = mutated_index(rng, domain.predicates, n_obj)
        rule = props.random_rule(rng, domain)
        want = next(reference_enum_matches(idx, rule.atoms(), [None] * rule.n_vars),
                    None)
        objects = range(rng.randint(0, n_obj))
        if want is not None and None in want:
            want = None if not objects else tuple(objects[0] if o is None else o
                                                  for o in want)
        got = match_rule(rule, idx, len(objects))
        assert got == want
        firsts += want is not None
    assert firsts >= 100


def test_schema_actions_order_equals_reference():
    rng = random.Random(810)
    actions = 0
    for _ in range(800):
        domain = props.random_domain(rng)
        n_obj = rng.randint(1, 4)
        idx, _ = mutated_index(rng, domain.predicates, n_obj)
        for sid in range(len(domain.schemata)):
            got = list(schema_actions(domain, sid, idx, n_obj))
            assert got == list(reference_schema_actions(domain, sid, idx, n_obj))
            actions += len(got)
    assert actions >= 2000


def _three_ary_domain():
    """Rules whose atoms repeat a variable in a 3-ary predicate, so that bound
    positions and bound variables rank apart."""
    preds = [Predicate("r", 3), Predicate("q", 2), Predicate("u", 1)]
    move = ActionSchema("m", ("?a", "?b"), frozenset({(2, 0)}),
                        ((frozenset({(1, 0, 1)}), frozenset({(2, 0)})),
                         (frozenset({(2, 1)}), frozenset())))
    return Domain(preds, [move], "three")


def test_solve_hl_equals_reference_selector(blocks_policy):
    cases = 0
    for n in (1, 2, 3, 5, 8, 13, 21):
        for seed in range(3):
            prob = gen_blocks_hl_problem(n, seed)
            for policy in (blocks_policy, builtin_policy("blocks")):
                res = solve_hl(policy, prob, step_cap=8 * n + 64)
                assert (res.actions, res.outcomes) == \
                    reference_solve(policy, prob, False, 8 * n + 64)
                cases += res.solved
    rng = random.Random(811)
    three = _three_ary_domain()
    for case in range(300):
        domain = three if case % 3 == 0 else props.random_domain(rng)
        n_obj = rng.randint(1, 5)
        table = ObjectTable(["o%d" % i for i in range(n_obj)])
        init = frozenset(random_facts(rng, domain.predicates, n_obj, 3 * n_obj))
        goal = frozenset(random_facts(rng, domain.predicates, n_obj, n_obj))
        rules = [props.random_rule(rng, domain) for _ in range(rng.randint(1, 4))]
        policy = HLPolicy(rules, domain)
        prob = HLProblem(domain, table, init, goal)
        for adversarial in (False, True):
            chooser = adversarial_outcome if adversarial else None
            res = solve_hl(policy, prob, outcome_chooser=chooser, step_cap=12)
            assert (res.actions, res.outcomes) == \
                reference_solve(policy, prob, adversarial, 12)
            cases += res.steps > 1
    assert cases >= 100


def test_join_yields_each_binding_once():
    """No binding repeats, which is why ``schema_actions`` keeps no seen-set: a
    fully bound atom only filters, and every join level binds a fresh variable
    from distinct facts of one bucket while comparing every bound position."""
    rng = random.Random(811)
    seen = dict.fromkeys(("repeated", "actions"), 0)
    for _ in range(3000):
        preds = random_preds(rng)
        n_obj = rng.randint(2, 5)
        idx, _ = mutated_index(rng, preds, n_obj)
        for _ in range(4):
            atoms, n_vars = random_join(rng, preds)
            out = _matches(idx, _compile_plan(atoms), n_vars)
            assert len(set(out)) == len(out), atoms
            if len(out) > 1:
                seen["repeated"] += any(len(set(a[1:])) < len(a) - 1 for _, a in atoms)
    for _ in range(400):
        domain = props.random_domain(rng)
        n_obj = rng.randint(1, 4)
        idx, _ = mutated_index(rng, domain.predicates, n_obj)
        for sid in range(len(domain.schemata)):
            got = list(schema_actions(domain, sid, idx, n_obj))
            assert len(set(got)) == len(got)
            seen["actions"] += len(got) > 1
    assert min(seen.values()) >= 100, seen


def test_variable_free_atoms_gate_the_join():
    """A plan of nullary atoms binds no variable, so ``_level(plan, 0)`` is
    empty and the join itself tests none of them: ``_matches``' up-front check
    is their one guard.  The plan yields the all-None binding exactly when
    each atom holds on its side ("s": the state, "g": a goal the state lacks),
    on a fresh index and on one whose emptied buckets remain."""
    atoms = [(side, (p,)) for side in "sg" for p in range(3)]
    plans = [list(c) for k in (1, 2, 3) for c in itertools.product(atoms, repeat=k)]
    facts = [(p,) for p in range(3)]
    subsets = [frozenset(c) for k in range(4) for c in itertools.combinations(facts, k)]
    yields = 0
    for state, goal in itertools.product(subsets, repeat=2):
        fresh = StateIndex(state, goal)
        emptied = StateIndex(facts, goal)
        for fact in set(facts) - state:
            emptied.remove(fact)
        for plan in plans:
            holds = all(a in state if side == "s" else a in goal and a not in state
                        for side, a in plan)
            compiled = _compile_plan(plan)
            for n_vars, idx, first in itertools.product((0, 1, 2), (fresh, emptied),
                                                        (False, True)):
                want = [(None,) * n_vars] if holds else []
                assert _matches(idx, compiled, n_vars, first) == want, (plan, state, goal)
            yields += holds
    assert 0 < yields < len(subsets) ** 2 * len(plans)


def emptied_index(rng, preds, n_obj):
    """A mutated index, sometimes with one predicate's facts all removed on a
    side, so that a bucket exists but is empty."""
    idx, _ = mutated_index(rng, preds, n_obj)
    if rng.random() < 0.3:
        p = rng.randrange(len(preds))
        for fact in list(idx.held.facts):
            if fact[0] == p:
                idx.remove(fact)
    if rng.random() < 0.3:
        p = rng.randrange(len(preds))
        for fact in list(idx.unachieved.facts):
            if fact[0] == p:
                idx.add(fact)
    return idx


def test_one_plan_memo_holds_across_indexes_and_bindings():
    """A plan memoises its join levels per bound-variable mask, so one plan
    must give the reference's bindings on any index, in whatever order they
    come: its memo holds nothing the facts decide."""
    rng = random.Random(812)
    seen = dict.fromkeys(("masks", "deduped", "emptied", "repeated", "ordered"), 0)
    for _ in range(400):
        preds = random_preds(rng)
        n_obj = rng.randint(2, 6)
        atoms, n_vars = random_join(rng, preds)
        plan = _compile_plan(atoms)
        cases = [emptied_index(rng, preds, n_obj) for _ in range(24)]
        for idx in cases + cases[::-1]:
            want = list(reference_enum_matches(idx, atoms, [None] * n_vars))
            assert _matches(idx, plan, n_vars) == want, atoms
            if want != sorted(want):
                seen["ordered"] += 1
            seen["emptied"] += any(not b for side in "sg"
                                   for b in idx.sides[side].by_pred.values())
        seen["masks"] += len(plan.levels) > 2
        seen["repeated"] += any(len(set(a[1:])) < len(a) - 1 for _, a in atoms)
        # a level ranks fewer atoms than it leaves unbound: one was dropped
        seen["deduped"] += any(len(level) < sum(1 for a in plan.atoms if a[3] & ~bound)
                               for bound, level in plan.levels.items() if level)
    assert min(seen.values()) >= 50, seen
