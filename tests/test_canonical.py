"""Differential tests for the rule canonicaliser and the policy built on it.

``reference_canonical_parts`` is the canonicaliser that ``_canonical_parts``
replaced: it explores every tie order with continuation-passing closures and
keeps the least emission in a mutable cell.  The generator-and-``min`` form
explores the same candidates, so the two must agree on every rule.

``reference_policy`` is ``HLPolicy``'s constructor loop as it was: it validates
and canonicalises every rule it is given.  ``HLPolicy`` does both once per
distinct rule body, so the two must keep the same canonical rules, in the same
order.  A policy built from rules in memory must select what its ``.bsp``
selects, since it holds them as their lines read back.
"""

import dataclasses
import random

import pytest

from bison import learn, rules as rules_mod
from bison.core import ObjectTable, StructuralError, atom_str
from bison.envs import EnvConfig, env_domain, generate_demos, make_labeller
from bison.formats import parse_policy, serialize_policy
from bison.rules import (HLPolicy, Rule, StateIndex, _atom_key, _canonical_parts,
                         rule_is_dead, select_action, unconstrained_vars, validate_rule)


# ---------------------------------------------------------------------------
# The reference: the continuation-passing canonicaliser, as it was
# ---------------------------------------------------------------------------

def reference_canonical_parts(rule):
    best = [None]

    def emit_group(atoms, ren, next_id, done, emitted, cont):
        if len(done) == len(atoms):
            cont(ren, next_id, emitted)
            return
        keyed = sorted((_atom_key(a, ren), i) for i, a in enumerate(atoms) if i not in done)
        min_key = keyed[0][0]
        for key, i in keyed:
            if key != min_key:
                break
            ren2, nid = dict(ren), next_id
            for v in atoms[i][1:]:
                if v not in ren2:
                    ren2[v] = nid
                    nid += 1
            emit_group(atoms, ren2, nid, done | {i},
                       emitted + [(atoms[i][0],) + tuple(ren2[v] for v in atoms[i][1:])], cont)

    ren0, nid0 = {}, 0
    for v in rule.head_args:
        if v not in ren0:
            ren0[v] = nid0
            nid0 += 1
    s_atoms = sorted(rule.s_cond)
    g_atoms = sorted(rule.g_cond)

    def after_s(ren, nid, s_emitted):
        def after_g(ren2, nid2, g_emitted):
            total = nid2
            for v in range(rule.n_vars):  # unconstrained head-less variables
                if v not in ren2:
                    ren2[v] = total
                    total += 1
            head = tuple(ren2[v] for v in rule.head_args)
            cand = (head, tuple(s_emitted), tuple(g_emitted), total)
            if best[0] is None or cand < best[0]:
                best[0] = cand
        emit_group(g_atoms, ren, nid, frozenset(), [], after_g)

    emit_group(s_atoms, ren0, nid0, frozenset(), [], after_s)
    return best[0]


# ---------------------------------------------------------------------------
# Rules to compare on
# ---------------------------------------------------------------------------

def lifted_rules(kind, n, count=10, seed=2):
    """Every rule ``learn_hl_policy`` lifts from ``count`` oracle demos, before
    the policy merges duplicates."""
    demos = generate_demos(EnvConfig(kind, n, seed=seed), count)
    captured = []
    build = learn.HLPolicy

    def capture(rules, domain):
        captured.extend(rules)
        return build([], domain)
    learn.HLPolicy = capture
    try:
        learn.learn_hl_policy(demos, env_domain(kind), make_labeller(kind))
    finally:
        learn.HLPolicy = build
    return captured


def renamed(rule, rng):
    perm = list(range(rule.n_vars))
    rng.shuffle(perm)
    return Rule(rule.val, rule.n_vars,
                frozenset((a[0],) + tuple(perm[v] for v in a[1:]) for a in rule.s_cond),
                frozenset((a[0],) + tuple(perm[v] for v in a[1:]) for a in rule.g_cond),
                rule.head_schema, tuple(perm[v] for v in rule.head_args))


def random_rule(rng, domain):
    """A rule over few variables, so atoms repeat variables and tie often;
    some variables appear nowhere and either condition may be empty."""
    n_vars = rng.randint(1, 5)

    def cond(k):
        atoms = set()
        for _ in range(k):
            p = rng.randrange(len(domain.predicates))
            atoms.add((p,) + tuple(rng.randrange(n_vars)
                                   for _ in range(domain.predicates[p].arity)))
        return frozenset(atoms)
    sid = rng.randrange(len(domain.schemata))
    head = tuple(rng.randrange(n_vars) for _ in range(domain.schemata[sid].arity))
    return Rule(0, n_vars, cond(rng.randint(0, 4)), cond(rng.randint(0, 3)), sid, head)


@pytest.fixture(scope="module")
def lifted_corpora():
    """(kind, every rule the learner lifts, in its order) per demo corpus."""
    # blocks-noisy n=4 lifts conditions of 13 atoms with wide ties; a few of
    # its demos already take most of the test's time
    return [(kind, lifted_rules(kind, n, count))
            for kind, n, count in (("blocks", 3, 10), ("blocks-noisy", 3, 10),
                                   ("blocks-noisy", 4, 3), ("pickplace", 2, 10),
                                   ("pickplace", 3, 10))]


@pytest.fixture(scope="module")
def lifted(lifted_corpora):
    rules = []
    for _, corpus in lifted_corpora:
        rules.extend(dict.fromkeys(corpus))  # distinct, in order
    return rules


def test_canonical_parts_equal_reference(lifted):
    # the lifted corpus holds long conditions with many tied atoms
    assert len(lifted) >= 140
    assert max(len(r.s_cond) + len(r.g_cond) for r in lifted) >= 13
    rng = random.Random(1606)
    rules = lifted + [renamed(r, rng) for r in lifted]
    for kind in ("blocks", "pickplace", "gacha"):
        domain = env_domain(kind)
        rules += [random_rule(rng, domain) for _ in range(1000)]
    assert len(rules) >= 3000
    assert any(not r.s_cond and not r.g_cond for r in rules)
    assert any(unconstrained_vars(r) for r in rules)
    assert any(len(set(a[1:])) < len(a) - 1 for r in rules for a in r.s_cond | r.g_cond)
    for rule in rules:
        assert _canonical_parts(rule) == reference_canonical_parts(rule), rule


# ---------------------------------------------------------------------------
# HLPolicy against its per-rule constructor loop
# ---------------------------------------------------------------------------

def reference_policy(rules, domain):
    """(rules, dead, serialization) of the constructor loop as it was, each
    kept rule in canonical form: renamed by ``reference_canonical_parts``,
    each condition's atoms inserted in the order its line prints them."""
    seen = {}
    for r in rules:
        validate_rule(r, domain)
        head, s_atoms, g_atoms, n_vars = reference_canonical_parts(r)
        names = ["?v%d" % i for i in range(n_vars)]
        body = "(:vars %s) (:state %s) (:goal %s) => %s" % (
            " ".join(names), " ".join(atom_str(domain.predicates, a, names) for a in s_atoms),
            " ".join(atom_str(domain.predicates, a, names) for a in g_atoms),
            atom_str(domain.schemata, (r.head_schema,) + head, names))
        if body not in seen or r.val < seen[body].val:
            seen[body] = Rule(r.val, n_vars, frozenset(s_atoms), frozenset(g_atoms),
                              r.head_schema, head)
    kept = sorted((r.val, body, r) for body, r in seen.items())
    kept_rules = tuple(r for _, _, r in kept)
    return (kept_rules, tuple(rule_is_dead(r) for r in kept_rules),
            "".join("%d: %s\n" % (r.val + 1, body) for _, body, r in kept))


def body_key(rule):
    return (rule.n_vars, rule.s_cond, rule.g_cond, rule.head_schema, rule.head_args)


def assert_policy_matches_reference(rules, domain, monkeypatch):
    ref = reference_policy(rules, domain)
    calls = []
    counted = rules_mod.canonical_rule

    def counting(rule):
        calls.append(body_key(rule))
        return counted(rule)
    monkeypatch.setattr(rules_mod, "canonical_rule", counting)
    policy = HLPolicy(rules, domain)
    monkeypatch.undo()
    assert (policy.rules, policy.dead, serialize_policy(policy)) == ref
    # the atoms iterate, and so join, in the order the reference's line lists them
    assert [r.atoms() for r in policy.rules] == [r.atoms() for r in ref[0]]
    # one canonicalisation per distinct body, none for a repeat
    assert len(calls) == len(set(calls)) and set(calls) == set(map(body_key, rules))


def test_policy_matches_reference_on_lifted_rules(lifted_corpora, monkeypatch):
    # the learner lifts the same body again from demo after demo
    assert sum(len(set(map(body_key, corpus))) < len(corpus)
               for _, corpus in lifted_corpora) >= 4
    for kind, corpus in lifted_corpora:
        assert_policy_matches_reference(corpus, env_domain(kind), monkeypatch)


def random_multiset(rng, domain):
    """A few rules, each at several vals and as renamed copies, plus copies
    that differ from it in one part of the body only, shuffled."""
    out = []
    for _ in range(rng.randint(1, 6)):
        base = random_rule(rng, domain)
        variants = [base,
                    dataclasses.replace(base, g_cond=frozenset(list(base.g_cond)[1:])),
                    dataclasses.replace(base, s_cond=frozenset(list(base.s_cond)[1:])),
                    dataclasses.replace(base, n_vars=base.n_vars + 1)]
        for rule in variants[:rng.randint(1, len(variants))]:
            for _ in range(rng.randint(1, 4)):
                copy = rule if rng.random() < 0.5 else renamed(rule, rng)
                out.append(dataclasses.replace(copy, val=rng.randrange(4)))
    rng.shuffle(out)
    return out


def test_policy_matches_reference_on_random_multisets(monkeypatch):
    rng = random.Random(1707)
    for kind in ("blocks", "pickplace", "gacha"):
        domain = env_domain(kind)
        for _ in range(300):
            assert_policy_matches_reference(random_multiset(rng, domain), domain,
                                            monkeypatch)


def test_policy_rejects_the_first_invalid_rule_as_the_reference_does():
    domain = env_domain("blocks")
    rng = random.Random(5)
    good = [random_rule(rng, domain) for _ in range(5)]
    bad = dataclasses.replace(good[2], head_args=(99,) * len(good[2].head_args))
    assert bad.head_args  # a variable out of range
    rules = good + [bad, good[0]]
    with pytest.raises(StructuralError) as ref:
        reference_policy(rules, domain)
    with pytest.raises(StructuralError) as got:
        HLPolicy(rules, domain)
    assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# A policy selects what its .bsp selects
# ---------------------------------------------------------------------------

def labelled_states(kind, ns, seeds):
    """(state, goal, object count) of each distinct labelled step of one
    oracle demo per object count and seed."""
    domain, labeller = env_domain(kind), make_labeller(kind)
    found = {}
    for n in ns:
        for seed in seeds:
            for demo in generate_demos(EnvConfig(kind, n, seed=seed), 1):
                table = ObjectTable(demo.steps[0].objects)
                goal = frozenset(domain.ground_fact(g[0], g[1:], table) for g in demo.goal)
                for step in demo.steps:
                    found.setdefault((labeller(step, table), goal), len(table))
    return [(state, goal, n) for (state, goal), n in found.items()]


def selection_mismatches(policy, states):
    reread = parse_policy(serialize_policy(policy), policy.domain)
    return [(state, goal) for state, goal, n in states
            if select_action(policy, StateIndex(state, goal), n)
            != select_action(reread, StateIndex(state, goal), n)]


def test_policy_from_lifted_rules_selects_what_its_file_selects():
    states = labelled_states("pickplace", range(1, 6), range(41, 46))
    assert len(states) >= 250
    policy = HLPolicy(lifted_rules("pickplace", 3, 10), env_domain("pickplace"))
    assert len(policy) >= 20
    assert selection_mismatches(policy, states) == []


def test_policy_from_random_multisets_selects_what_its_file_selects():
    rng = random.Random(1808)
    fired = 0
    for kind in ("blocks", "pickplace", "gacha"):
        domain = env_domain(kind)
        states = labelled_states(kind, range(1, 4), range(41, 43))
        for _ in range(60):
            policy = HLPolicy(random_multiset(rng, domain), domain)
            fired += any(select_action(policy, StateIndex(state, goal), n)
                         for state, goal, n in states)
            assert selection_mismatches(policy, states) == []
    assert fired >= 60  # most policies select somewhere
