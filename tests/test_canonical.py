"""Differential test for the rule canonicaliser.

``reference_canonical_parts`` is the canonicaliser that ``_canonical_parts``
replaced: it explores every tie order with continuation-passing closures and
keeps the least emission in a mutable cell.  The generator-and-``min`` form
explores the same candidates, so the two must agree on every rule.
"""

import random

import pytest

from bison import learn
from bison.envs import EnvConfig, env_domain, generate_demos, make_labeller
from bison.rules import Rule, _atom_key, _canonical_parts, unconstrained_vars


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
def lifted():
    rules = []
    # blocks-noisy n=4 lifts conditions of 13 atoms with wide ties; a few of
    # its demos already take most of the test's time
    for kind, n, count in (("blocks", 3, 10), ("blocks-noisy", 3, 10),
                           ("blocks-noisy", 4, 3), ("pickplace", 2, 10),
                           ("pickplace", 3, 10)):
        rules.extend(dict.fromkeys(lifted_rules(kind, n, count)))  # distinct, in order
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
