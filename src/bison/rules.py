"""Prioritized first-order condition-action rules and their execution.

A rule fires in state s with goal g when its state condition is contained in s
and its goal condition is contained in the unachieved goals g \\ s.  Rule
selection scans rules by ascending priority and grounds conditions by a
most-constrained-atom-first join over per-predicate fact indexes; this is what
makes policy execution at 10k-object scale possible.  The same join grounds
action preconditions: it enumerates applicable actions for the planners and
for explaining abstraction changes while learning, and joins a precondition
with an unmet goal for the AND-OR planner's lookahead.

Each rule's condition atoms, and each schema's precondition, are compiled once
into a join plan: per atom its side, predicate, argument variables, a variable
bitmask and its (position, variable) pairs.  The join tracks bound variables as
an int bitmask, tests an atom with one membership lookup as soon as its
variables are all bound, and ranks only the atoms that still bind something:
bound argument positions descending, then candidate bucket size ascending,
then declaration order.  A fully bound atom only filters, so checking it early
leaves the order of the bindings unchanged.  Each join level binds at least
one fresh variable from distinct facts of one bucket, so the join never yields
a binding twice and ``schema_actions`` passes its bindings on as they come.
An ``HLPolicy`` canonicalises each distinct rule body once, when it is built,
and serializes from those canonical forms.

``check_ndrp`` tests a demo's labelled LL steps against a rule policy: every
abstraction change must be an outcome of the action the policy selects.
This module builds on ``core`` alone.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .core import (Atom, Domain, Fact, GroundAction, HLProblem, HLState,
                   StructuralError, applicable, check_atoms, ground_outcomes,
                   successors)

_BIG = 1 << 30  # sort placeholder for not-yet-renamed variables


@dataclass(frozen=True)
class Rule:
    """⟨val, vars, sCond, gCond, aHead⟩ with variables as indices 0..n_vars-1."""

    val: int
    n_vars: int
    s_cond: frozenset  # frozenset[Atom]
    g_cond: frozenset
    head_schema: int
    head_args: tuple  # tuple[int, ...] variable indices
    plan: tuple = field(init=False, repr=False, compare=False)  # join plan of atoms()

    def __post_init__(self):
        object.__setattr__(self, "plan", _compile_plan(self.atoms()))

    def atoms(self):
        return [("s", a) for a in self.s_cond] + [("g", a) for a in self.g_cond]


def validate_rule(rule: Rule, domain: Domain):
    check_atoms(domain.schemata, [(rule.head_schema,) + rule.head_args], rule.n_vars,
                "rule head")
    check_atoms(domain.predicates, rule.s_cond | rule.g_cond, rule.n_vars, "rule")


def rule_is_dead(rule: Rule) -> bool:
    # an atom required both in s and in g \ s can never be satisfied
    return bool(rule.s_cond & rule.g_cond)


def unconstrained_vars(rule: Rule) -> tuple:
    seen = set()
    for _, atom in rule.atoms():
        seen.update(atom[1:])
    return tuple(v for v in range(rule.n_vars) if v not in seen)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _atom_key(atom: Atom, ren: dict):
    return (atom[0],) + tuple(ren.get(v, _BIG) for v in atom[1:])


def _emissions(atoms: tuple, ren: dict, next_id: int):
    """Each emission of ``atoms`` that takes an atom of least ``_atom_key``
    next, naming its new variables from ``next_id`` on, as ``(renamed atoms,
    renaming, next id)``; tied atoms are each taken in turn, in order."""
    if not atoms:
        yield (), ren, next_id
        return
    keys = [_atom_key(a, ren) for a in atoms]
    least = min(keys)
    for i, atom in enumerate(atoms):
        if keys[i] != least:
            continue
        ren2, nid = dict(ren), next_id
        for v in atom[1:]:
            if v not in ren2:
                ren2[v] = nid
                nid += 1
        first = (atom[0],) + tuple(ren2[v] for v in atom[1:])
        for rest, ren3, nid3 in _emissions(atoms[:i] + atoms[i + 1:], ren2, nid):
            yield (first,) + rest, ren3, nid3


def _canonical_parts(rule: Rule):
    """Minimal (head, sCond, gCond, variable count) emission over variable
    renamings.

    Variables are renamed in emission order: head arguments first, then each
    condition atom in sorted order.  Sort ties between atoms that would
    introduce fresh variables are resolved by taking the least emission over
    every tie order, so the result is invariant under any renaming of the
    input rule's variables.
    """
    ren, nid = {}, 0
    for v in rule.head_args:
        if v not in ren:
            ren[v] = nid
            nid += 1
    head = tuple(ren[v] for v in rule.head_args)
    return min((head, s, g, nid_g + sum(v not in ren_g for v in range(rule.n_vars)))
               for s, ren_s, nid_s in _emissions(tuple(sorted(rule.s_cond)), ren, nid)
               for g, ren_g, nid_g in _emissions(tuple(sorted(rule.g_cond)), ren_s, nid_s))


def _atom_str(atom, domain: Domain):
    name = domain.predicates[atom[0]].name
    if len(atom) == 1:
        return "(%s)" % name
    return "(%s %s)" % (name, " ".join("?v%d" % v for v in atom[1:]))


def canonical_rule_str(rule: Rule, domain: Domain) -> str:
    """Display serialization: 1-based priority, ?v0-style canonical variables."""
    head, s_atoms, g_atoms, n_vars = _canonical_parts(rule)
    sch = domain.schemata[rule.head_schema]
    vars_s = " ".join("?v%d" % i for i in range(n_vars))
    s_s = " ".join(_atom_str(a, domain) for a in s_atoms)
    g_s = " ".join(_atom_str(a, domain) for a in g_atoms)
    head_s = sch.name if not head else "%s %s" % (sch.name, " ".join("?v%d" % v for v in head))
    return "%d: (:vars %s) (:state %s) (:goal %s) => (%s)" % (
        rule.val + 1, vars_s, s_s, g_s, head_s)


class HLPolicy:
    """Rules kept sorted by (val, canonical serialization), duplicates removed.

    Each distinct rule body (a rule without its ``val``) is validated and
    canonicalised once, here; ``serialize`` reuses the bodies.
    """

    def __init__(self, rules: Iterable[Rule], domain: Domain):
        self.domain = domain
        bodies = {}  # (n_vars, s_cond, g_cond, head_schema, head_args) -> canonical body
        seen = {}  # canonical body (the serialization minus its priority) -> rule
        for r in rules:
            key = (r.n_vars, r.s_cond, r.g_cond, r.head_schema, r.head_args)
            body = bodies.get(key)
            if body is None:
                validate_rule(r, domain)
                body = bodies[key] = canonical_rule_str(r, domain).split(": ", 1)[1]
            if body not in seen or r.val < seen[body].val:
                seen[body] = r
        # (val, body) orders as (val, full serialization): equal vals share a prefix
        kept = sorted((r.val, body, r) for body, r in seen.items())
        self.rules = tuple(r for _, _, r in kept)
        self._bodies = tuple(body for _, body, _ in kept)
        self.dead = tuple(rule_is_dead(r) for r in self.rules)

    def __len__(self):
        return len(self.rules)

    def serialize(self) -> str:
        return "".join("%d: %s\n" % (r.val + 1, body)
                       for r, body in zip(self.rules, self._bodies))


# ---------------------------------------------------------------------------
# Indexed state for conjunctive matching
# ---------------------------------------------------------------------------

class FactIndex:
    """One indexed fact set: membership, per-predicate and per-argument buckets.

    Buckets are insertion-ordered dicts, so candidate enumeration follows the
    order facts were added.  A dict keeps a deleted key's slot until it grows,
    and iteration walks those holes; a per-predicate bucket is therefore
    compacted (copied, insertion order kept) once it holds more holes than
    facts, which keeps enumerating it linear in its size at amortised O(1)
    per removal.  A per-argument bucket is deleted when it empties, so the
    index holds buckets only for the facts it holds.
    """

    __slots__ = ("facts", "by_pred", "by_pos", "holes")

    def __init__(self):
        self.facts = {}
        self.by_pred = {}
        self.by_pos = {}
        self.holes = {}  # predicate -> removals since its bucket was last copied

    def add(self, fact: Fact):
        if fact in self.facts:
            return
        self.facts[fact] = None
        self.by_pred.setdefault(fact[0], {})[fact] = None
        for pos, o in enumerate(fact[1:]):
            self.by_pos.setdefault((fact[0], pos, o), {})[fact] = None

    def remove(self, fact: Fact):
        if fact not in self.facts:
            return
        del self.facts[fact]
        pred = fact[0]
        bucket = self.by_pred[pred]
        del bucket[fact]
        holes = self.holes.get(pred, 0) + 1
        if holes > len(bucket):
            self.by_pred[pred] = dict(bucket)
            holes = 0
        self.holes[pred] = holes
        for pos, o in enumerate(fact[1:]):
            key = (pred, pos, o)
            bucket = self.by_pos[key]
            del bucket[fact]
            if not bucket:
                del self.by_pos[key]


class StateIndex:
    """Indexed state facts plus incrementally tracked unachieved goals.

    ``sides`` maps a rule atom's tag to the fact set it is matched against:
    "s" to the state, "g" to the unachieved goals g \\ s.  Both are built in
    canonical fact order, so candidate enumeration (and therefore rule
    grounding) is deterministic.
    """

    def __init__(self, facts: Iterable[Fact], goal: frozenset):
        self.goal = frozenset(goal)
        self.held = FactIndex()
        self.unachieved = FactIndex()
        self.sides = {"s": self.held, "g": self.unachieved}
        for f in sorted(facts):
            self.add(f)
        for f in sorted(self.goal.difference(self.held.facts)):
            self.unachieved.add(f)

    # invariant: unachieved == goal \ held after every add and remove
    def add(self, fact: Fact):
        self.held.add(fact)
        if fact in self.goal:
            self.unachieved.remove(fact)

    def remove(self, fact: Fact):
        self.held.remove(fact)
        if fact in self.goal:
            self.unachieved.add(fact)

    def apply(self, add: Iterable[Fact], dele: Iterable[Fact]):
        for f in dele:
            self.remove(f)
        for f in add:
            self.add(f)

    def solved(self) -> bool:
        return not self.unachieved.facts

    def state(self) -> HLState:
        return frozenset(self.held.facts)


def _compile_plan(atoms: Iterable) -> tuple:
    """Join plan of ``(side, atom)`` pairs, kept in the given order.

    Each entry is ``(side, predicate, argument variables, variable bitmask,
    repeats, (position, variable) pairs)``; ``repeats`` holds ``(bit, k)`` for
    a variable that fills k + 1 argument positions, so that the atom's bound
    position count is ``(mask & bound).bit_count()`` plus those k.
    """
    plan = []
    for side, atom in atoms:
        args = atom[1:]
        mask = 0
        for v in args:
            mask |= 1 << v
        repeats = tuple((1 << v, args.count(v) - 1) for v in sorted(set(args))
                        if args.count(v) > 1)
        plan.append((side, atom[0], args, mask, repeats, tuple(enumerate(args))))
    return tuple(plan)


def _join(sides: dict, atoms: list, binding: list, bound: int, out: list,
          first: bool) -> bool:
    """Append to ``out`` every extension of ``binding`` satisfying ``atoms``.

    ``bound`` has bit v set when ``binding[v]`` is set, and no atom in
    ``atoms`` is fully bound.  Returns True when ``first`` and a binding was
    found, which stops the search.
    """
    if not atoms:
        out.append(tuple(binding))
        return first
    best, best_n, best_size, best_bucket = None, -1, 0, None
    for atom in atoms:
        side, pred, _, mask, repeats, pairs = atom
        index = sides[side]
        bucket = index.by_pred.get(pred)
        if not bucket:
            return False
        n = (mask & bound).bit_count()
        if n:
            by_pos = index.by_pos
            for pos, v in pairs:
                if bound >> v & 1:
                    b = by_pos.get((pred, pos, binding[v]))
                    if not b:  # no candidate now, nor under any extension
                        return False
                    if len(b) < len(bucket):
                        bucket = b
            for bit, k in repeats:
                if bound & bit:
                    n += k
        # rank: bound positions desc, bucket size asc, declaration order
        size = len(bucket)
        if n > best_n or n == best_n and size < best_size:
            best, best_n, best_size, best_bucket = atom, n, size, bucket
    bound2 = bound | best[3]
    fresh, same = [], []  # (fact position, variable) to bind / to compare
    seen = bound
    for pos, v in best[5]:
        if seen >> v & 1:
            same.append((pos + 1, v))
        else:
            seen |= 1 << v
            fresh.append((pos + 1, v))
    # atoms this binding completes are tested at once; the rest stay ranked
    checks, rest = [], []
    for atom in atoms:
        if atom is best:
            continue
        if atom[3] & ~bound2:
            rest.append(atom)
        else:
            checks.append((sides[atom[0]].facts, atom[1], atom[2]))
    # the join runs to completion before _matches returns, so nothing changes
    # the index under it and the bucket is iterated in place
    for fact in best_bucket:
        for p, v in fresh:
            binding[v] = fact[p]
        for p, v in same:
            if fact[p] != binding[v]:
                break
        else:
            for facts, pred, args in checks:
                if (pred, *[binding[v] for v in args]) not in facts:
                    break
            else:
                if _join(sides, rest, binding, bound2, out, first):
                    return True
    for _, v in fresh:
        binding[v] = None
    return False


def _matches(idx: StateIndex, plan: tuple, binding: list, first: bool = False) -> list:
    """Every extension of ``binding`` satisfying a compiled plan, each as a
    tuple, in join order (``first``: at most one).  Candidates iterate in
    bucket insertion order, which is canonical for the initial state, so
    enumeration is deterministic; variables no atom touches stay None."""
    sides = idx.sides
    bound = 0
    for v, o in enumerate(binding):
        if o is not None:
            bound |= 1 << v
    rest = []
    for atom in plan:
        side, pred, args, mask = atom[:4]
        if mask & ~bound:
            rest.append(atom)
        elif (pred, *[binding[v] for v in args]) not in sides[side].facts:
            return []
    out = []
    _join(sides, rest, binding, bound, out, first)
    return out


@functools.lru_cache(maxsize=64)
def _precondition_plans(domain: Domain) -> tuple:
    # Domain hashes by identity, so each domain's own frozensets fix the order
    return tuple(_compile_plan(("s", a) for a in sch.pre) for sch in domain.schemata)


def schema_actions(domain: Domain, sid: int, idx: StateIndex, n_objects: int):
    """Ground actions of schema ``sid`` applicable in the indexed state.

    Precondition variables are bound by the join (so bindings come in join
    order, not sorted) and parameters that the precondition leaves free range
    over all objects.  The join yields each binding once: fully bound atoms
    only filter, and every join level binds a fresh variable from distinct
    facts of one bucket, so no action repeats.
    """
    arity = domain.schemata[sid].arity
    for binding in _matches(idx, _precondition_plans(domain)[sid], [None] * arity):
        for args in fill_free(binding, n_objects):
            yield GroundAction(sid, args)


def fill_free(binding: tuple, n_objects: int):
    """The total bindings that extend a join's ``binding``: each variable the
    join left None ranges over all objects, in ``itertools.product`` order.
    A total binding comes back alone, without a generator's overhead."""
    if None not in binding:
        return (binding,)
    free = [v for v, o in enumerate(binding) if o is None]

    def fill(combo):
        b = list(binding)
        for v, o in zip(free, combo):
            b[v] = o
        return tuple(b)
    return map(fill, itertools.product(range(n_objects), repeat=len(free)))


def applicable_actions(domain: Domain, idx: StateIndex, n_objects: int):
    """All ground actions applicable in the indexed state, deterministically:
    schemata in declaration order, each one's actions as ``schema_actions``
    yields them."""
    for sid in range(len(domain.schemata)):
        yield from schema_actions(domain, sid, idx, n_objects)


def match_rule(rule: Rule, idx: StateIndex, n_objects: int):
    """First satisfying total binding for the rule in the indexed state, or
    None.

    Variables appearing in no condition atom take object 0, so with no
    objects such a binding is None.
    """
    found = _matches(idx, rule.plan, [None] * rule.n_vars, first=True)
    if not found:
        return None
    binding = found[0]
    if None in binding:
        if not n_objects:
            return None
        binding = tuple(0 if o is None else o for o in binding)
    return binding


def select_action(policy: HLPolicy, idx: StateIndex, n_objects: int):
    """Lowest-val applicable ground rule's head in the indexed state, or None.

    Realizes the 0/1 indicator distribution over ground HL actions.  The head
    is returned whether or not its precondition holds; the caller decides
    what an inapplicable one means.
    """
    for i, rule in enumerate(policy.rules):
        if policy.dead[i]:
            continue
        binding = match_rule(rule, idx, n_objects)
        if binding is not None:
            return GroundAction(rule.head_schema,
                                tuple(binding[v] for v in rule.head_args))
    return None


# ---------------------------------------------------------------------------
# Nondeterministic downward refinement check
# ---------------------------------------------------------------------------

@dataclass
class NdrpReport:
    ok: bool
    step: int = -1
    reason: str = ""


def check_ndrp(labels: Sequence[HLState], hl_policy: HLPolicy, goal: frozenset,
               n_objects: int) -> NdrpReport:
    """Check Def.-1 downward refinement over the labels of consecutive LL steps.

    For every LL transition s → s', either the abstraction is preserved or
    λ(s') is a successor of the policy-selected action at λ(s), where
    ``labels[i]`` is λ of step i.  A policy that returns no action at a
    changing abstract state is reported as a violation with the offending
    step index.
    """
    for i, (a1, a2) in enumerate(zip(labels, labels[1:])):
        if a1 == a2:
            continue
        act = select_action(hl_policy, StateIndex(a1, goal), n_objects)
        if act is None:
            return NdrpReport(False, i, "policy returned no action at a changing state")
        if not applicable(hl_policy.domain, a1, act):
            return NdrpReport(False, i, "selected action inapplicable")
        if a2 not in successors(hl_policy.domain, a1, act):
            return NdrpReport(False, i, "abstract jump not among successors of selected action")
    return NdrpReport(True)


# ---------------------------------------------------------------------------
# HL-only policy execution
# ---------------------------------------------------------------------------

def fixed_outcome(i: int = 0) -> Callable:
    def chooser(outcomes, idx):
        return min(i, len(outcomes) - 1)
    return chooser


def random_outcome(rng: random.Random) -> Callable:
    def chooser(outcomes, idx):
        return rng.randrange(len(outcomes))
    return chooser


def _goal_delta(add, dele, goal: frozenset, state) -> int:
    """Change in the unmet goal count when ground fact sets ``add`` and
    ``dele`` are applied to ``state``: ``|goal - state'| - |goal - state|``
    for ``state' = (state - dele) | add``.

    A ground outcome may add and delete the same fact (two lifted atoms can
    meet under a binding); it then holds afterwards, so only a deleted fact
    that is not also added counts as lost.
    """
    return (sum(1 for f in dele if f in goal and f in state and f not in add)
            - sum(1 for f in add if f in goal and f not in state))


def adversarial_outcome(outcomes, idx: "StateIndex"):
    """Outcome leaving the most unachieved goal facts; first index on ties."""
    unmet, held = len(idx.unachieved.facts), idx.held.facts
    worst, worst_n = 0, -1
    for i, (add, dele) in enumerate(outcomes):
        n = unmet + _goal_delta(add, dele, idx.goal, held)
        if n > worst_n:
            worst, worst_n = i, n
    return worst


@dataclass
class SolveResult:
    status: str  # solved | no_action | cap_exceeded | defect | timeout
    actions: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    steps: int = 0

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def solve_hl(policy: HLPolicy, problem: HLProblem, outcome_chooser: Callable = None,
             step_cap: int = 10 ** 6, deadline: Optional[float] = None) -> SolveResult:
    """Run the policy on the HL model until the goal holds or it gets stuck.

    One successor per step, chosen by ``outcome_chooser`` (default: outcome 0).
    ``deadline`` is a ``time.perf_counter()`` value checked before each step.
    Failures are returned as statuses, never raised.
    """
    if step_cap <= 0:
        raise StructuralError("step_cap must be positive")
    domain = problem.domain
    chooser = outcome_chooser or fixed_outcome(0)
    idx = StateIndex(problem.init, problem.goal)
    n_objects = len(problem.objects)
    res = SolveResult("solved")
    while not idx.solved():
        if res.steps >= step_cap:
            res.status = "cap_exceeded"
            return res
        if deadline is not None and time.perf_counter() > deadline:
            res.status = "timeout"
            return res
        action = select_action(policy, idx, n_objects)
        if action is None:
            res.status = "no_action"
            return res
        if not applicable(domain, idx.held.facts, action):
            res.status = "defect"
            res.actions.append(action)
            return res
        outs = list(ground_outcomes(domain, action))
        k = chooser(outs, idx) if len(outs) > 1 else 0
        add, dele = outs[k]
        idx.apply(add, dele)
        res.actions.append(action)
        res.outcomes.append(k)
        res.steps += 1
    return res
