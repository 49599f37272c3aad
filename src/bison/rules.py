"""Prioritized first-order condition-action rules and their execution.

A rule fires in state s with goal g when its state condition is contained in s
and its goal condition is contained in the unachieved goals g \\ s.  Rule
selection scans rules by ascending priority and grounds conditions by a
most-constrained-atom-first join over per-predicate fact indexes; this is what
makes policy execution at 10k-object scale possible.  The same join grounds
action preconditions: it enumerates applicable actions for the planners and
for explaining abstraction changes while learning, and joins a precondition
with an unmet goal for the AND-OR planner's lookahead (``gain_joins``).

Each rule's condition atoms, and each schema's precondition, are compiled once
into a join plan: per atom its side, predicate, argument variables, a variable
bitmask and its (position, variable) pairs, and the plan's variable-free atoms,
which no join level tests.  The join tracks bound variables as
an int bitmask, tests an atom with one membership lookup as soon as its
variables are all bound, and ranks only the atoms that still bind something:
bound argument positions descending, then candidate bucket size ascending,
then declaration order.  A fully bound atom only filters, so checking it early
leaves the order of the bindings unchanged.  Each join level binds at least
one fresh variable from distinct facts of one bucket, so the join never yields
a binding twice and ``schema_actions`` passes its bindings on as they come.
What a join level does that the facts cannot change follows from the bound
bitmask alone, so each plan memoises it per mask: the atoms that rank, each
one's bound position count and bound (position, variable) pairs, and per
choice the mask after it, the positions it binds and compares and the atoms
it completes.  An atom with no bound position that reads the same bucket as
an earlier one is not ranked.  The join itself does what the facts decide:
bucket lookups, the size comparison and the candidate loop.  A ranked atom
has an unbound variable, so one with a bound position has arity 2 or more:
the fact indexes keep per-argument buckets for such facts only.
An ``HLPolicy`` canonicalises each distinct rule body once and holds the
canonical rules, so any policy selects what its ``.bsp`` file selects.

``check_ndrp`` tests a demo's labelled LL steps against a rule policy: every
abstraction change must be an outcome of the action the policy selects.
This module builds on ``core`` alone.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .core import (Atom, Domain, Fact, GroundAction, HLProblem, HLState,
                   StructuralError, applicable, atom_str, check_atoms,
                   ground_outcomes, successors)

_BIG = 1 << 30  # sort placeholder for not-yet-renamed variables
_HOLES_FLOOR, _HOLES_RATIO = 8, 16  # FactIndex's compaction rule


@dataclass(frozen=True)
class Rule:
    """⟨val, vars, sCond, gCond, aHead⟩ with variables as indices 0..n_vars-1."""

    val: int
    n_vars: int
    s_cond: frozenset  # frozenset[Atom]
    g_cond: frozenset
    head_schema: int
    head_args: tuple  # tuple[int, ...] variable indices

    @functools.cached_property
    def plan(self) -> _Plan:  # join plan of atoms(), compiled on first match
        return _compile_plan(self.atoms())

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


def canonical_rule(rule: Rule) -> Rule:
    """The rule renamed by ``_canonical_parts``, each condition's frozenset
    built in the sorted order its ``.bsp`` line lists the atoms in."""
    head, s_atoms, g_atoms, n_vars = _canonical_parts(rule)
    return Rule(rule.val, n_vars, frozenset(sorted(s_atoms)), frozenset(sorted(g_atoms)),
                rule.head_schema, head)


def rule_str(rule: Rule, domain: Domain) -> str:
    """A rule's ``.bsp`` line: 1-based priority, ?v0-style variables, sorted atoms."""
    names = ["?v%d" % i for i in range(rule.n_vars)]
    s_s = " ".join(atom_str(domain.predicates, a, names) for a in sorted(rule.s_cond))
    g_s = " ".join(atom_str(domain.predicates, a, names) for a in sorted(rule.g_cond))
    head_s = atom_str(domain.schemata, (rule.head_schema,) + rule.head_args, names)
    return "%d: (:vars %s) (:state %s) (:goal %s) => %s" % (
        rule.val + 1, " ".join(names), s_s, g_s, head_s)


def canonical_rule_str(rule: Rule, domain: Domain) -> str:
    """Display serialization: 1-based priority, ?v0-style canonical variables."""
    return rule_str(canonical_rule(rule), domain)


class HLPolicy:
    """Canonical rules kept sorted by (val, serialization), duplicates removed.

    The one place a rule's form is fixed: each distinct rule body is validated
    and canonicalised once, here, and the policy holds ``canonical_rule``
    forms, so it selects what its ``.bsp`` selects wherever its rules came
    from (the join's last tie-break is the order a rule's atoms iterate in).
    """

    def __init__(self, rules: Iterable[Rule], domain: Domain):
        self.domain = domain
        bodies = {}  # rule body (Rule's fields after val) -> canonical body
        least = {}  # canonical body -> least val
        for r in rules:
            key = (r.n_vars, r.s_cond, r.g_cond, r.head_schema, r.head_args)
            body = bodies.get(key)
            if body is None:
                validate_rule(r, domain)
                c = canonical_rule(r)
                body = bodies[key] = (c.n_vars, c.s_cond, c.g_cond, c.head_schema, c.head_args)
            least[body] = min(least.get(body, r.val), r.val)
        # (val, line) orders as (val, body): equal vals share the line's prefix
        self.rules = tuple(sorted((Rule(val, *body) for body, val in least.items()),
                                  key=lambda rule: (rule.val, rule_str(rule, domain))))
        self.dead = tuple(rule_is_dead(r) for r in self.rules)

    def __len__(self):
        return len(self.rules)


# ---------------------------------------------------------------------------
# Indexed state for conjunctive matching
# ---------------------------------------------------------------------------

class FactIndex:
    """One indexed fact set: membership, per-predicate buckets, and
    per-argument buckets for the facts of arity 2 or more.

    The join probes a per-argument bucket only for an atom that has a bound
    position and an unbound variable, which a unary atom never has: bound,
    it is a membership test.  A unary fact therefore gets no per-argument
    bucket, and a nullary one has no argument.

    Buckets are insertion-ordered dicts, so candidate enumeration follows the
    order facts were added.  A dict keeps a deleted key's slot until it grows,
    and iteration walks those holes.  Facts removed in the order they were
    added, as ``solve_hl`` meets its goals, leave a dead prefix that every
    scan from the start walks.  A per-predicate bucket is therefore compacted
    (copied, insertion order kept) once its holes exceed 1/16 of its facts
    and also its facts or 8, whichever is fewer: the dead prefix stays a
    small fraction of the bucket, each removal costs amortised O(1), and a
    bucket of a few facts is copied no more often than once per as many
    removals as it holds.  A per-argument bucket is deleted when it empties,
    so the index holds buckets only for the facts it holds.
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
        pred = fact[0]
        bucket = self.by_pred.get(pred)
        if bucket is None:
            self.by_pred[pred] = {fact: None}
        else:
            bucket[fact] = None
        if len(fact) > 2:
            by_pos = self.by_pos
            for pos, o in enumerate(fact[1:]):
                key = (pred, pos, o)
                bucket = by_pos.get(key)
                if bucket is None:
                    by_pos[key] = {fact: None}
                else:
                    bucket[fact] = None

    def remove(self, fact: Fact):
        if fact not in self.facts:
            return
        del self.facts[fact]
        pred = fact[0]
        bucket = self.by_pred[pred]
        del bucket[fact]
        holes, n = self.holes.get(pred, 0) + 1, len(bucket)
        if holes * _HOLES_RATIO > n and holes > min(n, _HOLES_FLOOR):
            self.by_pred[pred] = dict(bucket)
            holes = 0
        self.holes[pred] = holes
        if len(fact) > 2:
            by_pos = self.by_pos
            for pos, o in enumerate(fact[1:]):
                key = (pred, pos, o)
                bucket = by_pos[key]
                del bucket[fact]
                if not bucket:
                    del by_pos[key]


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

    # invariant: unachieved == goal \ held after every add, remove and apply
    def add(self, fact: Fact):
        self.held.add(fact)
        if fact in self.goal:
            self.unachieved.remove(fact)

    def remove(self, fact: Fact):
        self.held.remove(fact)
        if fact in self.goal:
            self.unachieved.add(fact)

    def apply(self, add: Iterable[Fact], dele: Iterable[Fact]):
        held, unachieved, goal = self.held, self.unachieved, self.goal
        for f in dele:
            held.remove(f)
            if f in goal:
                unachieved.add(f)
        for f in add:
            held.add(f)
            if f in goal:
                unachieved.remove(f)

    def solved(self) -> bool:
        return not self.unachieved.facts


class _Plan:
    """A compiled join plan: its atoms, ``gates``, the ``(side, fact)`` of
    each variable-free atom, and ``levels``, which memoises ``_level`` per
    bound-variable bitmask."""

    __slots__ = ("atoms", "gates", "levels")

    def __init__(self, atoms: tuple):
        self.atoms = atoms
        self.gates = tuple((side, (pred,)) for side, pred, _, mask, _ in atoms if not mask)
        self.levels = {}


def _compile_plan(atoms: Iterable) -> _Plan:
    """Join plan of ``(side, atom)`` pairs, kept in the given order.

    Each atom is ``(side, predicate, argument variables, variable bitmask,
    (position, variable) pairs)``.
    """
    plan = []
    for side, atom in atoms:
        args = atom[1:]
        mask = 0
        for v in args:
            mask |= 1 << v
        plan.append((side, atom[0], args, mask, tuple(enumerate(args))))
    return _Plan(tuple(plan))


def _level(plan: _Plan, bound: int) -> tuple:
    """What a join level under the bound-variable bitmask ``bound`` does that
    the facts cannot change, memoised on the plan.

    The level's atoms are the plan's atoms that ``bound`` leaves not fully
    bound.  Each one that can rank first is an entry ``(side, predicate,
    bound position count, bound (position, variable) pairs, choice)``, in
    declaration order; ``choice`` is what taking it binds: ``(bound2, fresh,
    same, checks)``, the bitmask after it, the ``(fact position, variable)``
    pairs it binds and those it compares, and the ``(side, predicate,
    argument variables)`` of every other atom it leaves fully bound.  An atom
    with no bound position is left out when an earlier one has its side and
    predicate: it reads the same bucket, so it is empty when that one is and
    never ranks ahead of it.  An empty level means the binding is complete.
    """
    atoms = [a for a in plan.atoms if a[3] & ~bound]
    level, seen = [], set()
    for atom in atoms:
        side, pred, _, mask, pairs = atom
        bound_pairs = tuple((pos, v) for pos, v in pairs if bound >> v & 1)
        if not bound_pairs and (side, pred) in seen:
            continue
        seen.add((side, pred))
        bound2 = bound | mask
        fresh, same = [], []
        known = bound
        for pos, v in pairs:
            if known >> v & 1:
                same.append((pos + 1, v))
            else:
                known |= 1 << v
                fresh.append((pos + 1, v))
        checks = tuple((a[0], a[1], a[2]) for a in atoms
                       if a is not atom and not a[3] & ~bound2)
        level.append((side, pred, len(bound_pairs), bound_pairs,
                      (bound2, tuple(fresh), tuple(same), checks)))
    plan.levels[bound] = level = tuple(level)
    return level


def _join(sides: dict, plan: _Plan, bound: int, binding: list, out: list,
          first: bool) -> bool:
    """Append to ``out`` every extension of ``binding`` satisfying the plan's
    atoms that ``bound`` leaves not fully bound.

    ``bound`` has bit v set when ``binding[v]`` is set, and every fully bound
    atom holds.  Returns True when ``first`` and a binding was found, which
    stops the search.
    """
    level = plan.levels.get(bound)
    if level is None:
        level = _level(plan, bound)
    if not level:
        out.append(tuple(binding))
        return first
    best_n, best_size = -1, 0
    for atom in level:
        side, pred, n, bound_pairs, _ = atom
        index = sides[side]
        bucket = index.by_pred.get(pred)
        if not bucket:
            return False
        if n:
            by_pos = index.by_pos
            for pos, v in bound_pairs:
                b = by_pos.get((pred, pos, binding[v]))
                if not b:  # no candidate now, nor under any extension
                    return False
                if len(b) < len(bucket):
                    bucket = b
        # rank: bound positions desc, bucket size asc, declaration order
        size = len(bucket)
        if n > best_n or n == best_n and size < best_size:
            best, best_n, best_size, best_bucket = atom, n, size, bucket
    bound2, fresh, same, checks = best[4]
    # the join runs to completion before _matches returns, so nothing changes
    # the index under it and the bucket is iterated in place
    for fact in best_bucket:
        for p, v in fresh:
            binding[v] = fact[p]
        for p, v in same:
            if fact[p] != binding[v]:
                break
        else:
            for side, pred, args in checks:
                if (pred, *[binding[v] for v in args]) not in sides[side].facts:
                    break
            else:
                if _join(sides, plan, bound2, binding, out, first):
                    return True
    for _, v in fresh:
        binding[v] = None
    return False


def _matches(idx: StateIndex, plan: _Plan, n_vars: int, first: bool = False) -> list:
    """Every binding of ``n_vars`` variables satisfying a compiled plan, each
    as a tuple, in join order (``first``: at most one).  The join starts with
    every variable unbound, so the only atoms no level reaches are the
    variable-free ones, checked here first.  Candidates iterate in bucket
    insertion order, which is canonical for the initial state, so enumeration
    is deterministic; variables no atom touches stay None."""
    sides = idx.sides
    for side, fact in plan.gates:
        if fact not in sides[side].facts:
            return []
    out = []
    _join(sides, plan, 0, [None] * n_vars, out, first)
    return out


@functools.lru_cache(maxsize=64)
def _precondition_plans(domain: Domain) -> tuple:
    # Domain hashes by identity, so each domain's own frozensets fix the order
    return tuple(_compile_plan(("s", a) for a in sch.pre) for sch in domain.schemata)


def _plan_actions(plan: _Plan, sid: int, arity: int, idx: StateIndex, n_objects: int):
    """Ground actions of schema ``sid`` from ``plan``'s bindings, filled by ``_fill_free``."""
    for binding in _matches(idx, plan, arity):
        for args in _fill_free(binding, n_objects):
            yield GroundAction(sid, args)


def schema_actions(domain: Domain, sid: int, idx: StateIndex, n_objects: int):
    """Ground actions of schema ``sid`` applicable in the indexed state, in
    join order, not sorted; parameters the precondition leaves free range
    over all objects.  No action repeats, as the join yields each binding once."""
    return _plan_actions(_precondition_plans(domain)[sid], sid, domain.schemata[sid].arity,
                         idx, n_objects)


@functools.lru_cache(maxsize=64)
def gain_joins(domain: Domain, goal_preds: frozenset) -> tuple:
    """The AND-OR lookahead's joins, built once per domain and goal-predicate
    set: ``(gain, joins)`` per schema whose outcomes add atoms of ``goal_preds``,
    ``gain`` the most one outcome adds.  ``joins`` holds ``(actions, outcome
    index)`` per (outcome, such atom); ``actions(idx, n_objects)`` yields, as
    ``schema_actions`` does, the actions whose precondition joins the state
    and whose atom an unmet goal."""
    gains = []
    for sid, sch in enumerate(domain.schemata):
        pre = [("s", a) for a in sch.pre]
        adds = [[a for a in add if a[0] in goal_preds] for add, _ in sch.outcomes]
        joins = tuple((functools.partial(_plan_actions, _compile_plan(pre + [("g", atom)]),
                                         sid, sch.arity), j)
                      for j, add_g in enumerate(adds) for atom in add_g)
        if joins:
            gains.append((max(map(len, adds)), joins))
    return tuple(gains)


def _fill_free(binding: tuple, n_objects: int):
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

    A binding with free variables takes ``_fill_free``'s first extension:
    object 0 for each, or none when there are no objects.
    """
    found = _matches(idx, rule.plan, rule.n_vars, first=True)
    if not found:
        return None
    binding = found[0]
    if None in binding:
        return next(iter(_fill_free(binding, n_objects)), None)
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

    One successor per step: outcome 0, or for an action with more than one
    outcome the index ``outcome_chooser(outcomes, state_index)`` returns.
    ``deadline`` is a ``time.perf_counter()`` value checked before each step.
    Failures are returned as statuses, never raised.
    """
    if step_cap <= 0:
        raise StructuralError("step_cap must be positive")
    domain = problem.domain
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
        outs = ground_outcomes(domain, action)
        k = outcome_chooser(outs, idx) if outcome_chooser and len(outs) > 1 else 0
        add, dele = outs[k]
        idx.apply(add, dele)
        res.actions.append(action)
        res.outcomes.append(k)
        res.steps += 1
    return res
