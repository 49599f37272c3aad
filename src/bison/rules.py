"""Prioritized first-order condition-action rules and their execution.

A rule fires in state s with goal g when its state condition is contained in s
and its goal condition is contained in the unachieved goals g \\ s.  Rule
selection scans rules by ascending priority and grounds conditions by a
most-constrained-atom-first join over per-predicate fact indexes; this is what
makes policy execution at 10k-object scale possible.  The same join grounds
action preconditions: it enumerates applicable actions for the planners and
for explaining abstraction changes while learning.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .core import (Atom, Domain, Fact, GroundAction, HLProblem, HLState,
                   StructuralError, applicable, check_atoms, ground_outcomes,
                   instantiate)

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


def _canonical_parts(rule: Rule):
    """Minimal (head, sCond, gCond) emission over variable renamings.

    Variables are renamed in emission order: head arguments first, then each
    condition atom in sorted order.  Sort ties between atoms that would
    introduce fresh variables are resolved by exploring both orders and
    keeping the lexicographically smallest emission, so the result is
    invariant under any renaming of the input rule's variables.
    """
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
    """Rules kept sorted by (val, canonical serialization), duplicates removed."""

    def __init__(self, rules: Iterable[Rule], domain: Domain):
        self.domain = domain
        seen = {}  # canonical body (the serialization minus its priority) -> rule
        for r in rules:
            validate_rule(r, domain)
            body = canonical_rule_str(r, domain).split(": ", 1)[1]
            if body not in seen or r.val < seen[body].val:
                seen[body] = r
        # (val, body) orders as (val, full serialization): equal vals share a prefix
        self.rules = tuple(r for _, _, r in sorted((r.val, body, r)
                                                    for body, r in seen.items()))
        self.dead = tuple(rule_is_dead(r) for r in self.rules)
        self.flagged_unconstrained = tuple(i for i, r in enumerate(self.rules)
                                           if unconstrained_vars(r))

    def __len__(self):
        return len(self.rules)

    def serialize(self) -> str:
        return "".join(canonical_rule_str(r, self.domain) + "\n" for r in self.rules)


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
    per removal.
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
            del self.by_pos[(pred, pos, o)][fact]

    def bucket(self, atom: Atom, binding: list):
        """Smallest candidate bucket for an atom under the current partial binding."""
        best = self.by_pred.get(atom[0])
        if best is None:
            best = {}
        for pos, v in enumerate(atom[1:]):
            if binding[v] is not None:
                b = self.by_pos.get((atom[0], pos, binding[v]))
                if b is None:
                    return {}
                if len(b) < len(best):
                    best = b
        return best


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


def enum_matches(idx: StateIndex, atoms: list, binding: list):
    """Backtracking join yielding every satisfying binding as a tuple.

    Atom choice: maximal number of bound variables, then smallest candidate
    bucket, then declaration order.  Candidates iterate in bucket insertion
    order, which is canonical for the initial state, so enumeration is
    deterministic.  Variables untouched by the atoms stay None.
    """
    if not atoms:
        yield tuple(binding)
        return
    sides = idx.sides
    best_i, best_rank, best_bucket = -1, None, None
    for i, (src, atom) in enumerate(atoms):
        bound = sum(1 for v in atom[1:] if binding[v] is not None)
        bucket = sides[src].bucket(atom, binding)
        # spec join order: already-bound variables desc, selectivity asc
        rank = (-bound, len(bucket), i)
        if best_rank is None or rank < best_rank:
            best_i, best_rank, best_bucket = i, rank, bucket
    src, atom = atoms[best_i]
    rest = atoms[:best_i] + atoms[best_i + 1:]
    if all(binding[v] is not None for v in atom[1:]):
        if instantiate(atom, binding) in sides[src].facts:
            yield from enum_matches(idx, rest, binding)
        return
    # no caller changes the index while a join is live, so the bucket is
    # iterated in place
    for fact in best_bucket:
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
            yield from enum_matches(idx, rest, binding)
        for v in touched:
            binding[v] = None


def schema_actions(domain: Domain, sid: int, idx: StateIndex, n_objects: int):
    """Ground actions of schema ``sid`` applicable in the indexed state.

    Precondition variables are bound by the join (so bindings come in join
    order, not sorted) and parameters that the precondition leaves free range
    over all objects.
    """
    sch = domain.schemata[sid]
    atoms = [("s", a) for a in sch.pre]
    seen = set()
    for binding in enum_matches(idx, atoms, [None] * sch.arity):
        if binding in seen:  # joins may revisit a binding via free atoms
            continue
        seen.add(binding)
        free = [v for v in range(sch.arity) if binding[v] is None]
        if not free:
            yield GroundAction(sid, binding)
        else:
            for combo in itertools.product(range(n_objects), repeat=len(free)):
                b = list(binding)
                for v, o in zip(free, combo):
                    b[v] = o
                yield GroundAction(sid, tuple(b))


def applicable_actions(domain: Domain, idx: StateIndex, n_objects: int):
    """All ground actions applicable in the indexed state, deterministically:
    schemata in declaration order, each one's actions as ``schema_actions``
    yields them."""
    for sid in range(len(domain.schemata)):
        yield from schema_actions(domain, sid, idx, n_objects)


def match_rule(rule: Rule, state, goal: frozenset, objects, domain: Domain = None):
    """First satisfying total binding for the rule, or None.

    ``state`` may be an HLState or a prebuilt StateIndex (goal must match).
    Variables appearing in no condition atom range over ``objects`` in order.
    """
    idx = state if isinstance(state, StateIndex) else StateIndex(state, goal)
    found = next(enum_matches(idx, rule.atoms(), [None] * rule.n_vars), None)
    if found is None:
        return None
    binding = list(found)
    free = [v for v in range(rule.n_vars) if binding[v] is None]
    if free:
        objs = list(objects)
        if not objs:
            return None
        for v in free:
            binding[v] = objs[0]
    return tuple(binding)


@dataclass
class SelectionDiagnostic:
    inapplicable: bool = False
    rule_index: int = -1


def select_action(policy: HLPolicy, state, goal: frozenset, objects,
                  domain: Domain = None, diag: SelectionDiagnostic = None):
    """Lowest-val applicable ground rule's head, or None.

    Realizes the 0/1 indicator distribution over ground HL actions.  If the
    selected head's precondition does not hold the action is still returned
    and the diagnostic is marked (the executor decides what to do).
    """
    domain = domain or policy.domain
    idx = state if isinstance(state, StateIndex) else StateIndex(state, goal)
    for i, rule in enumerate(policy.rules):
        if policy.dead[i]:
            continue
        binding = match_rule(rule, idx, goal, objects, domain)
        if binding is not None:
            action = GroundAction(rule.head_schema,
                                  tuple(binding[v] for v in rule.head_args))
            if diag is not None:
                diag.rule_index = i
                diag.inapplicable = not applicable(domain, idx.held.facts, action)
            return action
    return None


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


def adversarial_outcome(outcomes, idx: "StateIndex"):
    """Outcome leaving the most unachieved goal facts; first index on ties."""
    worst, worst_n = 0, -1
    for i, (add, dele) in enumerate(outcomes):
        un = set(idx.unachieved.facts)
        un |= idx.goal & dele
        un -= add
        if len(un) > worst_n:
            worst, worst_n = i, len(un)
    return worst


@dataclass
class SolveResult:
    status: str  # solved | no_action | cap_exceeded | defect | timeout
    actions: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    states: Optional[list] = None
    steps: int = 0

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def solve_hl(policy: HLPolicy, problem: HLProblem, outcome_chooser: Callable = None,
             step_cap: int = 10 ** 6, record_states: bool = False,
             deadline: Optional[float] = None) -> SolveResult:
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
    objects = range(len(problem.objects))
    res = SolveResult("solved")
    if record_states:
        res.states = [idx.state()]
    while not idx.solved():
        if res.steps >= step_cap:
            res.status = "cap_exceeded"
            return res
        if deadline is not None and time.perf_counter() > deadline:
            res.status = "timeout"
            return res
        diag = SelectionDiagnostic()
        action = select_action(policy, idx, problem.goal, objects, domain, diag)
        if action is None:
            res.status = "no_action"
            return res
        if diag.inapplicable:
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
        if record_states:
            res.states.append(idx.state())
    return res
