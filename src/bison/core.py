"""Ground and lifted relational semantics.

Facts, states, action schemata, applicability and nondeterministic
successors.  This module imports nothing from the rest of the package; every
other module builds on it.

Representation: predicates and objects are interned to integer ids; a ground
fact is the tuple ``(pred_id, obj_id, ...)`` and an HL state is a frozenset of
such tuples.  Lifted atoms use variable indices in place of object ids.  All
values are immutable after construction and safe to share across workers.

Each schema is compiled once, when its ``Domain`` is built: every precondition
atom and every outcome's add and delete atom becomes a function from an
action's arguments to its fact, ``(pred,) + itemgetter(*vars)(args)``.
Grounding an action calls these functions in the order the schema's atoms
iterate, so each ground fact set iterates in that order too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence


class BisonError(Exception):
    """Base class for errors raised by this package."""


class StructuralError(BisonError):
    """Arity mismatch, undeclared symbol, or ill-formed structure."""


class PreconditionError(BisonError):
    """Action applied in a state that does not satisfy its precondition."""


Fact = tuple  # (pred_id, *object_ids)
Atom = tuple  # (pred_id, *var_indices)
HLState = frozenset  # frozenset[Fact]


@dataclass(frozen=True)
class Predicate:
    name: str
    arity: int


@dataclass(frozen=True)
class ActionSchema:
    """Lifted nondeterministic operator.

    ``outcomes`` is a non-empty tuple of (add, delete) pairs of lifted atoms;
    a schema is deterministic iff it has exactly one outcome.
    """

    name: str
    var_names: tuple
    pre: frozenset
    outcomes: tuple  # tuple[(frozenset[Atom], frozenset[Atom]), ...]

    @property
    def arity(self) -> int:
        return len(self.var_names)


class GroundAction(NamedTuple):
    """A ground action; a tuple, so it hashes and compares in C."""

    schema_id: int
    args: tuple  # tuple[int, ...] object ids, total binding

    def __str__(self):  # ids only: the names live in the domain and the object table
        return "a%d(%s)" % (self.schema_id, ",".join(map(str, self.args)))


class ObjectTable:
    """Append-only interner mapping object names to dense ids."""

    def __init__(self, names: Iterable[str] = ()):
        self.names: list = []
        self.ids: dict = {}
        for n in names:
            self.intern(n)

    def intern(self, name: str) -> int:
        oid = self.ids.get(name)
        if oid is None:
            oid = len(self.names)
            self.ids[name] = oid
            self.names.append(name)
        return oid

    def __len__(self):
        return len(self.names)


def check_atoms(symbols: Sequence, atoms: Iterable, n_vars: int, owner: str):
    """Each lifted atom ``(id, *var indices)`` names one of ``symbols``
    (predicates, or schemata for a rule head) by its id, with that symbol's
    arity, over variable indices below ``n_vars``."""
    for atom in atoms:
        sid = atom[0]
        if not (0 <= sid < len(symbols)):
            raise StructuralError("%s uses undeclared id %d" % (owner, sid))
        if len(atom) - 1 != symbols[sid].arity:
            raise StructuralError("%s: arity mismatch for %s" % (owner, symbols[sid].name))
        for v in atom[1:]:
            if not (0 <= v < n_vars):
                raise StructuralError("%s: variable out of range" % owner)


def atom_str(symbols: Sequence, atom: tuple, names: Sequence[str]) -> str:
    """``(name arg ...)`` of an atom ``(id, *args)`` that names one of
    ``symbols`` (as in ``check_atoms``), each argument printed as
    ``names[arg]``: object names for a fact, variable names for a lifted
    atom."""
    return "(%s)" % " ".join([symbols[atom[0]].name] + [names[a] for a in atom[1:]])


def _grounder(atom: Atom) -> Callable:
    """The function from a binding to ``atom``'s ground fact."""
    pred, args = atom[0], atom[1:]
    if not args:
        fact = (pred,)
        return lambda _binding: fact
    if len(args) == 1:
        v = args[0]
        return lambda binding: (pred, binding[v])
    get = itemgetter(*args)
    return lambda binding: (pred,) + get(binding)


class Domain:
    """A set of predicates and action schemata with interned symbol ids."""

    def __init__(self, predicates: Sequence[Predicate], schemata: Sequence[ActionSchema],
                 name: str):
        self.name = name
        self.predicates = tuple(predicates)
        self.pred_ids = {}
        for i, p in enumerate(self.predicates):
            if p.name in self.pred_ids:
                raise StructuralError("duplicate predicate %r" % p.name)
            if p.arity < 0:
                raise StructuralError("negative arity for %r" % p.name)
            self.pred_ids[p.name] = i
        self.schemata = tuple(schemata)
        self.schema_ids = {}
        for i, a in enumerate(self.schemata):
            if a.name in self.schema_ids:
                raise StructuralError("duplicate action schema %r" % a.name)
            self.schema_ids[a.name] = i
            self._check_schema(a)
        # per schema: precondition grounders, and (add, delete) grounders per outcome
        self.grounders = tuple(
            (tuple(map(_grounder, a.pre)),
             tuple((tuple(map(_grounder, add)), tuple(map(_grounder, dele)))
                   for add, dele in a.outcomes))
            for a in self.schemata)

    def __reduce__(self):  # the grounders are closures: a copy compiles its own
        return Domain, (self.predicates, self.schemata, self.name)

    def _check_schema(self, a: ActionSchema):
        if not a.outcomes:
            raise StructuralError("schema %r has no outcomes" % a.name)
        atoms = itertools.chain(a.pre, *[add | dele for add, dele in a.outcomes])
        check_atoms(self.predicates, atoms, a.arity, "schema %r" % a.name)
        for add, dele in a.outcomes:
            if add & dele:
                raise StructuralError("schema %r has an outcome with add ∩ del ≠ ∅" % a.name)

    def ground_fact(self, name: str, arg_names: Sequence[str], objects: ObjectTable) -> Fact:
        pid = self.pred_ids.get(name)
        if pid is None:
            raise StructuralError("undeclared predicate %r" % name)
        if len(arg_names) != self.predicates[pid].arity:
            raise StructuralError("arity mismatch for %r: got %d args, declared %d"
                                  % (name, len(arg_names), self.predicates[pid].arity))
        return (pid,) + tuple(objects.intern(a) for a in arg_names)


@dataclass
class HLProblem:
    domain: Domain
    objects: ObjectTable
    init: HLState
    goal: frozenset


# ---------------------------------------------------------------------------
# Ground operations
# ---------------------------------------------------------------------------

def ground_pre(domain: Domain, action: GroundAction) -> frozenset:
    args = action.args
    return frozenset([g(args) for g in domain.grounders[action.schema_id][0]])


def ground_outcomes(domain: Domain, action: GroundAction) -> list:
    """The (add, delete) fact-set pairs, in declared outcome order."""
    args = action.args
    return [(frozenset([g(args) for g in add]), frozenset([g(args) for g in dele]))
            for add, dele in domain.grounders[action.schema_id][1]]


def applicable(domain: Domain, state: HLState, action: GroundAction) -> bool:
    """True iff every ground precondition fact is in the state."""
    sch = domain.schemata[action.schema_id]
    args = action.args
    if len(args) != sch.arity:
        raise StructuralError("binding length %d does not match arity of %r"
                              % (len(args), sch.name))
    for g in domain.grounders[action.schema_id][0]:
        if g(args) not in state:
            return False
    return True


def successors(domain: Domain, state: HLState, action: GroundAction) -> list:
    """All successor states, one per outcome: (state \\ del_i) ∪ add_i."""
    if not applicable(domain, state, action):
        raise PreconditionError("action %s not applicable" % (action,))
    out = []
    for add, dele in ground_outcomes(domain, action):
        out.append((state - dele) | add)
    return out
