"""Ground and lifted relational semantics.

Facts, states, action schemata, applicability and nondeterministic
successors.  This module imports nothing from the rest of the package; every
other module builds on it.

Representation: predicates and objects are interned to integer ids; a ground
fact is the tuple ``(pred_id, obj_id, ...)`` and an HL state is a frozenset of
such tuples.  Lifted atoms use variable indices in place of object ids.  All
values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


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

def instantiate(atom: Atom, binding: Sequence[int]) -> Fact:
    return (atom[0],) + tuple(binding[v] for v in atom[1:])


def ground_pre(domain: Domain, action: GroundAction) -> frozenset:
    sch = domain.schemata[action.schema_id]
    return frozenset(instantiate(a, action.args) for a in sch.pre)


def ground_outcomes(domain: Domain, action: GroundAction):
    """Yield (add, delete) fact-set pairs in declared outcome order."""
    sch = domain.schemata[action.schema_id]
    for add, dele in sch.outcomes:
        yield (frozenset(instantiate(a, action.args) for a in add),
               frozenset(instantiate(a, action.args) for a in dele))


def applicable(domain: Domain, state: HLState, action: GroundAction) -> bool:
    """True iff every ground precondition fact is in the state."""
    sch = domain.schemata[action.schema_id]
    if len(action.args) != sch.arity:
        raise StructuralError("binding length %d does not match arity of %r"
                              % (len(action.args), sch.name))
    return all(instantiate(a, action.args) in state for a in sch.pre)


def successors(domain: Domain, state: HLState, action: GroundAction) -> list:
    """All successor states, one per outcome: (state \\ del_i) ∪ add_i."""
    if not applicable(domain, state, action):
        raise PreconditionError("action %s not applicable" % (action,))
    out = []
    for add, dele in ground_outcomes(domain, action):
        out.append((state - dele) | add)
    return out
