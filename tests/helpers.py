"""Helpers shared by the test modules."""

from typing import Sequence

from bison.core import Domain, GroundAction, ObjectTable, StructuralError


def ground_action(domain: Domain, name: str, arg_names: Sequence[str],
                  objects: ObjectTable) -> GroundAction:
    """The action of schema ``name`` on the named objects, which must be
    interned already."""
    sid = domain.schema_ids.get(name)
    if sid is None:
        raise StructuralError("undeclared action schema %r" % name)
    if len(arg_names) != domain.schemata[sid].arity:
        raise StructuralError("arity mismatch grounding %r" % name)
    return GroundAction(sid, tuple(objects.id(a) for a in arg_names))
