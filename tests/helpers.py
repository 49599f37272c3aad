"""Helpers shared by the test modules: grounding an action by name, the
reference grounding of a lifted atom, renaming objects by a bijection, the
outcome choosers the tests pass to ``solve_hl``, the text of an HL problem,
which pins ``gen_blocks_hl_problem``'s output, a blocks policy with a dead
rule, and a blocks demo cut before its last action."""

import random
from typing import Callable, Sequence

from bison.core import (Atom, Domain, Fact, GroundAction, HLProblem, HLState,
                        ObjectTable, StructuralError, atom_str)
from bison.envs import EnvConfig, env_domain, generate_demos, make_labeller
from bison.formats import Demo
from bison.learn import extract_hl_trace
from bison.rules import StateIndex
from bison.search import _goal_delta


def ground_action(domain: Domain, name: str, arg_names: Sequence[str],
                  objects: ObjectTable) -> GroundAction:
    """The action of schema ``name`` on the named objects, which must be
    interned already."""
    sid = domain.schema_ids.get(name)
    if sid is None:
        raise StructuralError("undeclared action schema %r" % name)
    if len(arg_names) != domain.schemata[sid].arity:
        raise StructuralError("arity mismatch grounding %r" % name)
    return GroundAction(sid, tuple(objects.ids[a] for a in arg_names))


def instantiate(atom: Atom, binding: Sequence[int]) -> Fact:
    """The reference grounding: ``atom``'s fact under ``binding``, which the
    grounders ``Domain`` compiles must equal."""
    return (atom[0],) + tuple(binding[v] for v in atom[1:])


# ---------------------------------------------------------------------------
# Renaming objects by a bijection
# ---------------------------------------------------------------------------

def _check_bijection(mapping: dict, mentioned: set):
    missing = mentioned - set(mapping)
    if missing:
        raise StructuralError("renaming not total on %d mentioned objects" % len(missing))
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise StructuralError("renaming is not injective")


def rename_fact(fact: Fact, mapping: dict) -> Fact:
    return (fact[0],) + tuple(mapping[o] for o in fact[1:])


def rename_state(state: HLState, mapping: dict) -> HLState:
    mentioned = {o for f in state for o in f[1:]}
    _check_bijection(mapping, mentioned)
    return frozenset(rename_fact(f, mapping) for f in state)


def rename_action(action: GroundAction, mapping: dict) -> GroundAction:
    _check_bijection(mapping, set(action.args))
    return GroundAction(action.schema_id, tuple(mapping[o] for o in action.args))


# ---------------------------------------------------------------------------
# Outcome choosers for solve_hl
# ---------------------------------------------------------------------------

def fixed_outcome(i: int = 0) -> Callable:
    def chooser(outcomes, idx):
        return min(i, len(outcomes) - 1)
    return chooser


def random_outcome(rng: random.Random) -> Callable:
    def chooser(outcomes, idx):
        return rng.randrange(len(outcomes))
    return chooser


def adversarial_outcome(outcomes, idx: StateIndex):
    """Outcome leaving the most unachieved goal facts; first index on ties."""
    unmet, held = len(idx.unachieved.facts), idx.held.facts
    worst, worst_n = 0, -1
    for i, (add, dele) in enumerate(outcomes):
        n = unmet + _goal_delta(add, dele, idx.goal, held)
        if n > worst_n:
            worst, worst_n = i, n
    return worst


def problem_text(problem: HLProblem, name: str) -> str:
    """An HL problem as an S-expression named ``name``: its objects in id
    order, its init and goal facts sorted."""
    preds, names = problem.domain.predicates, problem.objects.names
    lines = ["(define (problem %s)" % name,
             "  (:domain %s)" % problem.domain.name,
             "  (:objects %s)" % " ".join(names),
             "  (:init %s)" % " ".join(atom_str(preds, f, names) for f in sorted(problem.init)),
             "  (:goal %s))" % " ".join(atom_str(preds, f, names) for f in sorted(problem.goal))]
    return "\n".join(lines) + "\n"


# The built-in blocks rules behind a rule that requires (at ?x ?l) both held
# and unachieved: statically unsatisfiable, whatever the learner does
DEAD_RULE_BLOCKS_POLICY = """\
1: (:vars ?x ?l) (:state (at ?x ?l) (clear ?x)) (:goal (at ?x ?l)) => (pick ?x)
2: (:vars ?x ?l) (:state (holding ?x) (clear ?l)) (:goal (at ?x ?l)) => (place ?x ?l)
3: (:vars ?x ?l) (:state (clear ?x) (gripperFree)) (:goal (at ?x ?l)) => (pick ?x)
"""


def blocks_demo_cut_before_its_last_place(n: int, seed: int) -> Demo:
    """An oracle blocks demo on n blocks whose steps stop where its last
    ``place`` would change the label, so its goal is never reached."""
    domain, labeller = env_domain("blocks"), make_labeller("blocks")
    demo = generate_demos(EnvConfig("blocks", n, seed=seed), 1)[0]
    trace = extract_hl_trace(demo, domain, labeller)
    assert domain.schemata[trace.actions[-1].schema_id].name == "place"
    return Demo(demo.goal, demo.steps[:trace.changes[-1]])
