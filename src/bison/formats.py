"""Textual formats: domains (.bsd), problems (.bsq), traces (.bst), policies (.bsp).

Domains and problems use a small S-expression dialect; traces are line-oriented
JSON records; policies are one rule per line.  Parsers are total: any input
yields a value or a positioned ParseError, never an unhandled crash.  One
reader, with an explicit stack rather than recursion, reads the S-expressions
of domains, problems, rule lines and trace goals, and one lifted-atom parser
reads schema preconditions and effects, rule conditions and rule heads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, List

from .core import (ActionSchema, BisonError, Domain, HLProblem, ObjectTable,
                   Predicate, StructuralError)
from .rules import HLPolicy, Rule


class ParseError(BisonError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__("%s (line %d, col %d)" % (message, line, col))
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# S-expressions
# ---------------------------------------------------------------------------

@dataclass
class _Tok:
    text: str
    line: int
    col: int


class _Form(list):
    """A parenthesised list of _Tok leaves and nested _Forms, positioned at its '('."""

    def __init__(self, line: int, col: int):
        super().__init__()
        self.line = line
        self.col = col


def _tokenize(text: str, line: int, col: int) -> List[_Tok]:
    """Tokens of ``text``, positioned as if it began at ``line``, ``col``."""
    toks, i = [], 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if c in "()":
            toks.append(_Tok(c, line, col))
            col += 1
            i += 1
            continue
        start, scol = i, col
        while i < n and text[i] not in " \t\r\n();":
            i += 1
            col += 1
        toks.append(_Tok(text[start:i], line, scol))
    return toks


def _read(toks: List[_Tok]) -> list:
    """All top-level forms of a token list, read with an explicit stack of open
    lists, so nesting depth is bounded by memory, not by recursion."""
    stack = [[]]
    for t in toks:
        if t.text == "(":
            form = _Form(t.line, t.col)
            stack[-1].append(form)
            stack.append(form)
        elif t.text == ")":
            if len(stack) == 1:
                raise ParseError("unbalanced ')'", t.line, t.col)
            stack.pop()
        else:
            stack[-1].append(t)
    if len(stack) > 1:
        raise ParseError("unbalanced '('", stack[-1].line, stack[-1].col)
    return stack[0]


def _head(form) -> str:
    if isinstance(form, list) and form and isinstance(form[0], _Tok):
        return form[0].text
    return ""


def _expect_atom(form, what: str) -> _Tok:
    if not isinstance(form, _Tok):
        raise ParseError("expected %s" % what, form.line, form.col)
    return form


def _unwrap_define(forms):
    """Accept either bare (:blocks …) forms or a (define (kind name) …) wrapper."""
    if len(forms) == 1 and _head(forms[0]) == "define":
        body = forms[0][1:]
        name = "unnamed"
        if body and isinstance(body[0], list) and len(body[0]) >= 1:
            if len(body[0]) >= 2 and isinstance(body[0][1], _Tok):
                name = body[0][1].text
            body = body[1:]
        return name, body
    return "unnamed", forms


def _var_list(items, where: str) -> dict:
    """{?variable: index} of a list of distinct ?variables."""
    var_ids = {}
    for v in items:
        t = _expect_atom(v, "a variable in %s" % where)
        if not t.text.startswith("?") or t.text in var_ids:
            raise ParseError("bad or duplicate variable %r in %s" % (t.text, where),
                             t.line, t.col)
        var_ids[t.text] = len(var_ids)
    return var_ids


def _lifted_atom(form, symbols: dict, var_ids: dict, where: str) -> tuple:
    """``(name ?v …)`` as ``(id, *variable indices)``.  ``symbols`` maps each
    declared name (predicate or schema) to its (id, arity); every argument must
    be a ?variable of ``var_ids``."""
    if not _head(form):
        raise ParseError("expected an atom in %s" % where, form.line, form.col)
    name = form[0]
    if name.text not in symbols:
        raise ParseError("undeclared %r in %s" % (name.text, where), name.line, name.col)
    sid, arity = symbols[name.text]
    args = []
    for a in form[1:]:
        t = _expect_atom(a, "a variable")
        if t.text not in var_ids:
            raise ParseError("%r is not a declared ?variable in %s" % (t.text, where),
                             t.line, t.col)
        args.append(var_ids[t.text])
    if len(args) != arity:
        raise ParseError("%r expects %d args, got %d" % (name.text, arity, len(args)),
                         name.line, name.col)
    return (sid,) + tuple(args)


def _symbols(declared) -> dict:
    """name -> (id, arity) of a domain's predicates or schemata."""
    return {d.name: (i, d.arity) for i, d in enumerate(declared)}


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

def _parse_conj(form, pred_ids, var_ids, where):
    """(and a…) | () | bare atom → list of lifted atoms."""
    if isinstance(form, list) and (not form or _head(form) == "and"):
        return [_lifted_atom(a, pred_ids, var_ids, where) for a in form[1:]]
    return [_lifted_atom(form, pred_ids, var_ids, where)]


def _parse_effect_conj(form, pred_ids, var_ids):
    adds, dels = [], []
    items = form[1:] if _head(form) == "and" else [form]
    for item in items:
        if _head(item) == "not":
            if len(item) != 2:
                raise ParseError("(not …) takes one atom", item.line, item.col)
            dels.append(_lifted_atom(item[1], pred_ids, var_ids, ":effect"))
        else:
            adds.append(_lifted_atom(item, pred_ids, var_ids, ":effect"))
    return frozenset(adds), frozenset(dels)


def parse_domain(text: str) -> Domain:
    name, body = _unwrap_define(_read(_tokenize(text, 1, 1)))
    preds: List[Predicate] = []
    pred_ids = {}
    schemata: List[ActionSchema] = []
    schema_names = set()
    saw_predicates = False
    for form in body:
        h = _head(form)
        if h == ":predicates":
            if saw_predicates:
                raise ParseError("repeated (:predicates …) form", form.line, form.col)
            saw_predicates = True
            for p in form[1:]:
                if not isinstance(p, list) or not p:
                    raise ParseError("malformed predicate declaration", p.line, p.col)
                pname = _expect_atom(p[0], "a predicate name").text
                if pname in pred_ids:
                    raise ParseError("duplicate predicate %r" % pname, p[0].line, p[0].col)
                for v in p[1:]:
                    t = _expect_atom(v, "a variable")
                    if not t.text.startswith("?"):
                        raise ParseError("predicate argument must be a ?variable", t.line, t.col)
                pred_ids[pname] = (len(preds), len(p) - 1)
                preds.append(Predicate(pname, len(p) - 1))
        elif h == ":action":
            if len(form) < 2 or not isinstance(form[1], _Tok):
                raise ParseError("missing action name", form.line, form.col)
            aname = form[1].text
            if aname in schema_names:
                raise ParseError("duplicate action schema %r" % aname, form[1].line, form[1].col)
            schema_names.add(aname)
            sections = {}
            it = iter(form[2:])
            for key in it:
                kt = _expect_atom(key, "an :action section keyword")
                if kt.text not in (":parameters", ":precondition", ":effect"):
                    raise ParseError("unknown action section %r" % kt.text, kt.line, kt.col)
                if kt.text in sections:
                    raise ParseError("repeated %s section in action %r" % (kt.text, aname),
                                     kt.line, kt.col)
                try:
                    sections[kt.text] = next(it)
                except StopIteration:
                    raise ParseError("missing body for %s" % kt.text, kt.line, kt.col) from None
            for req in (":parameters", ":precondition", ":effect"):
                if req not in sections:
                    raise ParseError("action %r lacks %s" % (aname, req),
                                     form[1].line, form[1].col)
            params = sections[":parameters"]
            if not isinstance(params, list):
                raise ParseError(":parameters must be a list", params.line, params.col)
            var_ids = _var_list(params, ":parameters")
            pre = frozenset(_parse_conj(sections[":precondition"], pred_ids, var_ids,
                                        ":precondition"))
            eff = sections[":effect"]
            if _head(eff) == "oneof":
                effs = eff[1:]
                if not effs:
                    raise ParseError("(oneof …) needs at least one outcome", eff.line, eff.col)
            else:
                effs = [eff]
            outcomes = tuple(_parse_effect_conj(o, pred_ids, var_ids) for o in effs)
            for o, (add, dele) in zip(effs, outcomes):
                if add & dele:
                    raise ParseError("schema %r has an outcome with add ∩ del ≠ ∅" % aname,
                                     o.line, o.col)
            schemata.append(ActionSchema(aname, tuple(var_ids), pre, outcomes))
        elif h in ("domain",):
            continue
        else:
            raise ParseError("unexpected top-level form %r" % (h or "?"), form.line, form.col)
    if not saw_predicates:
        raise ParseError("missing (:predicates …) block", 1, 1)
    try:
        return Domain(preds, schemata, name)
    except StructuralError as e:
        raise ParseError(str(e), 1, 1) from None


def serialize_domain(domain: Domain) -> str:
    lines = ["(define (domain %s)" % domain.name]
    ps = " ".join(
        "(%s%s)" % (p.name, "".join(" ?x%d" % i for i in range(p.arity)))
        for p in domain.predicates)
    lines.append("  (:predicates %s)" % ps)

    def atom_s(atom, sch):
        p = domain.predicates[atom[0]]
        if p.arity == 0:
            return "(%s)" % p.name
        return "(%s %s)" % (p.name, " ".join(sch.var_names[v] for v in atom[1:]))

    for sch in domain.schemata:
        lines.append("  (:action %s" % sch.name)
        lines.append("    :parameters (%s)" % " ".join(sch.var_names))
        lines.append("    :precondition (and %s)" % " ".join(atom_s(a, sch) for a in sorted(sch.pre)))
        outs = []
        for add, dele in sch.outcomes:
            parts = [atom_s(a, sch) for a in sorted(add)]
            parts += ["(not %s)" % atom_s(a, sch) for a in sorted(dele)]
            outs.append("(and %s)" % " ".join(parts))
        if len(outs) == 1:
            lines.append("    :effect %s)" % outs[0])
        else:
            lines.append("    :effect (oneof %s))" % " ".join(outs))
    lines.append(")")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

def _parse_ground_fact(form, domain: Domain, objects: ObjectTable, declared: bool):
    if not isinstance(form, list) or not form or not isinstance(form[0], _Tok):
        raise ParseError("expected a ground fact", form.line, form.col)
    name = form[0].text
    args = []
    for a in form[1:]:
        t = _expect_atom(a, "an object name")
        if t.text.startswith("?"):
            raise ParseError("ground fact cannot contain variables", t.line, t.col)
        if declared and t.text not in objects:
            raise ParseError("undeclared object %r" % t.text, t.line, t.col)
        args.append(t.text)
    try:
        return domain.ground_fact(name, args, objects)
    except StructuralError as e:
        raise ParseError(str(e), form[0].line, form[0].col) from None


def parse_problem(text: str, domain: Domain) -> HLProblem:
    name, body = _unwrap_define(_read(_tokenize(text, 1, 1)))
    objects = ObjectTable()
    facts = {}  # ":init" / ":goal" -> its facts
    for form in body:
        h = _head(form)
        if h == ":domain":
            continue
        elif h == ":objects":
            for o in form[1:]:
                t = _expect_atom(o, "an object name")
                if t.text in objects:
                    raise ParseError("duplicate object %r" % t.text, t.line, t.col)
                objects.intern(t.text)
        elif h in (":init", ":goal"):
            if h in facts:
                raise ParseError("repeated (%s …) form" % h, form.line, form.col)
            items = form[1:]
            if h == ":goal" and len(items) == 1 and _head(items[0]) == "and":
                items = items[0][1:]
            facts[h] = [_parse_ground_fact(f, domain, objects, True) for f in items]
        else:
            raise ParseError("unexpected problem form %r" % (h or "?"), form.line, form.col)
    return HLProblem(domain, objects, frozenset(facts.get(":init", ())),
                     frozenset(facts.get(":goal", ())), name)


def serialize_problem(problem: HLProblem) -> str:
    d, objs = problem.domain, problem.objects
    lines = ["(define (problem %s)" % problem.name,
             "  (:domain %s)" % d.name,
             "  (:objects %s)" % " ".join(objs.names),
             "  (:init %s)" % " ".join(d.fact_str(f, objs) for f in sorted(problem.init)),
             "  (:goal %s))" % " ".join(d.fact_str(f, objs) for f in sorted(problem.goal))]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass
class DemoStep:
    ego: list
    objects: dict  # name -> feature list, insertion order = object order
    action: list


@dataclass
class Demo:
    goal: tuple  # tuple of fact name-tuples, e.g. ("at", "b0", "p0")
    steps: list


def _fact_names(s: str, line_no: int) -> tuple:
    try:
        forms = _read(_tokenize(s, 1, 1))
    except ParseError as e:
        raise ParseError("bad fact %r in trace" % s, line_no, 1) from None
    if len(forms) != 1 or not isinstance(forms[0], list) or not forms[0] \
            or not all(isinstance(t, _Tok) for t in forms[0]):
        raise ParseError("bad fact %r in trace" % s, line_no, 1)
    return tuple(t.text for t in forms[0])


def _numbers(value, what: str, line_no: int) -> list:
    """A JSON list of finite numbers as floats, or a ParseError.

    A list of floats with a finite sum (so every value is finite) is returned
    as it is, in a few C-level calls.  Anything else goes through the check
    per value: ints, non-numbers, non-finite values and finite values whose
    sum overflows."""
    if type(value) is list and set(map(type, value)) <= {float} \
            and math.isfinite(sum(value)):
        return value
    if not isinstance(value, list):
        raise ParseError("trace %s must be a list of numbers" % what, line_no, 1)
    out = []
    for x in value:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ParseError("trace %s holds a non-number %r" % (what, x), line_no, 1)
        try:
            x = float(x)
        except OverflowError:  # an integer too large for a float
            x = math.inf
        if not math.isfinite(x):
            raise ParseError("trace %s holds a non-finite number" % what, line_no, 1)
        out.append(x)
    return out


def parse_traces(text: str) -> List[Demo]:
    demos = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError("malformed trace record: %s" % e.msg, line_no, e.colno) from None
        except (ValueError, RecursionError) as e:  # over-long integer, deep nesting
            raise ParseError("malformed trace record: %s" % e, line_no, 1) from None
        if not isinstance(rec, dict) or "goal" not in rec or "steps" not in rec:
            raise ParseError("trace record needs 'goal' and 'steps'", line_no, 1)
        if not isinstance(rec["goal"], list) or not all(isinstance(g, str) for g in rec["goal"]):
            raise ParseError("trace goal must be a list of fact strings", line_no, 1)
        if not isinstance(rec["steps"], list):
            raise ParseError("trace steps must be a list", line_no, 1)
        goal = tuple(_fact_names(g, line_no) for g in rec["goal"])
        steps, ego_len, obj_len, act_len = [], None, None, None
        for s in rec["steps"]:
            if not isinstance(s, dict) or not {"ego", "objects", "action"} <= set(s):
                raise ParseError("trace step needs ego/objects/action", line_no, 1)
            if not isinstance(s["objects"], dict):
                raise ParseError("trace step objects must map names to vectors", line_no, 1)
            ego = _numbers(s["ego"], "ego vector", line_no)
            act = _numbers(s["action"], "action vector", line_no)
            objs = {k: _numbers(v, "object vector", line_no) for k, v in s["objects"].items()}
            if ego_len is None:
                ego_len, act_len = len(ego), len(act)
            if len(ego) != ego_len or len(act) != act_len:
                raise ParseError("ragged ego/action vector lengths", line_no, 1)
            for vec in objs.values():
                if obj_len is None:
                    obj_len = len(vec)
                if len(vec) != obj_len:
                    raise ParseError("ragged object vector lengths", line_no, 1)
            steps.append(DemoStep(ego, objs, act))
        demos.append(Demo(goal, steps))
    return demos


def serialize_traces(demos: Iterable[Demo]) -> str:
    """One JSON record per demo; each number is rounded to 9 significant digits
    and written as the ``repr`` of the rounded float (``1.0``, not ``1``)."""
    lines = []
    for demo in demos:
        rec = {
            "goal": ["(%s)" % " ".join(g) for g in demo.goal],
            "steps": [{"ego": [float("%.9g" % x) for x in s.ego],
                       "objects": {k: [float("%.9g" % x) for x in v]
                                   for k, v in s.objects.items()},
                       "action": [float("%.9g" % x) for x in s.action]}
                      for s in demo.steps],
        }
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def _parse_rule(toks: List[_Tok], preds: dict, schemata: dict) -> Rule:
    """One rule from the tokens of its line:
    ``<val>: (:vars …) (:state …) (:goal …) => (head …)``, sections in any order.

    The priority ends at the line's first ':' and the conditions at its first
    '=>', which must be a token of its own.
    """
    first = toks[0]
    val_s, colon, after = first.text.partition(":")
    body = 1
    if not colon and len(toks) > 1 and toks[1].text.startswith(":"):
        colon, after, body = ":", toks[1].text[1:], 2
    if not colon:
        raise ParseError("rule line needs '<val>:' prefix", first.line, first.col)
    try:
        val = int(val_s) - 1  # display priorities are 1-based
    except ValueError:
        raise ParseError("bad priority %r" % val_s, first.line, first.col) from None
    if after:
        t = toks[body - 1]
        raise ParseError("unexpected %r after the priority" % after, t.line, t.col)
    rest = toks[body:]
    arrow = next((i for i, t in enumerate(rest) if "=>" in t.text), None)
    if arrow is None:
        raise ParseError("rule line needs '=>'", toks[-1].line, toks[-1].col)
    sep = rest[arrow]
    if sep.text != "=>":
        raise ParseError("expected '=>', got %r" % sep.text, sep.line, sep.col)
    sections = {":vars": None, ":state": None, ":goal": None}
    for form in _read(rest[:arrow]):
        h = _head(form)
        if h not in sections:
            raise ParseError("unexpected rule section %r" % (h or "?"), form.line, form.col)
        if sections[h] is not None:
            raise ParseError("duplicate rule section %r" % h, form.line, form.col)
        sections[h] = form[1:]
    for k, v in sections.items():
        if v is None:
            raise ParseError("rule lacks %s section" % k, sep.line, sep.col)
    var_ids = _var_list(sections[":vars"], ":vars")
    s_cond = frozenset(_lifted_atom(f, preds, var_ids, ":state") for f in sections[":state"])
    g_cond = frozenset(_lifted_atom(f, preds, var_ids, ":goal") for f in sections[":goal"])
    head = _read(rest[arrow + 1:])
    if len(head) != 1:
        at = head[1] if head else sep
        raise ParseError("expected one rule head after '=>'", at.line, at.col)
    sid, *args = _lifted_atom(head[0], schemata, var_ids, "rule head")
    return Rule(val, len(var_ids), s_cond, g_cond, sid, tuple(args))


def parse_policy(text: str, domain: Domain) -> HLPolicy:
    preds, schemata = _symbols(domain.predicates), _symbols(domain.schemata)
    rules = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        code = line.split(";", 1)[0]
        rule = code.strip()
        if rule:
            lead = len(code) - len(code.lstrip())
            rules.append(_parse_rule(_tokenize(rule, line_no, lead + 1), preds, schemata))
    return HLPolicy(rules, domain)


def serialize_policy(policy: HLPolicy) -> str:
    return policy.serialize()
