"""Textual formats: domains (.bsd), traces (.bst), policies (.bsp).

Domains use a small S-expression dialect; traces are line-oriented JSON
records; policies are one rule per line.  Parsers are total: any input
yields a value or a positioned ParseError, never an unhandled crash.  Each
reader follows one stated rule:

- tokens are parens, names, ``;`` comments and blanks (space, tab, CR), one
  regular expression with each token's column read off its offset;
- a rule's priority is the text before its line's first ``:``;
- a domain is ``(define (domain NAME) …)`` or its bare forms, in ``(define
  …)`` or not; any other header, or a ``(domain …)`` form in the body, is a
  ParseError.

One reader, with an explicit stack rather than recursion, reads the S-expressions
of domains, rule lines and trace goals, and one lifted-atom parser
reads schema preconditions and effects, rule conditions and rule heads.  The
trace codec does a few C-level calls per step: the writer one ``str.format``
on a template cached per step shape, the reader one type check that keeps a
well-formed step as ``json`` parsed it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List

from .core import ActionSchema, BisonError, Domain, Predicate, atom_str
from .rules import HLPolicy, Rule, rule_str


class ParseError(BisonError):
    def __init__(self, message: str, line: int, col: int):
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


# A paren, a name, a newline, a ';' comment to the end of its line, a run of blanks
_TOKEN = re.compile(r"(?P<tok>[()]|[^ \t\r\n();]+)|(?P<nl>\n)|;[^\n]*|[ \t\r]+")


def _tokenize(text: str, line: int, col: int) -> List[_Tok]:
    """Tokens of ``text``, positioned as if it began at ``line``, ``col``."""
    toks, bol = [], -col  # a token's column is its offset less bol
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "tok":
            toks.append(_Tok(m.group(), line, m.start() - bol))
        elif m.lastgroup == "nl":
            line, bol = line + 1, m.start()
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
    """Accept either bare (:predicates …) forms or a (define (domain NAME) …)
    wrapper, whose (domain NAME) header may also be left out."""
    if len(forms) == 1 and _head(forms[0]) == "define":
        body = forms[0][1:]
        if body and _head(body[0]) == "domain":
            header, body = body[0], body[1:]
            if len(header) != 2:  # at the first extra element, or the header
                at = header[2] if len(header) > 2 else header
                raise ParseError("(domain …) takes one name", at.line, at.col)
            return _expect_atom(header[1], "a domain name").text, body
        return "unnamed", body
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
        else:
            raise ParseError("unexpected top-level form %r" % (h or "?"), form.line, form.col)
    if not saw_predicates:
        raise ParseError("missing (:predicates …) block", 1, 1)
    return Domain(preds, schemata, name)


def serialize_domain(domain: Domain) -> str:
    preds = domain.predicates
    lines = ["(define (domain %s)" % domain.name]
    ps = " ".join(atom_str(preds, (i, *range(p.arity)), ["?x%d" % v for v in range(p.arity)])
                  for i, p in enumerate(preds))
    lines.append("  (:predicates %s)" % ps)
    for sch in domain.schemata:
        names = sch.var_names
        lines.append("  (:action %s" % sch.name)
        lines.append("    :parameters (%s)" % " ".join(names))
        lines.append("    :precondition (and %s)"
                     % " ".join(atom_str(preds, a, names) for a in sorted(sch.pre)))
        outs = []
        for add, dele in sch.outcomes:
            parts = [atom_str(preds, a, names) for a in sorted(add)]
            parts += ["(not %s)" % atom_str(preds, a, names) for a in sorted(dele)]
            outs.append("(and %s)" % " ".join(parts))
        if len(outs) == 1:
            lines.append("    :effect %s)" % outs[0])
        else:
            lines.append("    :effect (oneof %s))" % " ".join(outs))
    lines.append(")")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass
class DemoStep:
    ego: list
    objects: dict  # name -> feature list, insertion order = object order
    action: list   # None on a live step until the runner acts on it


@dataclass
class Demo:
    goal: tuple  # tuple of fact name-tuples, e.g. ("at", "b0", "p0")
    steps: list


def _fact_names(s: str, line_no: int) -> tuple:
    try:
        forms = _read(_tokenize(s, 1, 1))
    except ParseError:
        raise ParseError("bad fact %r in trace" % s, line_no, 1) from None
    if len(forms) != 1 or not isinstance(forms[0], list) or not forms[0] \
            or not all(isinstance(t, _Tok) for t in forms[0]):
        raise ParseError("bad fact %r in trace" % s, line_no, 1)
    return tuple(t.text for t in forms[0])


def _numbers(value, what: str, line_no: int) -> list:
    """A JSON list of finite numbers as floats (ints come back as floats), or a
    ParseError naming the first value that is not a finite number."""
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
    for line_no, line in enumerate(text.split("\n"), start=1):
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
            # A step of float lists with a finite sum and the record's widths
            # is kept as parsed, after one check in a few C-level calls.
            if type(s) is dict and len(s) == 3 and type(s.get("objects")) is dict:
                ego, objs, act = s.get("ego"), s["objects"], s.get("action")
                vecs = objs.values()
                if type(ego) is list and type(act) is list \
                        and set(map(type, vecs)) <= {list} \
                        and set(map(type, chain(ego, act, *vecs))) <= {float} \
                        and math.isfinite(sum(chain(ego, act, *vecs))) \
                        and len(ego) == ego_len and len(act) == act_len \
                        and set(map(len, vecs)) <= {obj_len}:
                    steps.append(DemoStep(ego, objs, act))
                    continue
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


def _step_template(ego_width: int, names: tuple, widths: tuple, act_width: int) -> str:
    """The ``str.format`` template of one step shape: a ``{:.9}`` field per
    number, each object key written by ``json.dumps`` with its braces doubled."""
    def vec(width):
        return "[%s]" % ",".join(["{:.9}"] * width)
    objs = ",".join("%s:%s" % (json.dumps(name).replace("{", "{{").replace("}", "}}"),
                               vec(width)) for name, width in zip(names, widths))
    return '{{"ego":%s,"objects":{{%s}},"action":%s}}' % (vec(ego_width), objs,
                                                           vec(act_width))


def serialize_traces(demos: Iterable[Demo]) -> str:
    """One JSON record per demo, each step written by one ``str.format`` call
    on a template built once per step shape (ego width, object names and
    widths, action width).

    Each number passes through ``float`` and is written as ``format(x, ".9")``:
    nine significant digits, with at least one digit after the point (``1.0``,
    not ``1``).  For x = 0 and for every normal x (|x| >= 2.2250738585072014e-308)
    that rounds to nine digits below 1e8, which holds every number an env
    writes, that is the text ``repr(float("%.9g" % x))``; outside that range it
    is the same nine digits in exponent form, which read back as the same
    float.  A non-finite number raises BisonError naming its demo and step,
    since JSON cannot hold it."""
    templates = {}
    lines = []
    for d, demo in enumerate(demos):
        steps = []
        for k, s in enumerate(demo.steps):
            objs = s.objects
            shape = (len(s.ego), tuple(objs), tuple(map(len, objs.values())), len(s.action))
            template = templates.get(shape)
            if template is None:
                template = templates[shape] = _step_template(*shape)
            nums = list(map(float, chain(s.ego, *objs.values(), s.action)))
            if not math.isfinite(sum(nums)) and not all(map(math.isfinite, nums)):
                raise BisonError("trace demo %d, step %d holds a non-finite number" % (d, k))
            steps.append(template.format(*nums))
        goal = json.dumps(["(%s)" % " ".join(g) for g in demo.goal], separators=(",", ":"))
        lines.append('{"goal":%s,"steps":[%s]}' % (goal, ",".join(steps)))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def _parse_rule(text: str, line: int, col: int, preds: dict, schemata: dict) -> Rule:
    """One rule from its line's ``text``, which begins at ``line``, ``col``:
    ``<val>: (:vars …) (:state …) (:goal …) => (head …)``, sections in any order.

    The priority is the text before the line's first ':', one token read as
    an integer, and the conditions end at the line's first '=>', which must be
    a token of its own.
    """
    val_s, colon, after = text.partition(":")
    if not colon:
        raise ParseError("rule line needs '<val>:' prefix", line, col)
    try:
        [val_tok] = _tokenize(val_s, line, col)  # one token, blanks around it
        val = int(val_tok.text) - 1  # display priorities are 1-based
    except ValueError:
        raise ParseError("bad priority %r" % val_s, line, col) from None
    rest = _tokenize(after, line, col + len(val_s) + 1)
    arrow = next((i for i, t in enumerate(rest) if "=>" in t.text), None)
    if arrow is None:
        last = rest[-1] if rest else val_tok
        raise ParseError("rule line needs '=>'", last.line, last.col)
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
    """The policy of a text with one rule per rule line."""
    preds, schemata = _symbols(domain.predicates), _symbols(domain.schemata)
    rules = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        code = line.split(";", 1)[0]
        rule = code.strip()
        if rule:
            lead = len(code) - len(code.lstrip())
            rules.append(_parse_rule(rule, line_no, lead + 1, preds, schemata))
    return HLPolicy(rules, domain)


def serialize_policy(policy: HLPolicy) -> str:
    return "".join(rule_str(r, policy.domain) + "\n" for r in policy.rules)
