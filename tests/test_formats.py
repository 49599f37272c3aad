import hashlib
import json
import math
import random
import re
import struct
from collections import Counter

import pytest

from bison.bench import gen_blocks_hl_problem
from bison.core import BisonError
from bison.envs import PICKPLACE_DOMAIN_TEXT, builtin_policy, env_domain
from bison.formats import (Demo, DemoStep, ParseError, _Tok, _fact_names, _head,
                           _lifted_atom, _numbers, _read, _symbols, _tokenize, _var_list,
                           parse_domain, parse_policy, parse_traces, serialize_domain,
                           serialize_policy, serialize_traces)
from bison.rules import HLPolicy, Rule

from helpers import problem_text


def test_parse_domain_example_pick_place():
    dom = parse_domain(PICKPLACE_DOMAIN_TEXT)
    assert len(dom.predicates) == 4
    assert [p.name for p in dom.predicates] == ["rAt", "at", "free", "hold"]
    assert len(dom.schemata) == 3
    assert all(len(s.outcomes) == 1 for s in dom.schemata)


def test_parse_domain_empty_predicates_block():
    dom = parse_domain("(define (domain d) (:predicates))")
    assert len(dom.predicates) == 0


def test_parse_domain_unbound_effect_variable():
    text = """
    (define (domain d) (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (and (p ?x))
               :effect (and (p ?y))))"""
    with pytest.raises(ParseError):
        parse_domain(text)


def test_parse_domain_undeclared_predicate_and_arity():
    with pytest.raises(ParseError):
        parse_domain("(define (domain d) (:predicates (p ?x))"
                     "(:action a :parameters (?x) :precondition (q ?x)"
                     " :effect (and)))")
    with pytest.raises(ParseError):
        parse_domain("(define (domain d) (:predicates (p ?x))"
                     "(:action a :parameters (?x) :precondition (p ?x ?x)"
                     " :effect (and)))")


def test_parse_domain_rejects_overlapping_add_delete():
    text = """
    (define (domain d) (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (and)
               :effect (and (p ?x) (not (p ?x)))))"""
    with pytest.raises(ParseError):
        parse_domain(text)


def test_parse_domain_structural_errors_at_the_action():
    dup = ("(define (domain d) (:predicates (p ?x))\n"
           "  (:action a :parameters (?x) :precondition (p ?x) :effect (and))\n"
           "  (:action a :parameters (?x) :precondition (p ?x) :effect (and)))")
    with pytest.raises(ParseError, match="duplicate action schema") as e:
        parse_domain(dup)
    assert (e.value.line, e.value.col) == (3, 12)
    overlap = ("(define (domain d) (:predicates (p ?x))\n"
               "  (:action a :parameters (?x) :precondition (p ?x)\n"
               "   :effect (oneof (and) (and (p ?x) (not (p ?x))))))")
    with pytest.raises(ParseError, match="add ∩ del") as e:
        parse_domain(overlap)
    assert (e.value.line, e.value.col) == (3, 25)


def test_parse_domain_positioned_errors():
    try:
        parse_domain("(define (domain d)\n  (:predicates (p ?x)\n")
    except ParseError as e:
        assert e.line >= 1
    else:
        pytest.fail("expected ParseError")


def test_domain_round_trip():
    dom = env_domain("gacha")
    again = parse_domain(serialize_domain(dom))
    assert [p.name for p in again.predicates] == [p.name for p in dom.predicates]
    assert [s.name for s in again.schemata] == [s.name for s in dom.schemata]
    for a, b in zip(dom.schemata, again.schemata):
        assert a.pre == b.pre and a.outcomes == b.outcomes


@pytest.mark.parametrize("text,pos", [
    ("(define (domain d) (:predicates (p ?x) (q ?x))\n"
     "  (:action a :parameters (?x) :precondition (p ?x) :effect (q ?x)\n"
     "    :effect (p ?x)))", (3, 5)),
    ("(define (domain d) (:predicates (p ?x))\n"
     "  (:action a :parameters (?x) :parameters (?y) :precondition (p ?x)"
     " :effect (p ?x)))", (2, 31)),
    ("(define (domain d) (:predicates (p ?x))\n  (:predicates (q ?x))\n"
     "  (:action a :parameters (?x) :precondition (p ?x) :effect (p ?x)))", (2, 3)),
], ids=["effect", "parameters", "predicates"])
def test_domain_repeated_section_is_positioned(text, pos):
    with pytest.raises(ParseError, match="repeated") as e:
        parse_domain(text)
    assert (e.value.line, e.value.col) == pos


def test_parse_traces_empty():
    assert parse_traces("") == []


def test_parse_traces_one_demo_two_steps():
    text = ('{"goal": ["(at b0 p0)"], "steps": ['
            '{"ego": [0.1, 0.2, 1.0], "objects": {"b0": [0.1, 0.1]}, "action": [1, 0, 0]},'
            '{"ego": [0.2, 0.2, 1.0], "objects": {"b0": [0.1, 0.1]}, "action": [0, 0, 0]}]}')
    demos = parse_traces(text)
    assert len(demos) == 1
    assert len(demos[0].steps) == 2
    assert demos[0].goal == (("at", "b0", "p0"),)


def test_parse_traces_breaks_lines_at_newline_only():
    # a raw U+2028 is valid inside a JSON string; str.splitlines would break
    # the record there
    text = ('{"goal": ["(at b\u20280 p0)"], "steps": ['
            '{"ego": [0.1], "objects": {"b\u20280": [0.1]}, "action": [1]}]}\n')
    demos = parse_traces(text)
    assert len(demos) == 1
    assert demos[0].goal == (("at", "b\u20280", "p0"),)
    assert list(demos[0].steps[0].objects) == ["b\u20280"]


def test_parse_traces_ragged_vectors():
    text = ('{"goal": [], "steps": ['
            '{"ego": [0.1], "objects": {"b0": [0.1, 0.1], "b1": [0.1]}, "action": [0]}]}')
    with pytest.raises(ParseError):
        parse_traces(text)


def test_parse_traces_malformed_record():
    with pytest.raises(ParseError):
        parse_traces("{not json")
    with pytest.raises(ParseError):
        parse_traces('{"steps": []}')


def _step(ego="[0.1]", objects='{"b0": [0.1]}', action="[0]"):
    return '{"ego": %s, "objects": %s, "action": %s}' % (ego, objects, action)


@pytest.mark.parametrize("record", [
    pytest.param('{"goal": [], "steps": [%s]}' % _step(objects="[[0.1]]"), id="objects-list"),
    pytest.param('{"goal": [], "steps": [%s]}' % _step(objects='{"b0": 5}'), id="object-scalar"),
    pytest.param('{"goal": [], "steps": [%s]}' % _step(ego='["x"]'), id="string-in-ego"),
    pytest.param('{"goal": [], "steps": [%s]}' % _step(objects='{"b0": ["x"]}'),
                 id="string-in-object"),
    pytest.param('{"goal": [], "steps": [%s]}' % _step(action="[true]"), id="bool-in-action"),
    pytest.param('{"goal": [], "steps": 5}', id="steps-number"),
    pytest.param('{"goal": 5, "steps": [%s]}' % _step(), id="goal-number"),
    pytest.param('{"goal": [5], "steps": [%s]}' % _step(), id="goal-fact-number"),
    pytest.param('{"goal": [], "steps": [%s]}' % _step(ego="[1e999]"), id="overflow-inf"),
    pytest.param('{"goal": [], "steps": [%s]}' % _step(objects='{"b0": [NaN]}'), id="nan"),
    pytest.param('{"goal": [], "steps": [%s]}' % _step(action="[-Infinity]"), id="infinity"),
    pytest.param('{"goal": [], "steps": [%s]}' % _step(ego="[1%s]" % ("0" * 400)),
                 id="int-beyond-float"),
    pytest.param('{"goal": [], "steps": [%s]}' % _step(ego="[1%s]" % ("0" * 5000)),
                 id="int-too-long"),
    pytest.param('{"goal": [], "steps": %s}' % ("[" * 100000 + "]" * 100000),
                 id="deep-nesting"),
])
def test_parse_traces_structured_garbage_is_positioned(record):
    with pytest.raises(ParseError) as ei:
        parse_traces("\n" + record)
    assert ei.value.line == 2


def reference_numbers(value, what, line_no):
    """``_numbers`` as it was, before its fast path: one check per value."""
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


def numbers_outcome(fn, value):
    """What ``fn`` makes of ``value``: each float with its type and exact text
    (so -0.0 differs from 0.0), or the ParseError's message and position."""
    try:
        out = fn(value, "ego vector", 7)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)
    return ("ok", [(type(x), repr(x)) for x in out])


NUMBER_EDGES = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1e308, -1e308, 0, 3, -7,
                10 ** 20, 10 ** 400, True, False, math.nan, math.inf, -math.inf,
                "1.0", None, [1.0], {"x": 1.0}]


def random_vector(rng):
    """Mostly finite floats, as the writer leaves them, with now and then an
    int, an edge value or a non-number in a random slot."""
    vec = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(0, 9))]
    for _ in range(rng.choice((0, 0, 1, 2))):
        if vec:
            vec[rng.randrange(len(vec))] = rng.choice(NUMBER_EDGES)
    return vec


@pytest.mark.parametrize("value,accepted", [
    ([1, 2, -3], True),            # ints come back as floats
    ([-0.0, 0.0], True),
    ([1e308, 1e308], True),        # finite values whose sum overflows
    ([-1e308, -1e308, 1.0], True),
    ([], True),
    ([0.5, True], False),
    ([math.nan], False),
    ([1.0, math.inf], False),
    ([-math.inf, 1.0], False),
    ([10 ** 400], False),
    ([0.5, "1.0"], False),
    ((0.5, 1.0), False),           # not a list
    ("0.5", False),
])
def test_numbers_equal_reference_on_edges(value, accepted):
    got = numbers_outcome(_numbers, value)
    assert got == numbers_outcome(reference_numbers, value)
    assert (got[0] == "ok") == accepted
    if accepted:
        assert all(t is float for t, _ in got[1])


def test_numbers_equal_reference_on_random_vectors():
    rng = random.Random(1717)
    outcomes = set()
    for _ in range(20000):
        vec = random_vector(rng)
        got = numbers_outcome(_numbers, vec)
        assert got == numbers_outcome(reference_numbers, vec), vec
        outcomes.add(got[0] if got[0] == "ok" else got[1].split(" holds a ")[1][:10])
    assert outcomes == {"ok", "non-number", "non-finite"}


def test_parse_traces_numbers_through_json():
    step = '{"ego": %s, "objects": {"b0": %s}, "action": %s}'
    record = '{"goal": [], "steps": [%s]}' % (step % ("[1, 2]", "[-0.0, 1e308, 1e308]",
                                                      "[0.25]"))
    (demo,) = parse_traces(record)
    (s,) = demo.steps
    assert [repr(x) for x in s.ego] == ["1.0", "2.0"]
    assert [repr(x) for x in s.objects["b0"]] == ["-0.0", "1e+308", "1e+308"]
    assert s.action == [0.25]
    for bad, message in (("[true]", "non-number True"), ("[NaN]", "non-finite"),
                         ("[Infinity]", "non-finite"), ("[-Infinity]", "non-finite"),
                         ("[1e999]", "non-finite")):
        text = "\n\n" + '{"goal": [], "steps": [%s]}' % (step % ("[0.5]", bad, "[0.25]"))
        with pytest.raises(ParseError) as e:
            parse_traces(text)
        assert (e.value.line, e.value.col) == (3, 1)
        assert "trace object vector holds a %s" % message in str(e.value)
        assert json.loads(text.strip())  # json itself reads every one of them


def reference_parse_traces(text):
    """``parse_traces`` as it was, before its per-step check: every vector goes
    through the check per value and is copied."""
    demos = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError("malformed trace record: %s" % e.msg, line_no, e.colno) from None
        except (ValueError, RecursionError) as e:
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
            ego = reference_numbers(s["ego"], "ego vector", line_no)
            act = reference_numbers(s["action"], "action vector", line_no)
            objs = {k: reference_numbers(v, "object vector", line_no)
                    for k, v in s["objects"].items()}
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


def traces_outcome(fn, text):
    """What ``fn`` makes of ``text``: every number with its type and exact
    text, or the ParseError's message and position."""
    def vec(v):
        return [(type(x), repr(x)) for x in v]
    try:
        demos = fn(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)
    return ("ok", [(d.goal, [(vec(s.ego), [(k, vec(v)) for k, v in s.objects.items()],
                              vec(s.action)) for s in d.steps]) for d in demos])


# JSON texts that a mutation writes in place of a number or a vector
BAD_NUMBERS = ["3", "-0", "true", "false", "NaN", "Infinity", "-Infinity", "1e999",
               "1" + "0" * 400, '"0.5"', "null"]
BAD_VECTORS = ["[1e308,1e308]", "[-1e308,-1e308,0.5]", "[]", "5", '"ab"', "null",
               '{"x":0.5}', "[[0.5]]"]


def fuzz_record(rng):
    """A record of random widths and steps, then one to three mutations of
    the kinds a hand-made or damaged ``.bst`` holds."""
    ego_w, obj_w, act_w = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
    names = ["b%d" % i for i in range(rng.randint(0, 3))]

    def vec(width):
        return [rng.choice((0.0, 1.0, -0.0, round(rng.uniform(-2, 2), 9))) for _ in range(width)]

    steps = [{"ego": vec(ego_w), "objects": {k: vec(obj_w) for k in names},
              "action": vec(act_w)} for _ in range(rng.randint(0, 4))]
    marks = {}  # placeholder string -> the JSON text that replaces it

    def mark(text):
        key = "@%d@" % len(marks)
        marks[key] = text
        return key

    for _ in range(rng.randint(1, 3)):
        dicts = [t for t in steps if isinstance(t, dict)]
        if not dicts:
            break
        s = rng.choice(dicts[:1] + dicts)  # the first step half the time
        objs = s["objects"] if isinstance(s.get("objects"), dict) else {}
        slots = [(s, k) for k in ("ego", "action") if k in s] + [(objs, k) for k in objs]
        vectors = [t[k] for t, k in slots if isinstance(t[k], list) and t[k]]
        kind = rng.randrange(9)
        if kind == 0 and vectors:
            v = rng.choice(vectors)
            v[rng.randrange(len(v))] = mark(rng.choice(BAD_NUMBERS))
        elif kind == 1 and slots:
            t, k = rng.choice(slots)
            t[k] = mark(rng.choice(BAD_VECTORS))
        elif kind == 2 and vectors:  # ragged: one value more or less
            v = rng.choice(vectors)
            v.pop() if rng.random() < 0.5 else v.append(0.5)
        elif kind == 3:
            s["extra"] = 1.0
        elif kind == 4:
            s.pop(rng.choice(["ego", "objects", "action"]), None)
        elif kind == 5:
            s["objects"] = mark(rng.choice(['[[0.5]]', "5", '"b0"', "null", "[]"]))
        elif kind == 6:  # empty objects on a step before one with objects
            s["objects"] = {}
        elif kind == 7:
            objs["z"] = vec(rng.randint(0, 4))
            s["objects"] = objs
        else:
            steps.insert(rng.randrange(len(steps) + 1), mark(rng.choice(["5", "[]", "null"])))
    text = json.dumps({"goal": ["(at %s p0)" % k for k in names], "steps": steps},
                      separators=(",", ":"))
    for key, value in marks.items():
        text = text.replace('"%s"' % key, value)
    return text


def test_parse_traces_equals_reference_on_mutated_records():
    rng = random.Random(2501)
    outcomes = set()
    for _ in range(3000):
        text = "\n".join(fuzz_record(rng) if rng.random() < 0.8 else ""
                         for _ in range(rng.randint(1, 3)))
        got = traces_outcome(parse_traces, text)
        assert got == traces_outcome(reference_parse_traces, text), text
        if got[0] == "ok":
            outcomes.add("ok")
        else:
            outcomes.add(re.sub(r"(non-number) .*| \(line .*", r"\1", got[1]))
    assert outcomes >= {
        "ok", "trace step needs ego/objects/action",
        "trace step objects must map names to vectors",
        "ragged ego/action vector lengths", "ragged object vector lengths",
        "trace ego vector must be a list of numbers",
        "trace object vector must be a list of numbers",
        "trace action vector holds a non-number",
        "trace object vector holds a non-finite number"}


def test_parse_traces_reads_steps_that_fail_the_step_check():
    steps = [_step(ego="[1, 2]"), _step(ego="[1e308, 1e308]"),
             _step(ego="[0.5, -0.0]")[:-1] + ', "note": 1}', _step(ego="[0.25, 0.5]")]
    (demo,) = parse_traces('{"goal": [], "steps": [%s]}' % ",".join(steps))
    assert [s.ego for s in demo.steps] == [[1.0, 2.0], [1e308, 1e308], [0.5, -0.0],
                                           [0.25, 0.5]]
    assert all(type(x) is float for s in demo.steps for x in s.ego)


def reference_serialize_traces(demos):
    """``serialize_traces`` as it was: each number through ``float("%.9g" % x)``
    and the record through ``json.dumps``."""
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


def written_numbers(values):
    """The texts ``serialize_traces`` writes for ``values``, as one ego vector."""
    text = serialize_traces([Demo((), [DemoStep(values, {}, [])])])
    return re.fullmatch(r'\{"goal":\[\],"steps":\[\{"ego":\[(.*)\],"objects":\{\},'
                        r'"action":\[\]\}\]\}\n', text).group(1).split(",")


def random_floats(rng, count):
    """Finite floats from random 64-bit patterns, from uniform values scaled by
    10**k for k in -320..308, and plain uniform values."""
    out = []
    while len(out) < count:
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        for y in (x, rng.uniform(-10, 10) * 10.0 ** rng.randint(-320, 308),
                  rng.uniform(-2, 2)):
            if math.isfinite(y):
                out.append(y)
    return out


def in_writer_range(x):
    """x = 0, or x normal and below 1e8 once rounded to nine digits."""
    return x == 0 or 2.2250738585072014e-308 <= abs(x) and abs(float("%.9g" % x)) < 1e8


def test_written_numbers_read_back_as_the_rounded_float():
    rng = random.Random(2502)
    values = random_floats(rng, 30000) + [0.0, -0.0, 5e-324, -5e-324, 1e8, 99999999.99, 99999999.9,
                                          123456789.0, 1e16, 1.7976931348623157e308,
                                          2.2250738585072014e-308, 1e-5, 0.1, 3, True, -7]
    in_range = 0
    for x, text in zip(values, written_numbers(values)):
        rounded = float("%.9g" % x)
        assert repr(float(text)) == repr(rounded), x
        if in_writer_range(x):
            in_range += 1
            assert text == repr(rounded), x
    assert in_range > 10000


def first_difference(got, want):
    """None when the texts are equal, else the first differing character's
    offset and the text around it in each (pytest's diff of two whole corpora
    would take minutes)."""
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    lo = max(at - 30, 0)
    return at, got[lo:at + 30], want[lo:at + 30]


def test_serialize_traces_equals_reference_on_the_quickstart_corpus(blocks_demos):
    got = serialize_traces(blocks_demos)
    assert first_difference(got, reference_serialize_traces(blocks_demos)) is None
    assert serialize_traces([]) == reference_serialize_traces([]) == ""


def test_serialize_traces_equals_reference_on_shapes_and_keys():
    demos = [Demo((("at", "b0", "p0"), ("on", "{b}", "ü\"")),
                  [DemoStep([0.1, 2], {"{b}": [1.0], 'ü"': [0.25]}, [3]),
                   DemoStep([], {}, []),
                   DemoStep([0.5, 1e-7], {"b0": [-0.0]}, [1])]),
             Demo((), [])]
    assert serialize_traces(demos) == reference_serialize_traces(demos)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["ego", "objects", "action"])
def test_serialize_traces_rejects_non_finite_numbers(bad, where):
    step = DemoStep([0.5, 1.0], {"b0": [0.25]}, [0.0])
    broken = DemoStep([0.5, bad] if where == "ego" else [0.5, 1.0],
                      {"b0": [bad] if where == "objects" else [0.25]},
                      [bad] if where == "action" else [0.0])
    demos = [Demo((), [step]), Demo((), [step, step, broken])]
    with pytest.raises(BisonError, match=r"^trace demo 1, step 2 holds a non-finite number$"):
        serialize_traces(demos)


def test_traces_round_trip(blocks_demos):
    demos = blocks_demos[:3]
    text = serialize_traces(demos)
    again = parse_traces(text)
    assert len(again) == len(demos)

    def close(u, v):
        return len(u) == len(v) and all(abs(x - y) < 1e-8 for x, y in zip(u, v))

    for a, b in zip(demos, again):
        assert a.goal == b.goal
        assert len(a.steps) == len(b.steps)
        # 9 significant digits: round-trip is near-exact for these magnitudes
        for sa, sb in zip(a.steps, b.steps):
            assert sa.objects.keys() == sb.objects.keys()
            assert close(sa.ego, sb.ego)
            assert close(sa.action, sb.action)
            assert all(close(sa.objects[k], sb.objects[k]) for k in sa.objects)


def test_policy_line_structure_example_rule():
    dom = env_domain("pickplace")
    line = "1: (:vars ?x ?l) (:state (hold ?x) (rAt ?l)) (:goal (at ?x ?l)) => (place ?x ?l)"
    pol = parse_policy(line, dom)
    assert len(pol) == 1
    rule = pol.rules[0]
    assert rule.val == 0  # display priorities are 1-based
    assert dom.schemata[rule.head_schema].name == "place"
    assert serialize_policy(pol).strip() == \
        "1: (:vars ?v0 ?v1) (:state (rAt ?v1) (hold ?v0)) (:goal (at ?v0 ?v1)) => (place ?v0 ?v1)"


def test_policy_empty():
    dom = env_domain("pickplace")
    pol = parse_policy("", dom)
    assert len(pol) == 0
    assert serialize_policy(pol) == ""


def test_policy_round_trip_learned(blocks_policy, blocks_domain):
    text = serialize_policy(blocks_policy)
    again = parse_policy(text, blocks_domain)
    assert serialize_policy(again) == text
    assert len(again) == len(blocks_policy)


def test_policy_error_on_line_three_reports_line_three():
    dom = env_domain("pickplace")
    bad = "2: (:vars ?x) (:state (hold ?x) (:goal) => (place ?x ?x)"
    text = ("1: (:vars ?x ?l) (:state (hold ?x) (rAt ?l)) (:goal (at ?x ?l)) => (place ?x ?l)"
            "\n; a comment\n" + bad + "\n")
    with pytest.raises(ParseError) as ei:
        parse_policy(text, dom)
    assert (ei.value.line, ei.value.col) == (3, bad.index("(:state") + 1)  # the unclosed '('


def test_policy_error_is_reported_at_the_line_an_editor_shows():
    # a form feed, like \x0b, \x1c-\x1e, \x85, U+2028 and U+2029, is no
    # line break: only "\n" ends a line
    dom = env_domain("pickplace")
    good = "1: (:vars ?x ?l) (:state (hold ?x) (rAt ?l)) (:goal (at ?x ?l)) => (place ?x ?l)"
    bad = "2: (:vars ?x) (:state (hold ?x) (:goal) => (place ?x ?x)"
    for brk in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        with pytest.raises(ParseError) as ei:
            parse_policy(good + brk + "\n" + bad + "\n", dom)
        assert (ei.value.line, ei.value.col) == (2, bad.index("(:state") + 1), repr(brk)
    text = serialize_policy(builtin_policy("pickplace"))
    paged = "".join(line + "\x0c\n; next page\n" for line in text.split("\n")[:-1])
    assert serialize_policy(parse_policy(paged, dom)) == text


def test_policy_undeclared_predicate_reports_its_column():
    dom = env_domain("pickplace")
    bad = "  1: (:vars ?x ?l) (:state (hold ?x) (near ?l)) (:goal (at ?x ?l)) => (place ?x ?l)"
    with pytest.raises(ParseError) as ei:
        parse_policy("\n" + bad, dom)
    assert (ei.value.line, ei.value.col) == (2, bad.index("near") + 1)


def test_domain_empty_form_reports_its_position():
    text = "(define (domain d) (:predicates (p ?x)) ())"
    with pytest.raises(ParseError) as ei:
        parse_domain(text)
    assert (ei.value.line, ei.value.col) == (1, text.index("()") + 1)


def test_policy_parse_errors():
    dom = env_domain("pickplace")
    with pytest.raises(ParseError):
        parse_policy("nonsense", dom)
    with pytest.raises(ParseError):  # undeclared variable in head
        parse_policy("1: (:vars ?x) (:state) (:goal) => (move ?x ?y)", dom)
    with pytest.raises(ParseError):  # constants are not allowed in rule atoms
        parse_policy("1: (:vars ?x) (:state (hold obj1)) (:goal) => (move ?x ?x)", dom)


# sha256 of what the printers write: the round-trip tests above compare parsed
# values, so these pin the bytes (atom spacing, order, variable names); the
# problem entries pin the instances gen_blocks_hl_problem builds for bench-hl
PRINTED = {
    ("domain", "blocks"): "338cea36de424fba38be05d928115f6be6b3d9839221b2854af9c3c6eb3cdbc4",
    ("domain", "pickplace"): "2785f1457bdf7b47e2909211498a4c575f2e141ef8ca8341dda8ec5a2660641a",
    ("domain", "gacha"): "8212472ebe66184943ea37afb32ece260381ea02dbac7e9a55067bffade87e19",
    ("policy", "blocks"): "f464bc0603d5dea8b7057f2a48a8be5a3c43cce738059a7f33376efade4ffc62",
    ("policy", "pickplace"): "cdd3b26682ff278ae33c198420e33a29cce0066a291be03a3c6fef90bb15d106",
    ("policy", "gacha"): "c07ea87f42061855862225428b4bc7528497f19a230fa4920e36f15a9c755c2f",
    ("problem", 1): "5c745222c599a1862d502efd332604e2ef1cc7e3d699d4c134fa9a6e5999d8ad",
    ("problem", 3): "6a6c91256dc9af48a11550dd03f543d067453e13ad559aba44ab753958fdab74",
    ("problem", 10): "ac429e2b01451aef99305853542c160a917eb6a1c8ea26859577cc79914580c9",
}


@pytest.mark.parametrize("what,arg", sorted(PRINTED, key=str))
def test_printed_bytes_are_pinned(what, arg):
    if what == "domain":
        text = serialize_domain(env_domain(arg))
    elif what == "policy":
        text = serialize_policy(builtin_policy(arg))
    else:
        text = problem_text(gen_blocks_hl_problem(arg, 2), "hl-blocks-%d" % arg)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PRINTED[what, arg]


# ---------------------------------------------------------------------------
# Each reader by its stated rule, against the hand-counting readers it replaced
# ---------------------------------------------------------------------------

def reference_tokenize(text, line, col):
    """The tokenizer that counted columns by hand, one branch per character class."""
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


def reference_parse_rule(toks, preds, schemata):
    """The rule reader that found the priority's ':' among the line's tokens."""
    first = toks[0]
    val_s, colon, after = first.text.partition(":")
    body = 1
    if not colon and len(toks) > 1 and toks[1].text.startswith(":"):
        colon, after, body = ":", toks[1].text[1:], 2
    if not colon:
        raise ParseError("rule line needs '<val>:' prefix", first.line, first.col)
    try:
        val = int(val_s) - 1
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


def reference_parse_policy(text, domain):
    preds, schemata = _symbols(domain.predicates), _symbols(domain.schemata)
    rules = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        code = line.split(";", 1)[0]
        rule = code.strip()
        if rule:
            lead = len(code) - len(code.lstrip())
            rules.append(reference_parse_rule(reference_tokenize(rule, line_no, lead + 1),
                                              preds, schemata))
    return HLPolicy(rules, domain)


def positioned(toks):
    return [(t.text, t.line, t.col) for t in toks]


# the pieces random token texts are made of: every character class the
# tokenizer tells apart, and the marks the rule and domain readers look for
TEXT_PIECES = ["(", ")", ";", "\n", "\t", "\r", "\x0b", " ", "  ", "=>", "?", ":", "a",
               "xy", "1", "١", "²", "\xa0", "; c\n"]


def test_tokenize_equals_reference_on_random_text():
    rng = random.Random(2801)
    for _ in range(100000):
        text = "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randint(0, 12)))
        line, col = rng.randint(1, 4), rng.randint(1, 40)
        assert positioned(_tokenize(text, line, col)) == \
            positioned(reference_tokenize(text, line, col)), (text, line, col)


def policy_outcome(parse, text, domain):
    """The bytes a policy text reads back as, or None if it does not read."""
    try:
        return serialize_policy(parse(text, domain))
    except ParseError:
        return None


BUILTIN_RULE_LINES = [(kind, line) for kind in ("blocks", "pickplace", "gacha")
                      for line in serialize_policy(builtin_policy(kind)).splitlines()]


@pytest.mark.parametrize("spelling,accepted", [
    ("1:", True), ("1 :", True), ("1\t:", True), ("01:", True), ("+1:", True),
    ("-1:", True), ("1_0:", True), ("١:", True), ("1\xa0:", True),
    ("1 \t :", True),
    ("1::", False), ("1:x", False), ("1 :x", False), ("1 2:", False), ("(1):", False),
    ("0x1:", False), ("1.0:", False), ("²:", False),
])
def test_priority_spellings_read_as_before(spelling, accepted):
    for kind, line in BUILTIN_RULE_LINES:
        text = spelling + line.partition(":")[2]
        domain = env_domain(kind)
        got = policy_outcome(parse_policy, text, domain)
        assert got == policy_outcome(reference_parse_policy, text, domain), text
        assert (got is not None) == accepted, text


@pytest.mark.parametrize("text,message,pos", [
    ("1:x (:vars) (:state) (:goal) => (pick)", "unexpected rule section '?'", (1, 3)),
    ("1 2: (:vars) (:state) (:goal) => (pick)", "bad priority '1 2'", (1, 1)),
])
def test_malformed_priority_messages(text, message, pos):
    with pytest.raises(ParseError) as e:
        parse_policy(text, env_domain("blocks"))
    assert str(e.value) == "%s (line %d, col %d)" % (message, *pos)


# what a mutation writes into a rule line: the marks the rule reader looks
# for, blanks it does and does not split at, and digits int() does and does
# not read
LINE_PIECES = [":", " ", " ", "\t", "\r", "(", ")", "=>", "?x", "1", "0", "-", "_", "١",
               "\xa0", ";", "x", "=", ">", "(:vars)", "(:goal)"]


def mutate_line(rng, line):
    """One to three character-level mutations, half of them in the priority."""
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        end = len(line) if rng.random() < 0.5 else min(len(line), 6)
        i = rng.randint(0, end)
        kind = rng.randrange(4)
        if kind == 0:
            line = line[:i] + line[i + 1:]
        elif kind == 1:
            line = line[:i] + rng.choice(LINE_PIECES) + line[i:]
        elif kind == 2:
            j = rng.randint(i, min(len(line), i + 8))
            line = line[:i] + line[i:j] * 2 + line[j:]
        else:
            line = line[:i] + rng.choice(LINE_PIECES) + line[i + 1:]
    return line


def test_rule_reader_equals_reference_on_mutated_lines():
    rng = random.Random(2802)
    domains = {kind: env_domain(kind) for kind in ("blocks", "pickplace", "gacha")}
    accepted = 0
    for _ in range(30000):
        kind, line = rng.choice(BUILTIN_RULE_LINES)
        text = mutate_line(rng, line)
        got = policy_outcome(parse_policy, text, domains[kind])
        assert got == policy_outcome(reference_parse_policy, text, domains[kind]), text
        accepted += got is not None
    assert 2000 < accepted < 28000  # both sides of the rule are exercised


@pytest.mark.parametrize("text,message,pos", [
    ("(define (problem x) (:predicates (p ?x)))",
     "unexpected top-level form 'problem'", (1, 9)),
    ("(define (domain d) (:predicates (p ?x)) (domain e))",
     "unexpected top-level form 'domain'", (1, 41)),
    ("(define (domain (d)) (:predicates (p ?x)))", "expected a domain name", (1, 17)),
])
def test_domain_header_is_domain_or_absent(text, message, pos):
    with pytest.raises(ParseError) as e:
        parse_domain(text)
    assert str(e.value) == "%s (line %d, col %d)" % (message, *pos)


def test_domain_without_header_is_unnamed():
    dom = parse_domain("(define (:predicates (p ?x) (q)))")
    assert dom.name == "unnamed"
    assert [(p.name, p.arity) for p in dom.predicates] == [("p", 1), ("q", 0)]


ACTION = ("(define (domain d) (:predicates (p ?x))\n"
          "  (:action a :parameters (?x) %s))")


@pytest.mark.parametrize("reader,text,message,pos", [
    ("policy", "1: (:vars ?x ?x) (:state) (:goal) => (pick ?x)",
     "bad or duplicate variable '?x' in :vars", (1, 14)),
    ("domain", ACTION % ":precondition (p ?x) :effect (not (p ?x) (p ?x))",
     "(not …) takes one atom", (2, 60)),
    ("domain", "(define (domain d) (:predicates p))",
     "malformed predicate declaration", (1, 33)),
    ("domain", "(define (domain d) (:predicates (p) (q ?x) (p ?y)))",
     "duplicate predicate 'p'", (1, 45)),
    ("domain", "(define (domain d) (:predicates (p x)))",
     "predicate argument must be a ?variable", (1, 36)),
    ("domain", "(define (domain d extra (junk)) (:predicates (p)))",
     "(domain …) takes one name", (1, 19)),
    ("domain", "(define (domain) (:predicates (p)))", "(domain …) takes one name", (1, 9)),
    ("domain", "(define (domain d) (:predicates (p ?x)) (:action (a)))",
     "missing action name", (1, 41)),
    ("domain", ACTION % ":cost 1", "unknown action section ':cost'", (2, 31)),
    ("domain", ACTION % ":precondition", "missing body for :precondition", (2, 31)),
    ("domain", ACTION % ":precondition (p ?x)", "action 'a' lacks :effect", (2, 12)),
    ("domain", "(define (domain d) (:predicates (p ?x))\n"
               "  (:action a :parameters ?x :precondition (p ?x) :effect (p ?x)))",
     ":parameters must be a list", (2, 26)),
    ("domain", ACTION % ":precondition (p ?x) :effect (oneof)",
     "(oneof …) needs at least one outcome", (2, 60)),
    ("traces", '\n{"goal": ["(at b0 p0))"], "steps": []}',
     "bad fact '(at b0 p0))' in trace", (2, 1)),
    ("policy", "1: (:vars ?x) (:state) (:goal)", "rule line needs '=>'", (1, 30)),
    ("policy", "1: (:vars ?x) (:state) (:goal) ==> (pick ?x)",
     "expected '=>', got '==>'", (1, 32)),
    ("policy", "1: (:vars ?x) (:state) (:goal) (:head) => (pick ?x)",
     "unexpected rule section ':head'", (1, 32)),
    ("policy", "1: (:vars ?x) (:state) (:vars) (:goal) => (pick ?x)",
     "duplicate rule section ':vars'", (1, 24)),
    ("policy", "1: (:vars ?x) (:goal) => (pick ?x)", "rule lacks :state section", (1, 23)),
    ("policy", "1: (:vars ?x) (:state) (:goal) => (pick ?x) (pick ?x)",
     "expected one rule head after '=>'", (1, 45)),
    ("policy", "1: (:vars ?x) (:state) (:goal) =>", "expected one rule head after '=>'",
     (1, 32)),
], ids=["var-list", "not-arity", "predicate-form", "predicate-repeat", "predicate-arg",
        "header-extra", "header-no-name", "action-name", "action-section", "section-body",
        "action-lacks", "parameters", "oneof-empty", "trace-goal", "rule-arrow",
        "rule-arrow-token", "rule-section", "rule-section-repeat", "rule-lacks", "rule-heads",
        "rule-no-head"])
def test_each_parse_error_site_is_positioned(reader, text, message, pos):
    parse = {"domain": parse_domain, "traces": parse_traces,
             "policy": lambda t: parse_policy(t, env_domain("blocks"))}[reader]
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == "%s (line %d, col %d)" % (message, *pos)


DOMAIN_TOKEN = re.compile(r"[()]|[^\s()]+")
# names a mutation may bring into a domain: its own words and the keywords
# of the forms around them
DOMAIN_EXTRAS = ["define", "domain", "problem", ":predicates", ":action", ":parameters",
                 ":precondition", ":effect", "and", "not", "oneof", "?z"]


def test_domain_reader_is_total_on_token_mutations():
    # every mutation reads as a Domain or as a positioned ParseError: the
    # parser makes each check Domain() makes, so no StructuralError leaks
    rng = random.Random(2803)
    kinds = Counter()
    for kind in ("blocks", "pickplace", "gacha"):
        toks = DOMAIN_TOKEN.findall(serialize_domain(env_domain(kind)))
        names = sorted(set(toks) - {"(", ")"}) + DOMAIN_EXTRAS
        for _ in range(800):
            mutated = list(toks)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(mutated))
                op = rng.choice(("delete", "insert", "duplicate", "swap", "rename"))
                if op == "delete":
                    del mutated[i]
                elif op == "insert":
                    mutated.insert(i, rng.choice(names + ["(", ")"]))
                elif op == "duplicate":
                    j = min(len(mutated), i + rng.randint(1, 6))
                    mutated[i:i] = mutated[i:j]
                elif op == "swap":
                    j = rng.randrange(len(mutated))
                    mutated[i], mutated[j] = mutated[j], mutated[i]
                elif mutated[i] in names:
                    mutated[i] = rng.choice(names)
            text = " ".join(mutated)
            try:
                parse_domain(text)
                kinds["domain"] += 1
            except ParseError as e:
                assert e.line == 1 and 1 <= e.col <= len(text), (text, e)
                kinds["error"] += 1
    assert kinds["domain"] > 100 and kinds["error"] > 1500, kinds  # both outcomes
