import pytest

from bison.envs import PICKPLACE_DOMAIN_TEXT, env_domain
from bison.formats import (Demo, DemoStep, ParseError, parse_domain,
                           parse_policy, parse_problem, parse_traces,
                           serialize_domain, serialize_policy,
                           serialize_problem, serialize_traces)
from bison.learn import learn_hl_policy


def test_parse_domain_example_pick_place():
    dom = parse_domain(PICKPLACE_DOMAIN_TEXT)
    assert len(dom.predicates) == 4
    assert [p.name for p in dom.predicates] == ["rAt", "at", "free", "hold"]
    assert len(dom.schemata) == 3
    assert all(s.deterministic for s in dom.schemata)


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


def test_problem_round_trip():
    dom = env_domain("blocks")
    text = """
    (define (problem p1) (:domain blocks)
      (:objects b0 p0)
      (:init (clear b0) (clear p0) (gripperFree))
      (:goal (at b0 p0)))"""
    prob = parse_problem(text, dom)
    assert len(prob.objects) == 2
    assert len(prob.init) == 3 and len(prob.goal) == 1
    again = parse_problem(serialize_problem(prob), dom)
    assert again.init == prob.init and again.goal == prob.goal


@pytest.mark.parametrize("text,pos", [
    ("(define (problem p) (:objects b0 p0)\n"
     "  (:init (clear b0) (gripperFree)) (:init (clear p0)) (:goal (at b0 p0)))", (2, 36)),
    ("(define (problem p) (:objects b0 p0)\n"
     "  (:init (clear b0)) (:goal (at b0 p0))\n  (:goal))", (3, 3)),
])
def test_problem_repeated_section_is_positioned(text, pos):
    with pytest.raises(ParseError, match="repeated") as e:
        parse_problem(text, env_domain("blocks"))
    assert (e.value.line, e.value.col) == pos


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


def test_traces_round_trip(blocks_demos):
    demos = blocks_demos[:3]
    text = serialize_traces(demos)
    again = parse_traces(text)
    assert len(again) == len(demos)
    for a, b in zip(demos, again):
        assert a.goal == b.goal
        assert len(a.steps) == len(b.steps)
        # 9 significant digits: round-trip is near-exact for these magnitudes
        for sa, sb in zip(a.steps, b.steps):
            assert sa.objects.keys() == sb.objects.keys()
            assert all(abs(x - y) < 1e-8 for x, y in zip(sa.ego, sb.ego))


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
