import hashlib

import numpy as np
import pytest

from bison import envs
from bison.core import BisonError, GroundAction, ObjectTable, atom_str
from bison.envs import (ACTION_DIM, EPS, EnvConfig, env_domain, episode_seed, generate_demos,
                        make_env, make_labeller)
from bison.formats import DemoStep
from bison.runner import Executor, run_episode


def fact_strs(env, facts):
    return sorted(atom_str(env.domain.predicates, f, env.table.names) for f in facts)


def test_reset_blocks_one():
    env = make_env(EnvConfig("blocks", 1, seed=0))
    lls, goal = env.reset()
    assert set(lls.objects) == {"b0", "p0"}
    assert fact_strs(env, goal) == ["(at b0 p0)"]


def test_reset_factory_spawn_armed():
    env = make_env(EnvConfig("factory", 2, seed=0))
    env.reset()
    assert env.spawn_pending == ["b0", "b1"]
    assert len(env.goal) == 2


def test_reset_gacha_goal_hidden_contents():
    env = make_env(EnvConfig("gacha", 1, seed=0))
    lls, goal = env.reset()
    assert fact_strs(env, goal) == ["(achievedGoal c0)"]
    hls = env.label(lls)
    colour_of = env.domain.pred_ids["colourOf"]
    assert not any(f[0] == colour_of for f in hls)  # no coloured block visible


def test_step_zero_action_noop():
    env = make_env(EnvConfig("blocks", 2, seed=3))
    lls, _ = env.reset()
    nxt = env.step(np.zeros(3))
    assert np.array_equal(lls.ego, nxt.ego)
    for k in lls.objects:
        assert np.array_equal(lls.objects[k], nxt.objects[k])


def test_step_grasp_within_radius():
    env = make_env(EnvConfig("blocks", 1, seed=0))
    env.reset()
    x, y = env.block_pos["b0"]
    env.grip = (x + 0.01, y + 0.01)
    for _ in range(10):
        lls = env.step(np.array([0.0, 0.0, 1.0]))
    assert env.held == "b0"
    assert lls.objects["b0"][5] == 1.0  # held flag
    assert lls.ego[2] == 0.0


def test_step_rejects_non_finite():
    # each bad action both as the float list every LL returns and as an
    # array: NaN and ±inf in each channel, and 2 or 4 values
    env = make_env(EnvConfig("blocks", 1, seed=0))
    env.reset()
    grip = env.grip
    bad = [([0.0] * c + [v] + [0.0] * (ACTION_DIM - 1 - c), "non-finite")
           for c in range(ACTION_DIM) for v in (np.nan, np.inf, -np.inf)]
    bad += [([0.5, 0.5], "must have 3 values"), ([0.0] * 4, "must have 3 values")]
    for action, message in bad:
        for form in (list, np.array):
            with pytest.raises(BisonError, match=message):
                env.step(form(action))
            assert env.grip == grip and env.held is None and env.grasp_count == 0


def test_every_idle_skill_returns_a_fresh_zero_list():
    # the record keeps each action list without copying it, so an idle branch
    # handing out one shared list would alias the record's steps
    def skill(env, schema, *names):
        sid = [s.name for s in env.domain.schemata].index(schema)
        return lambda: env.oracle_skill(GroundAction(sid, tuple(map(env.table.intern, names))))

    blocks, pickplace, gacha = (make_env(EnvConfig(kind, 2, seed=0))
                                for kind in ("blocks", "pickplace", "gacha"))
    for env in (blocks, pickplace, gacha):
        env.reset()
    blocks.held = "b0"
    idles = [skill(blocks, "pick", "b0"),                     # picks the held block
             skill(blocks, "place", "b1", "p0"),              # carries an unheld one
             skill(pickplace, "move", "loc0", "obj0"),        # moves to a block
             skill(gacha, "discard", "c0")]                   # discards an unheld one
    for idle in idles:
        first, second = idle(), idle()
        assert type(first) is list and first == second == [0.0, 0.0, 0.0]
        assert first is not second


@pytest.mark.parametrize("kind", envs.ENV_KINDS)
def test_every_schema_acts(kind):
    # oracle_skill acts for pick and place(Goal) and hands every other schema
    # to its family's _skill: a schema that fell to a missing hook would raise
    # AttributeError, and one that fell to an idle branch would never act
    acted = set()
    for n in (1, 2, 3):
        for seed in range(4):
            env = make_env(EnvConfig(kind, n, seed=seed))

            def skill(hla, env=env, oracle=env.oracle_skill):
                action = oracle(hla)
                if any(action):
                    acted.add(env.domain.schemata[hla.schema_id].name)
                return action
            env.oracle_skill = skill
            run_episode(env, Executor("oracle"))
    assert acted == {sch.name for sch in env_domain(kind).schemata}


@pytest.mark.parametrize("p", [-0.001, 1.001, float("nan")])
def test_teleport_prob_outside_the_unit_interval_is_rejected(p):
    with pytest.raises(BisonError, match="teleport_prob"):
        EnvConfig("blocks-noisy", 2, teleport_prob=p)


def test_noisy_with_zero_prob_equals_deterministic():
    actions = [np.array([0.7, -0.3, 0.0]), np.array([-1.0, 1.0, 1.0])] * 40
    traj = []
    for kind in ("blocks", "blocks-noisy"):
        env = make_env(EnvConfig(kind, 2, seed=9, teleport_prob=0.0))
        lls, _ = env.reset()
        states = [lls] + [env.step(a) for a in actions]
        traj.append(states)
    for a, b in zip(*traj):
        assert np.array_equal(a.ego, b.ego)
        for k in a.objects:
            assert np.array_equal(a.objects[k], b.objects[k])


def test_determinism_bit_exact():
    def run():
        env = make_env(EnvConfig("gacha", 1, seed=4))
        lls, _ = env.reset()
        rng = np.random.default_rng(0)
        out = [lls]
        for _ in range(60):
            out.append(env.step(rng.uniform(-1, 1, 3)))
        return out
    t1, t2 = run(), run()
    for a, b in zip(t1, t2):
        assert np.array_equal(a.ego, b.ego)
        for k in a.objects:
            assert np.array_equal(a.objects[k], b.objects[k])


def test_at_most_one_held_and_tracks_gripper():
    env = make_env(EnvConfig("blocks", 3, seed=1))
    lls, _ = env.reset()
    rng = np.random.default_rng(7)
    for _ in range(300):
        lls = env.step(rng.uniform(-1, 1, 3))
        held = [k for k, v in lls.objects.items() if len(v) > 5 and v[5] == 1.0]
        assert len(held) <= 1
        if held:
            assert np.allclose(lls.objects[held[0]][:2], lls.ego[:2])


def test_labelling_block_on_pad():
    env = make_env(EnvConfig("blocks", 1, seed=0))
    env.reset()
    env.block_pos["b0"] = env.fixture_pos["p0"]
    hls = env.label(env.render())
    assert "(at b0 p0)" in fact_strs(env, hls)


def test_labelling_held_block():
    env = make_env(EnvConfig("blocks", 1, seed=0))
    env.reset()
    env.held = "b0"
    env.block_pos["b0"] = env.grip
    strs = fact_strs(env, env.label(env.render()))
    assert "(holding b0)" in strs
    assert "(gripperFree)" not in strs


def test_labelling_constant_during_free_transit():
    env = make_env(EnvConfig("blocks", 2, seed=6))
    lls, _ = env.reset()
    # scripted transit far from all objects: abstraction must not change
    env.grip = (0.5, 0.95)
    base = env.label(env.render())
    for _ in range(20):
        lls = env.step(np.array([1.0, 0.0, 0.0]))
        if min(np.max(np.abs(np.asarray(p) - env.grip))
               for p in list(env.block_pos.values())
               + list(env.fixture_pos.values())) < 2 * EPS:
            break
        assert env.label(lls) == base


def test_labelling_conforms_to_domain():
    for kind in ("blocks", "blocks-noisy", "factory", "gacha", "pickplace"):
        env = make_env(EnvConfig(kind, 2, seed=2))
        lls, _ = env.reset()
        rng = np.random.default_rng(3)
        dom = env.domain
        for _ in range(100):
            lls = env.step(rng.uniform(-1, 1, 3))
            for fact in env.label(lls):
                pred = dom.predicates[fact[0]]
                assert len(fact) - 1 == pred.arity
                assert all(0 <= o < len(env.table) for o in fact[1:])


def _label_scene(kind, ego, objects):
    """Label a hand-built step on a fresh table: (fact strings, interning order)."""
    table = ObjectTable()
    facts = make_labeller(kind)(DemoStep(np.array(ego), objects, None), table)
    preds = env_domain(kind).predicates
    return sorted(atom_str(preds, f, table.names) for f in facts), table.names


def _obj(x, y, held=0.0, block=0.0, fixture=0.0, width=8):
    vec = [0.0] * width
    vec[0], vec[1], vec[5], vec[6], vec[7] = x, y, held, block, fixture
    return vec


def test_labels_blocks_scene():
    assert 0.0 + EPS - 0.0 == EPS  # p0 and b1 below are exactly EPS apart
    strs, order = _label_scene("blocks", [0.5, 0.5, 0.0], {
        "b0": _obj(0.5, 0.5, held=1, block=1),
        "b1": _obj(EPS, 0.5, block=1),         # EPS from p0: strict <, so no at
        "b2": _obj(0.8, 0.8, block=1),         # on p1
        "b3": _obj(0.3, 0.2, block=1),         # b3, b4 within EPS: neither clear
        "b4": _obj(0.32, 0.2, block=1),
        "p0": _obj(0.0, 0.5, fixture=1),
        "p1": _obj(0.8, 0.8, fixture=1),
    })
    assert strs == sorted(["(holding b0)", "(clear b0)", "(clear b1)", "(clear b2)",
                           "(at b2 p1)", "(clear p0)"])
    assert order == ["b0", "b1", "b2", "p1", "b3", "b4", "p0"]


def test_labels_pickplace_scene():
    strs, order = _label_scene("pickplace", [0.5, 0.5, 0.0], {
        "obj0": _obj(0.25, 0.5, block=1),
        "obj1": _obj(0.5, 0.5, held=1, block=1),
        "loc1": _obj(0.25, 0.5, fixture=1),    # as near the robot as loc0:
        "loc0": _obj(0.75, 0.5, fixture=1),    # the smaller name wins
    })
    assert strs == ["(at obj0 loc1)", "(hold obj1)", "(rAt loc0)"]
    assert order == ["obj1", "loc0", "obj0", "loc1"]
    with pytest.raises(BisonError):
        _label_scene("pickplace", [0.5, 0.5, 1.0], {"obj0": _obj(0.2, 0.2, block=1)})


@pytest.mark.parametrize("box_state", [0, 1, 2, 3])
def test_labels_gacha_scene(box_state):
    def obj(x, y, cidx, held=0.0, block=0.0, tray=0.0, box=0.0):
        vec = _obj(x, y, held, block, tray, width=11)
        vec[8], vec[9], vec[10] = box, cidx, box_state if box else 0.0
        return vec
    strs, order = _label_scene("gacha", [0.5, 0.5, 0.0], {
        "box0": obj(0.15, 0.5, 0, box=1),
        "c0": obj(0.0, 0.0, 1), "c1": obj(0.0, 0.0, 2),
        "t0": obj(0.85, 0.2, 1, tray=1), "t1": obj(0.85, 0.35, 2, tray=1),
        "g0": [0.0] * 11,                              # hidden: no facts
        "g1": obj(0.5, 0.5, 2, held=1, block=1),       # held, colour c1
        "g2": obj(0.85, 0.2, 1, block=1),              # colour c0 on tray t0
        "g3": obj(0.15, 0.5, 2, block=1),              # in the box if it is open
        "g4": obj(0.85, 0.35, 1, block=1),             # colour c0 on tray t1
    })
    expected = ["(holding g1)", "(clear g1)", "(colourOf g1 c1)",
                "(trayColour t0 c0)", "(trayColour t1 c1)",
                "(colourOf g2 c0)", "(clear g2)", "(at g2 t0)", "(achievedGoal c0)",
                "(colourOf g3 c1)", "(clear g3)",
                "(colourOf g4 c0)", "(clear g4)", "(at g4 t1)"]
    expected.append("(opened box0)" if box_state & 1 else "(closed box0)")
    if box_state & 1:
        expected.append("(in g3 box0)")
    if not box_state & 2:
        expected.append("(clear box0)")
    assert strs == sorted(expected)
    assert "g0" not in order
    assert order == ["g1", "c1", "box0", "t0", "c0", "t1", "g2", "g3", "g4"]


def test_labeller_bound_once_per_env(monkeypatch):
    calls, labels = [], []
    make = envs.make_labeller
    label = envs.label_blocks

    def counted_make(kind):
        calls.append(kind)
        return make(kind)

    def counted_label(step, table):
        labels.append(step)
        return label(step, table)

    monkeypatch.setattr(envs, "make_labeller", counted_make)
    monkeypatch.setattr(envs, "label_blocks", counted_label)  # looked up per env
    env = make_env(EnvConfig("blocks", 2, seed=1))
    lls, _ = env.reset()
    for _ in range(20):
        env.label(lls)
        lls = env.step(np.array([0.3, -0.2, 0.0]))
    assert calls == ["blocks"]
    assert len(labels) == 20


def test_oracle_demo_abstraction_blocks_n1():
    from bison.learn import extract_hl_trace
    demos = generate_demos(EnvConfig("blocks", 1, seed=20), 1)
    dom = env_domain("blocks")
    trace = extract_hl_trace(demos[0], dom, make_labeller("blocks"))
    assert [dom.schemata[a.schema_id].name for a in trace.actions] == \
        ["pick", "place"]


def test_oracle_demo_abstraction_pickplace_n1():
    from bison.learn import extract_hl_trace
    demos = generate_demos(EnvConfig("pickplace", 1, seed=3, start_at_block=True), 1)
    dom = env_domain("pickplace")
    trace = extract_hl_trace(demos[0], dom, make_labeller("pickplace"))
    assert [dom.schemata[a.schema_id].name for a in trace.actions] == \
        ["pick", "move", "place"]


def test_generate_demos_all_goal_achieving(blocks_demos):
    dom = env_domain("blocks")
    lab = make_labeller("blocks")
    assert len(blocks_demos) == 200
    for demo in blocks_demos[::25]:
        from bison.core import ObjectTable
        table = ObjectTable()
        for name in demo.steps[0].objects:
            table.intern(name)
        goal = frozenset(dom.ground_fact(g[0], g[1:], table) for g in demo.goal)
        assert goal <= lab(demo.steps[-1], table)
        assert demo.steps[-1].action == [0.0, 0.0, 0.0]


def test_oracle_success_small_sweep():
    for n in (1, 4, 7, 10):
        env = make_env(EnvConfig("blocks", n, seed=40 + n))
        assert run_episode(env, Executor(strategy="oracle")).success


# sha256 of serialize_traces(generate_demos(EnvConfig(kind, n, seed=11), 3)):
# the simulator's output for every kind, from layout sampling to the skills
@pytest.mark.parametrize("kind, n, digest", [
    ("blocks", 4, "f5102a16559460d03d529f3169a73f7c4eefbe36927716c5e8f0fa17371c2355"),
    ("blocks-noisy", 4, "4bf50a3e90bb648d5a96ce0feaa2b5d820fe768f8f66a9212e06d0355c5983f8"),
    ("factory", 3, "d2cad2ca5659c05871df508675cab7d5fef52cb504a5e63306f9ec3582b0e04e"),
    ("gacha", 2, "f5341f5dbc44283f17252a9be58cf41527a51786801451a3615166f8255ffb1d"),
    ("pickplace", 3, "0b02c3ff695bb508ebd989e16b74d4d0158b56c18e8404ad5006b4df9509bb1e"),
])
def test_demo_corpus_digest(kind, n, digest):
    from bison.formats import serialize_traces
    text = serialize_traces(generate_demos(EnvConfig(kind, n, seed=11), 3))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_episode_seed_derivation():
    assert episode_seed(5, 0) == 5 * 10007
    assert episode_seed(5, 3) == 5 * 10007 + 3


def test_max_steps_cap():
    assert EnvConfig("blocks", 4, seed=0).max_steps == 2048 * 4


@pytest.mark.parametrize("kind,limit", [("pickplace", 7), ("gacha", 6)])
def test_layouts_fit_up_to_the_object_limit(kind, limit):
    with pytest.raises(BisonError, match="room for at most %d" % limit):
        EnvConfig(kind, limit + 1)
    inside = lambda p: all(envs.ARENA_LO <= c <= envs.ARENA_HI for c in p)
    for seed in range(200):
        env = make_env(EnvConfig(kind, limit, seed=seed))
        env.reset()
        names = env.table.names
        if kind == "pickplace":  # at(object, pad)
            fixtures = [names[f[2]] for f in env.goal]
        else:  # achievedGoal(colour i) is met on tray i
            fixtures = ["t" + names[f[1]][1:] for f in env.goal]
        assert len(fixtures) == limit
        assert all(inside(env.fixture_pos[name]) for name in fixtures), seed
    for other in ("blocks", "blocks-noisy", "factory"):  # no limit
        EnvConfig(other, 50)


# ---------------------------------------------------------------------------
# label_blocks reuses the resting facts of its last call
# ---------------------------------------------------------------------------

def _reference_block_facts(facts, blocks, fixtures, table, p_clear, p_at):
    pairs = []
    for block in blocks:
        name, x, y = block
        oid = table.intern(name)
        if not any(abs(x - b[1]) < EPS and abs(y - b[2]) < EPS
                   for b in blocks if b is not block):
            facts.add((p_clear, oid))
        for fixture in fixtures:
            if abs(x - fixture[1]) < EPS and abs(y - fixture[2]) < EPS:
                facts.add((p_at, table.intern(name), table.intern(fixture[0])))
                pairs.append((block, fixture))
    return pairs


def reference_label_blocks(step, table):
    """``label_blocks`` as it was before it kept its last resting facts."""
    p_free, p_hold, p_clear, p_at = envs._BLOCKS.label_ids
    held, blocks, pads, _, _ = envs._split(step.objects, False)
    if held is None:
        facts = {(p_free,)}
    else:
        hid = table.intern(held[0])
        facts = {(p_hold, hid), (p_clear, hid)}
    covered = {pad[0] for _, pad in _reference_block_facts(facts, blocks, pads, table,
                                                            p_clear, p_at)}
    facts.update((p_clear, table.intern(pad[0])) for pad in pads if pad[0] not in covered)
    return frozenset(facts)


def _resting(step):
    """The resting blocks' and pads' (name, x, y), the memo's key."""
    _, blocks, pads, _, _ = envs._split(step.objects, False)
    return blocks, pads


def _label_both(step, table, ref_table):
    """Label with the memo and the reference; True on a memo hit."""
    before = envs._resting
    facts = envs.label_blocks(step, table)
    assert list(facts) == list(reference_label_blocks(step, ref_table))
    assert table.names == ref_table.names
    return envs._resting is before


@pytest.mark.parametrize("kind, n, teleport_prob", [
    ("blocks", 4, None), ("blocks-noisy", 4, 0.01), ("factory", 3, None)])
def test_label_memo_matches_reference_on_oracle_demos(kind, n, teleport_prob):
    demos = generate_demos(EnvConfig(kind, n, seed=12, teleport_prob=teleport_prob), 3)
    hits = misses = exogenous = 0
    for demo in demos:
        table, ref_table = ObjectTable(), ObjectTable()
        prev = last = None
        for step in demo.steps:
            hit = _label_both(step, table, ref_table)
            key = _resting(step)
            assert hit == (key == last)  # a hit exactly when nothing resting moved
            hits, misses = hits + hit, misses + (not hit)
            if last is not None and key != last:
                # a spawn, or a resting block that moved with no grasp or release
                exogenous += (len(step.objects) > len(prev.objects)
                              or [b[0] for b in key[0]] == [b[0] for b in last[0]])
            prev, last = step, key
    assert hits > 10 * misses
    assert (exogenous > 0) == (kind != "blocks")


def test_label_memo_keeps_tables_apart():
    # the same steps on two tables that intern in different orders, call by call
    demo = generate_demos(EnvConfig("blocks", 3, seed=13), 1)[0]
    names = list(demo.steps[0].objects)
    tables = [ObjectTable(), ObjectTable(names[::-1])]
    refs = [ObjectTable(), ObjectTable(names[::-1])]
    for step in demo.steps:
        for table, ref in zip(tables, refs):
            assert not _label_both(step, table, ref)
            assert envs._resting[0] is table
    assert tables[0].names != tables[1].names


def test_label_memo_hits_on_gripper_moves_and_misses_on_resting_changes():
    env = make_env(EnvConfig("blocks", 3, seed=6))
    lls, _ = env.reset()
    ref = ObjectTable(env.table.names)
    assert not _label_both(lls, env.table, ref)
    env.grip = (0.5, 0.95)
    assert _label_both(env.render(), env.table, ref)  # the gripper moved
    assert _label_both(env.step(np.array([1.0, 0.0, 0.0])), env.table, ref)
    env.held = "b0"  # grasp
    env.block_pos["b0"] = env.grip
    assert not _label_both(env.render(), env.table, ref)
    env.grip = (0.45, 0.9)  # carry: the held block moves, nothing resting does
    env.block_pos["b0"] = env.grip
    assert _label_both(env.render(), env.table, ref)
    env.held = None  # release
    assert not _label_both(env.render(), env.table, ref)
    env.fixture_pos["p1"] = (0.45, 0.9)  # a fixture moves under the block
    assert not _label_both(env.render(), env.table, ref)
    facts = fact_strs(env, env.label(env.render()))
    assert "(at b0 p1)" in facts and "(clear p1)" not in facts


# ---------------------------------------------------------------------------
# render and BlocksEnv._dynamics against the forms they replaced
# ---------------------------------------------------------------------------

def _reference_features(env, name, vec):
    pos = env.block_pos.get(name)
    if pos is None:
        vec[envs.B_PAD] = 1.0
        return env.fixture_pos[name]
    vec[envs.B_HELD] = 1.0 if env.held == name else 0.0
    vec[envs.B_BLOCK] = 1.0
    return pos


def _reference_gacha_features(env, name, vec):
    if name in env.block_pos:
        if name == env.capsule and not env.lid_open:
            return None
        vec[envs.B_HELD] = 1.0 if env.held == name else 0.0
        vec[envs.G_BLOCK] = 1.0
        vec[envs.G_CIDX] = env.block_colour[name] + 1.0
        return env.block_pos[name]
    if name == "box0":
        vec[envs.G_BOX] = 1.0
        vec[envs.G_BSTATE] = float(env.lid_open) + 2.0 * (env.capsule is not None)
        return env.BOX
    vec[envs.G_CIDX] = float(int(name[1:])) + 1.0
    if name.startswith("t"):
        vec[envs.G_TRAY] = 1.0
        return env.fixture_pos[name]
    return None


def reference_render(env):
    """``SimEnv.render`` as it was before it built each vector in one list
    display: a zero list per object, flags set by a per-object features call,
    then the geometry written over the first five channels."""
    features = (_reference_gacha_features if isinstance(env, envs.GachaEnv)
                else _reference_features)
    gx, gy = env.grip
    objs = {}
    for name in env.table.names:
        vec = [0.0] * env.obj_dim
        pos = features(env, name, vec)
        if pos is not None:
            x, y = pos
            rx, ry = x - gx, y - gy
            dx, dy = abs(rx), abs(ry)
            vec[:5] = x, y, rx, ry, dx if dx > dy else dy
        objs[name] = vec
    return DemoStep([gx, gy, 0.0 if env.held is not None else 1.0], objs, None)


def _hex(vec):
    return [float.hex(v) for v in vec]  # rejects a non-float entry


def _checked_render(env, seen):
    """Make ``env`` compare every step it renders with ``reference_render``;
    ``seen`` gathers the (held, capsule hidden, lid open, box occupied)
    states and object counts the renders cover."""
    render = env.render

    def checked():
        step = render()
        ref = reference_render(env)
        assert list(step.objects) == list(ref.objects)
        assert _hex(step.ego) == _hex(ref.ego)
        for name, vec in step.objects.items():
            assert _hex(vec) == _hex(ref.objects[name]), name
        capsule = getattr(env, "capsule", None)
        lid_open = getattr(env, "lid_open", False)
        seen.add((env.held is not None, capsule is not None and not lid_open,
                  lid_open, capsule is not None, len(step.objects)))
        return step

    env.render = checked
    return env


RENDER_CASES = [("blocks", 3, None), ("blocks-noisy", 3, 0.05), ("factory", 3, None),
                ("gacha", 2, None), ("pickplace", 3, None)]


@pytest.mark.parametrize("kind, n, teleport_prob", RENDER_CASES)
def test_render_matches_reference_on_oracle_episodes(kind, n, teleport_prob):
    seen = set()
    for seed in range(3):
        env = _checked_render(make_env(EnvConfig(kind, n, seed=seed,
                                                 teleport_prob=teleport_prob)), seen)
        run_episode(env, Executor("oracle"), step_cap=3000)
    assert {s[0] for s in seen} == {False, True}  # held and unheld blocks
    if kind == "factory":
        assert len({s[4] for s in seen}) > 1  # spawns grew the table
    if kind == "gacha":  # a hidden capsule, the open lid, a revealed capsule
        assert {s[1] for s in seen} == {False, True}
        assert (False, False, True, True) in {s[:4] for s in seen}


@pytest.mark.parametrize("kind, n, teleport_prob", RENDER_CASES)
def test_render_matches_reference_on_random_walks(kind, n, teleport_prob):
    env = _checked_render(make_env(EnvConfig(kind, n, seed=5, teleport_prob=teleport_prob)),
                          set())
    env.reset()
    rng = np.random.default_rng(11)
    for _ in range(400):
        env.step(rng.uniform(-1, 1, 3))


def test_render_writes_each_object_class_its_channels():
    def tail(dim, **channels):
        """channels 5 and up: the named constants' values, 0.0 elsewhere"""
        vec = [0.0] * dim
        for name, value in channels.items():
            vec[getattr(envs, name)] = value
        return vec[5:]

    env = make_env(EnvConfig("blocks", 2, seed=0))
    env.reset()
    env.held = "b1"
    env.block_pos["b1"] = env.grip
    objs = env.render().objects
    dim = envs.BLOCKS_OBJ_DIM
    assert objs["b0"][5:] == tail(dim, B_BLOCK=1.0)
    assert objs["b1"][5:] == tail(dim, B_HELD=1.0, B_BLOCK=1.0)
    assert objs["p0"][5:] == objs["p1"][5:] == tail(dim, B_PAD=1.0)
    gx, gy = env.grip
    x, y = env.fixture_pos["p0"]
    assert objs["p0"][:5] == [x, y, x - gx, y - gy, max(abs(x - gx), abs(y - gy))]

    env = make_env(EnvConfig("gacha", 2, seed=0))
    env.reset()
    env.table.intern("g0")  # a roll: capsule g0 of colour 2 in the closed box
    env.block_pos["g0"] = env.BOX
    env.block_colour["g0"] = 2
    env.capsule = "g0"
    objs = env.render().objects
    dim = envs.GACHA_OBJ_DIM
    assert objs["g0"] == [0.0] * dim  # hidden
    assert objs["box0"][:2] == list(env.BOX)
    assert objs["box0"][5:] == tail(dim, G_BOX=1.0, G_BSTATE=2.0)
    for i in range(env.n_colours):
        assert objs["c%d" % i] == [0.0] * 5 + tail(dim, G_CIDX=i + 1.0)
        assert objs["t%d" % i][5:] == tail(dim, G_TRAY=1.0, G_CIDX=i + 1.0)
    env.lid_open = True
    objs = env.render().objects
    assert objs["box0"][5:] == tail(dim, G_BOX=1.0, G_BSTATE=3.0)
    assert objs["g0"][5:] == tail(dim, G_BLOCK=1.0, G_CIDX=3.0)
    env.held, env.capsule = "g0", None
    env.block_pos["g0"] = env.grip
    objs = env.render().objects
    assert objs["box0"][5:] == tail(dim, G_BOX=1.0, G_BSTATE=1.0)
    assert objs["g0"][5:] == tail(dim, B_HELD=1.0, G_BLOCK=1.0, G_CIDX=3.0)


def reference_dynamics(env):
    """``BlocksEnv._dynamics`` as it was before it read each block's position
    and goal pad in place: a resting-at-goal test call per block, and a copy
    of ``spawn_pending`` every step."""
    def resting_at_goal(name):
        pad = env.goal_pad.get(name)
        return (pad is not None and env.held != name
                and envs._near(env.block_pos[name], env.fixture_pos[pad]))

    for name in list(env.spawn_pending):
        if resting_at_goal(name):
            env.spawn_pending.remove(name)
            k = env.config.n_objects + env.spawn_count
            env.spawn_count += 1
            nb, np_ = "b%d" % k, "p%d" % k
            env.table.intern(nb)
            env.table.intern(np_)
            env.block_pos[nb] = env._sample_free()
            env.fixture_pos[np_] = env._sample_free()
            env.goal_pad[nb] = np_
            env.goal = env.goal | {env.fact("at", nb, np_)}
    p = env.config.teleport_prob
    if p > 0.0:
        for name in list(env.block_pos):
            if resting_at_goal(name) and env.rng.random() < p:
                env.block_pos[name] = env._sample_free()


@pytest.mark.parametrize("kind, teleport_prob", [
    ("blocks-noisy", 0.05), ("blocks-noisy", 0.5), ("factory", None)])
def test_dynamics_matches_reference(kind, teleport_prob):
    events = 0
    for seed in range(3):
        cfg = EnvConfig(kind, 3, seed=seed, teleport_prob=teleport_prob)
        env, ref = make_env(cfg), make_env(cfg)
        ref._dynamics = lambda ref=ref: reference_dynamics(ref)
        reset, step = env.reset, env.step

        def same():
            assert env.rng.bit_generator.state == ref.rng.bit_generator.state
            assert list(env.block_pos.items()) == list(ref.block_pos.items())
            assert env.table.names == ref.table.names
            assert env.goal == ref.goal
            assert env.spawn_pending == ref.spawn_pending

        def both_reset(reset=reset, ref=ref):
            out = reset()
            ref.reset()
            same()
            return out

        def both_step(action, step=step, ref=ref):
            nonlocal events
            before, held = dict(ref.block_pos), ref.held
            out = step(action)
            ref.step(action)
            same()
            if kind == "factory":  # a spawn
                events += len(ref.block_pos) > len(before)
            else:  # a teleport: a block held neither before nor after moved
                events += any(ref.block_pos[b] != pos for b, pos in before.items()
                              if b != held and b != ref.held)
            return out

        env.reset, env.step = both_reset, both_step
        run_episode(env, Executor("oracle"), step_cap=1500)
    assert events > 0
