import numpy as np
import pytest

from bison.core import BisonError
from bison.envs import ACTION_DIM, EnvConfig, make_env
from bison.formats import Demo, DemoStep, serialize_traces
from bison.rules import StateIndex
from bison.runner import STRATEGIES, EpisodeResult, Executor, run_episode


def test_strategy_validation():
    with pytest.raises(ValueError):
        Executor(strategy="nope")
    assert set(STRATEGIES) == {"bison", "det_plan", "det_replan", "ndt_plan",
                               "ndt_replan", "oracle", "pure_nn_stub"}
    # a strategy whose LL is the network cannot be built without parameters
    for ex in (dict(strategy="pure_nn_stub"), dict(strategy="bison", ll_mode="gnn"),
               dict(strategy="det_replan", ll_mode="gnn")):
        with pytest.raises(BisonError):
            Executor(**ex)
    with pytest.raises(ValueError):
        Executor("bison", ll_mode="xyz")
    with pytest.raises(ValueError):
        Executor("oracle", ll_mode="xyz")
    # the oracle strategy runs the scripted skills whatever --ll says
    ex = Executor("oracle", ll_mode="gnn")
    assert ex.ll == "oracle"
    env = make_env(EnvConfig("blocks", 1, seed=0))
    calls = []
    real_skill = env.oracle_skill
    env.oracle_skill = lambda hla: calls.append(hla) or real_skill(hla)
    res = run_episode(env, ex)
    assert res.success and len(calls) == res.ll_steps > 0


def test_solved_at_reset_immediate_success():
    for strat in ("bison", "det_plan", "ndt_plan"):
        env = make_env(EnvConfig("blocks", 1, seed=0))
        real_reset = env.reset

        def patched():
            lls, _ = real_reset()
            env.goal = frozenset()  # trivially achieved
            return lls, env.goal

        env.reset = patched
        res = run_episode(env, Executor(strategy=strat))
        assert res.success and res.ll_steps == 0
        assert res.failure_kind == "none"


def test_bison_learned_policy_oracle_skill(blocks_policy):
    env = make_env(EnvConfig("blocks", 3, seed=21))
    res = run_episode(env, Executor(strategy="bison", hl_policy=blocks_policy,
                                    ll_mode="oracle"))
    assert res.success
    assert res.ll_steps <= 2048 * 3
    assert res.hl_actions_fired >= 6


def test_step_cap_failure(blocks_policy):
    env = make_env(EnvConfig("blocks", 1, seed=1))
    res = run_episode(env, Executor(strategy="bison", hl_policy=blocks_policy),
                      step_cap=1)
    assert not res.success and res.failure_kind == "step_cap"


def test_success_implies_goal_in_final_abstraction(blocks_policy):
    # independent re-verification against the env's live state
    for strat in ("oracle", "det_plan", "det_replan", "ndt_plan", "ndt_replan"):
        env = make_env(EnvConfig("blocks", 2, seed=31))
        ex = Executor(strategy=strat, hl_policy=blocks_policy)
        res = run_episode(env, ex)
        assert res.success
        assert env.goal <= env.label(env.render())
        assert res.failure_kind == "none"


def test_one_hl_and_one_ll_query_per_step(monkeypatch, blocks_policy):
    import bison.runner as runner_mod
    counts = {"hl": 0, "ll": 0, "select": 0}
    real_select = runner_mod.select_action
    real_selector = runner_mod._rule_selector

    def counting_select(*a, **kw):
        counts["select"] += 1
        return real_select(*a, **kw)

    def counting_selector(env, executor):
        query = real_selector(env, executor)

        def counted(hls):
            counts["hl"] += 1
            return query(hls)
        return counted

    monkeypatch.setattr(runner_mod, "select_action", counting_select)
    monkeypatch.setattr(runner_mod, "_rule_selector", counting_selector)
    env = make_env(EnvConfig("blocks", 1, seed=2))
    real_skill = env.oracle_skill

    def counting_skill(hla):
        counts["ll"] += 1
        return real_skill(hla)

    env.oracle_skill = counting_skill
    res = run_episode(env, Executor(strategy="bison", hl_policy=blocks_policy,
                                    ll_mode="oracle"))
    assert res.success
    assert counts["hl"] == counts["ll"] == res.ll_steps
    # rule selection runs once per HL state the episode meets
    assert 0 < counts["select"] < counts["hl"]


def _selecting_every_step(env, executor):
    """Reference selector: the rule policy queried afresh at every step."""
    import bison.runner as runner_mod
    from bison.envs import builtin_policy
    policy = executor.hl_policy
    if policy is None or executor.strategy == "oracle":
        policy = builtin_policy(env.config.kind)
    return lambda hls: runner_mod.select_action(policy, StateIndex(hls, env.goal),
                                                len(env.table))


def _episode(kind, n, strategy, seed):
    env = make_env(EnvConfig(kind, n, seed=seed))
    record = []
    res = run_episode(env, Executor(strategy=strategy), record=record)
    fields = (res.success, res.ll_steps, res.hl_actions_fired, res.replans,
              res.failure_kind)
    return fields, record


def test_remembered_selection_equals_selecting_every_step(monkeypatch):
    import bison.runner as runner_mod
    from bison.envs import ENV_KINDS
    cases = [(kind, n, strategy, 100 * n + i)
             for i, kind in enumerate(ENV_KINDS) for n in range(1, 5)
             for strategy in ("oracle", "bison")]
    remembered = [_episode(*c) for c in cases]
    monkeypatch.setattr(runner_mod, "_rule_selector", _selecting_every_step)
    for case, (fields, record) in zip(cases, remembered):
        ref_fields, ref_record = _episode(*case)
        assert fields == ref_fields, case
        assert len(record) == len(ref_record), case
        for lls, ref_lls in zip(record, ref_record):
            assert np.array_equal(lls.ego, ref_lls.ego), case
            assert list(lls.objects) == list(ref_lls.objects), case
            assert all(np.array_equal(lls.objects[k], ref_lls.objects[k])
                       for k in lls.objects), case
            assert np.array_equal(lls.action, ref_lls.action), case


def test_selection_reruns_on_new_state_goal_or_object(monkeypatch):
    import bison.runner as runner_mod
    from bison.rules import select_action
    calls = []

    def counting_select(*a, **kw):
        calls.append(a)
        return select_action(*a, **kw)

    monkeypatch.setattr(runner_mod, "select_action", counting_select)
    env = make_env(EnvConfig("factory", 2, seed=4))
    lls, _ = env.reset()
    hls = env.label(lls)
    query = runner_mod._rule_selector(env, Executor(strategy="bison"))
    first = query(hls)
    assert query(frozenset(hls)) == first and len(calls) == 1
    env.goal = env.goal - {next(iter(env.goal))}
    query(hls)
    assert len(calls) == 2 and calls[-1][1].goal == env.goal
    env.table.intern("extra")
    query(hls)
    assert len(calls) == 3 and calls[-1][2] == len(env.table)
    other = hls - {next(iter(hls))}
    query(other)
    assert len(calls) == 4 and frozenset(calls[-1][1].held.facts) == other
    query(hls)  # a state met before is answered without selecting again
    assert len(calls) == 4


def test_det_plan_blocks_success():
    env = make_env(EnvConfig("blocks", 3, seed=41))
    res = run_episode(env, Executor(strategy="det_plan"))
    assert res.success and res.replans == 0


def test_det_replan_deterministic_no_replans():
    env = make_env(EnvConfig("blocks", 3, seed=41))
    res = run_episode(env, Executor(strategy="det_replan"))
    assert res.success and res.replans == 0


def test_det_pair_identical_when_no_noise():
    r1 = run_episode(make_env(EnvConfig("blocks-noisy", 2, seed=7, teleport_prob=0.0)),
                     Executor(strategy="det_plan"))
    r2 = run_episode(make_env(EnvConfig("blocks-noisy", 2, seed=7, teleport_prob=0.0)),
                     Executor(strategy="det_replan"))
    assert r1.success and r2.success
    assert (r1.ll_steps, r1.hl_actions_fired) == (r2.ll_steps, r2.hl_actions_fired)
    assert r2.replans == 0


def test_noisy_det_plan_breaks_sometimes():
    outcomes = []
    for seed in range(25):
        env = make_env(EnvConfig("blocks-noisy", 3, seed=600 + seed,
                                 teleport_prob=0.006))
        outcomes.append(run_episode(env, Executor(strategy="det_plan")))
    fails = [r for r in outcomes if not r.success]
    assert fails, "teleports should break the single plan at this rate"
    assert all(r.failure_kind in ("plan_broken", "step_cap") for r in fails)


def test_noisy_det_replan_recovers():
    succ = repl = 0
    for seed in range(25):
        env = make_env(EnvConfig("blocks-noisy", 3, seed=600 + seed,
                                 teleport_prob=0.006))
        r = run_episode(env, Executor(strategy="det_replan"))
        succ += int(r.success)
        repl += r.replans
    assert succ >= 23
    assert repl > 0


def test_factory_det_plan_fails_det_replan_recovers():
    env = make_env(EnvConfig("factory", 2, seed=4))
    r = run_episode(env, Executor(strategy="det_plan"))
    assert not r.success and r.failure_kind == "plan_broken"
    env = make_env(EnvConfig("factory", 2, seed=4))
    r = run_episode(env, Executor(strategy="det_replan"))
    assert r.success and r.replans >= 1


def test_ndt_plan_blocks_success():
    env = make_env(EnvConfig("blocks", 4, seed=51))
    res = run_episode(env, Executor(strategy="ndt_plan"))
    assert res.success


def test_ndt_replan_recovers_from_teleports():
    plan_fail = replan_succ = 0
    for seed in range(15):
        env = make_env(EnvConfig("blocks-noisy", 3, seed=700 + seed,
                                 teleport_prob=0.006))
        r1 = run_episode(env, Executor(strategy="ndt_plan"))
        plan_fail += int(not r1.success)
        env = make_env(EnvConfig("blocks-noisy", 3, seed=700 + seed,
                                 teleport_prob=0.006))
        r2 = run_episode(env, Executor(strategy="ndt_replan"))
        replan_succ += int(r2.success)
    assert plan_fail > 0
    assert replan_succ >= 14


def test_gacha_planners_fail_without_grounded_contents():
    for strat in ("det_plan", "det_replan", "ndt_plan", "ndt_replan"):
        env = make_env(EnvConfig("gacha", 1, seed=8))
        res = run_episode(env, Executor(strategy=strat))
        assert not res.success
        assert res.failure_kind == "no_hl_action"
        assert res.ll_steps == 0


def test_failure_taxonomy_exclusive():
    res = EpisodeResult()
    res.fail("plan_broken")
    assert not res.success and res.failure_kind == "plan_broken"
    ok = EpisodeResult(success=True)
    assert ok.failure_kind == "none"


def test_oracle_records_terminal_zero_action():
    env = make_env(EnvConfig("blocks", 1, seed=3))
    record = []
    res = run_episode(env, Executor(strategy="oracle"), record=record)
    assert res.success
    assert len(record) == res.ll_steps + 1
    assert np.array_equal(record[-1].action, np.zeros(3))


class _KeepingEnv:
    """Env proxy that keeps every step ``reset`` and ``step`` return and every
    action ``step`` receives."""

    def __init__(self, env):
        self._env, self.steps, self.actions = env, [], []

    def __getattr__(self, name):
        return getattr(self._env, name)

    def reset(self):
        lls, goal = self._env.reset()
        self.steps.append(lls)
        return lls, goal

    def step(self, action):
        self.actions.append(action)
        self.steps.append(self._env.step(action))
        return self.steps[-1]


def _assert_one_list_per_step(record):
    """Each recorded action is a list of ACTION_DIM Python floats of its own."""
    for step in record:
        assert type(step.action) is list and len(step.action) == ACTION_DIM
        assert all(type(a) is float for a in step.action)
    assert len({id(step.action) for step in record}) == len(record)


def test_record_holds_the_rendered_steps_with_their_actions():
    # on every kind the record holds the very list each LL step handed the env
    for kind, n, seed in (("blocks", 2, 5), ("blocks-noisy", 2, 4), ("factory", 2, 3),
                          ("gacha", 1, 2), ("pickplace", 2, 1)):
        env = _KeepingEnv(make_env(EnvConfig(kind, n, seed=seed)))
        record = []
        res = run_episode(env, Executor("oracle"), record=record)
        assert res.success, kind
        assert len(record) == res.ll_steps + 1 == len(env.steps)
        assert all(isinstance(r, DemoStep) and r is s for r, s in zip(record, env.steps))
        assert all(step.action is action for step, action in zip(record, env.actions))
        _assert_one_list_per_step(record)
        assert record[-1].action == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("kind,n,seed", [("blocks", 3, 11), ("pickplace", 2, 4)])
def test_oracle_rollout_is_the_demo_generate_demos_writes(kind, n, seed):
    # generate_demos's first episode runs at episode_seed(seed, 0); pickplace's
    # even episodes start the robot at the block's pad
    from bison import gnn
    from bison.envs import env_domain, episode_seed, generate_demos, make_labeller
    from bison.cli import _encoding_spec
    start = True if kind == "pickplace" else None
    env = make_env(EnvConfig(kind, n, seed=episode_seed(seed, 0), start_at_block=start))
    record = []
    assert run_episode(env, Executor("oracle"), record=record).success
    preds, names = env.domain.predicates, env.table.names
    goal = tuple(tuple([preds[f[0]].name] + [names[o] for o in f[1:]])
                 for f in sorted(env.goal))
    rollout = [Demo(goal, record)]
    demos = generate_demos(EnvConfig(kind, n, seed=seed), 1)
    assert serialize_traces(rollout) == serialize_traces(demos)
    dom, lab, spec = env_domain(kind), make_labeller(kind), _encoding_spec(kind)
    got = gnn.build_dataset(rollout, dom, lab, spec)
    want = gnn.build_dataset(demos, dom, lab, spec)
    assert len(got) == len(want) == len(record)
    for a, b in zip(got, want):
        for x, y in ((a.inp.h_global, b.inp.h_global), (a.inp.h_action, b.inp.h_action),
                     (a.inp.h_objects, b.inp.h_objects), (a.target, b.target)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_pickplace_ndt_move_to_block_is_a_noop():
    # find_policy can bind move's untyped location to a block; the scripted
    # skill then idles and the episode fails at the step cap, not with a crash.
    # Each idle step records a zero list of its own
    from bison.envs import episode_seed
    for strat in ("ndt_plan", "ndt_replan"):
        env = make_env(EnvConfig("pickplace", 1, seed=episode_seed(1, 0)))
        record = []
        res = run_episode(env, Executor(strategy=strat), step_cap=64, record=record)
        assert not res.success
        assert res.failure_kind == "step_cap"
        assert len(record) == 64
        assert sum(step.action == [0.0, 0.0, 0.0] for step in record) > 1
        _assert_one_list_per_step(record)


def _gnn_episode(monkeypatch, transform):
    """A blocks GNN episode whose network output passes through ``transform``:
    (result fields, the LL states met, the raw actions).  It checks that the
    record holds the very lists the network LL returned, each ``tolist()`` of
    a raw action."""
    import bison.runner as runner_mod
    from bison import gnn
    from bison.cli import _encoding_spec
    params = gnn.init_params(_encoding_spec("blocks"), gnn.TrainConfig(seed=3))
    real_forward, real_make_ll = gnn.forward, runner_mod._make_ll
    raw, returned = [], []

    def forward(p, inp):
        raw.append(transform(real_forward(p, inp)))
        return raw[-1]

    def make_ll(executor, env):
        ll = real_make_ll(executor, env)
        return lambda *args: returned.append(ll(*args)) or returned[-1]
    monkeypatch.setattr(gnn, "forward", forward)
    monkeypatch.setattr(runner_mod, "_make_ll", make_ll)
    env = make_env(EnvConfig("blocks", 2, seed=4))
    record = []
    res = run_episode(env, Executor("bison", gnn_params=params, ll_mode="gnn"),
                      step_cap=60, record=record)
    monkeypatch.undo()
    assert len(record) == len(returned) == len(raw) == res.ll_steps
    assert all(step.action is action for step, action in zip(record, returned))
    assert all(action == a.tolist() for action, a in zip(returned, raw))
    _assert_one_list_per_step(record)
    fields = (res.success, res.ll_steps, res.hl_actions_fired, res.failure_kind)
    states = [(list(lls.ego), dict(lls.objects)) for lls in record]
    return fields, states, raw


def test_gnn_actions_out_of_range_move_as_clipped_ones(monkeypatch):
    # the env alone clips an LL action: the runner hands the network's over as is
    fields, states, raw = _gnn_episode(monkeypatch, lambda a: 40.0 * a)
    ref_fields, ref_states, _ = _gnn_episode(
        monkeypatch, lambda a: np.clip(40.0 * a, -1.0, 1.0))
    assert any(np.abs(a).max() > 1.0 for a in raw)
    assert fields == ref_fields and fields[1] == 60
    assert states == ref_states


def test_non_finite_gnn_action_is_rejected(monkeypatch):
    with pytest.raises(BisonError, match="non-finite"):
        _gnn_episode(monkeypatch, lambda a: np.array([np.inf, 0.0, 0.0]))


def test_step_cap_zero_fails_before_planning(monkeypatch):
    import bison.runner as runner_mod
    searches = []
    monkeypatch.setattr(runner_mod, "find_plan", lambda *a, **kw: searches.append(a))
    env = make_env(EnvConfig("gacha", 1, seed=8))
    res = run_episode(env, Executor("det_plan"), step_cap=0)
    assert not res.success and res.failure_kind == "step_cap" and res.ll_steps == 0
    assert searches == []
