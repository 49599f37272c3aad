"""The benchmark tracer (perfbench/tracing.py) patches library names in place.

A rename or a changed call path that hides a traced entry point from it
breaks the benchmark's per-layer metrics; these tests catch that here.
"""

import importlib.util
from pathlib import Path

from bison import gnn, rules, runner
from bison.bench import gen_blocks_hl_problem
from bison.cli import _encoding_spec
from bison.envs import EnvConfig, builtin_policy, make_env
from bison.runner import Executor

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_restores_every_patch():
    tracer = load_tracer()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in tracer._patches()]
    with tracer.installed():
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


def test_tracer_sees_rule_selection_and_the_network():
    tracer = load_tracer()
    params = gnn.init_params(_encoding_spec("blocks"), gnn.TrainConfig())
    with tracer.installed():
        res = rules.solve_hl(builtin_policy("blocks"), gen_blocks_hl_problem(3, seed=0))
        env = make_env(EnvConfig("blocks", 1, seed=0))
        episode = runner.run_episode(
            env, Executor("bison", gnn_params=params, ll_mode="gnn"), step_cap=5)
    assert res.solved and episode.ll_steps == 5
    spans = [span[0] for span in tracer.spans]
    for name in ("rules.select_action", "rules.state_index_build", "envs.render",
                 "envs.step", "gnn.encode", "gnn.forward", "runner.run_episode"):
        assert name in spans, name
    assert spans.count("gnn.forward") == 5
    # solve_hl selects once per step; the episode selects at least once
    assert tracer.counts["rules.selections"] > res.steps
    assert tracer.counts["rules.match_rule"] >= tracer.counts["rules.selections"]


def test_tracer_sees_the_simulator_in_an_oracle_episode():
    tracer = load_tracer()
    with tracer.installed():
        env = make_env(EnvConfig("blocks", 2, seed=0))  # binds the traced labeller
        episode = runner.run_episode(env, Executor("oracle"))
    assert episode.success
    spans = [span[0] for span in tracer.spans]
    steps = episode.ll_steps
    assert spans.count("envs.oracle_skill") == steps
    assert spans.count("envs.step") == steps
    assert spans.count("envs.label") == steps + 1  # the goal state is labelled too
    assert spans.count("envs.render") == steps + 1  # reset renders too


def test_one_index_build_per_rule_selection_in_an_episode():
    # the runner builds the StateIndex it selects on, so the benchmark's
    # rules.state_index_builds still counts one build per selection
    tracer = load_tracer()
    with tracer.installed():
        env = make_env(EnvConfig("blocks", 3, seed=0))
        episode = runner.run_episode(env, Executor("oracle"))
    assert episode.success
    spans = [span[0] for span in tracer.spans]
    selections = spans.count("rules.select_action")
    assert selections > 1
    assert spans.count("rules.state_index_build") == selections
