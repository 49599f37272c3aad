import os
import subprocess
import sys

import pytest

from bison.formats import serialize_traces

from helpers import DEAD_RULE_BLOCKS_POLICY, blocks_demo_cut_before_its_last_place

CLI = [sys.executable, "-m", "bison.cli"]


def run_cli(args, **kw):
    return subprocess.run(CLI + args, capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """demos.bst, the pol.bsp learned from it and the p.bsw trained on it, so
    that any test reading them passes when run alone."""
    d = tmp_path_factory.mktemp("cli")
    for argv in (["gen-demos", "--objects", "3", "--count", "6", "--seed", "5",
                  "--out", str(d / "demos.bst")],
                 ["learn-hl", "--traces", str(d / "demos.bst"), "--out", str(d / "pol.bsp")],
                 ["train-ll", "--traces", str(d / "demos.bst"), "--iterations", "3",
                  "--seed", "1", "--out", str(d / "p.bsw")]):
        r = run_cli(argv[:1] + ["--env", "blocks"] + argv[1:])
        assert r.returncode == 0, r.stderr
    return d


def test_usage_error_exit_code():
    r = run_cli(["eval"])  # missing required arguments
    assert r.returncode == 1


def test_data_error_exit_code(workdir):
    r = run_cli(["learn-hl", "--env", "blocks", "--traces",
                 str(workdir / "missing.bst"), "--out", "-"])
    assert r.returncode == 2


def test_gen_demos_deterministic(workdir):
    out2 = workdir / "demos2.bst"
    r = run_cli(["gen-demos", "--env", "blocks", "--objects", "3", "--count", "6",
                 "--seed", "5", "--out", str(out2)])
    assert r.returncode == 0
    assert (workdir / "demos.bst").read_bytes() == out2.read_bytes()


def test_learn_hl_emits_place_rule_first(workdir):
    text = (workdir / "pol.bsp").read_text()
    first = text.splitlines()[0]
    assert first.startswith("1:") and "(place" in first.rsplit("=>", 1)[1]


def test_train_ll_writes_params(workdir):
    blob = (workdir / "p.bsw").read_bytes()
    assert blob[:4] == b"BSW1"


def test_train_ll_without_trainable_samples_is_data_error(tmp_path):
    # opening the box reveals a capsule whose facts no schema models, so no
    # gacha demo is explained and build_dataset returns no sample
    bst, bsw = tmp_path / "g.bst", tmp_path / "p.bsw"
    r = run_cli(["gen-demos", "--env", "gacha", "--objects", "2", "--count", "2",
                 "--seed", "1", "--out", str(bst)])
    assert r.returncode == 0, r.stderr
    r = run_cli(["train-ll", "--env", "gacha", "--traces", str(bst), "--iterations", "1",
                 "--out", str(bsw)])
    assert r.returncode == 2
    assert "no trainable samples" in r.stderr
    assert not bsw.exists()


def test_eval_pipeline_and_gnn(workdir):
    r = run_cli(["eval", "--env", "blocks", "--strategy", "bison",
                 "--policy", str(workdir / "pol.bsp"), "--objects", "1..2",
                 "--episodes", "2", "--seeds", "1", "--seed", "0",
                 "--out", str(workdir / "eval.csv")])
    assert r.returncode == 0, r.stderr
    lines = (workdir / "eval.csv").read_text().splitlines()
    assert lines[0] == "strategy,env,n,episode,seed,success,steps,replans,wall_time"
    assert len(lines) == 5
    assert all(row.split(",")[5] == "1" for row in lines[1:])  # all succeed
    assert all(row.endswith("0.000000") for row in lines[1:])  # timing zeroed


def test_eval_timing_wall_writes_measured_times(tmp_path):
    out = tmp_path / "eval.csv"
    r = run_cli(["eval", "--env", "blocks", "--strategy", "oracle", "--objects", "1",
                 "--episodes", "2", "--seeds", "1", "--seed", "0", "--timing", "wall",
                 "--out", str(out)])
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(0.0 < float(row[8]) < 60.0 for row in rows)


def test_eval_zero_episodes_header_only(workdir):
    r = run_cli(["eval", "--env", "blocks", "--strategy", "oracle",
                 "--objects", "1", "--episodes", "0", "--seeds", "1",
                 "--out", str(workdir / "empty.csv")])
    assert r.returncode == 0
    assert (workdir / "empty.csv").read_text() == \
        "strategy,env,n,episode,seed,success,steps,replans,wall_time\n"


def test_eval_summary_recomputable(workdir):
    r = run_cli(["eval", "--env", "blocks", "--strategy", "oracle",
                 "--objects", "1", "--episodes", "2", "--seeds", "2",
                 "--seed", "3", "--out", str(workdir / "ev.csv"),
                 "--summary", str(workdir / "sum.csv")])
    assert r.returncode == 0
    rows = [l.split(",") for l in (workdir / "ev.csv").read_text().splitlines()[1:]]
    per_seed = {}
    for row in rows:
        per_seed.setdefault(row[4], []).append(float(row[5]))
    means = [sum(v) / len(v) for _, v in sorted(per_seed.items())]
    mean = sum(means) / len(means)
    sline = (workdir / "sum.csv").read_text().splitlines()[1].split(",")
    assert abs(float(sline[2]) - mean) < 1e-9


def test_bench_hl_small(workdir):
    r = run_cli(["bench-hl", "--policy", str(workdir / "pol.bsp"),
                 "--n-list", "3", "--timeout", "30",
                 "--out", str(workdir / "bench.csv")])
    assert r.returncode == 0, r.stderr
    lines = (workdir / "bench.csv").read_text().splitlines()
    assert lines[0] == "n,method,solved,hl_steps,seconds,setup_seconds"
    rows = [l.split(",") for l in lines[1:]]
    assert [r_[1] for r_ in rows] == ["policy", "internal-baseline"]
    assert all(r_[2] == "1" for r_ in rows)
    assert float(rows[0][4]) < 1.0  # n = 3 solves fast


def test_check_clean_policy(workdir):
    r = run_cli(["check", "--env", "blocks", "--policy", str(workdir / "pol.bsp"),
                 "--traces", str(workdir / "demos.bst")])
    assert r.returncode == 0, r.stdout + r.stderr
    assert "0 problem(s)" in r.stdout
    assert "statically unsatisfiable" in r.stdout  # 3-block demos induce inert rules


def test_check_flags_the_dead_rule_of_a_hand_written_policy(tmp_path):
    pol = tmp_path / "dead.bsp"
    pol.write_text(DEAD_RULE_BLOCKS_POLICY)
    r = run_cli(["check", "--env", "blocks", "--policy", str(pol)])
    assert (r.returncode, r.stdout) == \
        (0, "policy: rule 1 is statically unsatisfiable (shared state/goal atom)\n"), r.stderr


def test_eval_with_a_dead_rule_writes_what_the_builtin_policy_writes(tmp_path):
    pol = tmp_path / "dead.bsp"
    pol.write_text(DEAD_RULE_BLOCKS_POLICY)
    for name, policy in (("dead", str(pol)), ("builtin", "builtin")):
        r = run_cli(["eval", "--env", "blocks", "--strategy", "bison", "--policy", policy,
                     "--objects", "1..3", "--episodes", "1", "--seeds", "1",
                     "--out", str(tmp_path / (name + ".csv"))])
        assert r.returncode == 0, r.stderr
    csv = (tmp_path / "dead.csv").read_text()
    assert len(csv.splitlines()) == 4
    assert csv == (tmp_path / "builtin.csv").read_text()


def test_check_reports_a_demo_that_misses_its_goal(tmp_path):
    bst = tmp_path / "cut.bst"
    bst.write_text(serialize_traces([blocks_demo_cut_before_its_last_place(3, seed=5)]))
    r = run_cli(["check", "--env", "blocks", "--traces", str(bst)])
    assert (r.returncode, r.stdout) == \
        (0, "demo 0: final abstraction misses the goal\nchecked 1 demos, 0 problem(s)\n"), \
        r.stderr


def test_check_reports_each_demo_with_an_abstraction_gap(tmp_path):
    # a factory spawn brings facts no schema models, so no demo is explained
    bst = tmp_path / "f.bst"
    r = run_cli(["gen-demos", "--env", "factory", "--objects", "3", "--count", "2",
                 "--seed", "2", "--out", str(bst)])
    assert r.returncode == 0, r.stderr
    r = run_cli(["check", "--env", "factory", "--traces", str(bst)])
    assert r.returncode == 2, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert [line.split(": ")[:2] for line in lines[:2]] == \
        [["demo 0", "abstraction gap"], ["demo 1", "abstraction gap"]]
    assert lines[2:] == ["checked 2 demos, 2 problem(s)"]


def test_log_level_env_var(workdir):
    env = dict(os.environ, BISON_LOG="info")
    r = subprocess.run(CLI + ["gen-demos", "--env", "blocks", "--objects", "1",
                              "--count", "1", "--seed", "0", "--out", "-"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0


@pytest.mark.parametrize("level", ["basic_format", "bogus", "warn "])
def test_unknown_log_level_is_one_usage_line(level):
    """Only logging level names pass: ``basic_format`` names a format string
    on the logging module, and ``bogus`` used to mean warning."""
    for argv, env in ((["--log-level", level], dict(os.environ)),
                      ([], dict(os.environ, BISON_LOG=level))):
        r = subprocess.run(CLI + argv + ["check", "--env", "blocks"],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 1, r.stderr
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr
        assert "log level %r" % level in r.stderr


def test_log_level_flag_overrides_env_and_ignores_case(workdir):
    env = dict(os.environ, BISON_LOG="bogus")
    r = subprocess.run(CLI + ["--log-level", "INFO", "learn-hl", "--env", "blocks",
                              "--traces", str(workdir / "demos.bst"), "--out", "-"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert "INFO bison: learned " in r.stderr


def test_eval_jobs_parallel_identical(workdir):
    outs = []
    for jobs in ("1", "2"):
        out = workdir / ("par%s.csv" % jobs)
        r = run_cli(["eval", "--env", "blocks", "--strategy", "oracle",
                     "--objects", "1..2", "--episodes", "2", "--seeds", "1",
                     "--seed", "11", "--jobs", jobs, "--out", str(out)])
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_eval_jobs_start_at_most_one_worker_per_episode(tmp_path, monkeypatch):
    import multiprocessing
    from bison import cli
    sizes = []

    class SerialPool:  # records its size and starts no process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    outs = []
    for jobs in ("1", "64"):
        out = tmp_path / ("jobs%s.csv" % jobs)
        assert cli.main(["eval", "--env", "blocks", "--strategy", "oracle",
                         "--objects", "1", "--episodes", "2", "--seeds", "1",
                         "--seed", "11", "--jobs", jobs, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert sizes == [2]  # two episodes: two workers, and none for --jobs 1
    assert outs[0] == outs[1]


def test_eval_info_line_names_failure_replans_and_fired(tmp_path, caplog):
    import logging
    from bison import cli
    from bison.envs import EnvConfig, episode_seed, make_env
    from bison.runner import Executor, run_episode
    caplog.set_level(logging.INFO, logger="bison")
    seen = []
    for strategy in ("det_plan", "det_replan"):
        caplog.clear()
        out = tmp_path / (strategy + ".csv")
        assert cli.main(["--log-level", "info", "eval", "--env", "blocks-noisy",
                         "--strategy", strategy, "--objects", "4", "--episodes", "2",
                         "--seeds", "1", "--seed", "0", "--out", str(out)]) == 0
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("episode ")]
        assert len(lines) == 2
        for ep, line in enumerate(lines):
            env = make_env(EnvConfig("blocks-noisy", 4, seed=episode_seed(0, ep)))
            res = run_episode(env, Executor(strategy))
            assert line.endswith(" failure=%s replans=%d fired=%d" % (
                res.failure_kind, res.replans, res.hl_actions_fired))
            seen.append((res.failure_kind, res.replans))
        # the CSV keeps its columns
        assert out.read_text().splitlines()[0] == \
            "strategy,env,n,episode,seed,success,steps,replans,wall_time"
    # a broken plan and a replan are both among the lines checked
    assert ("plan_broken", 0) in seen and any(r > 0 for _, r in seen)


def test_bench_hl_info_line_shows_the_baseline_search(tmp_path, caplog):
    import logging
    from bison import cli
    from bison.bench import bench_hl, bench_rows_csv
    from bison.envs import builtin_policy
    caplog.set_level(logging.INFO, logger="bison")
    out = tmp_path / "bench.csv"
    assert cli.main(["--log-level", "info", "bench-hl", "--n-list", "2,3",
                     "--out", str(out)]) == 0
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("bench ")]
    rows = bench_hl(builtin_policy("blocks"), [2, 3], timeout=60.0)
    assert len(lines) == len(rows) == 4
    for line, row in zip(lines, rows):
        if row.method == "policy":
            assert row.search is None and "status=" not in line
        else:
            st = row.search
            assert st.status == "solved" and st.expanded > 0
            assert line.endswith(" status=solved expanded=%d generated=%d"
                                 % (st.expanded, st.generated))
    # the CSV has no search columns
    assert out.read_text().splitlines()[0] == bench_rows_csv([]).strip()


def test_eval_with_gnn_params(workdir):
    r = run_cli(["eval", "--env", "blocks", "--strategy", "bison",
                 "--policy", str(workdir / "pol.bsp"), "--ll", "gnn",
                 "--params", str(workdir / "p.bsw"), "--objects", "1",
                 "--episodes", "1", "--seeds", "1",
                 "--out", str(workdir / "gnn.csv")])
    assert r.returncode == 0, r.stderr
    lines = (workdir / "gnn.csv").read_text().splitlines()
    assert len(lines) == 2  # header + one episode (success not required here)


@pytest.mark.parametrize("argv", [
    ["learn-hl", "--env", "blocks", "--traces", "{demos}", "--domain", "{bsd}"],
    ["train-ll", "--env", "blocks", "--traces", "{demos}", "--domain", "{bsd}"],
    ["bench-hl", "--n-list", "3", "--no-baseline"],
], ids=["learn-hl-domain", "train-ll-domain", "bench-hl-no-baseline"])
def test_removed_options_are_usage_errors(workdir, tmp_path, argv):
    from bison.envs import BLOCKS_DOMAIN_TEXT
    bsd = tmp_path / "blocks.bsd"
    bsd.write_text(BLOCKS_DOMAIN_TEXT)
    out = tmp_path / "out"
    r = run_cli([a.format(demos=workdir / "demos.bst", bsd=bsd) for a in argv]
                + ["--out", str(out)])
    assert r.returncode == 1, r.stderr
    assert not out.exists()


def test_bench_hl_baseline_max_n_zero_runs_the_policy_alone():
    r = run_cli(["bench-hl", "--n-list", "1,3,10", "--baseline-max-n", "0",
                 "--out", "-"])
    assert r.returncode == 0, r.stderr
    rows = [l.split(",") for l in r.stdout.splitlines()[1:]]
    assert [(row[0], row[1], row[2]) for row in rows] == [
        ("1", "policy", "1"), ("3", "policy", "1"), ("10", "policy", "1")]


@pytest.mark.parametrize("command,spec", [
    ("eval", "a..b"), ("eval", "1..x"), ("eval", "5..1"), ("eval", ""),
    ("eval", "0"), ("bench-hl", "10..3"), ("bench-hl", "x"),
])
def test_bad_range_is_data_error(command, spec):
    if command == "eval":
        args = ["eval", "--env", "blocks", "--strategy", "oracle", "--objects", spec,
                "--episodes", "1", "--seeds", "1", "--out", "-"]
    else:
        args = ["bench-hl", "--n-list", spec, "--out", "-"]
    r = run_cli(args)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("argv", [
    ["eval", "--env", "blocks", "--strategy", "bison", "--objects", "1..1000000000000",
     "--episodes", "0"],
    ["bench-hl", "--n-list", "1..1000000000000"],
])
def test_range_too_long_is_one_line_data_error(argv):
    # the span is checked before any list of counts is built
    r = run_cli(argv)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        "error: range '1..1000000000000' spans more than 1000000 counts"]


def test_range_may_span_max_range_counts():
    from bison.cli import MAX_RANGE, _parse_range
    from bison.core import BisonError
    assert _parse_range("2..%d" % (MAX_RANGE + 1)) == list(range(2, MAX_RANGE + 2))
    with pytest.raises(BisonError, match="spans more than"):
        _parse_range("1..%d" % (MAX_RANGE + 1))


@pytest.mark.parametrize("timeout", ["nan", "inf", "-1", "0"])
def test_bench_hl_timeout_must_be_positive_and_finite(timeout):
    r = run_cli(["bench-hl", "--n-list", "3", "--timeout=" + timeout, "--out", "-"])
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("argv", [
    ["eval", "--env", "blocks", "--strategy", "oracle", "--objects", "1",
     "--episodes", "-1"],
    ["eval", "--env", "blocks", "--strategy", "oracle", "--objects", "1", "--seeds", "0"],
    ["eval", "--env", "blocks", "--strategy", "oracle", "--objects", "1", "--jobs", "0"],
    ["gen-demos", "--env", "blocks", "--objects", "1", "--count", "-2"],
    ["gen-demos", "--env", "blocks", "--objects", "1", "--seed", "-1"],
    ["bench-hl", "--n-list", "3", "--baseline-max-n", "-1"],
], ids=["episodes", "seeds", "jobs", "count", "seed", "baseline-max-n"])
def test_counts_below_their_least_value_are_data_errors(tmp_path, argv):
    out = tmp_path / "out"
    r = run_cli(argv + ["--out", str(out)])
    assert r.returncode == 2, r.stderr
    assert "must be at least" in r.stderr
    assert not out.exists()


def test_jobs_only_accepted_by_eval():
    r = run_cli(["gen-demos", "--env", "blocks", "--objects", "1", "--count", "1",
                 "--jobs", "4", "--out", "-"])
    assert r.returncode == 1


def test_pure_nn_stub_without_params_is_data_error():
    r = run_cli(["eval", "--env", "blocks", "--strategy", "pure_nn_stub",
                 "--objects", "1", "--episodes", "1", "--seeds", "1", "--out", "-"])
    assert r.returncode == 2, r.stderr


def test_gnn_ll_without_params_is_data_error(tmp_path):
    out = tmp_path / "out.csv"
    r = run_cli(["eval", "--env", "blocks", "--strategy", "det_plan", "--ll", "gnn",
                 "--objects", "1", "--episodes", "1", "--seeds", "1", "--out", str(out)])
    assert r.returncode == 2, r.stderr
    assert "trained parameters" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    ("learn-hl", ["--seed", "1"]), ("check", ["--seed", "1"]),
    ("check", ["--out", "-"]),
])
def test_flags_a_command_ignores_are_rejected(workdir, command, flag):
    if command == "learn-hl":
        args = ["learn-hl", "--env", "blocks", "--traces", str(workdir / "demos.bst"),
                "--out", "-"]
    else:
        args = ["check", "--env", "blocks"]
    assert run_cli(args).returncode == 0
    r = run_cli(args + flag)
    assert r.returncode == 1


def test_eval_truncated_params_is_data_error(tmp_path):
    from bison.envs import ACTION_DIM, EGO_DIM, env_domain, obj_dim
    from bison.gnn import EncodingSpec, TrainConfig, init_params, save_params
    spec = EncodingSpec.for_domain(env_domain("blocks"), EGO_DIM, obj_dim("blocks"),
                                   ACTION_DIM)
    path = tmp_path / "p.bsw"
    save_params(init_params(spec, TrainConfig()), str(path))
    path.write_bytes(path.read_bytes()[:300])
    r = run_cli(["eval", "--env", "blocks", "--strategy", "bison", "--ll", "gnn",
                 "--params", str(path), "--objects", "1", "--episodes", "1",
                 "--seeds", "1", "--out", "-"])
    assert r.returncode == 2, r.stderr
    assert "bad parameter file" in r.stderr


def test_eval_byte_fuzzed_params_never_internal_error(tmp_path):
    import random
    from bison.envs import ACTION_DIM, EGO_DIM, env_domain, obj_dim
    from bison.gnn import EncodingSpec, TrainConfig, init_params, load_params, \
        save_params
    from bison.core import BisonError
    from test_gnn import mutate_bytes
    spec = EncodingSpec.for_domain(env_domain("blocks"), EGO_DIM, obj_dim("blocks"),
                                   ACTION_DIM)
    path = tmp_path / "p.bsw"
    save_params(init_params(spec, TrainConfig()), str(path))
    blob = path.read_bytes()
    # the first two mutants that load and the first two that are rejected
    rng = random.Random(5)
    picked = {True: [], False: []}
    while min(len(v) for v in picked.values()) < 2:
        data = mutate_bytes(blob, rng)
        path.write_bytes(data)
        try:
            load_params(str(path))
            loads = True
        except BisonError:
            loads = False
        if len(picked[loads]) < 2:
            picked[loads].append(data)
    for k, data in enumerate(picked[True] + picked[False]):
        path.write_bytes(data)
        r = run_cli(["eval", "--env", "blocks", "--strategy", "bison", "--ll", "gnn",
                     "--params", str(path), "--objects", "1", "--episodes", "1",
                     "--seeds", "1", "--out", "-"])
        assert r.returncode in (0, 2), (k, r.stderr)


def test_eval_params_with_huge_layer_count_is_data_error(tmp_path):
    # the header's shape count is checked before the shapes of 10^12 layers
    # are built, so the file is refused as malformed, not out of memory
    from test_gnn import bsw_bytes, bsw_parts, _with
    header, payload, _ = bsw_parts(tmp_path)
    path = tmp_path / "huge.bsw"
    path.write_bytes(bsw_bytes(_with(header, layers=10 ** 12), payload))
    r = run_cli(["eval", "--env", "blocks", "--strategy", "bison", "--ll", "gnn",
                 "--params", str(path), "--objects", "1", "--episodes", "1",
                 "--seeds", "1", "--out", "-"])
    assert r.returncode == 2, r.stderr
    assert r.stderr.splitlines() == ["error: bad parameter file %s: tensor shapes do not "
                                     "match the spec" % path]


@pytest.mark.parametrize("env", ["gacha", "pickplace"])
def test_eval_params_of_another_env_is_data_error(tmp_path, env):
    from bison.envs import ACTION_DIM, EGO_DIM, env_domain, obj_dim
    from bison.gnn import EncodingSpec, TrainConfig, init_params, save_params
    spec = EncodingSpec.for_domain(env_domain("blocks"), EGO_DIM, obj_dim("blocks"),
                                   ACTION_DIM)
    path = tmp_path / "blocks.bsw"
    save_params(init_params(spec, TrainConfig()), str(path))
    r = run_cli(["eval", "--env", env, "--strategy", "bison", "--ll", "gnn",
                 "--params", str(path), "--objects", "1", "--episodes", "1",
                 "--seeds", "1", "--out", "-"])
    assert r.returncode == 2, r.stderr
    assert "trained for another env" in r.stderr
    assert r.stdout == ""


NEST = "(" * 3000 + ")" * 3000
DEEP = {
    "deep.bsp": "1: (:vars ?x) (:state %s) (:goal) => (pick ?x)\n" % NEST,
    "deep.bst": '{"goal":["%s"],"steps":[]}\n' % NEST,  # nested inside a goal string
}


@pytest.mark.parametrize("command,flag,name", [
    ("check", "--policy", "deep.bsp"), ("learn-hl", "--traces", "deep.bst"),
])
def test_deeply_nested_input_is_data_error(tmp_path, command, flag, name):
    path = tmp_path / name
    path.write_text(DEEP[name])
    args = [command, "--env", "blocks", flag, str(path)]
    if command == "learn-hl":
        args += ["--out", str(tmp_path / "out")]
    r = run_cli(args)
    assert r.returncode == 2, r.stderr
    assert "internal error" not in r.stderr


@pytest.mark.parametrize("command,flag", [
    ("learn-hl", "--traces"), ("train-ll", "--traces"), ("check", "--traces"),
    ("check", "--policy"), ("eval", "--policy"), ("bench-hl", "--policy"),
])
def test_input_that_is_not_utf8_is_data_error(tmp_path, command, flag):
    path = tmp_path / "in"
    path.write_bytes(b"1: \xff\n")
    args = {"eval": ["eval", "--env", "blocks", "--strategy", "bison", "--objects", "1",
                     "--episodes", "1", "--seeds", "1", "--summary", str(tmp_path / "sum")],
            "bench-hl": ["bench-hl", "--n-list", "3"]}.get(command, [command, "--env", "blocks"])
    if command != "check":
        args += ["--out", str(tmp_path / "out")]
    r = run_cli(args + [flag, str(path)])
    assert r.returncode == 2, r.stderr
    assert "%s: not UTF-8 text at byte 3" % path in r.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


TRACES = {
    "narrow": ('{"goal":["(at b0 p0)"],"steps":[{"ego":[0.5,0.5,1],"objects":'
               '{"b0":[0.2,0.2,1],"p0":[0.7,0.7,1]},"action":[0,0,0]}]}\n'),
    "no-pad": ('{"goal":["(hold obj0)"],"steps":[{"ego":[0.5,0.5,1],"objects":'
               '{"obj0":[0.2,0.2,-0.3,-0.3,0.3,0,1,0]},"action":[0,0,0]}]}\n'),
}


@pytest.mark.parametrize("command,env,trace", [
    ("learn-hl", "blocks", "narrow"), ("train-ll", "blocks", "narrow"),
    ("check", "blocks", "narrow"), ("learn-hl", "gacha", "narrow"),
    ("learn-hl", "pickplace", "no-pad"),
])
def test_traces_that_do_not_fit_the_env_are_data_errors(tmp_path, command, env, trace):
    path = tmp_path / "t.bst"
    path.write_text(TRACES[trace])
    args = [command, "--env", env, "--traces", str(path)]
    if command != "check":
        args += ["--out", str(tmp_path / "out")]
    r = run_cli(args)
    assert r.returncode == 2, r.stderr
    assert "internal error" not in r.stderr


# option -> (its least valid value, or a kind for non-integer options)
FUZZ_COMMANDS = {
    "gen-demos": (["--env", "blocks", "--objects", "1", "--count", "1"],
                  {"--objects": 1, "--count": 0, "--seed": 0}),
    "eval": (["--env", "blocks", "--strategy", "oracle", "--objects", "1",
              "--episodes", "1", "--seeds", "1"],
             {"--objects": "range", "--episodes": 0, "--seeds": 1, "--jobs": 1,
              "--seed": 0}),
    "train-ll": (["--env", "blocks", "--traces", "{demos}", "--iterations", "1"],
                 {"--iterations": 0, "--seed": 0}),
    "learn-hl": (["--env", "blocks", "--traces", "{demos}"], {"--subgoal-cap": 0}),
    "bench-hl": (["--n-list", "3", "--baseline-max-n", "0"],
                 {"--n-list": "range", "--timeout": "seconds", "--seed": 0}),
}
FUZZ_GARBAGE = {"int": ["x", "1.5", "", "2e3", "0x10", "--"],
                "range": ["0", "-2", "3..1", "1..x", "", ",", "x"],
                "seconds": ["nan", "inf", "-1", "0", "x", ""]}


def test_bad_argument_values_are_usage_or_data_errors(workdir, tmp_path, capsys):
    """Each case corrupts one or two options of a valid command line; it must
    exit 1 (usage) or 2 (data), never 3 (internal).  --jobs is only ever drawn
    non-positive, so no case starts a worker process."""
    import random
    from bison.cli import main
    rng = random.Random(2024)
    codes = []
    for _ in range(60):
        command = rng.choice(sorted(FUZZ_COMMANDS))
        base, options = FUZZ_COMMANDS[command]
        argv = [command] + [a.format(demos=workdir / "demos.bst") for a in base]
        argv += ["--out", str(tmp_path / "out")]
        for opt in rng.sample(sorted(options), rng.randint(1, min(2, len(options)))):
            low = options[opt]
            if isinstance(low, int) and (opt == "--jobs" or rng.random() < 0.6):
                value = str(low - rng.randint(1, 3))
            else:
                value = rng.choice(FUZZ_GARBAGE[low if isinstance(low, str) else "int"])
            argv += [opt, value]
        code = main(argv)
        capsys.readouterr()
        assert code in (1, 2), argv
        codes.append(code)
    assert codes.count(1) >= 10 and codes.count(2) >= 20


# `bison check` stdout, pinned: the blocks lines list a learned policy's dead
# rules, the pickplace ones its unconstrained variables and NDRP violations
CHECK_BLOCKS = """\
policy: rule 1 is statically unsatisfiable (shared state/goal atom)
policy: rule 2 is statically unsatisfiable (shared state/goal atom)
policy: rule 3 is statically unsatisfiable (shared state/goal atom)
policy: rule 4 is statically unsatisfiable (shared state/goal atom)
checked 6 demos, 0 problem(s)
"""
CHECK_PICKPLACE_LEARNED = """\
policy: rule 1 is statically unsatisfiable (shared state/goal atom)
policy: rule 2 is statically unsatisfiable (shared state/goal atom)
policy: rule 3 is statically unsatisfiable (shared state/goal atom)
policy: rule 4 is statically unsatisfiable (shared state/goal atom)
policy: rule 4 has 1 unconstrained variable(s); each is bound to the first object
policy: rule 5 is statically unsatisfiable (shared state/goal atom)
policy: rule 5 has 1 unconstrained variable(s); each is bound to the first object
policy: rule 6 is statically unsatisfiable (shared state/goal atom)
policy: rule 7 is statically unsatisfiable (shared state/goal atom)
policy: rule 9 is statically unsatisfiable (shared state/goal atom)
policy: rule 11 is statically unsatisfiable (shared state/goal atom)
demo 0: NDRP violation at step 56: policy returned no action at a changing state
demo 1: NDRP violation at step 89: policy returned no action at a changing state
demo 2: NDRP violation at step 63: policy returned no action at a changing state
checked 3 demos, 3 problem(s)
"""
CHECK_PICKPLACE_BUILTIN = """\
demo 0: NDRP violation at step 14: abstract jump not among successors of selected action
demo 2: NDRP violation at step 63: abstract jump not among successors of selected action
checked 3 demos, 2 problem(s)
"""


def test_check_stdout_is_pinned(workdir, tmp_path):
    r = run_cli(["check", "--env", "blocks", "--policy", str(workdir / "pol.bsp"),
                 "--traces", str(workdir / "demos.bst")])
    assert (r.returncode, r.stdout) == (0, CHECK_BLOCKS), r.stderr
    demos, pol = str(tmp_path / "p.bst"), str(tmp_path / "p.bsp")
    for argv in (["gen-demos", "--objects", "2", "--count", "3", "--seed", "2",
                  "--out", demos],
                 ["learn-hl", "--traces", demos, "--out", pol]):
        assert run_cli(argv[:1] + ["--env", "pickplace"] + argv[1:]).returncode == 0
    r = run_cli(["check", "--env", "pickplace", "--policy", pol, "--traces", demos])
    assert (r.returncode, r.stdout) == (2, CHECK_PICKPLACE_LEARNED), r.stderr
    r = run_cli(["check", "--env", "pickplace", "--traces", demos])
    assert (r.returncode, r.stdout) == (2, CHECK_PICKPLACE_BUILTIN), r.stderr


def test_learn_hl_warns_about_skipped_demos(tmp_path):
    # no modelled gacha action explains its demos' abstraction changes
    demos, pol = tmp_path / "d.bst", tmp_path / "p.bsp"
    r = run_cli(["gen-demos", "--env", "gacha", "--objects", "1", "--count", "2",
                 "--out", str(demos)])
    assert r.returncode == 0, r.stderr
    r = run_cli(["learn-hl", "--env", "gacha", "--traces", str(demos), "--out", str(pol)])
    assert r.returncode == 0, r.stderr
    assert "WARNING bison: skipped 2 of 2 demos" in r.stderr
    assert pol.read_text() == ""


def test_learn_hl_logs_dropped_subgoals_and_dead_rules(workdir, tmp_path):
    demos = str(workdir / "demos.bst")
    quiet, loud = tmp_path / "quiet.bsp", tmp_path / "loud.bsp"
    r = run_cli(["learn-hl", "--env", "blocks", "--traces", demos, "--out", str(quiet)])
    assert (r.returncode, r.stdout, r.stderr) == (0, "", "")
    r = run_cli(["--log-level", "info", "learn-hl", "--env", "blocks", "--traces", demos,
                 "--out", str(loud)])
    assert (r.returncode, r.stdout) == (0, ""), r.stderr
    assert loud.read_bytes() == quiet.read_bytes()  # logging moves no output byte
    assert "0 subgoals dropped by the cap" in r.stderr
    check = run_cli(["check", "--env", "blocks", "--policy", str(loud)])
    dead = check.stdout.count("is statically unsatisfiable")
    assert dead > 0
    n_rules = len(loud.read_text().splitlines())
    assert ("INFO bison: %d of %d written rules are statically unsatisfiable"
            % (dead, n_rules)) in r.stderr
    # a cap of 0 drops every regressed subgoal: one per demo
    r = run_cli(["--log-level", "info", "learn-hl", "--env", "blocks", "--traces", demos,
                 "--subgoal-cap", "0", "--out", str(tmp_path / "cap0.bsp")])
    assert r.returncode == 0, r.stderr
    assert "(0 skipped, 0 unreached goals, 6 subgoals dropped by the cap)" in r.stderr


@pytest.mark.parametrize("env,limit", [("pickplace", 7), ("gacha", 6)])
def test_eval_default_objects_stop_at_the_env_limit(tmp_path, env, limit):
    out = tmp_path / "eval.csv"
    r = run_cli(["eval", "--env", env, "--strategy", "oracle", "--episodes", "1",
                 "--seeds", "1", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    rows = out.read_text().splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == list(range(1, limit + 1))


@pytest.mark.parametrize("env,limit", [("pickplace", 7), ("gacha", 6)])
@pytest.mark.parametrize("command", ["gen-demos", "eval"])
def test_objects_above_the_env_limit_are_data_errors(tmp_path, env, limit, command):
    out = tmp_path / "out"
    if command == "gen-demos":
        argv = ["gen-demos", "--objects", str(limit + 1), "--count", "1"]
    else:  # every n is checked before the first episode runs
        argv = ["eval", "--strategy", "oracle", "--objects", "1,%d" % (limit + 1),
                "--episodes", "1", "--seeds", "1"]
    r = run_cli(argv[:1] + ["--env", env] + argv[1:] + ["--out", str(out)],
                env=dict(os.environ, BISON_LOG="info"))
    assert r.returncode == 2, r.stderr
    assert "episode" not in r.stderr
    assert "room for at most %d objects" % limit in r.stderr
    assert not out.exists()


def test_eval_reads_policy_whatever_the_strategy(tmp_path):
    # the runner, not the CLI, decides which strategies read the rules, so a
    # bad --policy is a data error for every strategy
    bad = tmp_path / "bad.bsp"
    bad.write_text("(not a rule)\n")
    for strategy, policy in (("det_plan", bad), ("oracle", tmp_path / "missing.bsp")):
        out = tmp_path / (strategy + ".csv")
        r = run_cli(["eval", "--env", "blocks", "--strategy", strategy, "--policy",
                     str(policy), "--objects", "1", "--episodes", "1", "--seeds", "1",
                     "--out", str(out)])
        assert r.returncode == 2, r.stderr
        assert not out.exists()
        # a parse error is reported once, like any other data error
        assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")


@pytest.mark.parametrize("env,objects,count,seed,first_steps", [
    ("factory", 3, 30, 2, [32]),
    ("gacha", 2, 5, 1, [30] * 5),
])
def test_learn_hl_names_where_each_skipped_demo_broke(tmp_path, env, objects, count,
                                                      seed, first_steps):
    traces = tmp_path / "demos.bst"
    r = run_cli(["gen-demos", "--env", env, "--objects", str(objects), "--count",
                 str(count), "--seed", str(seed), "--out", str(traces)])
    assert r.returncode == 0, r.stderr
    runs = {}
    for level in ("info", "warning"):
        out = tmp_path / (level + ".bsp")
        runs[level] = run_cli(["--log-level", level, "learn-hl", "--env", env,
                               "--traces", str(traces), "--out", str(out)])
        assert runs[level].returncode == 0, runs[level].stderr
    # the log lines change neither the written policy nor stdout
    assert (tmp_path / "info.bsp").read_bytes() == (tmp_path / "warning.bsp").read_bytes()
    assert runs["info"].stdout == runs["warning"].stdout
    lines = [line for line in runs["info"].stderr.splitlines()
             if line.startswith("INFO bison: skipped demo ")]
    assert "skipped demo" not in runs["warning"].stderr
    assert "(%d skipped," % count in runs["info"].stderr
    assert len(lines) == count
    steps = []
    for k, line in enumerate(lines):
        head, _, step = line.rpartition(" at LL step ")
        assert head.startswith("INFO bison: skipped demo %d: " % k), line
        steps.append(int(step))
    assert steps[:len(first_steps)] == first_steps


# The byte-identical oracle: eval CSVs of every strategy on every kind, and
# learned policies.  "eval STRATEGY KIND [gnn]" runs --objects 1..3 --episodes 1
# --seeds 1 --seed 7; pure_nn_stub and "gnn" (--ll gnn) read the benchmark's
# params.bsw, whose encoding fits blocks, blocks-noisy and factory.
# "learn KIND N COUNT SEED" learns from COUNT demos of N objects.
PARAMS_BSW = os.path.join(os.path.dirname(__file__), "..", "perfbench", "fixtures",
                          "params.bsw")
PINNED_OUTPUTS = {
    "eval bison blocks":
        "903143dbe50b8275e63c023ebe20ceced1336148635752a1b91674ff44d024a1",
    "eval bison blocks gnn":
        "eb2e0fac5fbe7e58c2a2396674d34b2fd675c47775021e93c18f17a60e0c801f",
    "eval bison blocks-noisy":
        "51e870710ca3fb30eaa1bb187df2b1c4512914ac4be209bd1d9532a980e5de2a",
    "eval bison blocks-noisy gnn":
        "d520bccbaeb9c736533165e69ecaabe59f81b1ce33bbee64b80b39272a7e0ece",
    "eval bison factory":
        "37ea205bd9e704fa6486a0248f6e32f1856d66f9d4a08450b8a8053ceece975a",
    "eval bison factory gnn":
        "89532ed550a68c23114881933754e777ba61573cc7db3b85d77f5eeef3559291",
    "eval bison gacha":
        "2e07bf6c013e0993b0e6710476bdb6dc0516236d35792d1122410d77ae3d3b2a",
    "eval bison pickplace":
        "206433321ee5b69a609ae9287c0c43eb119c72b2aba460f912d618294bff4cfd",
    "eval det_plan blocks":
        "04ff3ae3b3d2921d8a6a56137659987a777c443d90a51563612b2153eea8c0eb",
    "eval det_plan blocks-noisy":
        "c1dcc7b03360e40fd75f62f81479bebc5f74b56261be5c66832b45ae3d59b405",
    "eval det_plan factory":
        "6191dc7a13a69615a461d638d303bacbfa0194e83161adfa1ff3613c41ef2f29",
    "eval det_plan gacha":
        "8d1dd8482870163ad1645109d6fd5e281829eaac83ef314d78c42b96fef05466",
    "eval det_plan pickplace":
        "18f8ffe0a434fb769bf5d2e8f6a26d6ea3c17f8abccbb0a92095b6d18a72a2eb",
    "eval det_replan blocks":
        "2a024548229048c465bf58fa1fa77b5b5e95200495e0f914a91573905d7e0aa4",
    "eval det_replan blocks-noisy":
        "09d6173306e5f3527e42e87b85763b08a593c1eeaeb3946b410ee0299fb7c3a4",
    "eval det_replan factory":
        "1ce3878c06a1d0235acfacd6f89ba00216cb5551545850af34cc4e69e89c57fa",
    "eval det_replan gacha":
        "b50312afd42fd99b40df8dcab27be701e5f9d57fa2f883c2973ff3d77117df8e",
    "eval det_replan pickplace":
        "292f4e553e57d7a9108f335352e846d5d9da90fb9dc7a5576ca1ab7ee7d3cde7",
    "eval ndt_plan blocks":
        "b6582476a279cdefa0d03415802156e6143cb0b28e23ccbfe897fa3eee24e0dd",
    "eval ndt_plan blocks-noisy":
        "29eb1084097b4a2227bc95f071cc58a4e4f314f7f9a8a9a80e92b861658f1141",
    "eval ndt_plan factory":
        "63210fd96475e5c0ce09b41240d4d359d7f7458a27a755691a6d460b196776cf",
    "eval ndt_plan gacha":
        "dd5a8f5c17fa9646be7d87212b06c015e7e708b0bf1a23abde3301cbf885f77f",
    "eval ndt_plan pickplace":
        "b5d79af03ecfb89289cae61b4a2f013074c174d25e669abe9d0d50391b95a59d",
    "eval ndt_replan blocks":
        "66bf9c47b08638fb7a6dc1b3663f538ff38aeeaaa85cf54faf642bcf164f7a16",
    "eval ndt_replan blocks-noisy":
        "a34e136ba84f957821f4c663d4cda2c4f913cfd52fded7910abc2356b2907ce3",
    "eval ndt_replan factory":
        "50072c0295f68e9bc6398b33b693f97eec13849b41ac68dce06b5323f7c637d2",
    "eval ndt_replan gacha":
        "b6a28af2442bfb467ae0fde548686ce5eaf09e36700f7c06c75f94d4c28dffac",
    "eval ndt_replan pickplace":
        "133825fe231634d3a2615c05a086b7f49afc844937a078715c6af3fae98cc43d",
    "eval oracle blocks":
        "043a09009dbc5100d2345b76b71207a99baa937e35653d93360aaaf7f2b2b61f",
    "eval oracle blocks-noisy":
        "85954f7816989e8b9bad44e046325696a40598605c6bd3e85939b006d79eb292",
    "eval oracle factory":
        "e3aca7d73762003191789d12368a792f52fc429de7379e009373f7516074ca82",
    "eval oracle gacha":
        "eac80644dad3fe85e74b6a1a470016e66bb9a6a9182486cb5800d66460e2ed40",
    "eval oracle pickplace":
        "c3b233def29529b26e2fc86b7265b40d760cb51aa2faeafbad27812992055b71",
    "eval pure_nn_stub blocks":
        "fb0a08dfcb69ea0877877602e84afee06626ea3dcb6b787bb7747aa5682f7a8a",
    "eval pure_nn_stub blocks-noisy":
        "c013b11d0e2d85da8b97b065a3fab41125e6ed2eaae10d65850760bc9dbd2672",
    "eval pure_nn_stub factory":
        "0e2ad8bb7eedd1db9fb146563f681f8569e2a6f5fc8c2320683418704e25e953",
    "learn blocks 3 20 5":
        "54fd0f586db8aa5db98d312946db8d3156a37728fc52bd737ec272427e73c595",
    "learn pickplace 3 10 2":
        "552e07368c739648b1949984918ab016d9184f829d98aeed411a3bdeb695d4ad",
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_outputs_are_pinned(tmp_path, name):
    import hashlib
    from bison import cli
    what, *rest = name.split()
    out = tmp_path / "out"
    if what == "learn":
        kind, n, count, seed = rest
        demos = str(tmp_path / "demos.bst")
        assert cli.main(["gen-demos", "--env", kind, "--objects", n, "--count", count,
                         "--seed", seed, "--out", demos]) == 0
        argv = ["learn-hl", "--env", kind, "--traces", demos]
    else:
        strategy, kind = rest[:2]
        argv = ["eval", "--env", kind, "--strategy", strategy, "--objects", "1..3",
                "--episodes", "1", "--seeds", "1", "--seed", "7"]
        if rest[2:] == ["gnn"]:
            argv += ["--ll", "gnn"]
        if strategy == "pure_nn_stub" or rest[2:] == ["gnn"]:
            argv += ["--params", PARAMS_BSW]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_OUTPUTS[name]
