import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "bison.cli"]


def run_cli(args, **kw):
    return subprocess.run(CLI + args, capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    r = run_cli(["gen-demos", "--env", "blocks", "--objects", "3", "--count", "6",
                 "--seed", "5", "--out", str(d / "demos.bst")])
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
    r = run_cli(["learn-hl", "--env", "blocks", "--traces",
                 str(workdir / "demos.bst"), "--out", str(workdir / "pol.bsp")])
    assert r.returncode == 0, r.stderr
    text = (workdir / "pol.bsp").read_text()
    first = text.splitlines()[0]
    assert first.startswith("1:") and "(place" in first.rsplit("=>", 1)[1]


def test_train_ll_writes_params(workdir):
    r = run_cli(["train-ll", "--env", "blocks", "--traces",
                 str(workdir / "demos.bst"), "--iterations", "3",
                 "--seed", "1", "--out", str(workdir / "p.bsw")])
    assert r.returncode == 0, r.stderr
    blob = (workdir / "p.bsw").read_bytes()
    assert blob[:4] == b"BSW1"


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


def test_log_level_env_var(workdir):
    env = dict(os.environ, BISON_LOG="info")
    r = subprocess.run(CLI + ["gen-demos", "--env", "blocks", "--objects", "1",
                              "--count", "1", "--seed", "0", "--out", "-"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0


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
