"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Expensive artifacts (demo
corpus, learned policy, trained network) are built once at module scope.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from bison.bench import bench_hl, gen_blocks_hl_problem
from bison.envs import (ACTION_DIM, EGO_DIM, EnvConfig, builtin_policy,
                        env_domain, generate_demos, make_env, make_labeller,
                        obj_dim)
from bison.formats import serialize_policy
from bison.gnn import (EncodingSpec, GnnParams, GnnInput, TrainConfig,
                       backward, build_dataset, train)
from bison.learn import learn_hl_policy
from bison.runner import Executor, run_episode
from bison.search import SearchStats, find_plan

import test_properties as props


def report(criterion, ok, detail=""):
    line = "%s  criterion-%s%s" % ("PASS" if ok else "FAIL", criterion,
                                   ": " + detail if detail else "")
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    demos = generate_demos(EnvConfig("blocks", 3, seed=5), 200)
    dom = env_domain("blocks")
    policy = learn_hl_policy(demos, dom, make_labeller("blocks"))
    return demos, dom, policy


@pytest.fixture(scope="module")
def trained(corpus):
    demos, dom, _ = corpus
    spec = EncodingSpec.for_domain(dom, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    samples = build_dataset(demos, dom, make_labeller("blocks"), spec)
    result = train(samples, spec, TrainConfig(iterations=200, seed=0))
    return result


def test_criterion_1_example2_reproduction():
    demo_at = generate_demos(EnvConfig("pickplace", 1, seed=3,
                                       start_at_block=True), 1)
    demo_away = generate_demos(EnvConfig("pickplace", 1, seed=3,
                                         start_at_block=False), 1)
    dom = env_domain("pickplace")
    t0 = time.perf_counter()
    policy = learn_hl_policy(demo_at + demo_away, dom, make_labeller("pickplace"))
    elapsed = time.perf_counter() - t0
    expected = serialize_policy(builtin_policy("pickplace"))
    ok = (serialize_policy(policy) == expected
          and [r.val + 1 for r in policy.rules] == [1, 2, 3, 4]
          and elapsed < 1.0)
    report(1, ok, "4 lifted transport rules, priorities 1-4, learned in %.3fs"
           % elapsed)


def test_criterion_2_hl_scalability(corpus):
    _, _, policy = corpus
    rows = bench_hl(policy, [3, 10, 100, 1000, 10000], timeout=60.0, seed=0,
                    baseline_max_n=0)
    solved = {r.n: (r.solved, r.seconds) for r in rows}
    ok = all(solved[n][0] for n in (3, 10, 100, 1000, 10000))
    big_secs = solved[10000][1]
    ok = ok and big_secs < 60.0
    stats = SearchStats()
    baseline_plan = find_plan(gen_blocks_hl_problem(500, seed=0),
                              deadline=time.perf_counter() + 60.0, stats=stats)
    ok = ok and baseline_plan is None and stats.status in ("budget", "timeout")
    report(2, ok, "policy solves up to n=10000 in %.1fs; search baseline %s "
           "at n=500" % (big_secs, stats.status))


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    spec = EncodingSpec(n_pred=3, n_schema=2, max_arity=2, ego_dim=3,
                        obj_feat_dim=4, out_dim=3)
    h_step, tol = 1e-5, 1e-4
    checked = 0
    worst = 0.0
    while checked < 100:
        params = GnnParams(spec, hidden=6, layers=2, init_rng=rng)
        inp = GnnInput(rng.normal(size=spec.g_dim), rng.normal(size=spec.a_dim),
                       rng.normal(size=(int(rng.integers(1, 4)), spec.o_dim)))
        target = rng.normal(size=spec.out_dim)
        from test_gnn import kink_margin
        if kink_margin(params, inp) < 1e-3:
            continue  # kink-adjacent configuration: excluded per the criterion
        grads, _ = backward(params, inp, target)
        for tens, g in zip(params.tensors(), grads):
            flat, gf = tens.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h_step
                _, lp = backward(params, inp, target)
                flat[i] = old - h_step
                _, lm = backward(params, inp, target)
                flat[i] = old
                fd = (lp - lm) / (2 * h_step)
                denom = max(abs(fd), abs(gf[i]))
                if denom > 1e-7:
                    worst = max(worst, abs(fd - gf[i]) / denom)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < 30.0
    report(3, ok, "100 configs, every partial checked, worst rel err %.2e "
           "in %.1fs" % (worst, elapsed))


def test_criterion_4_generalisation(corpus):
    _, _, policy = corpus
    succ = total = 0
    for n in range(1, 11):
        for ep in range(10):
            env = make_env(EnvConfig("blocks", n, seed=9000 + 100 * n + ep))
            r = run_episode(env, Executor(strategy="bison", hl_policy=policy,
                                          ll_mode="oracle"))
            succ += int(r.success)
            total += 1
    rate = succ / total
    report(4, rate >= 0.95, "success %d/%d = %.2f over n in 1..10" %
           (succ, total, rate))


def test_criterion_5_uncertainty_ordering(corpus):
    _, _, policy = corpus
    # teleport probability chosen so the single-plan baselines break in a
    # sizable fraction of 3-block episodes while replanning recovers
    counts = {s: 0 for s in ("det_plan", "det_replan", "ndt_plan", "bison")}
    for seed in range(50):
        for strat in counts:
            env = make_env(EnvConfig("blocks-noisy", 3, seed=3000 + seed,
                                     teleport_prob=0.004))
            ex = Executor(strategy=strat,
                          hl_policy=policy if strat == "bison" else None)
            counts[strat] += int(run_episode(env, ex).success)
    ok = counts["det_replan"] > counts["det_plan"] and \
        counts["bison"] > counts["ndt_plan"]
    report(5, ok, "det_replan %d > det_plan %d; bison %d > ndt_plan %d "
           "(50 paired seeds)" % (counts["det_replan"], counts["det_plan"],
                                  counts["bison"], counts["ndt_plan"]))


def test_criterion_6_open_world_gacha():
    planner_ok = True
    for strat in ("det_plan", "det_replan", "ndt_plan", "ndt_replan"):
        for seed in (0, 1, 2):
            for n in (1, 2):
                env = make_env(EnvConfig("gacha", n, seed=seed))
                r = run_episode(env, Executor(strategy=strat))
                planner_ok = planner_ok and not r.success and \
                    r.failure_kind in ("no_hl_action", "plan_broken")
    succ = total = 0
    for n in (1, 2):
        for ep in range(15):
            env = make_env(EnvConfig("gacha", n, seed=500 + ep))
            r = run_episode(env, Executor(strategy="bison", ll_mode="oracle"))
            succ += int(r.success)
            total += 1
    ok = planner_ok and succ > 0
    report(6, ok, "planners fail closed-world; rule policy %d/%d" % (succ, total))


def test_criterion_7_soundness_suites(corpus, blocks_demos, blocks_policy,
                                      blocks_domain):
    suites = [
        ("regression-soundness", props.test_regression_soundness, ()),
        ("lifting-round-trip", props.test_lifting_round_trip, ()),
        ("renaming-equivariance", props.test_renaming_equivariance_and_frame, ()),
        ("match-vs-bruteforce", props.test_match_agrees_with_bruteforce, ()),
        ("ndrp-oracle-demos", props.test_ndrp_on_oracle_demos,
         (blocks_demos, blocks_domain, blocks_policy)),
        ("domain-round-trip", props.test_domain_round_trip_property, ()),
        ("policy-round-trip", props.test_policy_round_trip_property, ()),
        ("traces-round-trip", props.test_traces_round_trip_property, ()),
    ]
    failures = []
    for name, fn, args in suites:
        try:
            fn(*args)
        except AssertionError as e:
            failures.append("%s: %s" % (name, e))
    report(7, not failures, "8 property suites x >=200 cases"
           + ("; failures: " + "; ".join(failures) if failures else ""))


def _cli(args):
    return subprocess.run([sys.executable, "-m", "bison.cli"] + args,
                          capture_output=True, text=True)


def test_criterion_8_cli_determinism(tmp_path):
    d = tmp_path
    jobs = [
        (["gen-demos", "--env", "blocks", "--objects", "2", "--count", "4",
          "--seed", "7"], "demos.bst", None),
        (["learn-hl", "--env", "blocks", "--traces", str(d / "demos.bst.1")],
         "pol.bsp", None),
        (["train-ll", "--env", "blocks", "--traces", str(d / "demos.bst.1"),
          "--iterations", "2", "--seed", "7"], "p.bsw", None),
        (["eval", "--env", "blocks", "--strategy", "det_replan", "--objects",
          "1..2", "--episodes", "1", "--seeds", "1", "--seed", "7"],
         "eval.csv", None),
        # bench-hl's purpose is timing; its two wall-clock columns are the
        # documented exception to byte-identity (see the decisions ledger)
        (["bench-hl", "--policy", str(d / "pol.bsp.1"), "--n-list", "3",
          "--timeout", "30", "--seed", "7"], "bench.csv", (4, 5)),
    ]
    all_ok = True
    for args, out_name, masked_cols in jobs:
        blobs = []
        for run in (1, 2):
            out = d / ("%s.%d" % (out_name, run))
            r = _cli(args + ["--out", str(out)])
            assert r.returncode == 0, (args, r.stderr)
            data = out.read_bytes()
            if masked_cols is not None:
                rows = [line.split(",") for line in data.decode().splitlines()]
                for row in rows[1:]:
                    for c in masked_cols:
                        row[c] = "*"
                data = "\n".join(",".join(r_) for r_ in rows).encode()
            blobs.append(data)
        all_ok = all_ok and blobs[0] == blobs[1]
    # `check` writes diagnostics to stdout: compare those bytes
    outs = [_cli(["check", "--env", "blocks", "--policy", str(d / "pol.bsp.1"),
                  "--traces", str(d / "demos.bst.1")]).stdout for _ in (1, 2)]
    all_ok = all_ok and outs[0] == outs[1]
    report(8, all_ok, "byte-identical outputs for fixed seeds across reruns")


def test_criterion_9_gnn_cloning(corpus, trained):
    _, _, policy = corpus
    losses = trained.losses
    ratio = losses[-1] / losses[0]
    loss_ok = ratio < 0.25
    gnn = stub = 0
    pairs = 0
    for n in range(1, 6):
        for ep in range(2):
            seed = 2000 + 10 * n + ep
            env = make_env(EnvConfig("blocks", n, seed=seed))
            gnn += int(run_episode(env, Executor(
                strategy="bison", hl_policy=policy, ll_mode="gnn",
                gnn_params=trained.params)).success)
            env = make_env(EnvConfig("blocks", n, seed=seed))
            stub += int(run_episode(env, Executor(
                strategy="pure_nn_stub", hl_policy=policy,
                gnn_params=trained.params)).success)
            pairs += 1
    ok = loss_ok and gnn > stub
    report(9, ok, "MSE ratio %.3f < 0.25; GNN %d/%d > action-blind stub %d/%d"
           % (ratio, gnn, pairs, stub, pairs))
