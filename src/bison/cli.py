"""Command-line harness: demo generation, learning, training, evaluation.

Subcommands: gen-demos, learn-hl, train-ll, eval, bench-hl, check.
learn-hl, train-ll and check use the --env's built-in domain, the vocabulary
its labelling is bound to.  bench-hl runs the search baseline up to
--baseline-max-n objects (all sizes by default, none with 0).
Exit codes: 0 ok, 1 usage, 2 data error, 3 internal error.  Log level via the
BISON_LOG environment variable.  Fixed seeds give byte-identical outputs; the
eval wall_time column is zeroed unless --timing wall is passed (measured times
always go to the log).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import statistics
import sys

from .bench import bench_hl, bench_rows_csv
from .core import BisonError
from .envs import (ENV_KINDS, EGO_DIM, ACTION_DIM, EnvConfig, builtin_policy,
                   env_domain, episode_seed, generate_demos, make_env,
                   make_labeller, max_objects, obj_dim)
from .formats import ParseError, parse_policy, parse_traces, serialize_policy, \
    serialize_traces
from .gnn import EncodingSpec, TrainConfig, build_dataset, load_params, \
    save_params, train
from .learn import AbstractionGapError, LearnReport, extract_hl_trace, \
    learn_hl_policy
from .rules import check_ndrp, unconstrained_vars
from .runner import LL_MODES, STRATEGIES, Executor, run_episode

log = logging.getLogger("bison")

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL = 0, 1, 2, 3

EVAL_CSV_HEADER = "strategy,env,n,episode,seed,success,steps,replans,wall_time"
SUMMARY_CSV_HEADER = "strategy,env,success_mean,success_std"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _read(path):
    """UTF-8 text, newlines translated as text mode does; other bytes are a data error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise BisonError("%s: not UTF-8 text at byte %d" % (path, e.start)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_traces(args):
    """The --traces demos, every vector's width checked against --env's layout."""
    demos = parse_traces(_read(args.traces))
    width = obj_dim(args.env)
    for k, demo in enumerate(demos):
        if any(len(s.ego) != EGO_DIM or len(s.action) != ACTION_DIM
               or any(len(vec) != width for vec in s.objects.values()) for s in demo.steps):
            raise BisonError("%s: demo %d does not fit --env %s (ego/object/action "
                             "widths %d/%d/%d)"
                             % (args.traces, k, args.env, EGO_DIM, width, ACTION_DIM))
    return demos


def _encoding_spec(kind):
    return EncodingSpec.for_domain(env_domain(kind), EGO_DIM, obj_dim(kind), ACTION_DIM)


def _load_policy_arg(arg, kind):
    if arg in (None, "builtin"):
        return builtin_policy(kind)
    return parse_policy(_read(arg), env_domain(kind))


def _at_least(args, **lows):
    """A count or seed below its least meaningful value is a data error."""
    for name, low in lows.items():
        value = getattr(args, name)
        if value < low:
            raise BisonError("--%s must be at least %d, got %d"
                             % (name.replace("_", "-"), low, value))


# -- subcommands -------------------------------------------------------------

def cmd_gen_demos(args):
    _at_least(args, count=0, seed=0)
    cfg = EnvConfig(kind=args.env, n_objects=args.objects, seed=args.seed)
    demos = generate_demos(cfg, args.count)
    if len(demos) < args.count:
        log.warning("only %d/%d episodes reached the goal", len(demos), args.count)
    _write(args.out, serialize_traces(demos))
    return EXIT_OK


def cmd_learn_hl(args):
    _at_least(args, subgoal_cap=0)
    demos = _read_traces(args)
    report = LearnReport()
    policy = learn_hl_policy(demos, env_domain(args.env), make_labeller(args.env),
                             subgoal_cap=args.subgoal_cap, report=report)
    log.info("learned %d rules from %d demos (%d skipped, %d unreached goals, "
             "%d subgoals dropped by the cap)", len(policy), report.demos_used,
             report.demos_skipped, report.unreached_goals, report.subgoals_dropped)
    log.info("%d of %d written rules are statically unsatisfiable",
             sum(policy.dead), len(policy))
    if report.demos_skipped:
        log.warning("skipped %d of %d demos: an abstraction change no modelled "
                    "action explains", report.demos_skipped, len(demos))
    _write(args.out, serialize_policy(policy))
    return EXIT_OK


def cmd_train_ll(args):
    _at_least(args, seed=0)
    demos = _read_traces(args)
    spec = _encoding_spec(args.env)
    config = TrainConfig(iterations=args.iterations, seed=args.seed)
    samples = build_dataset(demos, env_domain(args.env), make_labeller(args.env), spec)
    if not samples:
        raise BisonError("no trainable samples in %s" % args.traces)
    result = train(samples, spec, config)
    log.info("training MSE: first %.6f last %.6f over %d iterations",
             result.losses[0] if result.losses else float("nan"),
             result.losses[-1] if result.losses else float("nan"),
             len(result.losses))
    save_params(result.params, args.out)
    return EXIT_OK


def _parse_range(spec: str):
    """Object counts from "3", "1..10" or "2,4,8"; each count at least 1."""
    try:
        if ".." in spec:
            a, b = spec.split("..", 1)
            ns = list(range(int(a), int(b) + 1))
        else:
            ns = [int(x) for x in spec.split(",") if x]
    except ValueError:
        raise BisonError("bad range %r: expected N, A..B or N,M,..." % spec) from None
    if not ns:
        raise BisonError("range %r is empty" % spec)
    if min(ns) < 1:
        raise BisonError("range %r has a count below 1" % spec)
    return ns


def cmd_eval(args):
    # --summary reports over seeds, so it needs at least one
    _at_least(args, episodes=0, seeds=1, jobs=1, seed=0)
    policy = None
    if args.strategy in ("bison", "pure_nn_stub"):
        policy = _load_policy_arg(args.policy, args.env)
    params = load_params(args.params) if args.params else None
    if params is not None and params.spec != _encoding_spec(args.env):
        raise BisonError("%s was trained for another env: its encoding %s does not "
                         "match --env %s" % (args.params, params.spec, args.env))
    executor = Executor(strategy=args.strategy, hl_policy=policy, gnn_params=params,
                        ll_mode=args.ll)
    rows = []
    if args.objects_range is None:  # the default 1..10, within the layout's room
        limit = max_objects(args.env)
        n_list = list(range(1, (10 if limit is None else min(10, limit)) + 1))
    else:
        n_list = _parse_range(args.objects_range)
    for n in n_list:  # an n the env has no room for fails before any episode
        EnvConfig(kind=args.env, n_objects=n)
    jobs = []
    for n in n_list:
        for seed_i in range(args.seeds):
            seed = args.seed + seed_i
            for ep in range(args.episodes):
                jobs.append((n, seed, ep))
    results = _run_eval_jobs(args, jobs, executor)
    for (n, seed, ep), res in zip(jobs, results):
        wall = "%.6f" % res.wall_time if args.timing == "wall" else "0.000000"
        rows.append("%s,%s,%d,%d,%d,%d,%d,%d,%s" % (
            args.strategy, args.env, n, ep, seed, int(res.success),
            res.ll_steps, res.replans, wall))
        log.info("episode env=%s n=%d seed=%d ep=%d success=%s steps=%d %.3fs",
                 args.env, n, seed, ep, res.success, res.ll_steps, res.wall_time)
    _write(args.out, EVAL_CSV_HEADER + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    if args.summary:
        per_seed = {}
        for (n, seed, ep), res in zip(jobs, results):
            per_seed.setdefault(seed, []).append(1.0 if res.success else 0.0)
        means = [statistics.mean(v) for _, v in sorted(per_seed.items())]
        std = statistics.pstdev(means) if len(means) > 1 else 0.0
        mean = statistics.mean(means) if means else 0.0
        _write(args.summary, SUMMARY_CSV_HEADER + "\n" +
               "%s,%s,%.6f,%.6f\n" % (args.strategy, args.env, mean, std))
    return EXIT_OK


def _eval_one(packed):
    kind, n, seed, ep, executor = packed
    env = make_env(EnvConfig(kind=kind, n_objects=n, seed=episode_seed(seed, ep)))
    return run_episode(env, executor)


def _run_eval_jobs(args, jobs, executor):
    packed = [(args.env, n, seed, ep, executor) for (n, seed, ep) in jobs]
    workers = min(args.jobs, len(packed))  # no idle workers
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            return pool.map(_eval_one, packed)
    return [_eval_one(p) for p in packed]


def cmd_bench_hl(args):
    if not (math.isfinite(args.timeout) and args.timeout > 0):
        raise BisonError("--timeout must be a positive number of seconds, got %r"
                         % args.timeout)
    _at_least(args, seed=0)
    if args.baseline_max_n is not None:
        _at_least(args, baseline_max_n=0)
    policy = _load_policy_arg(args.policy, "blocks")
    n_list = _parse_range(args.n_list)
    rows = bench_hl(policy, n_list, timeout=args.timeout, seed=args.seed,
                    baseline_max_n=args.baseline_max_n)
    for r in rows:
        log.info("bench n=%d %s solved=%s steps=%d %.3fs (setup %.3fs)",
                 r.n, r.method, r.solved, r.hl_steps, r.seconds, r.setup_seconds)
    _write(args.out, bench_rows_csv(rows))
    return EXIT_OK


def cmd_check(args):
    policy = _load_policy_arg(args.policy, args.env)
    problems = 0
    for i, rule in enumerate(policy.rules):
        if policy.dead[i]:
            print("policy: rule %d is statically unsatisfiable "
                  "(shared state/goal atom)" % (i + 1))
        uv = unconstrained_vars(rule)
        if uv:
            print("policy: rule %d has %d unconstrained variable(s); each is "
                  "bound to the first object" % (i + 1, len(uv)))
    if args.traces:
        demos = _read_traces(args)
        for k, demo in enumerate(demos):
            try:
                trace = extract_hl_trace(demo, policy.domain, make_labeller(args.env))
            except AbstractionGapError as e:
                print("demo %d: abstraction gap: %s" % (k, e))
                problems += 1
                continue
            rep = check_ndrp(trace.step_states, policy, trace.goal, len(trace.table))
            if not rep.ok:
                print("demo %d: NDRP violation at step %d: %s"
                      % (k, rep.step, rep.reason))
                problems += 1
            if not trace.goal_reached:
                print("demo %d: final abstraction misses the goal" % k)
        print("checked %d demos, %d problem(s)" % (len(demos), problems))
    return EXIT_OK if problems == 0 else EXIT_DATA


def build_parser() -> _Parser:
    p = _Parser(prog="bison", description=__doc__)
    p.add_argument("--log-level", default=os.environ.get("BISON_LOG", "warning"))
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, env=True, seed=True, out=True):
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if out:
            sp.add_argument("--out", default="-")
        if env:
            sp.add_argument("--env", required=True, choices=ENV_KINDS)

    sp = sub.add_parser("gen-demos", help="record oracle demonstrations")
    common(sp)
    sp.add_argument("--objects", type=int, default=3)
    sp.add_argument("--count", type=int, default=200)
    sp.set_defaults(func=cmd_gen_demos)

    sp = sub.add_parser("learn-hl", help="learn an HL rule policy from traces")
    common(sp, seed=False)
    sp.add_argument("--traces", required=True)
    sp.add_argument("--subgoal-cap", type=int, default=256)
    sp.set_defaults(func=cmd_learn_hl)

    sp = sub.add_parser("train-ll", help="behaviour-clone the LL GNN policy")
    common(sp)
    sp.add_argument("--traces", required=True)
    sp.add_argument("--iterations", type=int, default=200)
    sp.set_defaults(func=cmd_train_ll)

    sp = sub.add_parser("eval", help="run evaluation episodes to CSV")
    common(sp)
    sp.add_argument("--strategy", required=True, choices=STRATEGIES)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--objects", dest="objects_range", default=None,
                    help="object counts, e.g. 3 or 1..10 or 2,4,8 (default: 1..10, "
                         "capped at the kind's most objects)")
    sp.add_argument("--episodes", type=int, default=10)
    sp.add_argument("--seeds", type=int, default=3)
    sp.add_argument("--ll", default="oracle", choices=LL_MODES)
    sp.add_argument("--policy", default=None,
                    help=".bsp file or 'builtin' (default: builtin)")
    sp.add_argument("--params", default=None, help=".bsw parameter file")
    sp.add_argument("--timing", default="none", choices=("none", "wall"))
    sp.add_argument("--summary", default=None)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("bench-hl", help="HL-only scalability benchmark")
    common(sp, env=False)
    sp.add_argument("--policy", default=None)
    sp.add_argument("--n-list", default="3,10,100,1000,10000")
    sp.add_argument("--timeout", type=float, default=60.0)
    sp.add_argument("--baseline-max-n", type=int, default=None,
                    help="run the search baseline only up to this n (0: never)")
    sp.set_defaults(func=cmd_bench_hl)

    sp = sub.add_parser("check", help="NDRP and policy validation diagnostics")
    common(sp, seed=False, out=False)
    sp.add_argument("--policy", default=None)
    sp.add_argument("--traces", default=None)
    sp.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ParseError,) as e:
        log.error("parse error: %s", e)
        print("error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    except (BisonError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # pragma: no cover - internal failure surface
        log.exception("internal error")
        print("internal error: %s" % e, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
