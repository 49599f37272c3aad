"""The four benchmark workloads: frozen fixtures, closed-loop cycles, output checks.

Every workload is a closed loop with one caller: a cycle issues its calls one
after another, each waiting for the previous one, and the runner repeats
cycles until the measuring time is spent.  A cycle's inputs depend only on the
workload seed and the cycle index, so the traced run can replay a cycle with
identical inputs.  The library is driven through its public functions the way
the ``bison`` CLI drives them with ``--jobs 1``; calls go through the module
objects so that the traced run's wrappers see them.

Operations are timed on the process's CPU clock (``clock``).  The loop is one
thread that never waits for I/O, so on an unshared core its CPU time is its
wall time; on a shared host the guest kernel leaves out of it the time the
host gave the core to other machines (steal), which wall time counts.

A shared host also changes the speed of the core itself, by 20 % and more
within seconds, as its other tenants come and go.  So a fixed reference
computation runs between operations (``Pace``), and every time an operation
reports is scaled to a core on which the reference takes ``REF_NOMINAL_S``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time as clock, process_time_ns as clock_ns

import numpy as np

from bison import envs, formats, gnn, learn, rules, runner
from bison.bench import gen_blocks_hl_problem
from bison.envs import ACTION_DIM, EGO_DIM, EnvConfig, env_domain, episode_seed, \
    obj_dim
from bison.gnn import EncodingSpec, TrainConfig
from bison.learn import LearnReport
from bison.runner import Executor

FIXTURES = Path(__file__).resolve().parent / "fixtures"
EXPECTED = FIXTURES / "expected.json"

# the README quickstart corpus and eval sweep, which the fixtures are made from
CORPUS_SEED, CORPUS_DEMOS = 5, 200
EVAL_N = tuple(range(1, 11))
EVAL_SEEDS, EVAL_EPISODES = 3, 10
# plan-replan: both replanning baselines on the two dynamic blocks variants
PLAN_KINDS = ("factory", "blocks-noisy")
PLAN_STRATEGIES = ("det_replan", "ndt_replan")
PLAN_N = (5, 6, 7, 8)
PLAN_EPISODES = 10
# train-blocks runs the quickstart pipeline at a tenth of its size, so that a
# run holds several pipelines
TRAIN_DEMOS, TRAIN_ITERATIONS = 20, 20
HL_SIZES = (1000, 10000)
# the reference computation's CPU time on a quiet core of an Intel Xeon
# (2 vCPUs, Python 3.11, numpy 2.4)
REF_NOMINAL_S = 0.005
# hl-scale runs the reference computation every this many rule selections: a
# 10k-block solve takes seconds, over which the core's speed changes
HL_PACE_EVERY = 500
# per-layer figures a workload measures in its untraced cycles (Cycle.layer)
LAYER_KEYS = ("stage.gen_demos_s", "stage.learn_hl_s", "stage.train_ll_s") \
    + tuple("rules.solve_hl_us_per_step.n%d" % n for n in HL_SIZES)


class FixtureError(Exception):
    """A frozen input is missing or does not match its recorded digest."""


@dataclass
class Fixtures:
    policy: object     # HLPolicy parsed from fixtures/policy.bsp
    params: object     # GnnParams loaded from fixtures/params.bsw
    expected: dict     # fixtures/expected.json


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_fixtures() -> Fixtures:
    """Load the frozen policy and parameters after checking their digests."""
    try:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        blobs = {name: (FIXTURES / name).read_bytes() for name in expected["sha256"]}
    except (OSError, ValueError, KeyError) as e:
        raise FixtureError("cannot read fixtures: %s" % e) from e
    for name, digest in expected["sha256"].items():
        if sha256(blobs[name]) != digest:
            raise FixtureError("%s does not match its recorded sha256; regenerate "
                               "the fixtures with perfbench/make_fixtures.py" % name)
    policy = formats.parse_policy(blobs["policy.bsp"].decode("utf-8"),
                                  env_domain("blocks"))
    params = gnn.load_params(str(FIXTURES / "params.bsw"))
    return Fixtures(policy, params, expected)


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

def reference_s() -> float:
    """CPU seconds of a fixed computation like the program's: dict updates in
    Python and products of small numpy matrices.

    The collector is off while it runs, so that its time does not depend on
    the objects the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        d = {}
        for i in range(20000):
            k = i % 1297
            d[k] = d.get(k, 0) + i
        a = np.arange(64.0).reshape(8, 8) / 64
        for _ in range(300):
            a = np.tanh(a @ a.T)
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Speed factors of the core, from reference computations between operations.

    Each reference time is the median of three runs, which keeps one run that
    a pause of the host lengthened from setting the factor.
    """

    def __init__(self):
        reference_s()  # the first one also pays for numpy's first calls
        self.times = [self.reference_s()]

    @staticmethod
    def reference_s() -> float:
        return sorted(reference_s() for _ in range(3))[1]

    def factor(self, inner=()) -> float:
        """REF_NOMINAL_S over the median of the reference times just before
        and just after the operation that ended now, and of those ``inner``
        taken during it: multiply the operation's times by it."""
        self.times.append(self.reference_s())
        return REF_NOMINAL_S / statistics.median([self.times[-2], self.times[-1], *inner])


# ---------------------------------------------------------------------------
# Clock stamps taken by thin proxies around what the program calls
# ---------------------------------------------------------------------------

class StampedEnv:
    """Env proxy that stamps the clock at every step call.

    The gaps between consecutive step calls are the control-loop decision
    latencies: simulator step, label, HL selection (or a replan) and LL query.
    """

    def __init__(self, env, stamps: list):
        self._env = env
        self._stamps = stamps

    def __getattr__(self, name):
        return getattr(self._env, name)

    def step(self, action):
        self._stamps.append(clock_ns())
        return self._env.step(action)


class StampedPolicy:
    """HL policy proxy that stamps the clock each time a selection reads the rules.

    With ``pace_every`` it also runs the reference computation every that many
    reads, keeping its times in ``ref_times``.  The time the references take
    is left out of the stamps and summed in ``ref_ns``.
    """

    def __init__(self, policy, stamps: list, pace_every: int = 0):
        self._policy = policy
        self._stamps = stamps
        self._pace_every = pace_every
        self.domain = policy.domain
        self.dead = policy.dead
        self.ref_times = []
        self.ref_ns = 0

    @property
    def rules(self):
        now = clock_ns()
        self._stamps.append(now - self.ref_ns)
        if self._pace_every and len(self._stamps) % self._pace_every == 0:
            self.ref_times.append(reference_s())
            self.ref_ns += clock_ns() - now
        return self._policy.rules


def gaps_ns(stamps: list, factor: float) -> list:
    return [(b - a) * factor for a, b in zip(stamps, stamps[1:])]


@dataclass
class Op:
    """One closed-loop operation: an episode, a solve or a whole pipeline.

    Times are scaled by the Pace factor; ``cpu_s`` is the operation's CPU time
    as measured.
    """

    group: str                 # operations of one group have the same shape
    seconds: float
    cpu_s: float
    work: int = 1              # steps the operation takes, fixed by its inputs
    nominal: float = 1.0       # mean work over the group's whole pool
    decisions: int = 0
    decision_s: float = 0.0    # time those decisions took
    gaps_ns: list = field(default_factory=list)  # decision latencies
    reached: int = 0           # episodes or solves that reached the goal
    tried: int = 0             # episodes or solves attempted
    error: str = ""            # why the output check failed


@dataclass
class Cycle:
    """What one cycle did, measured without tracing."""

    ops: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)  # untraced per-layer figures
    raised: str = ""           # traceback when the cycle raised


def cli_episode(kind, strategy, n, seed, ep, policy=None, params=None, ll="oracle",
                stamps=None):
    """One episode built as ``bison eval`` builds it (see cli._eval_one)."""
    env = envs.make_env(EnvConfig(kind=kind, n_objects=n, seed=episode_seed(seed, ep)))
    if stamps is not None:
        env = StampedEnv(env, stamps)
    executor = Executor(strategy=strategy, hl_policy=policy, gnn_params=params,
                        ll_mode=ll)
    return runner.run_episode(env, executor)


def episode_row(result) -> list:
    return [int(result.success), result.ll_steps, result.replans]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self):
        self.pace = Pace()
        self.traced = False    # set by the runner while a traced replay runs

    def setup(self, seed: int):
        """Load fixtures and make instances; may be repeated, the last one is used."""
        self.seed = seed
        self.fx = load_fixtures()

    def cycle(self, k: int) -> Cycle:
        raise NotImplementedError


class TrainBlocks(Workload):
    """gen-demos -> .bst round trip -> learn-hl -> train-ll on blocks n=3."""

    name = "train-blocks"

    def cycle(self, k):
        domain = env_domain("blocks")
        made = []
        make_env = envs.make_env

        def stamped_make_env(config):
            stamps = []
            made.append(stamps)
            return StampedEnv(make_env(config), stamps)

        # generate_demos builds its envs through envs.make_env; the proxy only
        # stamps the clock
        envs.make_env = stamped_make_env
        t0 = clock()
        try:
            demos = envs.generate_demos(
                EnvConfig("blocks", n_objects=3, seed=self.seed * 1000 + k), TRAIN_DEMOS)
        finally:
            envs.make_env = make_env
        demos_s = clock() - t0
        f_demos = self.pace.factor()
        t0 = clock()
        bst = formats.serialize_traces(demos)
        serialize_s = clock() - t0
        policy = learn.learn_hl_policy(formats.parse_traces(bst), domain,
                                       envs.make_labeller("blocks"), subgoal_cap=256,
                                       report=LearnReport())
        bsp = formats.serialize_policy(policy)
        learn_s = clock() - t0 - serialize_s
        f_learn = self.pace.factor()
        t0 = clock()
        spec = EncodingSpec.for_domain(domain, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
        samples = gnn.build_dataset(formats.parse_traces(bst), domain,
                                    envs.make_labeller("blocks"), spec)
        result = gnn.train(samples, spec, TrainConfig(iterations=TRAIN_ITERATIONS, seed=0))
        train_s = clock() - t0
        f_train = self.pace.factor()

        errors = []
        if len(demos) != TRAIN_DEMOS:
            errors.append("%d/%d demos reached the goal" % (len(demos), TRAIN_DEMOS))
        if sha256(bsp.encode("utf-8")) != self.fx.expected["sha256"]["policy.bsp"]:
            errors.append("learned policy differs from the frozen one")
        if len(result.losses) != TRAIN_ITERATIONS \
                or not all(math.isfinite(x) for x in result.losses):
            errors.append("training losses missing or not finite")
        op = Op("pipeline", demos_s * f_demos + (serialize_s + learn_s) * f_learn
                + train_s * f_train, demos_s + serialize_s + learn_s + train_s,
                decision_s=demos_s * f_demos, reached=len(demos), tried=len(made),
                error="; ".join(errors))
        for stamps in made:
            op.gaps_ns += gaps_ns(stamps, f_demos)
            op.decisions += len(stamps)
        return Cycle([op], {"stage.gen_demos_s": demos_s + serialize_s,
                            "stage.learn_hl_s": learn_s, "stage.train_ll_s": train_s})


class EpisodeWorkload(Workload):
    """CLI-built episodes whose rows must match the recorded ones.

    The recorded pool is split into groups of one shape (size, kind,
    strategy); a cycle runs one episode of each group, so every cycle has the
    same mix of shapes.  Cycle k takes the k-th episode of the group's order:
    a seeded shuffle of the pool in which the recorded failures are spread
    evenly, so that any run of cycles meets them at the pool's rate.  An
    episode's work is its recorded LL step count, and a group's nominal work
    the mean over its pool, step-capped failures included.
    """

    def groups(self, policy, params) -> list:
        """(group name, [(row key, cli_episode arguments)]) covering the pool."""
        raise NotImplementedError

    def setup(self, seed):
        super().setup(seed)
        self.pool = self.groups(self.fx.policy, self.fx.params)
        recorded = self.fx.expected["rows"][self.name]
        self.nominal = {group: sum(recorded[key][1] for key, _ in entries) / len(entries)
                        for group, entries in self.pool}
        rng = random.Random("%s:%d" % (self.name, seed))
        self.order = {}
        for group, entries in self.pool:
            failed = [e for e in entries if not recorded[e[0]][0]]
            passed = [e for e in entries if recorded[e[0]][0]]
            rng.shuffle(failed)
            rng.shuffle(passed)
            n, f, order = len(entries), len(failed), []
            for i in range(n):  # a failure wherever i * f / n passes a whole number
                order.append((failed if (i + 1) * f // n > i * f // n else passed).pop())
            start = rng.randrange(n)
            self.order[group] = order[start:] + order[:start]

    def cycle(self, k):
        c = Cycle()
        recorded = self.fx.expected["rows"][self.name]
        for group, order in self.order.items():
            key, args = order[k % len(order)]
            stamps = []
            t0 = clock()
            res = cli_episode(*args, stamps=stamps)
            dt = clock() - t0
            f = self.pace.factor()
            row = episode_row(res)
            c.ops.append(Op(group, dt * f, dt, max(recorded[key][1], 1), self.nominal[group],
                            res.ll_steps, dt * f, gaps_ns(stamps, f), int(res.success), 1,
                            "" if row == recorded[key] else
                            "%s: (success, ll_steps, replans) %s, recorded %s"
                            % (key, row, recorded[key])))
        return c


class EvalBilevel(EpisodeWorkload):
    """The quickstart eval: learned rules + GNN LL, one group per n in 1..10."""

    name = "eval-bilevel"

    def groups(self, policy, params):
        return [("n=%d" % n,
                 [("%d,%d,%d" % (n, seed, ep),
                   ("blocks", "bison", n, seed, ep, policy, params, "gnn"))
                  for seed in range(EVAL_SEEDS) for ep in range(EVAL_EPISODES)])
                for n in EVAL_N]


class PlanReplan(EpisodeWorkload):
    """Replanning baselines with oracle skills on factory and blocks-noisy."""

    name = "plan-replan"

    def groups(self, policy, params):
        return [("%s,%s,n=%d" % (kind, strategy, n),
                 [("%s,%s,%d,%d" % (kind, strategy, n, ep), (kind, strategy, n, 0, ep))
                  for ep in range(PLAN_EPISODES)])
                for kind in PLAN_KINDS for strategy in PLAN_STRATEGIES for n in PLAN_N]


class HlScale(Workload):
    """HL-only solve_hl with the frozen policy on 1k- and 10k-block instances."""

    name = "hl-scale"

    def setup(self, seed):
        super().setup(seed)
        self.problems = {n: gen_blocks_hl_problem(n, seed) for n in HL_SIZES}

    def cycle(self, k):
        c = Cycle()
        for n, problem in self.problems.items():
            stamps = []
            # no references inside a traced solve: its spans would hold them
            policy = StampedPolicy(self.fx.policy, stamps,
                                   0 if self.traced else HL_PACE_EVERY)
            t0 = clock()
            res = rules.solve_hl(policy, problem, step_cap=8 * n + 64)
            dt = clock() - t0 - policy.ref_ns / 1e9
            f = self.pace.factor(policy.ref_times)
            op = Op("n%d" % n, dt * f, dt, 2 * n, 2 * n, reached=int(res.solved), tried=1)
            if not res.solved or res.steps != 2 * n:
                op.error = ("n=%d: status %s in %d steps, expected solved in %d"
                            % (n, res.status, res.steps, 2 * n))
            if n == HL_SIZES[-1]:  # decisions are counted at the largest size
                op.decisions, op.decision_s, op.gaps_ns = res.steps, dt * f, gaps_ns(stamps, f)
            c.ops.append(op)
            c.layer["rules.solve_hl_us_per_step.n%d" % n] = dt / max(res.steps, 1) * 1e6
        return c


WORKLOADS = {w.name: w for w in (TrainBlocks, EvalBilevel, HlScale, PlanReplan)}
