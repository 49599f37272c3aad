"""Regenerate the benchmark's frozen inputs in perfbench/fixtures/.

    python3 perfbench/make_fixtures.py

Runs the README quickstart training path (200 oracle demos of blocks n=3 with
seed 5, learn-hl, train-ll with the default TrainConfig) to write policy.bsp
and params.bsw, then records in expected.json their sha256 digests and the
(success, ll_steps, replans) row of every episode in the eval-bilevel and
plan-replan pools.  The benchmark refuses to run when a digest does not match
and fails when an episode's row differs from the recorded one.  Takes a few
minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bison import envs, formats, gnn, learn  # noqa: E402
from bison.envs import ACTION_DIM, EGO_DIM, EnvConfig, env_domain, obj_dim  # noqa: E402
from bison.gnn import EncodingSpec, TrainConfig  # noqa: E402

import workloads  # noqa: E402
from workloads import FIXTURES, cli_episode, episode_row, sha256  # noqa: E402


def main():
    FIXTURES.mkdir(exist_ok=True)
    domain = env_domain("blocks")
    demos = envs.generate_demos(EnvConfig("blocks", n_objects=3, seed=workloads.CORPUS_SEED),
                                workloads.CORPUS_DEMOS)
    bst = formats.serialize_traces(demos)
    policy = learn.learn_hl_policy(formats.parse_traces(bst), domain,
                                   envs.make_labeller("blocks"), subgoal_cap=256)
    (FIXTURES / "policy.bsp").write_text(formats.serialize_policy(policy),
                                         encoding="utf-8", newline="\n")
    spec = EncodingSpec.for_domain(domain, EGO_DIM, obj_dim("blocks"), ACTION_DIM)
    samples = gnn.build_dataset(formats.parse_traces(bst), domain,
                                envs.make_labeller("blocks"), spec)
    gnn.save_params(gnn.train(samples, spec, TrainConfig(seed=0)).params,
                    str(FIXTURES / "params.bsw"))
    print("wrote policy.bsp and params.bsw", flush=True)

    # record rows from the files as the benchmark loads them
    policy = formats.parse_policy((FIXTURES / "policy.bsp").read_text(encoding="utf-8"),
                                  domain)
    params = gnn.load_params(str(FIXTURES / "params.bsw"))
    rows = {}
    for wl in (workloads.EvalBilevel(), workloads.PlanReplan()):
        rows[wl.name] = {}
        for _, entries in wl.groups(policy, params):
            for key, args in entries:
                rows[wl.name][key] = episode_row(cli_episode(*args))
                print(wl.name, key, rows[wl.name][key], flush=True)
    expected = {
        "sha256": {name: sha256((FIXTURES / name).read_bytes())
                   for name in ("policy.bsp", "params.bsw")},
        "rows": rows,
    }
    (FIXTURES / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True)
                                            + "\n", encoding="utf-8")
    print("wrote expected.json")


if __name__ == "__main__":
    main()
