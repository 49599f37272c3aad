"""HL-only scalability benchmark: policy execution vs. internal plan search.

Generates pure HL Blocks instances (n blocks, n+1 pads, bijective goal over a
random pad subset), times ``solve_hl`` on them, and optionally runs the
internal search baseline under the same wall-clock timeout.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional

from .core import HLProblem, ObjectTable
from .envs import env_domain
from .rules import HLPolicy, solve_hl
from .search import SearchStats, find_plan


def gen_blocks_hl_problem(n: int, seed: int) -> HLProblem:
    """n blocks scattered off-pad (all clear), n+1 pads, random goal bijection."""
    domain = env_domain("blocks")
    rng = random.Random(seed)
    blocks = ["b%d" % i for i in range(n)]
    pads = ["p%d" % i for i in range(n + 1)]
    table = ObjectTable(blocks + pads)
    init = set()
    init.add(domain.ground_fact("gripperFree", (), table))
    for name in blocks + pads:
        init.add(domain.ground_fact("clear", (name,), table))
    pad_perm = list(range(n + 1))
    rng.shuffle(pad_perm)
    goal = frozenset(domain.ground_fact("at", (blocks[i], pads[pad_perm[i]]), table)
                     for i in range(n))
    return HLProblem(domain, table, frozenset(init), goal)


@dataclass
class BenchRow:
    n: int
    method: str  # "policy" | "internal-baseline"
    solved: bool
    hl_steps: int
    seconds: float
    setup_seconds: float
    search: Optional[SearchStats] = None  # the baseline's; not in the CSV


def bench_hl(policy: HLPolicy, n_list: Iterable[int], timeout: float,
             seed: int = 0, baseline_max_n: Optional[int] = None) -> List[BenchRow]:
    """Wall clock measured around solving only; setup reported separately.

    The search baseline runs at every n up to ``baseline_max_n`` (every n when
    None, none when 0).
    """
    rows = []
    for n in n_list:
        t0 = time.perf_counter()
        problem = gen_blocks_hl_problem(n, seed)
        setup = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = solve_hl(policy, problem, step_cap=8 * n + 64, deadline=t0 + timeout)
        secs = time.perf_counter() - t0
        solved = res.solved and secs <= timeout
        rows.append(BenchRow(n, "policy", solved, res.steps, secs, setup))
        if baseline_max_n is None or n <= baseline_max_n:
            stats = SearchStats()
            t0 = time.perf_counter()
            plan = find_plan(problem, deadline=t0 + timeout, stats=stats)
            secs = time.perf_counter() - t0
            rows.append(BenchRow(n, "internal-baseline", plan is not None,
                                 len(plan.actions) if plan else 0, secs, setup,
                                 stats))
    return rows


BENCH_CSV_HEADER = "n,method,solved,hl_steps,seconds,setup_seconds"


def bench_rows_csv(rows: Iterable[BenchRow]) -> str:
    out = [BENCH_CSV_HEADER]
    for r in rows:
        out.append("%d,%s,%d,%d,%.6f,%.6f" % (r.n, r.method, int(r.solved),
                                              r.hl_steps, r.seconds, r.setup_seconds))
    return "\n".join(out) + "\n"
