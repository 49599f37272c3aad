"""Self-time arithmetic of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracing.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracing import EPISODE, Tracer, layer_metrics, self_times  # noqa: E402

# root [0, 100) holds a [10, 30) and b [30, 50) back to back, then c [60, 70);
# a holds a1 [12, 20) and a2 [20, 25); a1 holds a11 [14, 16)
SPANS = [
    ["root", 0, 100, -1],
    ["a", 10, 30, 0],
    ["a1", 12, 20, 1],
    ["a11", 14, 16, 2],
    ["a2", 20, 25, 1],
    ["b", 30, 50, 0],
    ["c", 60, 70, 0],
]


def test_self_time_nested_and_back_to_back():
    assert self_times(SPANS) == [100 - 20 - 20 - 10, 20 - 8 - 5, 8 - 2, 2, 5, 20, 10]


def test_self_time_is_never_negative_and_sums_to_root():
    selfs = self_times(SPANS)
    assert min(selfs) >= 0
    assert sum(selfs) == 100  # the tree tiles the root's interval exactly once


def test_self_time_clips_children_to_the_parent():
    spans = [["p", 10, 20, -1], ["k", 5, 15, 0], ["k2", 15, 25, 0]]
    assert self_times(spans)[0] == 0


def test_label_spans_attributed_by_context():
    tracer = Tracer()
    tracer.spans = [
        [EPISODE, 0, 1000, -1],
        ["envs.label", 100, 300, 0],      # live env state: envs layer
        ["learn.extract_hl_trace", 2000, 5000, -1],
        ["envs.label", 2500, 3500, 2],    # recorded demo step: learn layer
    ]
    tracer.counts["runner.ll_steps"] = 4
    m = layer_metrics(tracer, cycles=1)
    assert m["envs.label_us"] == 0.2 and m["envs.label_calls"] == 1
    assert m["learn.label_s"] == 1e-6
    assert m["learn.explain_s"] == 2e-6
    assert m["runner.loop_self_us"] == 0.2  # (1000 - 200) ns over 4 steps


def test_wrap_records_parent_and_restores_attributes():
    import bison.gnn as gnn
    original = gnn.encode
    tracer = Tracer()
    with tracer.installed():
        assert gnn.encode is not original
        outer = tracer.wrap("outer", lambda: tracer.wrap("inner", lambda: 7)())
        assert outer() == 7
    assert gnn.encode is original
    (n0, s0, e0, p0), (n1, s1, e1, p1) = tracer.spans
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0
