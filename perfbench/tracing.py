"""Spans for the traced run and the per-layer metrics derived from them.

The traced run records a span (name, start, end, parent) around the public
entry points of each ``bison`` module by swapping module and class attributes
for wrappers while a traced cycle runs; the program itself is unchanged.
Spans are kept in memory and written out when the benchmark ends.  A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from bison import envs, formats, gnn, learn, rules, runner
from bison.runner import FAILURE_KINDS
from bison.search import SearchStats

EPISODE = "runner.run_episode"


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result`` sees each return value."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            i = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(i)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out
        return traced

    def counted(self, name, fn):
        """``fn`` counting its calls without a span."""
        counts = self.counts

        def count(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return count

    def _with_stats(self, fn):
        """A search entry point that always fills a SearchStats, added to counts."""
        counts = self.counts

        def search(*args, stats=None, **kwargs):
            st = stats if stats is not None else SearchStats()
            try:
                return fn(*args, stats=st, **kwargs)
            finally:
                counts["search.expanded"] += st.expanded
                counts["search.generated"] += st.generated
        return search

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        c = self.counts

        def add(key, value=1):
            c[key] += value

        def episode_done(res):
            add("runner.ll_steps", res.ll_steps)
            add("runner.replans", res.replans)
            add("runner.failure." + res.failure_kind)

        w = self.wrap
        select = w("rules.select_action", rules.select_action,
                   lambda a: add("rules.selections", a is not None))
        return [
            (envs, "label_blocks", w("envs.label", envs.label_blocks)),
            (envs.BlocksEnv, "render", w("envs.render", envs.BlocksEnv.render)),
            (envs.BlocksEnv, "step", w("envs.step", envs.BlocksEnv.step)),
            (envs.BlocksEnv, "oracle_skill",
             w("envs.oracle_skill", envs.BlocksEnv.oracle_skill)),
            (runner, "run_episode", w(EPISODE, runner.run_episode, episode_done)),
            (runner, "select_action", select),
            (rules, "select_action", select),
            (rules.StateIndex, "__init__",
             w("rules.state_index_build", rules.StateIndex.__init__)),
            (rules, "match_rule", self.counted("rules.match_rule", rules.match_rule)),
            (rules, "canonical_rule_str",
             self.counted("learn.canonical", rules.canonical_rule_str)),
            (runner, "find_plan",
             w("search.find_plan", self._with_stats(runner.find_plan))),
            (runner, "find_policy",
             w("search.find_policy", self._with_stats(runner.find_policy))),
            (gnn, "encode", w("gnn.encode", gnn.encode)),
            (gnn, "forward", w("gnn.forward", gnn.forward)),
            (gnn, "backward", w("gnn.backward", gnn.backward)),
            (gnn, "build_dataset", w("gnn.build_dataset", gnn.build_dataset,
                                     lambda s: add("gnn.samples", len(s)))),
            (gnn, "train", w("gnn.train", gnn.train,
                             lambda r: add("gnn.iterations", len(r.losses)))),
            (learn, "learn_hl_policy", w("learn.learn_hl_policy", learn.learn_hl_policy,
                                         lambda p: add("learn.rules_kept", len(p)))),
            (learn, "extract_hl_trace", w("learn.extract_hl_trace", learn.extract_hl_trace)),
            (learn, "regress", w("learn.regress", learn.regress)),
            (learn, "lift", w("learn.lift", learn.lift)),
            (learn, "HLPolicy", w("learn.policy_build", learn.HLPolicy)),
            (formats, "serialize_traces",
             w("formats.serialize_traces", formats.serialize_traces,
               lambda text: add("formats.trace_bytes", len(text.encode("utf-8"))))),
            (formats, "parse_traces", w("formats.parse_traces", formats.parse_traces)),
        ]

    @contextmanager
    def installed(self):
        """Trace every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, replacement in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals within it."""
    kids = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            kids[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0, start
        for a, b in sorted(kids.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, cycles: int) -> dict:
    """Per-layer figures from the spans and counts of ``cycles`` traced cycles.

    ``_us``/``_ms`` figures are means per call (inclusive unless named self
    time); ``_s`` figures and counts are totals per cycle.  Labelling inside an
    episode is the env layer's; labelling of recorded demo steps (learning and
    dataset building) is the learn layer's.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    in_episode = []
    calls, incl, self_ns = Counter(), Counter(), Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        inside = name == EPISODE or (parent >= 0 and in_episode[parent])
        in_episode.append(inside)
        if name == "envs.label" and not inside:
            name = "learn.label"
        calls[name] += 1
        incl[name] += end - start
        self_ns[name] += selfs[i]
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_us(name, own=False):
        return ratio((self_ns if own else incl)[name], calls[name]) / 1e3

    def per_cycle_s(name, own=False):
        return (self_ns if own else incl)[name] / 1e9 / cycles

    def per_cycle(n):
        return n / cycles

    m = {}
    for layer in ("envs.label", "envs.render", "envs.step", "envs.oracle_skill"):
        m[layer + "_us"] = mean_us(layer, own=layer == "envs.step")
        m[layer + "_calls"] = per_cycle(calls[layer])
    m.update({
        "rules.select_action_us": mean_us("rules.select_action"),
        "rules.state_index_build_us": mean_us("rules.state_index_build"),
        "rules.state_index_builds": per_cycle(calls["rules.state_index_build"]),
        "rules.match_rules_per_select": ratio(c["rules.match_rule"], c["rules.selections"]),
        "gnn.backward_us_per_sample": mean_us("gnn.backward"),
        "gnn.adam_us_per_iter": ratio(self_ns["gnn.train"], c["gnn.iterations"]) / 1e3,
        "gnn.encode_us": mean_us("gnn.encode"),
        "gnn.forward_us": mean_us("gnn.forward"),
        "gnn.samples": per_cycle(c["gnn.samples"]),
        "learn.label_s": per_cycle_s("learn.label"),
        "learn.explain_s": per_cycle_s("learn.extract_hl_trace", own=True),
        "learn.regress_s": per_cycle_s("learn.regress"),
        "learn.lift_s": per_cycle_s("learn.lift"),
        "learn.policy_build_s": per_cycle_s("learn.policy_build"),
        "learn.canonical_calls": per_cycle(c["learn.canonical"]),
        "learn.rules_lifted": per_cycle(calls["learn.lift"]),
        "learn.rules_kept": per_cycle(c["learn.rules_kept"]),
        "search.find_plan_ms": mean_us("search.find_plan") / 1e3,
        "search.find_policy_ms": mean_us("search.find_policy") / 1e3,
        "search.expanded": per_cycle(c["search.expanded"]),
        "search.generated": per_cycle(c["search.generated"]),
        "formats.serialize_traces_s": per_cycle_s("formats.serialize_traces"),
        "formats.parse_traces_s": per_cycle_s("formats.parse_traces"),
        "formats.trace_bytes": per_cycle(c["formats.trace_bytes"]),
        "runner.loop_self_us": ratio(self_ns[EPISODE], c["runner.ll_steps"]) / 1e3,
        "runner.replans": per_cycle(c["runner.replans"]),
    })
    for kind in FAILURE_KINDS[1:]:
        m["runner.failure." + kind] = per_cycle(c["runner.failure." + kind])
    return m
