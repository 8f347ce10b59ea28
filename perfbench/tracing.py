"""In-process tracer for the curioseq benchmark.

The program's source is never edited. Instead, ``Tracer.install`` replaces
every module-level binding of the traced functions across the ``curioseq``
modules (``trainer.gradients`` is the same function object as
``kernel.gradients``, so both names get the same wrapper) and wraps
``kernel.Tensor.__init__`` to count graph nodes by ``op``. ``uninstall``
puts every original back.

Spans (name, start, end, parent) are kept in memory and written out once at
the end; self time is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass

# (module, function) pairs traced, named after the module that defines them.
TRACED = (
    ("kernel", "gradients"), ("kernel", "sgd_step"),
    ("policy", "policy_step"), ("policy", "rollout_sample"),
    ("policy", "forced_step_losses"), ("policy", "rollout_greedy"),
    ("policy", "beam_search"),
    ("curiosity", "embed_state"), ("curiosity", "sp_loss"),
    ("curiosity", "ap_loss"), ("curiosity", "intrinsic_rewards"),
    ("rewards", "scored_reward"), ("rewards", "q_closed_form"),
    ("rewards", "td_lambda_q"), ("rewards", "rl_loss"),
    ("metrics", "bleu"), ("metrics", "cider"), ("metrics", "cider_single"),
    ("metrics", "diversity_graph"),
    ("trainer", "train"), ("trainer", "train_step"), ("trainer", "xe_loss"),
    ("trainer", "evaluate"),
    ("checkpoint", "save_checkpoint"), ("checkpoint", "load_checkpoint"),
    ("synth", "synth_split"), ("data", "write_features"), ("data", "load_dataset"),
)

# Functions whose spans can contain traced children; these report self time.
WITH_CHILDREN = (
    "trainer.train", "trainer.train_step", "trainer.xe_loss", "trainer.evaluate",
    "policy.rollout_sample", "policy.forced_step_losses", "policy.rollout_greedy",
    "policy.beam_search", "curiosity.sp_loss", "curiosity.ap_loss",
    "curiosity.intrinsic_rewards", "rewards.scored_reward", "metrics.cider",
    "synth.synth_split", "data.load_dataset",
)

# Node ops of the seed kernel; any other op is counted as "other".
NODE_OPS = (
    "leaf", "param", "affine", "add", "sub", "mul", "scale", "add_n", "concat",
    "vslice", "stack", "pick", "take_row", "tanh", "sigmoid", "leaky_relu",
    "softmax", "dot", "sumsq", "attend", "cross_entropy", "logprob",
)

MODULES = ("kernel", "vocab", "data", "synth", "checkpoint", "metrics", "policy",
           "curiosity", "rewards", "trainer", "cli")

RATIOS = ("kernel.nodes_per_policy_step", "trainer.backward_passes_per_step",
          "curiosity.embeds_per_state", "failed_ratio")

DECODERS = ("policy.rollout_greedy", "policy.beam_search")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor, span.start), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    """Records spans around the traced functions and counts kernel nodes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.nodes: Counter = Counter()
        self.policy_step_nodes = 0
        self.sampled_steps = 0
        self.forced_steps = 0
        self.decode_steps = 0
        self.bytes_written = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function wherever a curioseq module binds it."""
        modules = [getattr(package, name) for name in MODULES]
        for mod_name, fn_name in TRACED:
            original = getattr(getattr(package, mod_name), fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        tensor = package.kernel.Tensor
        self._saved.append((tensor, "__init__", tensor.__init__))
        tensor.__init__ = self._count_nodes(tensor.__init__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _count_nodes(self, init):
        nodes = self.nodes

        def counted(tensor, data, parents=(), backward_fn=None, op="leaf"):
            nodes[op] += 1
            init(tensor, data, parents, backward_fn, op)

        return counted

    def _wrap(self, fn, name):
        tracer = self
        spans = self.spans
        stack = self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = Span(name, clock(), 0.0, parent)
            spans.append(span)
            stack.append(index)
            before = tracer.nodes.total() if name == "policy.policy_step" else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            tracer._observe(name, args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, args, kwargs, result, nodes_before) -> None:
        if name == "policy.policy_step":
            self.policy_step_nodes += self.nodes.total() - nodes_before
            if any(self.spans[i].name in DECODERS for i in self.stack):
                self.decode_steps += 1
        elif name == "policy.rollout_sample":
            self.sampled_steps += len(result)
        elif name == "policy.forced_step_losses":
            self.forced_steps += len(result)
        elif name == "checkpoint.save_checkpoint":
            path = args[0] if args else kwargs["path"]
            self.bytes_written += os.path.getsize(path)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per function `.s` (inclusive), `.calls` and `.self_s`, plus counts."""
        selfs = self_times(self.spans)
        inclusive: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i, span in enumerate(self.spans):
            calls[span.name] += 1
            own[span.name] += selfs[i]
            if not self._has_ancestor_named(i, span.name):
                inclusive[span.name] += span.end - span.start
        out: dict[str, float] = {}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.calls"] = calls[name]
            if name in WITH_CHILDREN:
                out[f"{name}.self_s"] = own[name]
        total = self.nodes.total()
        out["kernel.nodes"] = total
        for op in NODE_OPS:
            out[f"kernel.nodes.{op}"] = self.nodes[op]
        out["kernel.nodes.other"] = total - sum(self.nodes[op] for op in NODE_OPS)
        steps = calls["policy.policy_step"]
        out["kernel.nodes_per_policy_step"] = self.policy_step_nodes / steps if steps else 0.0
        train_steps = calls["trainer.train_step"]
        out["trainer.backward_passes_per_step"] = (
            calls["kernel.gradients"] / train_steps if train_steps else 0.0)
        out["policy.sampled_steps"] = self.sampled_steps
        out["policy.forced_steps"] = self.forced_steps
        out["policy.decode_steps"] = self.decode_steps
        out["curiosity.embeds_per_state"] = (
            calls["curiosity.embed_state"] / self.sampled_steps if self.sampled_steps else 0.0)
        out["checkpoint.bytes_written"] = self.bytes_written
        return out

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent]) + "\n")


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name == "checkpoint.bytes_written":
        return "bytes"
    return "ratio" if name in RATIOS else "count"
