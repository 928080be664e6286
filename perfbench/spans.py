"""Span tracer that wraps netnaf's layer functions from outside.

Each layer boundary is a module attribute or class method, patched under
the name its caller looks it up by (``netnaf.agent.forward`` is what
``run_episode`` and ``batch_loss_and_grad`` call). A wrapper records one
span (name, start, end, parent) in memory while the tracer is active and
passes straight through otherwise. Spans are summarised, and written out,
once at the end of the run.

A layer whose attribute no longer exists is reported as missing; the rest
of the trace still runs.
"""

from __future__ import annotations

import csv
import importlib
import statistics
from time import perf_counter

# Root span around one timed operation (a training episode after warm-up,
# or one `netnaf eval` call). Its self time is the un-spanned remainder.
OP = "op"
# Root span around a warm-up episode; its subtree is left out of the stats.
WARMUP = "warmup"


def _forward_name(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return "nn.forward.batch" if getattr(x, "ndim", 1) == 2 else "nn.forward.single"


def _clamped(args, kwargs, arrival):
    """A send whose arrival was pushed back to keep FIFO order."""
    if len(args) == 4:
        _, t_send, _, delay = args
        return arrival != t_send + delay
    return False


# (module, attribute path, span name or a chooser of it from the arguments).
SPANS = [
    ("netnaf.agent", "forward", _forward_name),
    ("netnaf.agent", "backward", "nn.backward"),
    ("netnaf.agent", "adam_step", "nn.adam_step"),
    ("netnaf.agent", "soft_update", "nn.soft_update"),
    ("netnaf.cli", "load_checkpoint", "nn.load_checkpoint"),
    ("netnaf.cli", "save_checkpoint", "nn.save_checkpoint"),
    ("netnaf.agent", "assemble_scale_matrix", "naf.assemble_scale_matrix"),
    ("netnaf.agent", "head_gradients", "naf.head_gradients"),
    ("netnaf.agent", "run_episode", "agent.run_episode"),
    ("netnaf.cli", "run_episode", "agent.run_episode"),
    ("netnaf.agent", "Trainer._update_block", "agent.update_block"),
    ("netnaf.agent", "batch_loss_and_grad", "agent.batch_loss_and_grad"),
    ("netnaf.agent", "batch_targets", "agent.batch_targets"),
    ("netnaf.agent", "ReplayMemory.sample", "agent.replay.sample"),
    ("netnaf.agent", "ReplayMemory.push", "agent.replay.push"),
    ("netnaf.agent", "HistoryBuffer.extended_state", "agent.history.extended_state"),
    ("netnaf.agent", "OrnsteinUhlenbeck.step", "agent.noise"),
    ("netnaf.agent", "transition_reward", "reward.transition"),
    ("netnaf.agent", "integrate", "plant.integrate"),
    ("netnaf.agent", "sense", "plant.sense"),
    ("netnaf.agent", "sample_delay", "delays.sample_delay"),
    ("netnaf.agent", "DelayedChannel.send", "delays.channel"),
    ("netnaf.agent", "DelayedChannel.poll", "delays.channel"),
    ("netnaf.agent", "Actuator.apply", "delays.actuator_apply"),
    ("netnaf.cli", "write_trajectory", "cli.write_trajectory"),
    ("netnaf.cli", "write_learning_curve", "cli.write_learning_curve"),
    ("netnaf.cli", "load_config", "config.load"),
    ("netnaf.config", "ExperimentConfig.trainer", "config.trainer"),
]

# (module, attribute path, counter, predicate on (args, kwargs, result));
# a counter without a predicate counts every call.
COUNTERS = [
    ("netnaf.plant", "ChuaCircuit.deriv", "plant.deriv.calls", None),
    ("netnaf.agent", "DelayedChannel.send", "delays.clamped_arrivals", _clamped),
]

# Module prefixes whose summed self time is reported as a share.
GROUPS = ("nn", "naf", "agent", "plant", "delays", "reward", "cli", "config")


def _resolve(module_name, path):
    """(owner, attribute) for a dotted path, or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if attr in vars(owner) else None


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.active = False
        self.spans: list = []      # (name, start, end, parent index)
        self.counts: dict = {}
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []

    # -- recording

    def begin(self, name) -> int:
        if not self.active:
            return -1
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def end(self, idx):
        if idx < 0:
            return
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def _span(self, fn, name):
        tracer = self
        choose = None if isinstance(name, str) else name

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name if choose is None else choose(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return wrapper

    def _count(self, fn, counter, predicate):
        tracer = self
        counts = self.counts
        counts[counter] = 0

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active and (predicate is None
                                  or predicate(args, kwargs, result)):
                counts[counter] += 1
            return result

        return wrapper

    def install(self):
        """Wrap every layer that still exists; counters restart at zero."""
        self.missing = []
        wraps = ([(m, p, self._span, name) for m, p, name in SPANS]
                 + [(m, p, self._count, counter, predicate)
                    for m, p, counter, predicate in COUNTERS])
        for module_name, path, make, *spec in wraps:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = vars(owner)[attr]
            setattr(owner, attr, make(original, *spec))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summary

    def summarise(self):
        """Per-name calls, self time and durations over the timed subtrees.

        Spans under a warm-up root are left out. Roots other than OP and
        WARMUP (set-up work outside any episode) are kept as their own
        entries but do not enter the accounting of op time.
        """
        n = len(self.spans)
        child = [0.0] * n
        root = [0] * n
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        per_name: dict = {}
        op_total = 0.0
        accounted = 0.0
        group_self = {g: 0.0 for g in GROUPS}
        for i, (name, start, end, _) in enumerate(self.spans):
            root_name = self.spans[root[i]][0]
            if root_name == WARMUP:
                continue
            dur = end - start
            own = dur - child[i]
            entry = per_name.setdefault(name, {"dur": [], "self": []})
            entry["dur"].append(dur)
            entry["self"].append(own)
            if root_name == OP:
                accounted += own
                if name == OP:
                    op_total += dur
                else:
                    group = name.split(".", 1)[0]
                    if group in group_self:
                        group_self[group] += own
        layers = {}
        for name, entry in sorted(per_name.items()):
            layers[name] = {
                "calls": len(entry["dur"]),
                "self_s": sum(entry["self"]),
                "dur_s": sum(entry["dur"]),
                "median_us": statistics.median(entry["dur"]) * 1e6,
                "median_self_us": statistics.median(entry["self"]) * 1e6,
            }
        return {"layers": layers, "op_total_s": op_total,
                "accounted_s": accounted, "group_self_s": group_self}

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent])
