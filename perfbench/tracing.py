"""In-memory spans around calls into skorodist's public functions.

Spans are recorded only from the benchmark's side: the op itself, the
benchmark's own probe and audit calls, and wrappers installed over public
names that skorodist resolves at call time (``distance.candidate_thresholds``,
``distance.compose_time_change``, ``topology.uniform_modulus``,
``topology.skorohod_distance``).  Pseudometric evaluations are far too many
for spans (two per piece pair per solve), so they are counted and timed in
aggregate, per op, through a wrapper on each pseudometric class's
``__call__``; their time is still subtracted from the enclosing span's self
time.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

# Layer (module) that does the work of each span.  topology.skorohod_distance
# is the distance solve that t1_transfer_check makes.
LAYER = {
    "distance.skorohod_distance": "distance",
    "distance.candidate_thresholds": "distance",
    "distance.feasible": "distance",
    "distance.check_certificate": "distance",
    "cadlag.compose_time_change": "cadlag",
    "topology.transfer_checks": "topology",
    "topology.uniform_modulus": "topology",
    "topology.skorohod_distance": "distance",
    "sampling.sampler": "sampling",
}
LAYERS = ("distance", "cadlag", "pseudometric", "topology", "sampling")
OP_SPANS = ("distance.skorohod_distance", "topology.transfer_checks")

# Per-op counts that must repeat exactly when an op is rerun.
EXACT_COUNTS = (
    "pseudometric.calls",
    "distance.candidates",
    "sampling.sampler.calls",
    "topology.skorohod_distance.calls",
    "topology.uniform_modulus.calls",
    "topology.accepted",
)


def _count_candidates(counts, result):
    counts["distance.candidates"] += len(result)


# (library module, attribute, span name, extra count taken from the result)
_PATCHES = (
    ("distance", "candidate_thresholds", "distance.candidate_thresholds",
     _count_candidates),
    ("distance", "compose_time_change", "cadlag.compose_time_change", None),
    ("topology", "uniform_modulus", "topology.uniform_modulus", None),
    ("topology", "skorohod_distance", "topology.skorohod_distance", None),
)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Spans as [name, start, end, parent, op]; parent is a span index."""

    def __init__(self):
        self.spans = []
        self._child = []  # seconds of each span covered by its children
        self._stack = []
        self._op = None  # id of the op being traced
        self._in_op = False  # inside the op span itself
        self._metric_depth = 0
        self.counts = {}  # op id -> Counter of calls and items inside the op
        self.metric_s = Counter()  # op id -> pseudometric seconds inside the op

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._child.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            end = perf_counter()
            self.spans[idx][2] = end
            self._stack.pop()
            if parent is not None:
                self._child[parent] += end - self.spans[idx][1]

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if self._in_op:
                self.counts[self._op][f"{name}.calls"] += 1
                if count is not None:
                    count(self.counts[self._op], result)
            return result

        return traced

    @contextmanager
    def op(self, op_id, name):
        # The id stays current after the op, so the audit's spans carry it.
        self._op = op_id
        self.counts[op_id] = Counter()
        self._in_op = True
        try:
            with self.span(name):
                yield
        finally:
            self._in_op = False

    def _metric_call(self, call):
        def traced(metric, a, b):
            if self._metric_depth:  # a part of a composite metric
                return call(metric, a, b)
            self._metric_depth = 1
            t0 = perf_counter()
            try:
                return call(metric, a, b)
            finally:
                dt = perf_counter() - t0
                self._metric_depth = 0
                if self._stack:
                    self._child[self._stack[-1]] += dt
                if self._in_op:
                    self.counts[self._op]["pseudometric.calls"] += 1
                    self.metric_s[self._op] += dt

        return traced

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self, lib):
        """Patch the library's public names; yields the traced call table."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for module, attr, name, count in _PATCHES:
                owner = getattr(lib, module)
                if attr in owner.__dict__:
                    patch(owner, attr, self.wrap(name, owner.__dict__[attr], count))
            for cls in _subclasses(lib.Pseudometric):
                if "__call__" in cls.__dict__:
                    patch(cls, "__call__", self._metric_call(cls.__dict__["__call__"]))
            yield SimpleNamespace(
                skorohod_distance=lib.skorohod_distance,
                t1_transfer_check=lib.t1_transfer_check,
                feasible=self.wrap("distance.feasible", lib.feasible),
                check_certificate=self.wrap(
                    "distance.check_certificate", lib.check_certificate
                ),
                sampler=lambda sample: self.wrap("sampling.sampler", sample),
            )
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    # -- results ------------------------------------------------------------

    def summary(self, op_ids, count_ops):
        """Per-layer metrics over the traced ops ``op_ids``.

        Times are per op.  Exact counts are totals over the first
        ``count_ops`` ops, so that they do not depend on the run length.
        Shares are of the time spent inside op spans.
        """
        ops = set(op_ids)
        n = len(ops)
        busy = Counter()  # every span of these ops, the audit included
        in_op = Counter()  # spans under an op span only
        self_s = Counter()
        op_total = 0.0
        root_of = {}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            dur = end - start
            busy[name] += dur
            root = idx if parent is None else root_of[parent]
            root_of[idx] = root
            if self.spans[root][0] in OP_SPANS:
                in_op[name] += dur
                self_s[LAYER[name]] += dur - self._child[idx]
                if idx == root:
                    op_total += dur
        self_s["pseudometric"] += sum(self.metric_s[op] for op in ops)

        counted = Counter()
        for op in sorted(ops)[:count_ops]:
            counted.update(self.counts[op])
        sampled = counted["sampling.sampler.calls"]

        def share(seconds):
            return 100.0 * seconds / op_total

        out = {
            "distance.candidates": (counted["distance.candidates"], "count"),
            "pseudometric.calls": (counted["pseudometric.calls"], "count"),
            "topology.uniform_modulus.calls": (
                counted["topology.uniform_modulus.calls"], "count"),
            "topology.skorohod_distance.calls": (
                counted["topology.skorohod_distance.calls"], "count"),
            "topology.sampler.calls": (sampled, "count"),
            "topology.accept_ratio": (
                counted["topology.accepted"] / sampled if sampled else 0.0, "ratio"),
            "distance.candidate_thresholds.busy_s": (
                in_op["distance.candidate_thresholds"] / n, "s"),
            "distance.feasible.busy_s": (busy["distance.feasible"] / n, "s"),
            "distance.check_certificate.busy_s": (
                busy["distance.check_certificate"] / n, "s"),
            "cadlag.compose_time_change.busy_s": (
                in_op["cadlag.compose_time_change"] / n, "s"),
            "pseudometric.busy_s": (self_s["pseudometric"] / n, "s"),
        }
        for name in ("topology.uniform_modulus", "topology.skorohod_distance",
                     "sampling.sampler"):
            out[f"{name}.share"] = (share(in_op[name]), "%")
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (share(self_s[layer]), "%")
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {name: k for k, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [code[name], round((start - t0) * 1e6), round((end - t0) * 1e6), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": names, "unit": "us",
                       "columns": ["name", "start", "end", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))


def untraced_api(lib):
    return SimpleNamespace(
        skorohod_distance=lib.skorohod_distance,
        t1_transfer_check=lib.t1_transfer_check,
        feasible=lib.feasible,
        check_certificate=lib.check_certificate,
        sampler=lambda sample: sample,
    )
