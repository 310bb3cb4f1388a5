"""Traced run: per-layer spans and counters installed from outside ``src/``.

The tracer wraps the public entry points of each module (the layers
``cli``, ``vehicle``, ``curve``, ``motion``, ``kinematics``, ``continuity``,
``repair`` and ``profile``) by rebinding them in every ``agv_path_kit``
module namespace that holds them, and on their classes for methods. Each
call records a span (name, start, end, parent, op id) in memory; ``dump``
writes them out at the end of the run. A layer's self time is its spans'
duration minus the part of each interval its wrapped child spans cover.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Span and counter store; ``install`` wraps the program, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result(counts, args, kwargs, result)``."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, target, attr: str, value):
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def patch_function(self, name: str, fn, on_result=None):
        """Rebind ``fn`` in every loaded agv_path_kit module that holds it."""
        wrapper = self.wrap(name, fn, on_result)
        holders = [m for key, m in sorted(sys.modules.items())
                   if key == "agv_path_kit" or key.startswith("agv_path_kit.")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def patch_method(self, name: str, cls, attr: str, on_result=None):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], on_result))

    def uninstall(self):
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def install(self):
        """Wrap the layer boundaries the per-layer metrics are defined on."""
        from agv_path_kit import (cli, continuity, curve, kinematics, motion, profile,
                                  repair, vehicle)

        def eval_points(counts, args, kwargs, result):
            us = args[1] if len(args) > 1 else kwargs["us"]
            order = args[2] if len(args) > 2 else kwargs["order"]
            counts["curve.eval_points"] += int(np.size(us)) * (int(order) + 1)

        def planned_samples(counts, args, kwargs, result):
            counts["profile.samples"] += int(result.s.size)

        self.patch_function("cli.parse", cli.parse_layout)
        for handler in (cli.cmd_check, cli.cmd_repair, cli.cmd_profile):
            self.patch_function("cli.handler", handler)
        self.patch_method("vehicle.segment_init", vehicle.PathSegment, "__post_init__")
        self.patch_method("curve.eval", curve.BezierCurve, "derivatives_many", eval_points)
        self.patch_function("curve.arc_length", curve.arc_length)
        self.patch_function("motion.orientation", motion.orientation_many)
        self.patch_function("motion.orientation", motion.orientation_at_end)
        self.patch_function("kinematics.profile_segment", kinematics.profile_segment)
        self.patch_function("kinematics.limit_fast", kinematics.limit_profile_fast)
        self.patch_method("continuity.context", continuity.JunctionContext, "__init__")
        self.patch_function("continuity.analyze", continuity.analyze_junction)
        self.patch_function("repair.repair", repair.repair_tangential)
        self.patch_function("repair.repair", repair.repair_exponential)
        self.patch_function("profile.plan", profile.plan_velocity, planned_samples)
        self._set(repair, "optimize", _CountingOptimize(repair.optimize, self.counts))

    def dump(self, path):
        """Write the spans as tab-separated lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


class _CountingOptimize:
    """Stand-in for ``scipy.optimize`` in the repair module's namespace.

    Counts optimizer starts and objective evaluations (``nfev``); the
    optimizer's own time stays in the repair layer's self time.
    """

    def __init__(self, real, counts):
        self._real, self._counts = real, counts

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def minimize(self, *args, **kwargs):
        result = self._real.minimize(*args, **kwargs)
        self._counts["repair.starts"] += 1
        self._counts["repair.evals"] += int(result.nfev)
        return result


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: total self time and number of spans.

    A span's self time is its duration minus the length of the union of its
    direct children's intervals, clipped to the span.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        inner = [(max(a, start), min(b, end)) for a, b in children.get(index, ())
                 if b > start and a < end]
        totals[span[NAME]] += (end - start) - _covered(inner)
        calls[span[NAME]] += 1
    return dict(totals), dict(calls)


def layer_metrics(spans, counts, rounds: int) -> dict[str, float]:
    """Per-layer metrics per round of the workload (see README)."""
    selfs, calls = self_times(spans)

    def per_round(x):
        return x / rounds

    evals = counts.get("repair.evals", 0)
    repairs = calls.get("repair.repair", 0)
    samples = counts.get("profile.samples", 0)
    points = counts.get("curve.eval_points", 0)
    return {
        "cli.parse_calls": per_round(calls.get("cli.parse", 0)),
        "cli.parse_s": per_round(selfs.get("cli.parse", 0.0)),
        "cli.emit_s": per_round(selfs.get("cli.handler", 0.0)),
        "vehicle.segment_inits": per_round(calls.get("vehicle.segment_init", 0)),
        "vehicle.segment_init_s": per_round(selfs.get("vehicle.segment_init", 0.0)),
        "curve.eval_calls": per_round(calls.get("curve.eval", 0)),
        "curve.eval_points": per_round(points),
        "curve.eval_s": per_round(selfs.get("curve.eval", 0.0)),
        "curve.arc_length_calls": per_round(calls.get("curve.arc_length", 0)),
        "curve.arc_length_s": per_round(selfs.get("curve.arc_length", 0.0)),
        "curve.points_per_sample": points / samples if samples else 0.0,
        "curve.points_per_eval": points / evals if evals else 0.0,
        "motion.orientation_calls": per_round(calls.get("motion.orientation", 0)),
        "motion.orientation_s": per_round(selfs.get("motion.orientation", 0.0)),
        "kinematics.profile_segment_calls": per_round(calls.get("kinematics.profile_segment", 0)),
        "kinematics.profile_segment_s": per_round(selfs.get("kinematics.profile_segment", 0.0)),
        "kinematics.limit_fast_calls": per_round(calls.get("kinematics.limit_fast", 0)),
        "kinematics.limit_fast_s": per_round(selfs.get("kinematics.limit_fast", 0.0)),
        "continuity.junctions": per_round(calls.get("continuity.analyze", 0)),
        "continuity.context_s": per_round(selfs.get("continuity.context", 0.0)),
        "continuity.analyze_s": per_round(selfs.get("continuity.analyze", 0.0)),
        "repair.repairs": per_round(repairs),
        "repair.starts": per_round(counts.get("repair.starts", 0)),
        "repair.evals": per_round(evals),
        "repair.evals_per_repair": evals / repairs if repairs else 0.0,
        "repair.self_s": per_round(selfs.get("repair.repair", 0.0)),
        "profile.samples": per_round(samples),
        "profile.plan_s": per_round(selfs.get("profile.plan", 0.0)),
    }
