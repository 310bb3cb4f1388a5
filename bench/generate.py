"""Seeded input generator for the agv-path-kit benchmark.

Writes layout JSON files and a manifest of the expected outcome of every
operation. It deliberately does not import ``agv_path_kit``: the inputs and
the expected verdicts depend only on the seed and on this file, so a change
to the program cannot change what the benchmark feeds it or expects of it.

Every expected verdict holds by construction:

- smooth: the downstream curve's start jet is the upstream end jet pushed
  through a reparameterization (beta1, beta2, beta3), which is what
  subdividing one curve gives; or the tangential -> anticipated-exponential
  (and mirrored exponential-delayed -> tangential) construction with zero
  junction curvature and the third-derivative relation scaled by n^2;
- smooth_at_rest_only: a crab-mode G1 kink (curvature jump), a crab cusp
  (tangent reverses), or a tangential G2 kink (curvature matches, its arc
  length derivative does not);
- discontinuous: a tangential curvature jump, an orientation jump of the
  mode offset, or a gap between the segment ends.

Every perturbation is at least two orders of magnitude above the 1e-6
tolerances the checker runs at.

Geometry is computed in plain Python floats, so the same seed gives
byte-identical files; numpy only screens candidate curves.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

SMOOTH = "smooth"
REST = "smooth_at_rest_only"
DISCONTINUOUS = "discontinuous"

# Upper bounds on the geometry, chosen so wheel paths stay regular: |kappa|
# times the largest wheel offset (1.3 m) stays well below 1 even with the
# exponential modes' rate factor n.
KAPPA_MAX = 0.3
KAPPA_MAX_EXP = 0.16
MIN_SPEED_RATIO = 0.3          # min |C'| / mean |C'| on a candidate curve
SCREEN_SAMPLES = 129
MAX_TRIES = 200
# Every generated curve has the bundled layouts' degree: the start jet fixes
# P1..P3 and straightening an end moves P4 only, so the two never collide.
DEGREE = 6

BUNDLED = ("two_wheel_g1", "two_wheel_smoothed", "six_wheel_exponential")
# Verdicts of the bundled layouts (see the package's layouts module).
BUNDLED_VERDICTS = {
    "two_wheel_g1": {"s1:s2": DISCONTINUOUS},
    "two_wheel_smoothed": {"s1:s2": SMOOTH},
    "six_wheel_exponential": {"s1:s2": SMOOTH},
}
LAYOUT_DIR = Path(__file__).resolve().parent / "layouts"


# --------------------------------------------------------------------------
# Plain-float planar vectors.

def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _mul(a, k):
    return (a[0] * k, a[1] * k)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _norm(a):
    return math.hypot(a[0], a[1])


def _normal(a):
    """Unit left normal of ``a``."""
    n = _norm(a)
    return (-a[1] / n, a[0] / n)


def _heading(a):
    return math.atan2(a[1], a[0])


# --------------------------------------------------------------------------
# Bezier endpoint jets and their inverse (the control points they fix).

def start_jet(pts):
    n = len(pts) - 1
    p0, p1, p2, p3 = pts[0], pts[1], pts[2], pts[3]
    d1 = _mul(_sub(p1, p0), n)
    d2 = _mul(_add(_sub(p2, _mul(p1, 2.0)), p0), n * (n - 1))
    d3 = _mul(_sub(_add(_sub(p3, _mul(p2, 3.0)), _mul(p1, 3.0)), p0),
              n * (n - 1) * (n - 2))
    return d1, d2, d3


def end_jet(pts):
    return tuple(_mul(d, (-1.0) ** (k + 1))
                 for k, d in enumerate(start_jet(pts[::-1])))


def set_start_jet(pts, d1, d2, d3=None):
    """Copy of ``pts`` whose start derivatives are (d1, d2[, d3])."""
    n = len(pts) - 1
    out = list(pts)
    p0 = out[0]
    out[1] = _add(p0, _mul(d1, 1.0 / n))
    out[2] = _sub(_add(_mul(d2, 1.0 / (n * (n - 1))), _mul(out[1], 2.0)), p0)
    if d3 is not None:
        out[3] = _add(_add(_mul(d3, 1.0 / (n * (n - 1) * (n - 2))),
                           _sub(_mul(out[2], 3.0), _mul(out[1], 3.0))), p0)
    return out


def set_end_jet(pts, d1, d2, d3=None):
    """Copy of ``pts`` whose end derivatives are (d1, d2[, d3])."""
    flipped = set_start_jet(pts[::-1], _mul(d1, -1.0), d2,
                            None if d3 is None else _mul(d3, -1.0))
    return flipped[::-1]


def reparameterized_jet(left_jet, b1, b2, b3):
    """Start jet of a curve continuing ``left_jet`` under the shape parameters."""
    l1, l2, l3 = left_jet
    d1 = _mul(l1, 1.0 / b1)
    d2 = _mul(_sub(l2, _mul(d1, b2)), 1.0 / b1**2)
    d3 = _mul(_sub(_sub(l3, _mul(d2, 3.0 * b1 * b2)), _mul(d1, b3)), 1.0 / b1**3)
    return d1, d2, d3


def curvature(d1, d2):
    return _cross(d1, d2) / _norm(d1) ** 3


# --------------------------------------------------------------------------
# Candidate screening (numpy; affects only accept/reject decisions).

_BERNSTEIN: dict[int, np.ndarray] = {}


def _bernstein(degree: int) -> np.ndarray:
    if degree not in _BERNSTEIN:
        u = np.linspace(0.0, 1.0, SCREEN_SAMPLES)[:, None]
        k = np.arange(degree + 1)[None, :]
        binom = np.array([math.comb(degree, i) for i in range(degree + 1)])[None, :]
        _BERNSTEIN[degree] = binom * u**k * (1.0 - u) ** (degree - k)
    return _BERNSTEIN[degree]


def screen(pts, kappa_max: float) -> bool:
    """Regular parameterization and bounded curvature along the whole curve."""
    p = np.array(pts, dtype=float)
    n = len(p) - 1
    h1 = n * np.diff(p, axis=0)
    d1 = _bernstein(n - 1) @ h1
    speed = np.hypot(d1[:, 0], d1[:, 1])
    if speed.min() < MIN_SPEED_RATIO * speed.mean():
        return False
    h2 = (n - 1) * np.diff(h1, axis=0)
    d2 = _bernstein(n - 2) @ h2
    kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
    return bool(np.abs(kappa).max() <= kappa_max)


# --------------------------------------------------------------------------
# Curve construction.

def _extend(rng, pts, degree, heading, step):
    """Append control points until ``degree`` is reached, turning gently."""
    out = list(pts)
    while len(out) < degree + 1:
        heading += rng.uniform(-0.08, 0.08)
        leg = step * rng.uniform(0.95, 1.05)
        out.append(_add(out[-1], (leg * math.cos(heading), leg * math.sin(heading))))
    return out


def fresh_curve(rng, start, heading):
    return _extend(rng, [start], DEGREE, heading, rng.uniform(0.45, 0.75))


def continued_curve(rng, start, d1, d2, d3):
    """Curve starting at ``start`` with the given start jet, then free points."""
    pts = set_start_jet([start] * (DEGREE + 1), d1, d2, d3)[:4]
    last = _sub(pts[3], pts[2])
    step = min(0.75, max(0.45, _norm(last)))
    return _extend(rng, pts, DEGREE, _heading(last), step)


def straighten_end(pts, third=None):
    """Zero end curvature: the end second derivative becomes tangential.

    ``third`` also scales the end third derivative (moving P3), which the
    exponential-delayed construction needs since its downstream third
    derivative is the upstream one times n^2.
    """
    d1, d2, d3 = end_jet(pts)
    along = _dot(d2, d1) / _dot(d1, d1)
    return set_end_jet(pts, d1, _mul(d1, along), None if third is None else _mul(d3, third))


def _round_pts(pts):
    return [[float(x), float(y)] for x, y in pts]


# --------------------------------------------------------------------------
# Vehicles.

def make_wheels(rng, count: int) -> list[dict]:
    """``count`` wheels on a jittered two-row grid, ids w1..wN."""
    cols = (count + 1) // 2
    xs = [1.0 - 2.0 * i / max(1, cols - 1) for i in range(cols)] if cols > 1 else [0.6]
    spots = [(x, y) for x in xs for y in (0.5, -0.5)][:count]
    wheels = []
    for i, (x, y) in enumerate(spots):
        wheels.append({
            "id": f"w{i + 1}",
            "position_m": [x + rng.uniform(-0.15, 0.15), y + rng.uniform(-0.1, 0.1)],
            "v_max_mps": rng.uniform(1.3, 2.0),
            "omega_max_degps": rng.uniform(35.0, 60.0),
        })
    return wheels


# --------------------------------------------------------------------------
# Segments and junction constructions.

class _Segment:
    __slots__ = ("id", "pts", "mode", "alpha", "n", "v_max", "children", "straight")

    def __init__(self, seg_id, pts, mode, alpha, n, v_max, straight):
        self.id = seg_id
        self.pts = pts
        self.mode = mode
        self.alpha = alpha
        self.n = n
        self.v_max = v_max
        self.children = 0
        self.straight = straight

    def to_json(self) -> dict:
        mode = {"type": self.mode, "alpha_deg": self.alpha}
        if self.n is not None:
            mode["n"] = self.n
        return {"id": self.id, "control_points_m": _round_pts(self.pts),
                "mode": mode, "v_max_mps": self.v_max}


def _kappa_cap(mode):
    return KAPPA_MAX_EXP if mode.startswith("exponential") else KAPPA_MAX


def _betas(rng):
    return rng.uniform(0.75, 1.35), rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5)


def _pick(rng, table):
    total = sum(w for _, w in table)
    x = rng.uniform(0.0, total)
    for item, w in table:
        x -= w
        if x <= 0.0:
            return item
    return table[-1][0]


def make_root(rng, seg_id, mode, origin):
    """A segment with no incoming junction; exponential_delayed ends straight."""
    alpha = round(rng.uniform(-30.0, 30.0), 3)
    n = round(rng.uniform(1.3, 2.5), 3) if mode.startswith("exponential") else None
    straight = mode == "exponential_delayed" or (mode == "tangential" and rng.random() < 0.3)
    for _ in range(MAX_TRIES):
        pts = fresh_curve(rng, origin, rng.uniform(-math.pi, math.pi))
        if straight:
            pts = straighten_end(pts, 1.0 / n**2 if n else None)
        if screen(pts, _kappa_cap(mode)):
            return _Segment(seg_id, pts, mode, alpha, n, round(rng.uniform(1.0, 1.8), 3),
                            straight)
    raise RuntimeError(f"could not construct root segment {seg_id}")


# Junction kinds allowed after each parent mode, with weights.
KINDS = {
    "tangential": [("smooth_tangential", 3.0), ("smooth_exponential", 1.0),
                   ("rest_tangential_g2", 1.5), ("disc_curvature", 1.0),
                   ("disc_orientation", 0.5), ("disc_gap", 0.5)],
    "crab": [("smooth_crab", 3.0), ("rest_crab_kink", 1.0), ("rest_crab_cusp", 1.0),
             ("disc_orientation", 0.7), ("disc_gap", 0.5)],
    "exponential_delayed": [("smooth_delayed", 3.0), ("disc_orientation", 0.5),
                            ("disc_gap", 0.5)],
}
CHAIN_KINDS = {
    mode: [(k, w) for k, w in table if not k.startswith("disc_")]
    for mode, table in KINDS.items()
}


def _verdict(kind: str) -> str:
    if kind.startswith("smooth_"):
        return SMOOTH
    if kind.startswith("rest_"):
        return REST
    return DISCONTINUOUS


def make_child(rng, parent: _Segment, seg_id: str, kind: str):
    """Segment whose start meets ``parent``'s end with the verdict of ``kind``.

    ``smooth_exponential`` needs a straight parent end (zero curvature).
    """
    p_end = parent.pts[-1]
    l1, l2, l3 = end_jet(parent.pts)
    for _ in range(MAX_TRIES):
        b1, b2, b3 = _betas(rng)
        mode, alpha, n = parent.mode, parent.alpha, None
        if mode == "exponential_delayed":
            mode = "tangential"
        straight = mode == "tangential" and rng.random() < 0.3
        start = p_end
        d1, d2, d3 = reparameterized_jet((l1, l2, l3), b1, b2, b3)
        if kind in ("smooth_delayed", "disc_orientation") and parent.mode == "exponential_delayed":
            # Mirror of the anticipated construction: zero curvature at the
            # junction and d3(right) = n^2 d3(left) / beta1^3.
            d2 = _mul(d1, rng.uniform(-0.5, 0.5))
            d3 = _mul(l3, parent.n**2 / b1**3)
        elif kind == "smooth_exponential":
            mode, n = "exponential_anticipated", round(rng.uniform(1.3, 2.5), 3)
            straight = False
            d2 = _mul(d1, rng.uniform(-0.5, 0.5))
            d3 = _mul(l3, 1.0 / (b1**3 * n**2))
        elif kind == "rest_tangential_g2":
            dk_ds = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.15)
            # d(kappa)/ds changes by c / |d1|^3 when c * normal joins d3.
            d3 = _add(d3, _mul(_normal(d1), dk_ds * _norm(d1) ** 3))
        elif kind in ("disc_curvature", "rest_crab_kink"):
            dk = rng.choice((-1.0, 1.0)) * rng.uniform(0.08, 0.16)
            d2 = _add(d2, _mul(_normal(d1), dk * _norm(d1) ** 2))
        elif kind == "rest_crab_cusp":
            d1, d2, d3 = _mul(d1, -1.0), _mul(d2, 0.3), _mul(d3, -0.3)
        if kind == "disc_orientation":
            alpha = round(alpha + rng.choice((-1.0, 1.0)) * rng.uniform(5.0, 20.0), 3)
        if kind == "disc_gap":
            gap = rng.uniform(2e-4, 8e-4) if rng.random() < 0.5 else rng.uniform(2e-3, 2e-2)
            angle = rng.uniform(-math.pi, math.pi)
            start = _add(p_end, (gap * math.cos(angle), gap * math.sin(angle)))
        pts = continued_curve(rng, start, d1, d2, d3)
        if straight:
            pts = straighten_end(pts)
        if not screen(pts, _kappa_cap(mode)):
            continue
        return _Segment(seg_id, pts, mode, alpha, n, parent.v_max, straight)
    raise RuntimeError(f"could not construct {kind} child {seg_id} of {parent.id}")


def _document(name, wheels, segments, adjacency) -> dict:
    return {
        "schema_version": 1,
        "name": name,
        "vehicle": {"wheels": wheels},
        "segments": [s.to_json() for s in segments],
        "adjacency": [[a, b] for a, b in adjacency],
    }


# --------------------------------------------------------------------------
# Workload inputs.

def make_network(rng, name: str, size: int, wheels: int):
    """Branching network: chains that fork, with every junction kind mixed.

    Returns (document, {junction id: expected verdict}).
    """
    # Segments alternate in blocks of four between the tangent-following
    # family and the crab family, and each family starts a new chain every
    # ROOT_EVERY segments, so every network has about the same share of
    # costly tangent-following segments whatever the seed.
    segments: list[_Segment] = []
    adjacency: list[tuple[str, str]] = []
    verdicts: dict[str, str] = {}
    open_ends: list[_Segment] = []
    roots = {"tangent": 0, "crab": 0}
    while len(segments) < size:
        k = len(segments)
        seg_id = f"s{k}"
        family = "tangent" if (k // 4) % 2 == 0 else "crab"
        ends = [s for s in open_ends if (s.mode == "crab") == (family == "crab")]
        if not ends or k % ROOT_EVERY == 0:
            modes = ROOT_MODES[family]
            origin = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
            seg = make_root(rng, seg_id, modes[roots[family] % len(modes)], origin)
            roots[family] += 1
        else:
            # Mostly extend the family's newest open end (chains), sometimes
            # fork an older one (branching adjacency).
            parent = ends[-1] if rng.random() < 0.75 else rng.choice(ends)
            table = [(kind, w) for kind, w in KINDS[parent.mode]
                     if kind != "smooth_exponential" or parent.straight]
            kind = _pick(rng, table)
            seg = make_child(rng, parent, seg_id, kind)
            parent.children += 1
            if parent.children >= 2:
                open_ends.remove(parent)
            adjacency.append((parent.id, seg.id))
            verdicts[f"{parent.id}:{seg.id}"] = _verdict(kind)
        segments.append(seg)
        if seg.mode != "exponential_anticipated":
            open_ends.append(seg)
    return _document(name, make_wheels(rng, wheels), segments, adjacency), verdicts


def make_chain(rng, name: str, size: int, wheels: int, family: str):
    """Linear chain with smooth and rest junctions only (plannable).

    ``family`` is "tangential", "delayed" (an exponential-delayed first
    segment, then tangential) or "crab". Returns (document, [verdict of the
    junction between segments k and k+1]).
    """
    root_mode = {"tangential": "tangential", "delayed": "exponential_delayed",
                 "crab": "crab"}[family]
    seg = make_root(rng, "s0", root_mode, (0.0, 0.0))
    segments, verdicts = [seg], []
    while len(segments) < size:
        parent = segments[-1]
        last = len(segments) == size - 1
        table = [(k, w) for k, w in CHAIN_KINDS[parent.mode]
                 if (k != "smooth_exponential" or (parent.straight and last))]
        kind = _pick(rng, table)
        seg = make_child(rng, parent, f"s{len(segments)}", kind)
        segments.append(seg)
        verdicts.append(_verdict(kind))
    adjacency = [(segments[k].id, segments[k + 1].id) for k in range(size - 1)]
    return _document(name, make_wheels(rng, wheels), segments, adjacency), verdicts


def make_broken_pair(rng, name: str, wheels: int, exponential: bool):
    """Two-segment layout whose junction is G1 but not smooth.

    Tangential pairs share the junction tangent and jump in curvature;
    exponential pairs hand over from tangential to anticipated-exponential
    mode with nonzero junction curvature on both sides.
    """
    for _ in range(MAX_TRIES):
        alpha = round(rng.uniform(-20.0, 20.0), 3)
        left = fresh_curve(rng, (0.0, 0.0), rng.uniform(-math.pi, math.pi))
        l1, l2, l3 = end_jet(left)
        if abs(curvature(l1, l2)) < 0.04 or not screen(left, KAPPA_MAX_EXP):
            continue
        d1, d2, d3 = reparameterized_jet((l1, l2, l3), *_betas(rng))
        dk = rng.choice((-1.0, 1.0)) * rng.uniform(0.08, 0.16)
        d2 = _add(d2, _mul(_normal(d1), dk * _norm(d1) ** 2))
        right = continued_curve(rng, left[-1], d1, d2, d3)
        if abs(curvature(*start_jet(right)[:2])) < 0.04 or not screen(right, KAPPA_MAX_EXP):
            continue
        v_max = round(rng.uniform(1.0, 1.8), 3)
        tangential = {"type": "tangential", "alpha_deg": alpha}
        if exponential:
            right_mode = {"type": "exponential_anticipated", "alpha_deg": alpha,
                          "n": round(rng.uniform(1.4, 2.2), 3)}
        else:
            right_mode = dict(tangential)
        segs = [{"id": "s1", "control_points_m": _round_pts(left), "mode": tangential,
                 "v_max_mps": v_max},
                {"id": "s2", "control_points_m": _round_pts(right), "mode": right_mode,
                 "v_max_mps": v_max}]
        return {"schema_version": 1, "name": name,
                "vehicle": {"wheels": make_wheels(rng, wheels)},
                "segments": segs, "adjacency": [["s1", "s2"]]}
    raise RuntimeError(f"could not construct broken pair {name}")


# --------------------------------------------------------------------------
# Workload manifests.
#
# Each op is {"id", "argv", "expect": {...}, "work"}: argv paths are relative
# to the workload directory, and "work" is the op's unit of work (junctions
# checked, samples planned, junctions repaired) when it succeeds.

# Lint networks: many small ones, so that the median op is a small network;
# six of one size where the tail percentile falls (the 29th of 39 ops), so
# it lands inside a cluster of like ops; and larger ones up to a few hundred
# segments that carry most of the work.
LINT_SIZES = (10, 12, 14, 16) * 5 + (12, 14, 16) + (24,) * 6 + (36, 44, 60, 90, 140, 220, 300)
ROOT_EVERY = 12
ROOT_MODES = {"tangent": ("tangential", "exponential_delayed"), "crab": ("crab",)}
PLAN_SAMPLES = (100, 150)
PLAN_CHAINS = 26
PLAN_MIDDLE = 16
REPAIR_TANGENTIAL_MD = 25
REPAIR_EXPONENTIAL_MD = 16


def _write(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _copy_bundled(inputs: Path, name: str) -> str:
    shutil.copyfile(LAYOUT_DIR / f"{name}.json", inputs / f"{name}.json")
    return f"inputs/{name}.json"


def lint_ops(rng, inputs: Path) -> list[dict]:
    ops = []
    for name in BUNDLED:
        verdicts = BUNDLED_VERDICTS[name]
        ops.append({"id": f"check-{name}",
                    "argv": ["check", _copy_bundled(inputs, name), "--format", "json"],
                    "expect": {"exit": 0 if all(v == SMOOTH for v in verdicts.values()) else 1,
                               "verdicts": verdicts},
                    "work": len(verdicts)})
    for i, size in enumerate(LINT_SIZES):
        name = f"net{i:02d}"
        doc, verdicts = make_network(rng, name, size, rng.randint(2, 6))
        _write(inputs / f"{name}.json", doc)
        ops.append({"id": f"check-{name}",
                    "argv": ["check", f"inputs/{name}.json", "--format", "json"],
                    "expect": {"exit": 0 if all(v == SMOOTH for v in verdicts.values()) else 1,
                               "verdicts": verdicts},
                    "work": len(verdicts)})
    return ops


def plan_ops(rng, inputs: Path) -> list[dict]:
    ops = []
    # two_wheel_smoothed runs twice per round so the same-bytes check always
    # has a pair to compare, however few rounds fit.
    for k, name in enumerate(("two_wheel_smoothed", "six_wheel_exponential",
                              "two_wheel_smoothed")):
        rows = 2 * 1000 - 1
        ops.append({"id": f"profile-{name}-{k}", "key": f"profile-{name}",
                    "argv": ["profile", _copy_bundled(inputs, name), "--out", f"out/{name}-{k}.csv"],
                    "expect": {"exit": 0, "rows": rows, "samples": 1000, "a_max": 0.5,
                               "junctions": ["smooth"]},
                    "work": rows})
    ops.append({"id": "profile-two_wheel_g1", "key": "profile-two_wheel_g1",
                "argv": ["profile", _copy_bundled(inputs, "two_wheel_g1"),
                         "--out", "out/two_wheel_g1.csv"],
                "expect": {"exit": 1}, "work": 0})
    # Size, wheel count, family and sample count follow the chain index, so
    # every seed plans the same amount of work; the seed moves the geometry.
    # The first PLAN_MIDDLE chains share one shape, so the median op falls
    # inside a cluster of like ops instead of between two unlike ones.
    for i in range(PLAN_CHAINS):
        name = f"chain{i:02d}"
        if i < PLAN_MIDDLE:
            size, wheels, family, samples = 5, 4, "tangential", PLAN_SAMPLES[0]
        else:
            size, wheels = 3 + i % 6, 2 + i % 5
            family = ("tangential", "crab", "delayed", "crab")[i % 4]
            samples = PLAN_SAMPLES[(i // 3) % len(PLAN_SAMPLES)]
        doc, verdicts = make_chain(rng, name, size, wheels, family)
        _write(inputs / f"{name}.json", doc)
        a_max = round(rng.uniform(0.3, 0.8), 3)
        rows = size * samples - (size - 1)
        ops.append({"id": f"profile-{name}", "key": f"profile-{name}",
                    "argv": ["profile", f"inputs/{name}.json", "--samples", str(samples),
                             "--a-max", repr(a_max), "--out", f"out/{name}.csv"],
                    "expect": {"exit": 0, "rows": rows, "samples": samples, "a_max": a_max,
                               "junctions": verdicts},
                    "work": rows})
    return ops


def _repair_op(layout: str, name: str, objective: str, kind: str) -> dict:
    return {"id": f"repair-{name}-{objective}", "key": f"repair-{name}-{objective}",
            "argv": ["repair", layout, "--junction", "s1:s2", "--objective", objective,
                     "--out", f"out/{name}-{objective}.json"],
            "expect": {"exit": 0, "junction": "s1:s2", "kind": kind,
                       "out": f"out/{name}-{objective}.json", "layout": layout},
            "work": 1}


def repair_ops(rng, inputs: Path) -> list[dict]:
    ops = []
    g1 = _copy_bundled(inputs, "two_wheel_g1")
    six = _copy_bundled(inputs, "six_wheel_exponential")
    ops.append(_repair_op(g1, "two_wheel_g1", "min_displacement", "tangential"))
    ops.append(_repair_op(g1, "two_wheel_g1", "min_travel_time", "tangential"))
    ops.append(_repair_op(six, "six_wheel_exponential", "min_travel_time", "exponential"))
    for i in range(REPAIR_TANGENTIAL_MD + 1):
        name = f"tan{i:02d}"
        _write(inputs / f"{name}.json",
               make_broken_pair(rng, name, 2 if i % 2 == 0 else 4, exponential=False))
        objective = "min_travel_time" if i == REPAIR_TANGENTIAL_MD else "min_displacement"
        ops.append(_repair_op(f"inputs/{name}.json", name, objective, "tangential"))
    for i in range(REPAIR_EXPONENTIAL_MD):
        name = f"exp{i:02d}"
        _write(inputs / f"{name}.json", make_broken_pair(rng, name, 6, exponential=True))
        ops.append(_repair_op(f"inputs/{name}.json", name, "min_displacement", "exponential"))
    return ops


WORKLOADS = {"lint": lint_ops, "plan": plan_ops, "repair": repair_ops}


def generate(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the inputs of ``workload`` under ``directory``; return its ops.

    The manifest is also written to ``directory/manifest.json``.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")
    inputs = directory / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    (directory / "out").mkdir(exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, inputs)
    for op in ops:
        op.setdefault("key", op["id"])
    _write(directory / "manifest.json", {"workload": workload, "seed": seed, "ops": ops})
    return ops
