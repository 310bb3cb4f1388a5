"""Output checks for the benchmark's operations.

Each ``check_*`` function returns a list of failure reasons; an empty list
means the op's output is correct. The checks use only the manifest written
by ``generate`` and the bytes the program produced, plus plain-float jets
from ``generate``, so they do not trust the program's own verdict code
except where stated (the repair re-check).
"""

from __future__ import annotations

import json
import math

from generate import SMOOTH, end_jet, start_jet

# Slack for comparisons of values the planner derives with one sqrt or
# one division: a few ulps relative, never near the 1e-6 tolerances.
REL_SLACK = 1e-9
ABS_SLACK = 1e-12
SMOOTH_TOL = 1e-6


def check_lint(expect: dict, rc, stdout: str) -> list[str]:
    """Exit code, one report per junction in adjacency order, each verdict."""
    reasons = []
    if rc != expect["exit"]:
        reasons.append(f"exit code {rc}, expected {expect['exit']}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return reasons + [f"stdout is not JSON: {exc}"]
    expected = expect["verdicts"]
    got = [(j.get("junction"), j.get("verdict")) for j in report.get("junctions", [])]
    if [j for j, _ in got] != list(expected):
        return reasons + [f"junction ids {[j for j, _ in got][:5]}... differ from the "
                          f"layout adjacency ({len(got)} vs {len(expected)})"]
    for junction, verdict in got:
        if verdict != expected[junction]:
            reasons.append(f"junction {junction}: verdict {verdict}, "
                           f"expected {expected[junction]}")
    if report.get("ok") is not (expect["exit"] == 0):
        reasons.append(f"ok flag {report.get('ok')} disagrees with the verdicts")
    return reasons


def check_plan(expect: dict, rc, csv_text: str | None) -> list[str]:
    """Row count and the planner's invariants on the written profile."""
    if rc != expect["exit"]:
        return [f"exit code {rc}, expected {expect['exit']}"]
    if expect["exit"] != 0:
        return [] if csv_text is None else ["profile written for a discontinuous layout"]
    if csv_text is None:
        return ["no profile written"]
    lines = csv_text.split("\n")
    if lines[-1] != "":
        return ["profile does not end with a newline"]
    header, rows = lines[0].split(","), lines[1:-1]
    if header[:6] != ["u", "s_m", "t_s", "v_mps", "v_max_mps", "binding"]:
        return [f"unexpected header {header[:6]}"]
    if len(rows) != expect["rows"]:
        return [f"{len(rows)} rows, expected {expect['rows']}"]
    cols = [r.split(",", 5) for r in rows]
    try:
        s = [float(c[1]) for c in cols]
        t = [float(c[2]) for c in cols]
        v = [float(c[3]) for c in cols]
        v_lim = [float(c[4]) for c in cols]
    except (ValueError, IndexError) as exc:
        return [f"unparseable profile row: {exc}"]
    reasons = []
    if not all(math.isfinite(x) for x in s + t + v):
        reasons.append("non-finite s, t or v")
    a_max = expect["a_max"]
    for i in range(len(v)):
        if v[i] < 0.0 or v[i] > v_lim[i] * (1.0 + REL_SLACK) + ABS_SLACK:
            reasons.append(f"row {i}: v={v[i]!r} outside [0, v_limit={v_lim[i]!r}]")
            break
    for i in range(1, len(v)):
        ds = s[i] - s[i - 1]
        if ds < 0.0 or t[i] < t[i - 1]:
            reasons.append(f"row {i}: s or t decreases")
            break
        if abs(v[i] ** 2 - v[i - 1] ** 2) > 2.0 * a_max * ds * (1.0 + REL_SLACK) + ABS_SLACK:
            reasons.append(f"row {i}: |dv^2| exceeds 2*a_max*ds")
            break
    if v[0] != 0.0 or v[-1] != 0.0:
        reasons.append(f"end speeds {v[0]!r}, {v[-1]!r} are not zero")
    stride = expect["samples"] - 1
    for k, verdict in enumerate(expect["junctions"], start=1):
        speed = v[k * stride]
        if verdict == SMOOTH and not speed > 0.0:
            reasons.append(f"junction {k}: smooth but planned speed {speed!r}")
        elif verdict != SMOOTH and speed != 0.0:
            reasons.append(f"junction {k}: {verdict} but planned speed {speed!r}")
    return reasons


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _kappa_and_rate(d1, d2, d3):
    """Signed curvature and its arc-length derivative from a curve jet."""
    q = _dot(d1, d1)
    det12, det13 = _cross(d1, d2), _cross(d1, d3)
    return det12 / q**1.5, det13 / q**2 - 3.0 * det12 * _dot(d1, d2) / q**3


def _close(a, b):
    return abs(a - b) <= SMOOTH_TOL * max(1.0, abs(a), abs(b))


def _same_mode(a: dict, b: dict) -> bool:
    """Same mode; angles may differ by the degree/radian round trip."""
    return a.keys() == b.keys() and a["type"] == b["type"] and all(
        abs(a[k] - b[k]) <= 1e-12 * max(1.0, abs(a[k])) for k in a if k != "type")


def check_repair(expect: dict, rc, before_text: str, after_text: str | None,
                 recheck_stdout: str | None) -> list[str]:
    """Exit code, moved control points, and smoothness of the repaired junction.

    ``recheck_stdout`` is the program's own ``check --format json`` on the
    written layout; the curvature conditions are also re-derived here from
    the control points.
    """
    if rc != expect["exit"]:
        return [f"exit code {rc}, expected {expect['exit']}"]
    if after_text is None:
        return ["no repaired layout written"]
    before, after = json.loads(before_text), json.loads(after_text)
    reasons = []
    left_id, right_id = expect["junction"].split(":")
    segs_before = {s["id"]: s for s in before["segments"]}
    segs_after = {s["id"]: s for s in after["segments"]}
    if list(segs_before) != list(segs_after):
        return [f"segment ids changed: {list(segs_after)}"]
    exponential = expect["kind"] == "exponential"
    for seg_id, seg in segs_before.items():
        pts_b = seg["control_points_m"]
        pts_a = segs_after[seg_id]["control_points_m"]
        n = len(pts_b) - 1
        allowed = set()
        if seg_id == right_id:
            allowed = {1, 2, 3}
        elif seg_id == left_id and exponential:
            allowed = {n - 2, n - 1}
        if len(pts_a) != len(pts_b):
            reasons.append(f"segment {seg_id}: degree changed")
            continue
        moved = {i for i, (b, a) in enumerate(zip(pts_b, pts_a)) if b != a}
        if moved - allowed:
            reasons.append(f"segment {seg_id}: control points {sorted(moved - allowed)} "
                           f"moved, only {sorted(allowed)} may")
        if not _same_mode(seg["mode"], segs_after[seg_id]["mode"]) or \
                seg["v_max_mps"] != segs_after[seg_id]["v_max_mps"]:
            reasons.append(f"segment {seg_id}: mode or speed limit changed")
    note = after.get("annotations", {}).get("repair", {})
    if note.get("junction") != expect["junction"] or note.get("verdict_after") != SMOOTH:
        reasons.append(f"repair annotation {note.get('junction')}/{note.get('verdict_after')}")
    l1, l2, l3 = end_jet(segs_after[left_id]["control_points_m"])
    r1, r2, r3 = start_jet(segs_after[right_id]["control_points_m"])
    if abs(_cross(l1, r1)) > SMOOTH_TOL * math.hypot(*l1) * math.hypot(*r1) or _dot(l1, r1) <= 0.0:
        reasons.append("junction tangents are not parallel after repair")
    k_l, dk_l = _kappa_and_rate(l1, l2, l3)
    k_r, dk_r = _kappa_and_rate(r1, r2, r3)
    if exponential:
        if abs(k_l) > SMOOTH_TOL or abs(k_r) > SMOOTH_TOL:
            reasons.append(f"junction curvatures {k_l:.3g}, {k_r:.3g} are not zero")
    elif not (_close(k_l, k_r) and _close(dk_l, dk_r)):
        reasons.append(f"curvature ({k_l:.9g}, {k_r:.9g}) or its rate "
                       f"({dk_l:.9g}, {dk_r:.9g}) differs across the junction")
    if recheck_stdout is None:
        reasons.append("re-check produced no output")
    else:
        verdicts = {j["junction"]: j["verdict"]
                    for j in json.loads(recheck_stdout).get("junctions", [])}
        if verdicts.get(expect["junction"]) != SMOOTH:
            reasons.append(f"re-check verdict {verdicts.get(expect['junction'])}")
    return reasons

