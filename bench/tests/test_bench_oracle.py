"""The output checks accept correct outputs and reject wrong ones."""

import copy
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402

LINT_EXPECT = {"exit": 1, "verdicts": {"a:b": "smooth", "b:c": "discontinuous",
                                        "b:d": "smooth_at_rest_only"}}


def _lint_stdout(verdicts: dict, ok: bool) -> str:
    return json.dumps({"layout": "n", "ok": ok, "junctions": [
        {"junction": j, "verdict": v} for j, v in verdicts.items()]})


def test_lint_accepts_matching_report():
    assert oracle.check_lint(LINT_EXPECT, 1, _lint_stdout(LINT_EXPECT["verdicts"], False)) == []


def test_lint_rejects_wrong_verdict_exit_code_and_order():
    wrong = dict(LINT_EXPECT["verdicts"], **{"b:d": "smooth"})
    assert oracle.check_lint(LINT_EXPECT, 1, _lint_stdout(wrong, False))
    assert oracle.check_lint(LINT_EXPECT, 0, _lint_stdout(LINT_EXPECT["verdicts"], False))
    reordered = dict(reversed(list(LINT_EXPECT["verdicts"].items())))
    assert oracle.check_lint(LINT_EXPECT, 1, _lint_stdout(reordered, False))
    assert oracle.check_lint(LINT_EXPECT, 1, "Traceback")


def _profile(samples=5, junctions=("smooth_at_rest_only",), a_max=0.5):
    """A two-segment profile planned exactly as the planner's passes would."""
    n = samples * (len(junctions) + 1) - len(junctions)
    s = [0.1 * i for i in range(n)]
    cap = [1.0] * n
    for k, verdict in enumerate(junctions, start=1):
        if verdict != "smooth":
            cap[k * (samples - 1)] = 0.0
    v = cap[:]
    v[0] = v[-1] = 0.0
    for i in range(1, n):
        v[i] = min(v[i], math.sqrt(v[i - 1] ** 2 + 2 * a_max * (s[i] - s[i - 1])))
    for i in range(n - 2, -1, -1):
        v[i] = min(v[i], math.sqrt(v[i + 1] ** 2 + 2 * a_max * (s[i + 1] - s[i])))
    t = [0.0]
    for i in range(1, n):
        pair = v[i - 1] + v[i]
        t.append(t[-1] + (2 * (s[i] - s[i - 1]) / pair if pair else 0.0))
    return s, t, v, [1.0] * n


def _csv(s, t, v, lim) -> str:
    rows = ["u,s_m,t_s,v_mps,v_max_mps,binding,v_w_mps_w1"]
    rows += [f"0.0,{a!r},{b!r},{c!r},{d!r},segment,0.0" for a, b, c, d in zip(s, t, v, lim)]
    return "\n".join(rows) + "\n"


PLAN_EXPECT = {"exit": 0, "rows": 9, "samples": 5, "a_max": 0.5,
               "junctions": ["smooth_at_rest_only"]}


def test_plan_accepts_a_planned_profile():
    assert oracle.check_plan(PLAN_EXPECT, 0, _csv(*_profile())) == []


def test_plan_rejects_wrong_profiles():
    s, t, v, lim = _profile()
    too_fast = v[:]
    too_fast[2] = 1.2                                 # above v_limit
    assert oracle.check_plan(PLAN_EXPECT, 0, _csv(s, t, too_fast, lim))
    jump = v[:]
    jump[1] = 0.9                                     # |dv^2| > 2 a ds
    assert oracle.check_plan(PLAN_EXPECT, 0, _csv(s, t, jump, [2.0] * len(s)))
    moving = v[:]
    moving[4] = 0.1                                   # rest junction not at rest
    assert oracle.check_plan(PLAN_EXPECT, 0, _csv(s, t, moving, lim))
    back = t[:]
    back[3] = back[2] - 0.1                           # time runs backwards
    assert oracle.check_plan(PLAN_EXPECT, 0, _csv(s, back, v, lim))
    assert oracle.check_plan(dict(PLAN_EXPECT, rows=10), 0, _csv(s, t, v, lim))
    smooth = dict(PLAN_EXPECT, junctions=["smooth"])  # smooth junction planned at rest
    assert oracle.check_plan(smooth, 0, _csv(s, t, v, lim))
    assert oracle.check_plan(PLAN_EXPECT, 1, None)


LEFT = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.2], [3.0, 0.6], [4.0, 1.2], [5.0, 2.0], [6.0, 3.0]]


def _layout(right):
    mode = {"type": "tangential", "alpha_deg": 0.0}
    return {"segments": [
        {"id": "s1", "control_points_m": LEFT, "mode": mode, "v_max_mps": 1.5},
        {"id": "s2", "control_points_m": right, "mode": mode, "v_max_mps": 1.5}]}


def _smooth_right():
    """Continuation of LEFT with the same 3-jet (the mirrored polygon start)."""
    import generate
    d1, d2, d3 = generate.end_jet([tuple(p) for p in LEFT])
    pts = generate.set_start_jet([tuple(LEFT[-1])] * 7, d1, d2, d3)
    return [list(p) for p in pts[:4]] + [[7.0, 5.0], [8.0, 6.5], [9.0, 8.0]]


REPAIR_EXPECT = {"exit": 0, "junction": "s1:s2", "kind": "tangential"}
RECHECK = json.dumps({"junctions": [{"junction": "s1:s2", "verdict": "smooth"}]})


def _after(right):
    doc = _layout(right)
    doc["annotations"] = {"repair": {"junction": "s1:s2", "verdict_after": "smooth"}}
    return json.dumps(doc)


def test_repair_accepts_a_smooth_rewrite_of_the_allowed_points():
    before = _layout([[6.0, 3.0], [7.0, 3.5], [8.0, 4.5], [8.5, 5.5],
                      [7.0, 5.0], [8.0, 6.5], [9.0, 8.0]])
    after = _smooth_right()
    assert oracle.check_repair(REPAIR_EXPECT, 0, json.dumps(before), _after(after),
                               RECHECK) == []


def test_repair_rejects_moved_points_kinks_and_bad_verdicts():
    right = _smooth_right()
    before = json.dumps(_layout(copy.deepcopy(right)))
    moved = copy.deepcopy(right)
    moved[5] = [8.1, 6.5]                               # not next to the junction
    assert oracle.check_repair(REPAIR_EXPECT, 0, before, _after(moved), RECHECK)
    kinked = copy.deepcopy(right)
    kinked[2] = [kinked[2][0], kinked[2][1] + 0.3]      # curvature jump
    assert oracle.check_repair(REPAIR_EXPECT, 0, before, _after(kinked), RECHECK)
    rest = RECHECK.replace('"smooth"', '"smooth_at_rest_only"')
    assert oracle.check_repair(REPAIR_EXPECT, 0, before, _after(right), rest)
    assert oracle.check_repair(REPAIR_EXPECT, 1, before, None, None)
