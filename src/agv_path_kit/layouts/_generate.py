"""Regenerate the bundled demo layouts.

The nominal control points below are given to millimeter precision, which
is far coarser than the 1e-6 relative tolerances the continuity checker
runs at. For the two smoothed layouts this module therefore fits the
junction construction parameters (shape parameters, or tangent multipliers
with the reparameterization factor) to the nominal points and rebuilds the
junction-adjacent control points exactly from those parameters, so the
bundled fixtures satisfy the conditions to machine precision while staying
within print precision of the nominal geometry.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..continuity import _extract_curve_route
from ..curve import BezierCurve, CurveJet, _dot
from ..repair import prescribe_endpoint_jet

# Nominal control points (degree-6 curves, meters).
INITIAL_LEFT = [
    (0.188, -3.187), (1.031, -3.281), (1.913, -3.212), (2.766, -2.991),
    (3.525, -2.625), (4.125, -2.125), (4.500, -1.500),
]
INITIAL_RIGHT = [
    (4.500, -1.500), (5.025, -0.625), (5.430, 0.150), (5.873, 0.787),
    (6.510, 1.250), (7.500, 1.500), (9.000, 1.500),
]
SMOOTHED_RIGHT_NOMINAL = [
    (4.500, -1.500), (4.823, -0.962), (5.026, -0.253), (5.032, 0.765),
    (6.510, 1.250), (7.500, 1.500), (9.000, 1.500),
]
EXPONENTIAL_LEFT_NOMINAL = [
    (0.188, -3.187), (1.031, -3.281), (1.913, -3.212), (2.766, -2.991),
    (3.495, -3.174), (4.039, -2.268), (4.500, -1.500),
]
EXPONENTIAL_RIGHT_NOMINAL = [
    (4.500, -1.500), (4.847, -0.921), (5.217, -0.305), (5.572, -0.312),
    (6.510, 1.250), (7.500, 1.500), (9.000, 1.500),
]

EXPONENT_N = 1.7
ALPHA_EXP_DEG = 14.0

TWO_WHEELS = [
    {"id": "w1", "position_m": [1.0, 0.5], "v_max_mps": 1.7, "omega_max_degps": 45.0},
    {"id": "w2", "position_m": [-1.0, -0.5], "v_max_mps": 1.7, "omega_max_degps": 45.0},
]
# Symmetric 3x2 wheel arrangement for the six-wheel demo vehicle.
SIX_WHEELS = [
    {"id": f"w{i + 1}", "position_m": [x, y], "v_max_mps": 1.7, "omega_max_degps": 45.0}
    for i, (x, y) in enumerate([(1.0, 0.5), (1.0, -0.5), (0.0, 0.5),
                                (0.0, -0.5), (-1.0, 0.5), (-1.0, -0.5)])
]
SEGMENT_V_MAX = 1.5


def _end_jet(pts: np.ndarray):
    n = len(pts) - 1
    return (n * (pts[-1] - pts[-2]),
            n * (n - 1) * (pts[-1] - 2 * pts[-2] + pts[-3]),
            n * (n - 1) * (n - 2) * (pts[-1] - 3 * pts[-2] + 3 * pts[-3] - pts[-4]))


def _start_jet(pts: np.ndarray):
    n = len(pts) - 1
    return (n * (pts[1] - pts[0]),
            n * (n - 1) * (pts[2] - 2 * pts[1] + pts[0]),
            n * (n - 1) * (n - 2) * (pts[3] - 3 * pts[2] + 3 * pts[1] - pts[0]))


def build_smoothed_right() -> np.ndarray:
    """Exact smoothed downstream curve from parameters fitted to the nominal one."""
    left = np.array(INITIAL_LEFT)
    nominal = np.array(SMOOTHED_RIGHT_NOMINAL)
    l1, l2, l3 = _end_jet(left)
    beta1, beta2, beta3 = _extract_curve_route(
        CurveJet(left[-1], l1, l2, l3), CurveJet(nominal[0], *_start_jet(nominal)))
    d1 = l1 / beta1
    d2 = (l2 - beta2 * d1) / beta1**2
    d3 = (l3 - 3 * beta1 * beta2 * d2 - beta3 * d1) / beta1**3
    return prescribe_endpoint_jet(BezierCurve(nominal), "start", d1, d2, d3).control_points


def build_exponential_curves() -> tuple[np.ndarray, np.ndarray]:
    """Exact curves for the tangential -> anticipated-exponential junction.

    Tangent multipliers are fitted to the nominal points; the downstream
    third derivative then follows from the orientation-rate matching
    relation d3_left = beta1^3 n^2 d3_right. The nominal fourth downstream
    point does not satisfy that relation, so it is rebuilt rather than kept.
    """
    v = _end_jet(np.array(INITIAL_LEFT))[0]  # shared junction tangent direction
    q = float(_dot(v, v))
    left_nom = np.array(EXPONENTIAL_LEFT_NOMINAL)
    right_nom = np.array(EXPONENTIAL_RIGHT_NOMINAL)
    l1, l2, _ = _end_jet(left_nom)
    r1, r2, _ = _start_jet(right_nom)
    x_d1l, x_d2l, x_d1r, x_d2r = (float(_dot(d, v)) / q for d in (l1, l2, r1, r2))
    left = prescribe_endpoint_jet(BezierCurve(left_nom), "end", x_d1l * v,
                                  x_d2l * v).control_points
    l3 = _end_jet(left)[2]
    beta1 = x_d1l / x_d1r
    d3r = l3 / (beta1**3 * EXPONENT_N**2)
    right = prescribe_endpoint_jet(BezierCurve(right_nom), "start", x_d1r * v,
                                   x_d2r * v, d3r).control_points
    return left, right


def _segment(seg_id: str, pts: np.ndarray, mode: dict) -> dict:
    return {
        "id": seg_id,
        "control_points_m": [[float(x), float(y)] for x, y in pts],
        "mode": mode,
        "v_max_mps": SEGMENT_V_MAX,
    }


def build_documents() -> dict[str, dict]:
    tangential = {"type": "tangential", "alpha_deg": 0.0}
    smoothed_right = build_smoothed_right()
    exp_left, exp_right = build_exponential_curves()
    return {
        "two_wheel_g1": {
            "schema_version": 1,
            "name": "two_wheel_g1",
            "vehicle": {"wheels": TWO_WHEELS},
            "segments": [
                _segment("s1", np.array(INITIAL_LEFT), dict(tangential)),
                _segment("s2", np.array(INITIAL_RIGHT), dict(tangential)),
            ],
        },
        "two_wheel_smoothed": {
            "schema_version": 1,
            "name": "two_wheel_smoothed",
            "vehicle": {"wheels": TWO_WHEELS},
            "segments": [
                _segment("s1", np.array(INITIAL_LEFT), dict(tangential)),
                _segment("s2", smoothed_right, dict(tangential)),
            ],
        },
        "six_wheel_exponential": {
            "schema_version": 1,
            "name": "six_wheel_exponential",
            "vehicle": {"wheels": SIX_WHEELS},
            "segments": [
                _segment("s1", exp_left,
                         {"type": "tangential", "alpha_deg": ALPHA_EXP_DEG}),
                _segment("s2", exp_right,
                         {"type": "exponential_anticipated",
                          "alpha_deg": ALPHA_EXP_DEG, "n": EXPONENT_N}),
            ],
        },
    }


def main():
    out_dir = Path(__file__).parent
    for name, doc in build_documents().items():
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
