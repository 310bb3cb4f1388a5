"""Shared fixtures: bundled layouts, nominal control points, random-curve helpers."""

import math
import os

import numpy as np
import pytest
from hypothesis import settings

from agv_path_kit import (BezierCurve, JunctionContext, PathSegment, Tangential,
                          VehicleModel, Wheel, parse_layout)
from agv_path_kit.layouts import bundled_layout_text

# A local failure prints the blob that replays it (`@reproduce_failure`), so
# it outlives the local example database. With CI set, Hypothesis's own "ci"
# profile (derandomized, printing the blob too) stays in force.
if "CI" not in os.environ:
    settings.register_profile("local", print_blob=True)
    settings.load_profile("local")

# Nominal (print-precision) control points the bundled layouts are anchored to.
NOMINAL_INITIAL_LEFT = np.array([
    (0.188, -3.187), (1.031, -3.281), (1.913, -3.212), (2.766, -2.991),
    (3.525, -2.625), (4.125, -2.125), (4.500, -1.500)])
NOMINAL_INITIAL_RIGHT = np.array([
    (4.500, -1.500), (5.025, -0.625), (5.430, 0.150), (5.873, 0.787),
    (6.510, 1.250), (7.500, 1.500), (9.000, 1.500)])
NOMINAL_SMOOTHED_RIGHT = np.array([
    (4.500, -1.500), (4.823, -0.962), (5.026, -0.253), (5.032, 0.765),
    (6.510, 1.250), (7.500, 1.500), (9.000, 1.500)])
NOMINAL_EXP_LEFT = np.array([
    (0.188, -3.187), (1.031, -3.281), (1.913, -3.212), (2.766, -2.991),
    (3.495, -3.174), (4.039, -2.268), (4.500, -1.500)])
NOMINAL_EXP_RIGHT = np.array([
    (4.500, -1.500), (4.847, -0.921), (5.217, -0.305), (5.572, -0.312),
    (6.510, 1.250), (7.500, 1.500), (9.000, 1.500)])


@pytest.fixture(scope="session")
def layout_g1():
    return parse_layout(bundled_layout_text("two_wheel_g1"))


@pytest.fixture(scope="session")
def layout_smoothed():
    return parse_layout(bundled_layout_text("two_wheel_smoothed"))


@pytest.fixture(scope="session")
def layout_exponential():
    return parse_layout(bundled_layout_text("six_wheel_exponential"))


@pytest.fixture(scope="session")
def two_wheel_vehicle():
    return VehicleModel((Wheel("w1", (1.0, 0.5), 1.7, math.radians(45.0)),
                         Wheel("w2", (-1.0, -0.5), 1.7, math.radians(45.0))))


def junction_of(doc) -> JunctionContext:
    return JunctionContext(doc.segments[0].segment, doc.segments[1].segment,
                           doc.vehicle, doc.segments[0].id, doc.segments[1].id)


def random_regular_curve(rng, degree=5, span=6.0, wiggle=1.0) -> BezierCurve:
    """A forward-moving random curve that is regularly parameterized."""
    while True:
        x = np.linspace(0.0, span, degree + 1) + rng.normal(scale=0.2, size=degree + 1)
        y = rng.normal(scale=wiggle, size=degree + 1)
        curve = BezierCurve(np.column_stack([x, y]))
        us = np.linspace(0.0, 1.0, 257)
        d1 = curve.derivatives_many(us, 1)[1]
        if np.hypot(d1[:, 0], d1[:, 1]).min() > 1e-3:
            return curve


def gentle_curve(rng, max_kappa=0.6, span=8.0) -> BezierCurve:
    """Random curve whose turning radius stays above 1/max_kappa everywhere."""
    while True:
        curve = random_regular_curve(rng, degree=5, span=span, wiggle=0.8)
        us = np.linspace(0.0, 1.0, 400)
        d = curve.derivatives_many(us, 2)
        speed = np.hypot(d[1][:, 0], d[1][:, 1])
        kappa = (d[1][:, 0] * d[2][:, 1] - d[1][:, 1] * d[2][:, 0]) / speed**3
        if np.abs(kappa).max() < max_kappa:
            return curve


def straight_segment(length=3.0, v_max=1.5, alpha=0.0) -> PathSegment:
    return PathSegment(BezierCurve([(0.0, 0.0), (length, 0.0)]),
                       Tangential(alpha), v_max)
