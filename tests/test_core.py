"""Oscillator map, period control and diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscpg import core
from chaoscpg.core import (GAIT_PERIODS, CpgParams, CpgState, detect_period,
                           lyapunov_estimate, run_controlled, step)

P = CpgParams()


def hand_step(x1, x2, c1=0.0, c2=0.0, params=P):
    """Independent straight-line evaluation of the map used as oracle."""
    a1 = params.theta1 + params.w11 * x1 + params.w12 * x2 + c1
    a2 = params.theta2 + params.w21 * x1 + params.w22 * x2 + c2
    return 1.0 / (1.0 + math.exp(-a1)), 1.0 / (1.0 + math.exp(-a2))


def test_step_matches_hand_computation():
    s = step(CpgState(0.5, 0.5), P)
    ex1, ex2 = hand_step(0.5, 0.5)
    assert abs(s.x1 - ex1) < 1e-15 and abs(s.x2 - ex2) < 1e-15
    # magnitudes frozen from the oracle
    assert abs(s.x1 - 1.0649e-05) < 1e-9
    assert abs(s.x2 - 0.62246) < 1e-5
    assert s.t == 1


def test_step_zero_weights_is_identity_at_half():
    flat = CpgParams(w11=0, w12=0, w21=0, w22=0, theta1=0, theta2=0)
    s = step(CpgState(0.5, 0.5), flat)
    assert s.x1 == 0.5 and s.x2 == 0.5


def test_step_is_pure():
    a = step(CpgState(0.3, 0.7, 5), P, 0.1, -0.2)
    b = step(CpgState(0.3, 0.7, 5), P, 0.1, -0.2)
    assert a == b


def test_step_rejects_nonfinite():
    with pytest.raises(ValueError):
        step(CpgState(float("nan"), 0.5), P)
    with pytest.raises(ValueError):
        step(CpgState(0.5, 0.5), P, c1=float("inf"))
    with pytest.raises(ValueError):
        CpgParams(w11=float("nan"))


@pytest.mark.parametrize("p", [4, 5, 6, 8, 9])
def test_run_controlled_locks_gait_periods(p):
    traj = run_controlled(P, p, 2000, init=(0.37, 0.61))
    assert detect_period(traj.x1) == p
    # recurrence error at the last full-period checkpoint
    k = (2000 // p) * p
    d2 = (traj.x1[k] - traj.x1[k - p]) ** 2 + (traj.x2[k] - traj.x2[k - p]) ** 2
    assert d2 < 1e-8


def test_run_controlled_p1_reaches_fixed_point():
    traj = run_controlled(P, 1, 2000)
    assert float(np.var(traj.x1[-100:])) < 1e-12
    assert float(np.var(traj.x2[-100:])) < 1e-12


def test_run_controlled_single_step_is_free_map():
    traj = run_controlled(P, 4, 1, init=(0.25, 0.5))
    ex1, ex2 = hand_step(0.25, 0.5)
    assert traj.x1[1] == pytest.approx(ex1) and traj.x2[1] == pytest.approx(ex2)


def test_run_controlled_validates_arguments():
    with pytest.raises(ValueError):
        run_controlled(P, 0, 100)
    with pytest.raises(ValueError):
        run_controlled(P, 4, 0)
    with pytest.raises(ValueError):
        run_controlled(P, 4, 100, init=(0.0, 0.5))
    with pytest.raises(ValueError):
        run_controlled(P, 4, 100, init=(0.5,))


def test_run_controlled_bit_identical_reruns():
    a = run_controlled(P, 5, 800, init=(0.3, 0.4))
    b = run_controlled(P, 5, 800, init=(0.3, 0.4))
    for name in ("x1", "x2", "c1", "c2"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_trajectory_sequence_protocol():
    traj = run_controlled(P, 4, 50)
    assert len(traj) == 51
    s = traj[10]
    assert isinstance(s, CpgState) and s.t == 10
    assert [st.t for st in traj][:3] == [0, 1, 2]


def test_activity_stays_in_open_unit_interval():
    traj = run_controlled(P, 4, 1500, init=(0.9, 0.05))
    free = run_controlled(P, 4, 1500, init=(0.9, 0.05), enabled=False)
    for tr in (traj, free):
        assert np.all(tr.x1 > 0) and np.all(tr.x1 < 1)
        assert np.all(tr.x2 > 0) and np.all(tr.x2 < 1)


def test_uncontrolled_run_has_zero_inputs_and_no_lock():
    traj = run_controlled(P, 4, 1500, enabled=False)
    assert traj.lock_step is None
    assert np.all(traj.c1 == 0) and np.all(traj.c2 == 0)
    assert detect_period(traj.x1) is None


def test_trajectory_csv_layout(tmp_path):
    import json
    from chaoscpg.cli import main
    out = tmp_path / "cpg"
    assert main(["--out", str(out), "run-cpg", "--p", "4", "--steps", "20"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[:2] == [f"# config_hash={man['config_hash']}", "# seed=0"]
    assert lines[2] == "t,x1,x2,c1,c2"
    assert len(lines) == 3 + 21
    traj = run_controlled(P, 4, 20)
    assert lines[-1].split(",") == [str(traj.t[-1])] + [
        repr(float(c[-1])) for c in (traj.x1, traj.x2, traj.c1, traj.c2)]


def test_detect_period_basics():
    assert detect_period([0.5] * 30) == 1
    assert detect_period([0.2, 0.8] * 20) == 2
    rng = np.random.default_rng(1)
    assert detect_period(rng.uniform(0, 1, 90)) is None
    with pytest.raises(ValueError):
        detect_period([])
    with pytest.raises(ValueError):
        detect_period([1.0, 2.0, 3.0], tol=0.0)


def test_detect_period_oracle_on_controlled_run():
    traj = run_controlled(P, 4, 2000)
    assert detect_period(traj.x1) == 4


def test_period_three_never_locks():
    # the free map has no prime period-3 orbit, so control finds nothing
    traj = run_controlled(P, 3, 2000)
    assert traj.lock_step is None
    assert detect_period(traj.x1) is None


unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=120)
@given(p=st.sampled_from(GAIT_PERIODS), x1=unit, x2=unit)
def test_gait_periods_lock_from_any_start(p, x1, x2):
    traj = run_controlled(P, p, 2000, init=(x1, x2))
    k = traj.lock_step
    assert k is not None
    # x1 joins the loop at the lock step, x2 one step later
    x1s, x2s = traj.x1[k:], traj.x2[k + 1:]
    assert np.array_equal(x1s[p:], x1s[:-p])
    assert np.array_equal(x2s[p:], x2s[:-p])
    assert detect_period(traj.x1) == p


@pytest.mark.parametrize("p", GAIT_PERIODS)
def test_catalogue_loops_replay_exactly(p):
    catalogue = core._catalogue(P, p)
    assert catalogue
    for points, c1s in catalogue:
        assert len(points) == len(c1s) == p
        for k, (x1, x2) in enumerate(points):
            nx1, nx2 = points[(k + 1) % p]
            # the free map carries each point to the next: the second
            # neuron exactly, the first up to the tiny replay input
            free = step(CpgState(x1, x2), P)
            assert free.x2 == nx2 and abs(free.x1 - nx1) < 1e-12
            assert step(CpgState(x1, x2), P, c1s[k]).x1 == pytest.approx(
                nx1, rel=1e-14, abs=0.0)
            assert abs(c1s[k]) < 1e-9
        # prime period: the loop visits p distinct points
        assert all(max(abs(a - b) for a, b in zip(points[0], points[q])) > 1e-6
                   for q in range(1, p))
    # distinct loops share no point
    starts = [points[0] for points, _ in catalogue]
    for i, (points, _) in enumerate(catalogue):
        for s in starts[i + 1:]:
            assert all(max(abs(s[0] - a), abs(s[1] - b)) > 1e-6 for a, b in points)
    core._catalogue.cache_clear()
    assert core._catalogue(P, p) == catalogue


def test_period_without_orbits_never_searches_again(monkeypatch):
    run_controlled(P, 3, 10)  # builds the period's (empty) catalogue
    searches = []
    find_orbit = core.find_orbit
    monkeypatch.setattr(core, "find_orbit",
                        lambda *args: searches.append(args) or find_orbit(*args))
    traj = run_controlled(P, 3, 2000)
    assert traj.lock_step is None and searches == []


def test_orbit_search_stops_once_the_jacobian_overflows():
    # e^(0.3 p) overflows long before p = 10**6 steps are taken
    assert all(math.isnan(v) for v in core._cycle_jacobian(P, 0.3, 0.6, 10**6))
    assert core.find_orbit(P, 10**6, (0.3, 0.6)) is None


def test_lyapunov_positive_and_consistent():
    l1 = lyapunov_estimate(P, steps=30_000, init=(0.1, 0.2))
    l2 = lyapunov_estimate(P, steps=30_000, init=(0.77, 0.33))
    assert l1 > 0 and l2 > 0
    assert abs(l1 - l2) < 0.05


def test_lyapunov_negative_for_contracting_map():
    flat = CpgParams(w11=0, w12=0, w21=0, w22=0, theta1=0.3, theta2=-0.2)
    assert lyapunov_estimate(flat, steps=5_000) < 0
