"""Oscillator map, period control and diagnostics."""

import math

import numpy as np
import pytest

from chaoscpg.core import (CpgParams, CpgState, detect_period,
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
    traj = run_controlled(P, 4, 20)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, header_lines=["seed=0"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "t,x1,x2,c1,c2"
    assert len(lines) == 2 + 21


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


def test_lyapunov_positive_and_consistent():
    l1 = lyapunov_estimate(P, steps=30_000, init=(0.1, 0.2))
    l2 = lyapunov_estimate(P, steps=30_000, init=(0.77, 0.33))
    assert l1 > 0 and l2 > 0
    assert abs(l1 - l2) < 0.05


def test_lyapunov_negative_for_contracting_map():
    flat = CpgParams(w11=0, w12=0, w21=0, w22=0, theta1=0.3, theta2=-0.2)
    assert lyapunov_estimate(flat, steps=5_000) < 0
