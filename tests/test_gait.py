"""Rhythm generation, delay lines, classification and rendering."""

import numpy as np
import pytest

from chaoscpg.gait import (CYCLE_EXPANSION, DelayConfig,
                           GaitClass, GaitTrace, UnsupportedPeriodError,
                           apply_delays, classify_gait, gait_trace,
                           motor_rhythm, render_gait, rhythm_cycle)
from chaoscpg.network import LegId, Morphology

TRIPOD_A = (LegId.R1, LegId.R3, LegId.L2)
TRIPOD_B = (LegId.R2, LegId.L1, LegId.L3)


def test_rhythm_cycle_counts():
    cyc = rhythm_cycle(4, 8)
    assert len(cyc) == 32
    assert int(cyc.sum()) == 16
    # swing occupies one contiguous block
    flips = int(np.sum(cyc[1:] != cyc[:-1]))
    assert flips == 1


def test_motor_rhythm_p1_all_stance():
    assert motor_rhythm(1, 100).all()


def test_duty_factors_non_decreasing():
    duties = [motor_rhythm(p, CYCLE_EXPANSION * p).mean() for p in (4, 5, 6, 8, 9)]
    assert duties[0] == 0.5
    assert all(a <= b for a, b in zip(duties, duties[1:]))


def test_motor_rhythm_rejects_unusable_periods():
    for p in (2, 3, 7):
        with pytest.raises(UnsupportedPeriodError):
            motor_rhythm(p, 100)
    with pytest.raises(ValueError):
        motor_rhythm(4, 0)
    with pytest.raises(ValueError):
        motor_rhythm(4, 10, expansion=0)


def test_periodicity_of_each_leg():
    tr = gait_trace(Morphology.HEXAPOD, 5, steps=120)
    cycle = 5 * CYCLE_EXPANSION
    for i in range(len(tr.legs)):
        row = tr.stance[i]
        assert np.array_equal(row[cycle:], row[:-cycle])


def test_tripod_partition_at_p4():
    tr = gait_trace(Morphology.HEXAPOD, 4)
    a = np.all([tr.leg(l) for l in TRIPOD_A], axis=0)
    b = np.all([tr.leg(l) for l in TRIPOD_B], axis=0)
    # at every step exactly one full tripod group is planted
    assert np.all(a ^ b)
    for l1 in TRIPOD_A:
        assert np.array_equal(tr.leg(l1), tr.leg(TRIPOD_A[0]))
        assert np.array_equal(tr.leg(l1), ~tr.leg(TRIPOD_B[0]))


def test_quadruped_trot_at_p4():
    tr = gait_trace(Morphology.QUADRUPED, 4)
    assert np.array_equal(tr.leg(LegId.R1), tr.leg(LegId.L2))
    assert np.array_equal(tr.leg(LegId.R2), tr.leg(LegId.L1))
    assert np.array_equal(tr.leg(LegId.R1), ~tr.leg(LegId.R2))


def test_zero_delays_keep_input_rhythms():
    cyc = rhythm_cycle(4)
    tr = apply_delays({l: cyc for l in Morphology.HEXAPOD.legs},
                      DelayConfig(tau=0, tau_l=0))
    assert np.all(tr.stance == cyc)


def test_full_cycle_shift_is_identity():
    cyc = rhythm_cycle(4)
    tr = apply_delays({l: cyc for l in Morphology.HEXAPOD.legs},
                      DelayConfig(tau=len(cyc), tau_l=2 * len(cyc)))
    assert np.all(tr.stance == cyc)


def test_apply_delays_mixed_periods_lcm_length():
    tr = apply_delays({LegId.R1: rhythm_cycle(4), LegId.L1: rhythm_cycle(5)})
    assert tr.steps == np.lcm(32, 40)


def test_delay_direction_flag():
    cyc = rhythm_cycle(4)
    fwd = apply_delays({l: cyc for l in Morphology.HEXAPOD.legs},
                       DelayConfig(front_to_hind=True))
    rev = apply_delays({l: cyc for l in Morphology.HEXAPOD.legs},
                       DelayConfig(front_to_hind=False))
    assert np.array_equal(fwd.leg(LegId.R1), rev.leg(LegId.R3))


def test_delay_config_validation():
    with pytest.raises(ValueError):
        DelayConfig(tau=-1)


def test_classify_gait_mapping():
    assert classify_gait(4) is GaitClass.TRIPOD
    assert classify_gait(5) is GaitClass.TETRAPOD
    assert classify_gait(6) is GaitClass.TRANSITION
    assert classify_gait(8) is GaitClass.FAST_WAVE
    assert classify_gait(9) is GaitClass.SLOW_WAVE
    assert classify_gait(1) is GaitClass.STOP
    for p in (2, 3, 7, 10):
        with pytest.raises(UnsupportedPeriodError):
            classify_gait(p)


def test_render_ascii_shape_and_fill():
    tr = gait_trace(Morphology.HEXAPOD, 1, steps=12)
    text = render_gait(tr, "ascii")
    lines = text.splitlines()
    assert len(lines) == 6
    assert lines[0] == "R1 |############|"


def test_render_deterministic():
    tr = gait_trace(Morphology.HEXAPOD, 4)
    assert render_gait(tr, "ascii") == render_gait(tr, "ascii")
    assert render_gait(tr, "svg") == render_gait(tr, "svg")
    with pytest.raises(ValueError):
        render_gait(tr, "png")


def test_render_tripod_has_two_patterns():
    tr = gait_trace(Morphology.HEXAPOD, 4)
    lines = render_gait(tr, "ascii").splitlines()
    rows = {line.split("|")[1] for line in lines}
    assert len(rows) == 2


def test_gait_csv(tmp_path):
    tr = gait_trace(Morphology.QUADRUPED, 4, steps=8)
    path = tmp_path / "gait.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("leg,0,1")
    assert len(lines) == 5
    assert set(lines[1].split(",")[1:]) <= {"0", "1"}


def test_gait_trace_rectangularity():
    with pytest.raises(ValueError):
        GaitTrace(legs=(LegId.R1, LegId.L1), stance=np.zeros((3, 5), dtype=bool))
