"""Surrogate plant: symmetry, calibration and config handling."""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscpg import plant
from chaoscpg.core import GAIT_PERIODS
from chaoscpg.gait import motor_rhythm
from chaoscpg.network import LegId, Morphology
from chaoscpg.plant import (PlantConfig, Scenario, all_fours, load_config,
                            mirror, save_config, simulate_window)

CFG = PlantConfig()
QCFG = PlantConfig(morphology=Morphology.QUADRUPED)
HEX_LEGS = Morphology.HEXAPOD.legs


def dev(cfg, scenario, seed=0):
    return simulate_window(cfg, scenario, seed=seed).delta_phi


def random_scenario(rng, cfg=CFG, max_disabled=3):
    legs = list(cfg.morphology.legs)
    k = int(rng.integers(0, max_disabled + 1))
    disabled = {legs[i] for i in rng.permutation(len(legs))[:k]}
    periods = {l: int(rng.choice([4, 5, 6, 8, 9]))
               for l in legs if l not in disabled}
    return Scenario(disabled, periods)


def test_symmetric_scenarios_deviate_exactly_zero():
    for p in (1, 4, 5, 6, 8, 9):
        s = Scenario(set(), {l: p for l in HEX_LEGS})
        assert dev(CFG, s) == 0.0
    # mirror-symmetric disabled set with mirror-symmetric periods
    s = Scenario({LegId.R2, LegId.L2},
                 {LegId.R1: 5, LegId.L1: 5, LegId.R3: 9, LegId.L3: 9})
    assert dev(CFG, s) == 0.0


def test_mirror_swaps_labels_and_is_involution():
    s = Scenario({LegId.L2, LegId.L3},
                 {LegId.R1: 4, LegId.R2: 5, LegId.R3: 6, LegId.L1: 8})
    m = mirror(s)
    assert m.disabled == {LegId.R2, LegId.R3}
    assert m.periods[LegId.L2] == 5
    mm = mirror(m)
    assert mm.disabled == s.disabled and mm.periods == s.periods


def test_mirror_flips_deviation_sign_exactly():
    rng = np.random.default_rng(7)
    for _ in range(60):
        s = random_scenario(rng)
        assert dev(CFG, mirror(s)) == -dev(CFG, s)


def test_single_disabled_leg_turns_toward_that_side():
    for leg in HEX_LEGS:
        d = dev(CFG, all_fours(CFG, {leg}))
        assert abs(d) > 8.0, f"{leg.value}: initial deviation {d}"
        assert (d > 0) == (leg.side == "R")


def test_learned_combination_reduces_r1_deviation():
    base = abs(dev(CFG, all_fours(CFG, {LegId.R1})))
    combo = Scenario({LegId.R1}, {LegId.R2: 5, LegId.R3: 4, LegId.L1: 5,
                                  LegId.L2: 6, LegId.L3: 5})
    assert abs(dev(CFG, combo)) < base


def test_every_battery_scenario_has_a_compensating_combination():
    from chaoscpg.scenarios import battery
    for disabled in battery(Morphology.HEXAPOD):
        functional = [l for l in HEX_LEGS if l not in disabled]
        best = min(
            abs(dev(CFG, Scenario(disabled, dict(zip(functional, combo)))))
            for combo in itertools.product((4, 5, 6, 8, 9),
                                           repeat=len(functional)))
        assert best < 8.0, f"{sorted(l.value for l in disabled)}: best {best}"


def test_deterministic_evaluation():
    s = all_fours(CFG, {LegId.R2})
    assert dev(CFG, s, seed=5) == dev(CFG, s, seed=5)
    noisy = PlantConfig(noise=0.3)
    assert dev(noisy, s, seed=5) == dev(noisy, s, seed=5)
    assert dev(noisy, s, seed=5) != dev(noisy, s, seed=6)


def test_slowing_a_leg_steers_toward_it_when_support_is_ample():
    # with the support budget out of the way the per-leg effect is additive:
    # raising a left leg's period always steers left, and mirrored for right
    cfg = PlantConfig(support_budget=10.0, load_per_disabled=0.0)
    rng = np.random.default_rng(3)
    for _ in range(40):
        s = random_scenario(rng, cfg)
        for leg, p in s.periods.items():
            higher = [q for q in (4, 5, 6, 8, 9) if q > p]
            if not higher:
                continue
            q = int(rng.choice(higher))
            bumped = Scenario(s.disabled, {**s.periods, leg: q})
            shift = dev(cfg, bumped) - dev(cfg, s)
            assert (shift < 0) == (leg.side == "L")
            assert shift != 0.0


def test_stance_force_falls_off_with_period():
    from chaoscpg.gait import DUTY_FACTORS
    # per-cycle impulse strictly decreasing in the period
    impulses = [CFG.stance_force(p) * CFG.expansion * p * DUTY_FACTORS[p]
                for p in (4, 5, 6, 8, 9)]
    assert all(a > b for a, b in zip(impulses, impulses[1:]))


def test_scenario_validation():
    with pytest.raises(ValueError):
        # disabled leg also carries a period
        simulate_window(CFG, Scenario({LegId.R1}, {l: 4 for l in HEX_LEGS}))
    with pytest.raises(ValueError):
        # missing a functional leg
        simulate_window(CFG, Scenario(set(), {l: 4 for l in HEX_LEGS[:5]}))
    with pytest.raises(ValueError):
        simulate_window(QCFG, all_fours(CFG, {LegId.R3}))
    bad = {l: 4 for l in HEX_LEGS}
    bad[LegId.L1] = 7
    with pytest.raises(ValueError):
        simulate_window(CFG, Scenario(set(), bad))


def test_geometry_must_mirror():
    geo = {l: (1.0 if l.side == "R" else -1.0, 0.0) for l in HEX_LEGS}
    geo[LegId.L2] = (-1.5, 0.0)  # breaks the reflection
    with pytest.raises(ValueError):
        PlantConfig(geometry=geo)


def test_config_file_round_trip(tmp_path):
    cfg = PlantConfig(turn_gain=2.25, noise=0.1)
    path = tmp_path / "plant.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("morphology = hexapod\nwarp_drive = 9\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_quadruped_defaults_calibrated():
    for leg in QCFG.morphology.legs:
        d = dev(QCFG, all_fours(QCFG, {leg}))
        assert abs(d) > 8.0
        assert (d > 0) == (leg.side == "R")


@settings(max_examples=25)
@given(st.integers(0, 2 ** 31 - 1))
def test_mirror_antisymmetry_property(seed):
    rng = np.random.default_rng(seed)
    s = random_scenario(rng)
    assert dev(CFG, mirror(s)) == -dev(CFG, s)


@settings(max_examples=60)
@given(st.data())
def test_symmetry_invariants_hold_for_any_key_order(data):
    morphology = data.draw(st.sampled_from(list(Morphology)))
    rights = [l for l in morphology.legs if l.side == "R"]
    # uneven lateral levers, so the summation order shows in the low bits
    geometry = {}
    for leg in rights:
        lever = data.draw(st.floats(0.25, 2.0))
        geometry[leg] = (lever, 0.0)
        geometry[leg.mirrored] = (-lever, 0.0)
    cfg = PlantConfig(morphology=morphology, geometry=geometry)
    periods = st.sampled_from([4, 5, 6, 8, 9])

    def shuffled(disabled, period_map):
        order = data.draw(st.permutations(sorted(period_map)))
        return Scenario(disabled, {l: period_map[l] for l in order})

    # each right leg shares its fate with its mirror
    sym_disabled = data.draw(st.sets(st.sampled_from(rights)))
    sym = {}
    for leg in rights:
        if leg not in sym_disabled:
            sym[leg] = sym[leg.mirrored] = data.draw(periods)
    sym_disabled |= {l.mirrored for l in sym_disabled}
    assert dev(cfg, shuffled(sym_disabled, sym)) == 0.0

    disabled = data.draw(st.sets(st.sampled_from(morphology.legs)))
    s = shuffled(disabled, {l: data.draw(periods)
                            for l in morphology.legs if l not in disabled})
    m = mirror(s)
    assert dev(cfg, shuffled(m.disabled, m.periods)) == -dev(cfg, s)


@pytest.mark.parametrize("bad", [
    dict(thrust_gain=-1.0), dict(falloff=math.nan), dict(drag=-0.004),
    dict(turn_gain=math.inf), dict(noise=-0.1), dict(expansion=0)])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        PlantConfig(**bad)


def test_stance_rhythm_cache_is_read_only():
    from chaoscpg.gait import motor_rhythm
    from chaoscpg.plant import _stance_rhythm
    for p in (1, 4, 5, 6, 8, 9):
        cached = _stance_rhythm(p, 400, 8)
        assert cached is _stance_rhythm(p, 400, 8)
        assert np.array_equal(cached, motor_rhythm(p, 400, 8))
        with pytest.raises(ValueError):
            cached[0] = not cached[0]
    fresh = motor_rhythm(4, 400, 8)
    assert fresh.flags.writeable
    assert not np.shares_memory(fresh, motor_rhythm(4, 400, 8))
    fresh[0] = False  # writing a fresh rhythm leaves the cached one alone
    assert _stance_rhythm(4, 400, 8)[0]


def test_eval_log(tmp_path):
    import json
    from chaoscpg.cli import main
    out = tmp_path / "learn"
    assert main(["--out", str(out), "learn", "--disable", "R1",
                 "--seed", "7"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    lines = (out / "evaluations.csv").read_text().splitlines()
    assert lines[:2] == [f"# config_hash={man['config_hash']}", "# seed=7"]
    assert lines[2] == "disabled,periods,seed,delta_phi_deg"
    assert lines[3].startswith("R1,L1=4 L2=4 L3=4 R2=4 R3=4,")
    assert len(lines) == 3 + man["total_evaluations"]


def reference_window(cfg, scenario, seed):
    """The window formula written out without any cache: fresh rhythms,
    each side's forces added front to hind from zero, then capped."""
    scenario.validate(cfg)
    w = cfg.window
    thrust = [np.zeros(w), np.zeros(w)]
    drag_lever = [0.0, 0.0]
    for leg in cfg.morphology.legs:
        lat = cfg.geometry[leg][0]
        right = lat > 0
        if leg in scenario.disabled:
            drag_lever[right] += abs(lat)
        else:
            p = scenario.periods[leg]
            force = (abs(lat) * cfg.stance_force(p)
                     * motor_rhythm(p, w, cfg.expansion))
            thrust[right] = thrust[right] + force
    cap = max(cfg.support_budget
              - cfg.load_per_disabled * len(scenario.disabled), 0.0)
    yaw = np.minimum(thrust[0], cap) - np.minimum(thrust[1], cap)
    drag_torque = cfg.drag * (drag_lever[1] - drag_lever[0])
    delta = cfg.turn_gain * (float(yaw.sum()) + drag_torque * w)
    if cfg.noise:
        delta += cfg.noise * float(np.random.default_rng(seed).standard_normal())
    return delta


@settings(max_examples=80)
@given(st.data())
def test_cached_sides_match_the_uncached_formula_bit_for_bit(data):
    morphology = data.draw(st.sampled_from(list(Morphology)))
    geometry = {}
    for leg in morphology.legs:
        if leg.side == "R":
            # an irrational factor keeps the forces inexact, so the order
            # of the per-side sum shows in the low bits
            lever = data.draw(st.floats(0.25, 2.0)) * math.sqrt(2.0)
            geometry[leg] = (lever, 0.0)
            geometry[leg.mirrored] = (-lever, 0.0)
    cfg = PlantConfig(
        morphology=morphology, geometry=geometry,
        window=data.draw(st.integers(1, 400)),
        expansion=data.draw(st.integers(1, 12)),
        thrust_gain=data.draw(st.floats(0.1, 3.0)),
        falloff=data.draw(st.floats(0.0, 3.0)),
        # the cap binds always (zero, either sign), often or never
        support_budget=data.draw(st.one_of(st.sampled_from([0.0, -0.0]),
                                           st.floats(0.0, 0.5),
                                           st.floats(0.5, 10.0))),
        load_per_disabled=data.draw(st.floats(0.0, 0.3)),
        noise=data.draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0))))
    # same legs and cap, other drag, gain and noise: the same cached sides
    other = dataclasses.replace(
        cfg, drag=data.draw(st.floats(0.0, 0.01)),
        turn_gain=data.draw(st.floats(0.5, 3.0)),
        noise=data.draw(st.floats(0.01, 3.0)))
    scenario = st.sets(st.sampled_from(morphology.legs)).flatmap(
        lambda disabled: st.builds(
            Scenario, st.just(disabled),
            st.fixed_dictionaries({l: st.sampled_from(GAIT_PERIODS)
                                   for l in morphology.legs
                                   if l not in disabled})))
    runs = data.draw(st.lists(
        st.tuples(st.sampled_from([cfg, other]), scenario,
                  st.integers(0, 2 ** 31 - 1)), min_size=1, max_size=8))
    runs += [(c, mirror(s), seed) for c, s, seed in runs]
    want = [struct.pack("<d", reference_window(*run)) for run in runs]

    def check(order):
        for i in order:
            got = simulate_window(*runs[i]).delta_phi
            assert struct.pack("<d", got) == want[i]

    check(data.draw(st.permutations(range(len(runs)))))
    plant._capped_side.cache_clear()
    check(data.draw(st.permutations(range(len(runs)))))
    check(range(len(runs)))


def test_capped_side_cache_is_bounded_and_read_only():
    side = plant._capped_side(((1.0, 4),), 400, 8, 0.23)
    assert side is plant._capped_side(((1.0, 4),), 400, 8, 0.23)
    with pytest.raises(ValueError):
        side[0] = 0.0
    assert plant._capped_side.cache_info().maxsize == 128
