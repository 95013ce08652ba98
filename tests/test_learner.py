"""Annealed period search: acceptance rule, proposals, bookkeeping."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscpg import learner
from chaoscpg.core import GAIT_PERIODS
from chaoscpg.learner import (Decision, LearnerConfig, PERIOD_CHOICES,
                              _propose, accept, learn, plant_evaluator,
                              sweep_beta)
from chaoscpg.network import LegId, Morphology
from chaoscpg.plant import PlantConfig, Scenario, all_fours, simulate_window

CFG = PlantConfig()
EVAL = plant_evaluator(CFG)


def key(periods):
    return tuple(sorted((l.value, p) for l, p in periods.items()))


def bits(x):
    return struct.pack("<d", x)


def test_accept_probability_value():
    # worked example: beta 0.5, deterioration 64.12 - 21.46
    prob = math.exp(-0.5 * (64.12 - 21.46))
    assert abs(prob - 5.45e-10) / 5.45e-10 < 0.01
    assert accept(64.12 - 21.46, 0.5, prob * 0.99)
    assert not accept(64.12 - 21.46, 0.5, prob * 1.01)


def test_accept_improvements_always():
    assert accept(-0.001, 0.5, 1.0)
    assert accept(-50.0, 100.0, 1.0)


def test_accept_beta_zero_accepts_everything():
    rng = np.random.default_rng(0)
    assert all(accept(float(rng.uniform(0, 100)), 0.0, float(rng.uniform()))
               for _ in range(200))


def test_accept_strict_greedy_rejects_flat_and_worse():
    assert not accept(0.0, math.inf, 0.5)
    assert not accept(5.0, math.inf, 0.0001)
    assert accept(-1e-9, math.inf, 1.0)


def test_accept_validates_x():
    with pytest.raises(ValueError):
        accept(1.0, 0.5, 1.5)


def test_accept_empirical_frequency_small():
    rng = np.random.default_rng(42)
    delta, beta, n = 1.5, 0.5, 20_000
    hits = sum(accept(delta, beta, float(rng.uniform())) for _ in range(n))
    p = math.exp(-beta * delta)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * se


def digits(code, n):
    return [code // 5 ** i % 5 for i in range(n)]


def test_propose_changes_one_functional_leg():
    rng = np.random.default_rng(1)
    weights = [5 ** i for i in range(5)]    # five functional legs
    for _ in range(100):
        code = int(rng.integers(5 ** 5))
        walked = bytearray(5 ** 5)
        walked[code] = 1
        cand, _ = _propose(code, walked, weights, rng)
        changed = [a != b for a, b in zip(digits(cand, 5), digits(code, 5))]
        assert 0 <= cand < 5 ** 5
        assert sum(changed) == 1


def test_propose_pigeonhole_returns_last_combination():
    rng = np.random.default_rng(2)
    walked = bytearray([1]) * 25            # two functional legs
    target = 3 + 5 * 4                      # periods 8 and 9
    walked[target] = 0
    cand, skipped = _propose(0, walked, [1, 5], rng)
    assert cand == target
    assert skipped >= 1


def test_propose_exhausted_space(monkeypatch):
    # learn stops at exhaustion and never proposes into full flags, where
    # _propose would draw forever
    calls = []

    def checked(code, walked, weights, rng):
        assert not all(walked)
        calls.append(code)
        return _propose(code, walked, weights, rng)

    monkeypatch.setattr(learner, "_propose", checked)
    for n in (1, 2, 3):
        calls.clear()
        disabled = Morphology.HEXAPOD.legs[n:]
        trace = learn(EVAL, all_fours(CFG, disabled),
                      LearnerConfig(seed=3, e_req=1e-9, max_trials=1000))
        assert trace.exhausted
        assert len(calls) == 5 ** n - 1


# n = 1 draws nothing; 2**31 is the trial seed; n below 2**32 with a large
# 2**32 % n often reaches the rejection loop
DRAW_BOUNDS = st.one_of(st.sampled_from([1, 2, 5, 6, 2 ** 31]),
                        st.integers(1, 2 ** 32 - 1),
                        st.integers(2 ** 31, 2 ** 32 - 1))


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 64), prefix=st.integers(0, 130),
       calls=st.lists(st.one_of(st.none(), DRAW_BOUNDS), max_size=80))
def test_draws_replay_numpy_scalar_stream(seed, prefix, calls):
    # None stands for a random() call, n for integers(n); the prefix of
    # random() calls places the calls anywhere across the 64-word refills
    draws = learner._Draws(seed)
    rng = np.random.default_rng(seed)
    for n in [None] * prefix + calls:
        if n is None:
            assert bits(draws.random()) == bits(rng.random())
        else:
            assert draws.integers(n) == rng.integers(n)
    # both streams end at the same word and the same kept half
    assert draws.integers(2 ** 31) == rng.integers(2 ** 31)
    assert bits(draws.random()) == bits(rng.random())


def test_draws_rejection_loop_matches_numpy():
    # 2**32 % n is 2**31 - 1, so about half of all 32-bit draws are rejected
    n = 2 ** 31 + 1
    draws = learner._Draws(12)
    uint32 = draws._uint32
    used = []

    def counted():
        used.append(1)
        return uint32()

    draws._uint32 = counted
    rng = np.random.default_rng(12)
    assert [draws.integers(n) for _ in range(300)] == \
           [int(rng.integers(n)) for _ in range(300)]
    assert len(used) > 400     # more than three 64-word refills


def _session(trace):
    return ([(r.n, r.periods, bits(r.deviation), r.decision, r.seed)
             for r in trace.records],
            trace.total_evaluations, trace.duplicate_skips, trace.exhausted,
            trace.outcome)


@pytest.mark.parametrize("morphology", list(Morphology), ids=lambda m: m.label)
def test_learn_draws_match_numpy_generator(monkeypatch, morphology):
    # learn on the replayed stream walks exactly as on numpy's Generator,
    # for every number of functional legs: one leg draws integers(1)
    cfg = PlantConfig(morphology=morphology)
    evaluate = plant_evaluator(cfg)
    legs = morphology.legs
    sessions = 0
    for n in range(1, len(legs) + 1):
        for functional in dict.fromkeys((legs[:n], legs[-n:])):
            scenario = all_fours(cfg, set(legs) - set(functional))
            for beta, seed, e_req in itertools.product(
                    (0.0, 0.5, math.inf), (0, 5, 7919 * 3 + 26), (8.0, 1e-9)):
                lcfg = LearnerConfig(beta=beta, e_req=e_req, max_trials=60,
                                     seed=seed)
                got = learn(evaluate, scenario, lcfg)
                with monkeypatch.context() as m:
                    m.setattr(learner, "_Draws", np.random.default_rng)
                    want = learn(evaluate, scenario, lcfg)
                assert _session(got) == _session(want), (n, functional, lcfg)
                sessions += 1
    assert sessions == 18 * (2 * len(legs) - 1)


def test_learn_converges_and_obeys_bookkeeping():
    for seed in range(30):
        trace = learn(EVAL, all_fours(CFG, {LegId.R1}),
                      LearnerConfig(seed=seed, max_trials=100))
        assert trace.converged
        assert abs(trace.final.deviation) < 8.0
        # no combination evaluated twice
        keys = [key(r.periods) for r in trace.records]
        assert len(keys) == len(set(keys))
        # disabled leg never appears in any trial
        assert all(LegId.R1 not in r.periods for r in trace.records)
        assert trace.total_evaluations == len(trace.records)


def test_learn_rollback_to_last_kept():
    # replay the decision sequence: the proposal base after a rejection is
    # the last kept combination, not the rejected one
    trace = learn(EVAL, all_fours(CFG, {LegId.R1, LegId.R2}),
                  LearnerConfig(seed=5, max_trials=150))
    kept = dict(trace.initial)
    for rec in trace.records[1:]:
        changed = [l for l in rec.periods if rec.periods[l] != kept[l]]
        # a proposal random-walks from the kept combination, never from an
        # aborted one; at least its first draw starts there
        assert changed, "proposal must differ from the kept combination"
        if rec.decision is not Decision.ABORTED:
            kept = dict(rec.periods)
    assert trace.kept_periods() == kept


def test_learn_immediate_convergence_for_balanced_scenario():
    # mirror-symmetric failure: the all-4 start already walks straight
    trace = learn(EVAL, all_fours(CFG, {LegId.R1, LegId.L1}),
                  LearnerConfig(seed=0))
    assert trace.converged
    assert trace.total_evaluations == 1
    assert len(trace.records) == 1


@pytest.mark.parametrize("functional", [[LegId.L3], [LegId.R2, LegId.R3]],
                         ids=["1-leg", "2-legs"])
def test_learn_exhausts_tiny_space(functional):
    disabled = set(Morphology.HEXAPOD.legs) - set(functional)
    trace = learn(EVAL, all_fours(CFG, disabled),
                  LearnerConfig(seed=1, e_req=1e-9))
    assert trace.exhausted
    assert trace.outcome == "search-space-exhausted"
    # the whole 5^n space, every combination walked exactly once
    walked = [key(r.periods) for r in trace.records]
    assert trace.total_evaluations == len(walked) == 5 ** len(functional)
    assert set(walked) == {key(dict(zip(functional, ps))) for ps in
                           itertools.product(PERIOD_CHOICES,
                                             repeat=len(functional))}


@pytest.mark.parametrize("start", [{LegId.L3: 1}, {LegId.L3: 7},
                                   {LegId.L3: 4.0}, {LegId.L3: True}],
                         ids=["period-1", "period-7", "float", "bool"])
def test_learn_rejects_start_outside_search_set(start):
    # a start outside the 5^n space would miscount exhaustion: from
    # {L3: 1}, five evaluations would end the session with period 4 unwalked
    disabled = set(Morphology.HEXAPOD.legs) - {LegId.L3}
    with pytest.raises(ValueError, match="start periods"):
        learn(EVAL, Scenario(disabled, start),
              LearnerConfig(seed=1, e_req=1e-9))


def test_learn_deterministic_per_seed():
    a = learn(EVAL, all_fours(CFG, {LegId.R3}), LearnerConfig(seed=9))
    b = learn(EVAL, all_fours(CFG, {LegId.R3}), LearnerConfig(seed=9))
    assert [(r.n, r.deviation, r.decision) for r in a.records] == \
           [(r.n, r.deviation, r.decision) for r in b.records]


def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(beta=-0.1)
    with pytest.raises(ValueError):
        LearnerConfig(e_req=0.0)
    for bad in (dict(beta=math.nan), dict(e_req=math.nan),
                dict(e_req=math.inf), dict(max_trials=0)):
        with pytest.raises(ValueError):
            LearnerConfig(**bad)


def test_sweep_beta_stats_and_labels():
    rows = sweep_beta(EVAL, all_fours(CFG, {LegId.R1, LegId.R2}),
                      [0.0, 0.5, 10.0], runs=25, seed=3)
    by_beta = {r["beta"]: r for r in rows}
    assert by_beta[0.0]["label"] == "random-permutation"
    assert by_beta[10.0]["label"] == "greedy"
    assert by_beta[0.5]["label"] == "annealing"
    assert by_beta[0.0]["mean_trials"] >= by_beta[0.5]["mean_trials"]
    single = sweep_beta(EVAL, all_fours(CFG, {LegId.R1}), [0.5], runs=1, seed=0)
    assert single[0]["sd_trials"] == 0.0


def test_sweep_beta_strict_greedy_label():
    rows = sweep_beta(EVAL, all_fours(CFG, {LegId.R1}), [0.5, math.inf],
                      runs=2, seed=0)
    assert rows[1]["label"] == "strict-greedy"
    assert rows[0]["label"] == "annealing"


@settings(max_examples=60)
@given(st.data())
def test_memoised_evaluator_is_exact(data):
    legs = Morphology.HEXAPOD.legs
    noise = data.draw(st.sampled_from([0.0, 0.5, 3.0]))
    cfg = PlantConfig(noise=noise)
    disabled = data.draw(st.sets(st.sampled_from(legs)))
    functional = [l for l in legs if l not in disabled]
    periods = {l: data.draw(st.sampled_from(GAIT_PERIODS)) for l in functional}
    order = data.draw(st.permutations(functional))
    s = Scenario(disabled, {l: periods[l] for l in order})
    seeds = data.draw(st.lists(st.integers(0, 2 ** 31 - 1), min_size=2,
                               max_size=4))
    evaluate = plant_evaluator(cfg)
    for seed in seeds:
        want = bits(simulate_window(cfg, s, seed=seed).delta_phi)
        assert bits(evaluate(s, seed)) == want       # computed
        assert bits(evaluate(s, seed)) == want       # remembered
        # the same map in morphology order is the same combination
        assert bits(evaluate(Scenario(disabled, periods), seed)) == want
        # a remembered map under an inconsistent disabled set still fails,
        # and so does one with a float or a bool period
        if functional:
            with pytest.raises(ValueError):
                evaluate(Scenario(disabled | {functional[0]}, periods), seed)
            leg = functional[0]
            for bad in (float(periods[leg]), True):
                with pytest.raises(ValueError):
                    evaluate(Scenario(disabled, {**periods, leg: bad}), seed)


@pytest.mark.parametrize("noise", [0.0, 0.5])
def test_remembered_combination_still_rejects_invalid_scenarios(noise,
                                                               monkeypatch):
    windows = []

    def counted_window(*args, **kwargs):
        windows.append(args)
        return simulate_window(*args, **kwargs)

    monkeypatch.setattr(learner, "simulate_window", counted_window)
    for morphology, disabled in ((Morphology.QUADRUPED, {LegId.L2}),
                                 (Morphology.HEXAPOD, {LegId.R1, LegId.L3})):
        cfg = PlantConfig(morphology=morphology, noise=noise)
        evaluate = plant_evaluator(cfg)
        leg = LegId.R2
        good = Scenario(disabled, {l: 1 if l is leg else 4
                                   for l in morphology.legs
                                   if l not in disabled})
        want = bits(evaluate(good, 3))
        windows.clear()
        # every bad map below gives the remembered period to each leg of
        # the morphology.  4.0, 1.0 and True equal remembered ints, so
        # those maps are memo hits; the others are keyed apart by their
        # disabled set or period count and reach simulate_window
        hits = [Scenario(disabled, {**good.periods, LegId.L1: 4.0}),
                Scenario(disabled, {**good.periods, leg: 1.0}),
                Scenario(disabled, {**good.periods, leg: True})]
        misses = [Scenario(disabled | {leg}, good.periods),
                  Scenario(disabled - {next(iter(disabled))}, good.periods),
                  Scenario(disabled, {**good.periods, leg: [1]})]
        if morphology is Morphology.QUADRUPED:
            # R3 is no quadruped leg, so the map has one period too many
            misses.append(Scenario(disabled, {**good.periods, LegId.R3: 4}))
        for s in hits:
            with pytest.raises(ValueError, match="not usable"):
                evaluate(s, 3)
        assert windows == []
        for s in misses:
            with pytest.raises(ValueError):
                evaluate(s, 3)
        assert len(windows) == len(misses)
        assert bits(evaluate(good, 3)) == want


def test_memoised_evaluator_computes_each_combination_once(monkeypatch):
    cfg = PlantConfig()
    scenario = all_fours(cfg, {LegId.R1, LegId.R2})
    betas, runs = [0.0, 0.5, 10.0, math.inf], 4

    def plain(s, seed):
        return simulate_window(cfg, s, seed=seed).delta_phi

    expected = sweep_beta(plain, scenario, betas, runs=runs, seed=11)

    windows = []
    traces = []

    def counted_window(*args, **kwargs):
        windows.append(args)
        return simulate_window(*args, **kwargs)

    def kept_learn(*args, **kwargs):
        traces.append(learn(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(learner, "simulate_window", counted_window)
    monkeypatch.setattr(learner, "learn", kept_learn)
    rows = sweep_beta(plant_evaluator(cfg), scenario, betas, runs=runs,
                      seed=11)
    assert rows == expected
    assert len(traces) == len(betas) * runs
    walked = {key(rec.periods) for t in traces for rec in t.records}
    trials = sum(t.total_evaluations for t in traces)
    assert len(windows) == len(walked) < trials


def test_trace_serialization(tmp_path):
    import json
    from chaoscpg.cli import main
    out = tmp_path / "learn"
    assert main(["--out", str(out), "learn", "--disable", "R1",
                 "--seed", "4"]) == 0
    trace = learn(EVAL, all_fours(CFG, {LegId.R1}), LearnerConfig(seed=4))
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and lines[1] == "# seed=4"
    assert lines[2] == "trial,R1,R2,R3,L1,L2,L3,deviation_deg,decision"
    assert lines[3].split(",")[1] == "-"  # disabled leg flagged
    assert len(lines) == 3 + len(trace.records)
    parsed = json.loads((out / "trace.json").read_text())
    assert parsed["outcome"] == "converged"
    assert parsed["trials"][0]["decision"] == "kept"
    assert len(parsed["trials"]) == len(trace.records)
