"""Annealed period search: acceptance rule, proposals, bookkeeping."""

import math

import numpy as np
import pytest

from chaoscpg.learner import (Decision, LearnerConfig, PERIOD_CHOICES,
                              SearchSpaceExhausted, accept, learn,
                              plant_evaluator, propose, sweep_beta)
from chaoscpg.network import LegId, Morphology
from chaoscpg.plant import PlantConfig, all_fours

CFG = PlantConfig()
EVAL = plant_evaluator(CFG)


def key(periods):
    return tuple(sorted((l.value, p) for l, p in periods.items()))


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


def test_propose_changes_one_functional_leg():
    rng = np.random.default_rng(1)
    functional = [l for l in Morphology.HEXAPOD.legs if l is not LegId.R1]
    current = {l: 4 for l in functional}
    for _ in range(100):
        cand = propose(current, {key(current)}, functional, rng)
        assert LegId.R1 not in cand
        changed = [l for l in functional if cand[l] != current[l]]
        assert len(changed) == 1
        assert cand[changed[0]] in PERIOD_CHOICES


def test_propose_pigeonhole_returns_last_combination():
    import itertools
    rng = np.random.default_rng(2)
    functional = [LegId.R2, LegId.R3]
    target = {LegId.R2: 9, LegId.R3: 6}
    history = {key({LegId.R2: a, LegId.R3: b})
               for a, b in itertools.product(PERIOD_CHOICES, repeat=2)}
    history.discard(key(target))
    cand = propose({LegId.R2: 4, LegId.R3: 4}, history, functional, rng)
    assert cand == target


def test_propose_exhausted_space():
    import itertools
    rng = np.random.default_rng(3)
    functional = [LegId.R2]
    history = {key({LegId.R2: p}) for p in PERIOD_CHOICES}
    with pytest.raises(SearchSpaceExhausted):
        propose({LegId.R2: 4}, history, functional, rng)


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


def test_learn_exhausts_tiny_space():
    disabled = set(Morphology.HEXAPOD.legs) - {LegId.L3}
    trace = learn(EVAL, all_fours(CFG, disabled),
                  LearnerConfig(seed=1, e_req=1e-9))
    assert trace.exhausted
    assert trace.outcome == "trial-cap-reached"
    assert trace.total_evaluations == 5  # the whole 5^1 space


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
    with pytest.raises(ValueError):
        LearnerConfig(period_set=(1, 4, 5, 6, 8))
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


def test_trace_serialization(tmp_path):
    from chaoscpg.learner import trace_to_csv, trace_to_json
    trace = learn(EVAL, all_fours(CFG, {LegId.R1}), LearnerConfig(seed=4))
    csv_path = tmp_path / "trace.csv"
    trace_to_csv(trace, csv_path, Morphology.HEXAPOD.legs,
                 header_lines=["seed=4"])
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "trial,R1,R2,R3,L1,L2,L3,deviation_deg,decision"
    assert lines[2].split(",")[1] == "-"  # disabled leg flagged
    assert len(lines) == 2 + len(trace.records)
    doc = trace_to_json(trace, tmp_path / "trace.json")
    import json
    parsed = json.loads(doc)
    assert parsed["outcome"] == "converged"
    assert parsed["trials"][0]["decision"] == "kept"
