"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import math
import time

import numpy as np

from chaoscpg.cli import estimate_walltime, main
from chaoscpg.core import (CpgParams, detect_period, lyapunov_estimate,
                           run_controlled)
from chaoscpg.gait import (CYCLE_EXPANSION, UnsupportedPeriodError,
                           classify_gait, gait_trace, motor_rhythm)
from chaoscpg.learner import (Decision, LearnerConfig, accept, learn,
                              plant_evaluator)
from chaoscpg.network import CpgNetwork, LegId, Morphology
from chaoscpg.plant import PlantConfig, Scenario, all_fours, mirror, simulate_window
from chaoscpg.scenarios import battery

P = CpgParams()
PLANT = PlantConfig()
EVAL = plant_evaluator(PLANT)
HEX = Morphology.HEXAPOD.legs


def ok(criterion, detail):
    print(f"[ACCEPTANCE] {criterion}: PASS ({detail})")


def test_c01_acceptance_probability_reproduction():
    prob = math.exp(-0.5 * (64.12 - 21.46))
    rel = abs(prob - 5.45e-10) / 5.45e-10
    assert rel < 0.01
    # the decision rule realizes exactly this probability
    assert accept(64.12 - 21.46, 0.5, prob * (1 - 1e-12))
    assert not accept(64.12 - 21.46, 0.5, prob * (1 + 1e-9))
    ok("C1 acceptance probability", f"exp(-beta dE)={prob:.3e}, rel err {rel:.2e}")


def test_c02_period_control_statistics():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for p in (4, 5, 6, 8, 9):
        hits = 0
        for _ in range(100):
            init = tuple(rng.uniform(0.0, 1.0, 2))
            if not (0 < init[0] < 1 and 0 < init[1] < 1):
                init = (0.5, 0.5)
            traj = run_controlled(P, p, 2000, init=init)
            if detect_period(traj.x1) != p:
                continue
            k = (2000 // p) * p
            d2 = ((traj.x1[k] - traj.x1[k - p]) ** 2
                  + (traj.x2[k] - traj.x2[k - p]) ** 2)
            if d2 < 1e-8:
                hits += 1
        assert hits >= 95, f"p={p}: only {hits}/100 controlled"
    traj = run_controlled(P, 1, 2000)
    var = float(np.var(traj.x1[-100:]))
    assert var < 1e-12
    dt = time.time() - t0
    assert dt < 5.0, f"runtime {dt:.2f}s exceeds 5s"
    ok("C2 period control", f"all p>=95/100, p=1 var={var:.1e}, {dt:.2f}s")


def test_c03_chaos_of_free_map():
    t0 = time.time()
    l1 = lyapunov_estimate(P, steps=100_000, init=(0.1, 0.2))
    l2 = lyapunov_estimate(P, steps=100_000, init=(0.8, 0.4))
    dt = time.time() - t0
    assert l1 > 0 and l2 > 0
    assert abs(l1 - l2) < 0.05
    assert dt < 1.0, f"runtime {dt:.2f}s exceeds 1s"
    ok("C3 chaos", f"lyapunov {l1:.3f}/{l2:.3f}, {dt:.2f}s")


def test_c04_synchronization_exactness():
    t0 = time.time()
    rng = np.random.default_rng(77)
    net = CpgNetwork(seed=15, master_period=5)
    net.set_periods({LegId.L2: 6})
    for _ in range(int(rng.integers(100, 700))):
        net.step()
    net.set_sync(LegId.L2, True)
    net.step()
    assert net.state_of(LegId.L2).x1 == net.state_of(LegId.R1).x1
    for k in range(200):
        net.step()
        assert net.state_of(LegId.L2).x1 == net.state_of(LegId.R1).x1
        assert net.state_of(LegId.L2).x2 == net.state_of(LegId.R1).x2
    net.set_sync(LegId.L2, False)
    xs = []
    for _ in range(2400):
        net.step()
        xs.append(net.state_of(LegId.L2).x1)
    assert detect_period(xs) == 6
    assert detect_period([net.state_of(LegId.R1).x1] * 3) == 1  # sanity
    dt = time.time() - t0
    assert dt < 1.0, f"runtime {dt:.2f}s exceeds 1s"
    ok("C4 synchronization", f"bitwise sync + client relocks p=6, {dt:.2f}s")


def test_c05_gait_structure():
    tr = gait_trace(Morphology.HEXAPOD, 4)
    a = np.all([tr.leg(l) for l in (LegId.R1, LegId.R3, LegId.L2)], axis=0)
    b = np.all([tr.leg(l) for l in (LegId.R2, LegId.L1, LegId.L3)], axis=0)
    assert np.all(a ^ b), "tripod groups must alternate exclusively"
    assert motor_rhythm(1, 64).all(), "a stopped leg never swings"
    duties = [float(motor_rhythm(p, CYCLE_EXPANSION * p).mean())
              for p in (4, 5, 6, 8, 9)]
    assert all(x <= y for x, y in zip(duties, duties[1:]))
    for p in (2, 3, 7):
        try:
            classify_gait(p)
            raise AssertionError(f"period {p} must be rejected")
        except UnsupportedPeriodError:
            pass
    ok("C5 gait structure", f"tripod ok, duties {['%.2f' % d for d in duties]}")


def test_c06_plant_symmetry_and_calibration():
    t0 = time.time()
    sym = simulate_window(PLANT, all_fours(PLANT, set())).delta_phi
    assert abs(sym) < 1e-9
    rng = np.random.default_rng(5)
    legs = list(HEX)
    for _ in range(30):
        k = int(rng.integers(0, 3))
        disabled = {legs[i] for i in rng.permutation(6)[:k]}
        periods = {l: int(rng.choice([4, 5, 6, 8, 9]))
                   for l in legs if l not in disabled}
        s = Scenario(disabled, periods)
        assert simulate_window(PLANT, mirror(s)).delta_phi == \
            -simulate_window(PLANT, s).delta_phi
    inits = []
    for leg in HEX:
        d = simulate_window(PLANT, all_fours(PLANT, {leg})).delta_phi
        assert abs(d) > 8.0
        inits.append(d)
    dt = time.time() - t0
    assert dt < 1.0
    ok("C6 plant symmetry", f"sym={sym}, single-leg |dev| "
       f"{min(abs(d) for d in inits):.1f}..{max(abs(d) for d in inits):.1f} deg")


def test_c07_learning_convergence_statistics():
    t0 = time.time()
    worst_rate, worst_median = 1.0, 0.0
    for leg in HEX:
        scenario = all_fours(PLANT, {leg})
        counts, conv = [], 0
        for s in range(50):
            trace = learn(EVAL, scenario,
                          LearnerConfig(beta=0.5, e_req=8.0, max_trials=100,
                                        seed=1000 + 17 * s))
            if trace.converged:
                conv += 1
                counts.append(trace.total_evaluations)
        rate = conv / 50
        med = float(np.median(counts))
        assert rate >= 0.90, f"{leg.value}: convergence rate {rate}"
        assert med <= 30, f"{leg.value}: median trials {med}"
        worst_rate = min(worst_rate, rate)
        worst_median = max(worst_median, med)
    dt = time.time() - t0
    assert dt < 30.0
    ok("C7 learning convergence",
       f"worst rate {worst_rate:.2f}, worst median {worst_median}, {dt:.1f}s")


def test_c08_beta_ordering_and_greedy_trap():
    t0 = time.time()
    scenario = all_fours(PLANT, {LegId.R1, LegId.R2})

    def mean_trials(beta, runs=50, mt=200):
        tot = 0
        for r in range(runs):
            trace = learn(EVAL, scenario,
                          LearnerConfig(beta=beta, max_trials=mt,
                                        seed=2000 + 31 * r))
            tot += trace.total_evaluations
        return tot / runs

    m0 = mean_trials(0.0)
    m5 = mean_trials(0.5)
    assert m0 >= m5, f"beta=0 mean {m0} < beta=0.5 mean {m5}"

    def fail_rate(disabled, beta, runs=50, mt=100):
        fails = 0
        for r in range(runs):
            trace = learn(EVAL, all_fours(PLANT, disabled),
                          LearnerConfig(beta=beta, max_trials=mt,
                                        seed=3000 + 13 * r))
            fails += 0 if trace.converged else 1
        return fails / runs

    exists = []
    for disabled in battery(Morphology.HEXAPOD):
        if len(disabled) < 2:
            continue
        greedy = fail_rate(disabled, math.inf)
        sa = fail_rate(disabled, 0.5)
        if greedy > sa:
            exists.append((sorted(l.value for l in disabled), greedy, sa))
    assert exists, "no battery scenario where strict greedy fails more than SA"
    dt = time.time() - t0
    assert dt < 120.0
    ok("C8 beta ordering", f"mean {m0:.1f}>={m5:.1f}; greedy traps: "
       f"{exists[0][0]} greedy={exists[0][1]:.2f} sa={exists[0][2]:.2f}, {dt:.0f}s")


def test_c09_learner_bookkeeping_properties():
    t0 = time.time()
    for s in range(20):
        trace = learn(EVAL, all_fours(PLANT, {LegId.R1, LegId.L3}),
                      LearnerConfig(seed=s, max_trials=150))
        seen = set()
        kept = dict(trace.initial)
        for rec in trace.records:
            key = tuple(sorted((l.value, p) for l, p in rec.periods.items()))
            assert key not in seen, "combination evaluated twice"
            seen.add(key)
            assert LegId.R1 not in rec.periods
            assert LegId.L3 not in rec.periods
            if rec.decision is not Decision.ABORTED:
                kept = dict(rec.periods)
        assert trace.kept_periods() == kept
        if trace.converged:
            assert abs(trace.final.deviation) < 8.0
    # empirical acceptance frequency over 1e5 draws
    rng = np.random.default_rng(99)
    delta, beta, n = 2.0, 0.5, 100_000
    hits = sum(accept(delta, beta, float(x)) for x in rng.uniform(size=n))
    p = math.exp(-beta * delta)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * se, f"freq {hits / n} vs {p}"
    dt = time.time() - t0
    assert dt < 10.0
    ok("C9 learner bookkeeping",
       f"no dupes, rollback ok, accept freq {hits / n:.4f}~{p:.4f}, {dt:.1f}s")


def test_c10_battery_shape(tmp_path):
    t0 = time.time()
    code = main(["--out", str(tmp_path / "hex"), "battery",
                 "--repeats", "10", "--seed", "42"])
    assert code == 0
    rows = [l for l in (tmp_path / "hex" / "battery.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert len(rows) - 1 == 21
    code = main(["--out", str(tmp_path / "quad"), "battery",
                 "--morphology", "quadruped", "--repeats", "10", "--seed", "42"])
    assert code == 0
    rows_q = [l for l in (tmp_path / "quad" / "battery.csv").read_text().splitlines()
              if l and not l.startswith("#")]
    assert len(rows_q) - 1 == 4
    spt = estimate_walltime(1)
    assert abs(spt - 14.8) < 0.05
    dt = time.time() - t0
    assert dt < 180.0
    ok("C10 battery shape",
       f"hexapod 21 rows, quadruped 4 rows, {spt:.2f}s/trial, {dt:.1f}s")
