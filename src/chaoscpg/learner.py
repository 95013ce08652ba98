"""Annealed search over per-leg period combinations.

Every functional leg starts at period 4.  Each trial re-draws one random
leg's period, skips combinations that were already walked (re-drawing from
the last candidate until a fresh one appears, at no evaluation cost), runs
the plant for one window and keeps or aborts the new combination by the
annealing rule: improvements always, deteriorations with probability
exp(-beta * delta).  beta of 0 degenerates to random permutation; large or
infinite beta degenerates to greedy search.

Inside `learn` a combination of the n functional legs is a base-5 code in
[0, 5**n): digit i is the PERIOD_CHOICES index of the i-th leg in name
order, so a proposal replaces one digit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from statistics import mean, stdev
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .core import _check_period
from .network import LegId
from .plant import PlantConfig, Scenario, simulate_window

#: the searchable periods; 1 stops a leg and is never assigned by learning
PERIOD_CHOICES = (4, 5, 6, 8, 9)

PeriodMap = Dict[LegId, int]


class Decision(str, enum.Enum):
    KEPT = "kept"
    ACCEPTED_WORSE = "accepted-worse"
    ABORTED = "aborted"


@dataclass(frozen=True)
class LearnerConfig:
    beta: float = 0.5           # math.inf selects strict greedy search
    e_req: float = 8.0          # required deviation magnitude, degrees
    max_trials: int = 200       # cap on plant evaluations per run
    seed: int = 0

    def __post_init__(self):
        if not self.beta >= 0:  # also rejects NaN
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not (math.isfinite(self.e_req) and self.e_req > 0):
            raise ValueError(f"e_req must be finite and positive, got {self.e_req}")
        if self.max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {self.max_trials}")


@dataclass
class TrialRecord:
    n: int
    periods: PeriodMap
    deviation: float            # signed, degrees
    decision: Decision
    seed: int                   # the trial seed the plant window ran with


@dataclass
class LearningTrace:
    scenario: Scenario
    initial: PeriodMap
    records: List[TrialRecord] = field(default_factory=list)
    # or "converged", or "search-space-exhausted" when every combination
    # was walked below the trial cap
    outcome: str = "trial-cap-reached"
    total_evaluations: int = 0
    duplicate_skips: int = 0
    seed: int = 0

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    @property
    def exhausted(self) -> bool:
        return self.outcome == "search-space-exhausted"

    @property
    def final(self) -> TrialRecord:
        return self.records[-1]

    def kept_periods(self) -> PeriodMap:
        """Periods of the last kept (non-aborted) trial."""
        for rec in reversed(self.records):
            if rec.decision is not Decision.ABORTED:
                return dict(rec.periods)
        return dict(self.initial)


class _Draws:
    """The scalar stream of np.random.default_rng(seed), replayed in Python.

    integers(n) and random() return exactly what the same calls on a
    numpy Generator return, at a fraction of a scalar call's cost: the
    64-bit PCG64 words come from numpy in bulk, 64 at a time, and
    numpy's scalar algorithms are replayed on them.  random() is the top
    53 bits of a word.  integers(n), for 1 <= n <= 2**32, is Lemire's
    bounded method on 32-bit draws; a 32-bit draw takes the low half of a
    fresh word and keeps the high half for the next 32-bit draw, which
    random() leaves alone.  integers(1) is 0 and draws nothing.
    """

    def __init__(self, seed: int):
        bitgen = np.random.PCG64(seed)

        def words():
            while True:
                yield from bitgen.random_raw(64).tolist()

        self._word = words().__next__
        self._half = None           # the kept high half of a word

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        w = self._word()
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            # reject the 2**32 % n low values that would bias the result
            threshold = 2 ** 32 % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53


def _propose(code: int, walked: bytearray, weights: Sequence[int],
             rng) -> Tuple[int, int]:
    """The next unwalked code and the number of walked draws skipped.

    Each draw replaces the digit of one random leg (weight w) with a random
    period index; a draw that lands on a walked code is re-drawn from that
    code, so the proposal random-walks outward until it finds fresh
    ground.  walked must hold at least one zero.  rng is a _Draws or a
    numpy Generator; both give the same draws for the same seed.
    """
    skipped = 0
    while True:
        w = weights[rng.integers(len(weights))]
        code += (rng.integers(5) - code // w % 5) * w
        if not walked[code]:
            return code, skipped
        skipped += 1


def accept(delta_e: float, beta: float, x: float) -> bool:
    """Keep a new combination: always when it improves, otherwise iff
    x <= exp(-beta * delta_e)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if delta_e < 0:
        return True
    if math.isinf(beta):
        return False
    return x <= math.exp(-beta * delta_e)


Evaluator = Callable[[Scenario, int], float]


def plant_evaluator(cfg: PlantConfig) -> Evaluator:
    """simulate_window's deviation, computed once per distinct input.

    A window is a pure function of the scenario, and of the trial seed
    only when the plant is noisy, so the evaluator remembers each
    deviation under the disabled set, the periods in morphology order,
    the number of periods and that seed.  A new key runs simulate_window,
    which validates the scenario.  A remembered key was valid when it was
    stored: the same disabled set, the same period count and equal values
    for every leg leave only a non-int period (4.0 == 4, True == 1) to
    tell the scenario apart, so a hit checks just that.  The memo lives in
    the closure: each evaluator, and so each command, pays for its own
    windows.
    """
    legs = cfg.morphology.legs
    memo: Dict[tuple, float] = {}

    def evaluate(scenario: Scenario, seed: int) -> float:
        periods = scenario.periods
        key = (scenario.disabled, tuple(map(periods.get, legs)),
               len(periods), seed if cfg.noise else None)
        try:
            dev = memo.get(key)
        except TypeError:       # an unhashable period; validation rejects it
            dev = None
        if dev is None:
            dev = memo[key] = simulate_window(cfg, scenario,
                                              seed=seed).delta_phi
        else:
            for p in periods.values():
                if type(p) is not int:
                    _check_period(p)    # raises its usual error
        return dev
    return evaluate


def learn(evaluate: Evaluator, scenario: Scenario,
          cfg: LearnerConfig = LearnerConfig()) -> LearningTrace:
    """Run one learning session and return its full trace.

    scenario fixes the disabled set; its period map is the starting point,
    normally all fours, and must take every period from PERIOD_CHOICES.
    The cost is the deviation magnitude; the sign is logged.  The session
    ends when the cost drops below e_req (possibly already at the first
    evaluation), at the trial cap or when every combination was walked.
    A scenario without a functional leg has nothing to search and raises
    ValueError.
    """
    start = scenario.periods
    if not start:
        raise ValueError("the scenario has no functional leg to learn on")
    bad = {l.value: p for l, p in start.items()
           if type(p) is not int or p not in PERIOD_CHOICES}
    if bad:
        raise ValueError(f"start periods {bad} are not ints in {PERIOD_CHOICES}")
    rng = _Draws(cfg.seed)
    # the RNG indexes legs in name order, so that order fixes the digits
    weight = {leg: 5 ** i
              for i, leg in enumerate(sorted(start, key=lambda l: l.value))}
    weights = list(weight.values())
    code = sum(PERIOD_CHOICES.index(p) * weight[l] for l, p in start.items())
    # every evaluation walks a fresh code, so total_evaluations counts them
    walked = bytearray(5 ** len(weights))
    walked[code] = 1
    trace = LearningTrace(scenario=scenario, initial=dict(start),
                          seed=cfg.seed)

    def run_plant(code: int) -> Tuple[PeriodMap, int, float]:
        periods = {l: PERIOD_CHOICES[code // w % 5] for l, w in weight.items()}
        trial_seed = rng.integers(2 ** 31)
        return periods, trial_seed, evaluate(
            Scenario(scenario.disabled, periods), trial_seed)

    periods, trial_seed, dev = run_plant(code)
    trace.total_evaluations = 1
    cost_current = abs(dev)
    trace.records.append(TrialRecord(n=0, periods=periods, deviation=dev,
                                     decision=Decision.KEPT, seed=trial_seed))
    if cost_current < cfg.e_req:
        trace.outcome = "converged"
        return trace

    while trace.total_evaluations < cfg.max_trials:
        if trace.total_evaluations == len(walked):
            trace.outcome = "search-space-exhausted"
            break
        candidate, skipped = _propose(code, walked, weights, rng)
        walked[candidate] = 1
        # draws that bounced off walked combinations cost no evaluation
        trace.duplicate_skips += skipped
        periods, trial_seed, dev = run_plant(candidate)
        trace.total_evaluations += 1
        delta_e = abs(dev) - cost_current
        # numpy's random() draw: uniform(0, 1) bit for bit, and cheaper
        if accept(delta_e, cfg.beta, rng.random()):
            decision = (Decision.KEPT if delta_e < 0
                        else Decision.ACCEPTED_WORSE)
            code = candidate
            cost_current = abs(dev)
        else:
            decision = Decision.ABORTED
        trace.records.append(TrialRecord(n=len(trace.records),
                                         periods=periods, deviation=dev,
                                         decision=decision, seed=trial_seed))
        if abs(dev) < cfg.e_req:
            trace.outcome = "converged"
            break
    return trace


def sweep_beta(evaluate: Evaluator, scenario: Scenario,
               betas: Sequence[float], runs: int, seed: int = 0,
               e_req: float = 8.0, max_trials: int = 200) -> List[dict]:
    """Repeat learning runs per annealing factor; summary rows per beta.

    Non-converged runs contribute their full evaluation count to the mean.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    finite = [b for b in betas if not math.isinf(b)]
    has_inf = any(math.isinf(b) for b in betas)
    largest = max(finite) if finite and not has_inf else math.inf
    rows = []
    for beta in betas:
        counts = []
        failures = 0
        for r in range(runs):
            cfg = LearnerConfig(beta=beta, e_req=e_req, max_trials=max_trials,
                                seed=seed + 7919 * r)
            trace = learn(evaluate, scenario, cfg)
            counts.append(trace.total_evaluations)
            failures += 0 if trace.converged else 1
        if math.isinf(beta):
            label = "strict-greedy"
        elif beta == 0:
            label = "random-permutation"
        elif beta == largest:
            label = "greedy"
        else:
            label = "annealing"
        rows.append({
            "beta": beta,
            "label": label,
            "runs": runs,
            "mean_trials": mean(counts),
            "sd_trials": stdev(counts) if len(counts) > 1 else 0.0,
            "failure_rate": failures / runs,
        })
    return rows
