"""Annealed search over per-leg period combinations.

Every functional leg starts at period 4.  Each trial re-draws one random
leg's period, skips combinations that were already walked (re-drawing from
the last candidate until a fresh one appears, at no evaluation cost), runs
the plant for one window and keeps or aborts the new combination by the
annealing rule: improvements always, deteriorations with probability
exp(-beta * delta).  beta of 0 degenerates to random permutation; large or
infinite beta degenerates to greedy search.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass, field
from statistics import mean, stdev
from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

from .network import LegId
from .plant import PlantConfig, Scenario, simulate_window

#: the searchable periods; 1 stops a leg and is never assigned by learning
PERIOD_CHOICES = (4, 5, 6, 8, 9)

PeriodMap = Dict[LegId, int]
PeriodKey = Tuple[Tuple[str, int], ...]


class SearchSpaceExhausted(RuntimeError):
    """Every combination of the functional legs' periods has been walked."""


class Decision(str, enum.Enum):
    KEPT = "kept"
    ACCEPTED_WORSE = "accepted-worse"
    ABORTED = "aborted"
    DUPLICATE_SKIPPED = "duplicate-skipped"  # never evaluated, only counted


@dataclass(frozen=True)
class LearnerConfig:
    beta: float = 0.5           # math.inf selects strict greedy search
    e_req: float = 8.0          # required deviation magnitude, degrees
    max_trials: int = 200       # cap on plant evaluations per run
    period_set: tuple = PERIOD_CHOICES
    seed: int = 0

    def __post_init__(self):
        if not self.beta >= 0:  # also rejects NaN
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not (math.isfinite(self.e_req) and self.e_req > 0):
            raise ValueError(f"e_req must be finite and positive, got {self.e_req}")
        if self.max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {self.max_trials}")
        if tuple(self.period_set) != PERIOD_CHOICES:
            raise ValueError(f"period set is fixed to {PERIOD_CHOICES}")


@dataclass
class TrialRecord:
    n: int
    periods: PeriodMap
    deviation: float            # signed, degrees
    decision: Decision

    @property
    def cost(self) -> float:
        return abs(self.deviation)


@dataclass
class LearningTrace:
    scenario: Scenario
    initial: PeriodMap
    records: List[TrialRecord] = field(default_factory=list)
    outcome: str = "trial-cap-reached"   # or "converged"
    total_evaluations: int = 0
    duplicate_skips: int = 0
    exhausted: bool = False
    seed: int = 0

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    @property
    def final(self) -> TrialRecord:
        return self.records[-1]

    def kept_periods(self) -> PeriodMap:
        """Periods of the last kept (non-aborted) trial."""
        for rec in reversed(self.records):
            if rec.decision is not Decision.ABORTED:
                return dict(rec.periods)
        return dict(self.initial)


def _key(periods: PeriodMap) -> PeriodKey:
    return tuple(sorted((leg.value, p) for leg, p in periods.items()))


def _propose_with_count(current: PeriodMap, history: Set[PeriodKey],
                        functional: Sequence[LegId], rng: np.random.Generator,
                        period_set: Sequence[int]) -> Tuple[PeriodMap, int]:
    if not functional:
        raise ValueError("no functional legs to propose for")
    if len(history) >= len(period_set) ** len(functional):
        raise SearchSpaceExhausted(
            f"all {len(period_set) ** len(functional)} combinations walked")
    candidate = dict(current)
    skipped = 0
    while True:
        leg = functional[int(rng.integers(len(functional)))]
        candidate[leg] = int(period_set[int(rng.integers(len(period_set)))])
        if _key(candidate) not in history:
            return candidate, skipped
        skipped += 1


def propose(current: PeriodMap, history: Set[PeriodKey],
            functional: Sequence[LegId], rng: np.random.Generator,
            period_set: Sequence[int] = PERIOD_CHOICES) -> PeriodMap:
    """Draw the next unwalked combination.

    Each draw re-assigns one random functional leg; draws that land on a
    walked combination are re-drawn from the rejected candidate, so the
    proposal random-walks outward until it finds fresh ground.  Disabled
    legs are never touched.
    """
    candidate, _ = _propose_with_count(current, history, functional, rng,
                                       period_set)
    return candidate


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
    def evaluate(scenario: Scenario, seed: int) -> float:
        return simulate_window(cfg, scenario, seed=seed).delta_phi
    return evaluate


def learn(evaluate: Evaluator, scenario: Scenario,
          cfg: LearnerConfig = LearnerConfig()) -> LearningTrace:
    """Run one learning session and return its full trace.

    scenario fixes the disabled set; its period map is the starting point
    and is normally all fours.  The cost is the deviation magnitude; the
    sign is logged.  The session ends when the cost drops below e_req
    (possibly already at the first evaluation) or at the trial cap.
    """
    rng = np.random.default_rng(cfg.seed)
    functional = sorted(scenario.periods.keys(), key=lambda l: l.value)
    current = dict(scenario.periods)
    trace = LearningTrace(scenario=scenario, initial=dict(current),
                          seed=cfg.seed)
    history: Set[PeriodKey] = {_key(current)}

    def run_plant(periods: PeriodMap) -> float:
        trial_seed = int(rng.integers(2 ** 31))
        return evaluate(Scenario(scenario.disabled, periods), trial_seed)

    dev = run_plant(current)
    trace.total_evaluations = 1
    cost_current = abs(dev)
    trace.records.append(TrialRecord(n=0, periods=dict(current),
                                     deviation=dev, decision=Decision.KEPT))
    if cost_current < cfg.e_req:
        trace.outcome = "converged"
        return trace

    n = 0
    while trace.total_evaluations < cfg.max_trials:
        n += 1
        try:
            candidate, skipped = _propose_with_count(
                current, history, functional, rng, cfg.period_set)
        except SearchSpaceExhausted:
            trace.exhausted = True
            break
        history.add(_key(candidate))
        # draws that bounced off walked combinations cost no evaluation
        trace.duplicate_skips += skipped
        dev = run_plant(candidate)
        trace.total_evaluations += 1
        delta_e = abs(dev) - cost_current
        if accept(delta_e, cfg.beta, float(rng.uniform())):
            decision = (Decision.KEPT if delta_e < 0
                        else Decision.ACCEPTED_WORSE)
            current = candidate
            cost_current = abs(dev)
        else:
            decision = Decision.ABORTED
        trace.records.append(TrialRecord(n=n, periods=dict(candidate),
                                         deviation=dev, decision=decision))
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


# ---------------------------------------------------------------------------
# trace serialization


def trace_to_csv(trace: LearningTrace, path, legs_order: Sequence[LegId],
                 header_lines: Sequence[str] = ()) -> None:
    """One row per evaluated trial; disabled legs are flagged with '-'."""
    with open(path, "w", newline="") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        w = csv.writer(f)
        w.writerow(["trial"] + [leg.value for leg in legs_order]
                   + ["deviation_deg", "decision"])
        for rec in trace.records:
            row = [rec.n]
            for leg in legs_order:
                row.append(rec.periods.get(leg, "-"))
            row += [repr(float(rec.deviation)), rec.decision.value]
            w.writerow(row)


def trace_to_json(trace: LearningTrace, path=None) -> str:
    doc = {
        "seed": trace.seed,
        "disabled": sorted(l.value for l in trace.scenario.disabled),
        "initial": {l.value: p for l, p in trace.initial.items()},
        "outcome": trace.outcome,
        "total_evaluations": trace.total_evaluations,
        "duplicate_skips": trace.duplicate_skips,
        "exhausted": trace.exhausted,
        "trials": [
            {
                "n": rec.n,
                "periods": {l.value: p for l, p in rec.periods.items()},
                "deviation_deg": rec.deviation,
                "decision": rec.decision.value,
            }
            for rec in trace.records
        ],
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as f:
            f.write(text + "\n")
    return text
