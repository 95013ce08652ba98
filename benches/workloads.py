"""The benchmark's workloads: inputs, the timed operation and its checks.

Each workload turns (run seed, operation index) into one operation input,
runs the operation through the package's public API, and checks the
outputs against properties the method must hold, never against a saved
copy of earlier output.  Importing this module imports chaoscpg.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

import chaoscpg
from chaoscpg import cli, core, learner, network, plant
from chaoscpg.core import detect_period
from chaoscpg.learner import Decision, LearnerConfig, learn, plant_evaluator
from chaoscpg.network import CpgNetwork, LegId, Morphology
from chaoscpg.plant import PlantConfig, Scenario, all_fours, simulate_window

PERIODS = (4, 5, 6, 8, 9)
E_REQ = 8.0          # the CLI defaults, which the operations keep
MAX_TRIALS = 200
HEXAPOD = Morphology.HEXAPOD

BATTERY_REPEATS = 6
SWEEP_RUNS = 5
SWEEP_DISABLED = "R1,R2"
SWEEP_BETAS = (0.0, 0.5, 10.0, math.inf)
PRE_STEPS = 200      # network steps in sync at period 4
POST_STEPS = 8000    # network steps after the period switch


def op_seed(seed: int, stream: int, index: int) -> int:
    """Seed of one operation: warm-up (stream 1) or timed (stream 0)."""
    state = np.random.SeedSequence([seed, stream, index]).generate_state(1)
    return int(state[0]) >> 1


@dataclass
class Outcome:
    problems: List[str] = field(default_factory=list)
    work: int = 0                 # learner trials, or network steps
    facts: Dict[str, int] = field(default_factory=dict)  # for the traced run


def _dir_bytes(out: Path) -> Dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _check_manifest(out: Path, command: str, seed: int,
                    problems: List[str]) -> dict:
    doc = json.loads((out / "manifest.json").read_text())
    stated = doc.pop("config_hash", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(canon.encode()).hexdigest()[:12] != stated:
        problems.append("manifest config_hash does not match its content")
    if doc.get("command") != command or doc.get("seed") != seed:
        problems.append("manifest command or seed is wrong")
    doc["config_hash"] = stated
    return doc


def _read_csv(path: Path, doc: dict, problems: List[str]) -> List[dict]:
    lines = path.read_text().splitlines()
    header = [line[2:] for line in lines if line.startswith("# ")]
    if header != [f"config_hash={doc['config_hash']}", f"seed={doc['seed']}"]:
        problems.append(f"{path.name} header does not repeat the manifest")
    return list(csv.DictReader(l for l in lines if not l.startswith("#")))


def _count_in_range(mean_trials: float, runs: int,
                    problems: List[str]) -> int:
    if not 1 <= mean_trials <= MAX_TRIALS:
        problems.append(f"mean_trials {mean_trials} outside [1, {MAX_TRIALS}]")
    return round(mean_trials * runs)


@dataclass
class RunDir:
    code: int
    out: Path


class CliWorkload:
    """An operation is one in-process `chaoscpg` command writing a run dir."""

    name = ""
    command = ""

    def make_input(self, seed: int, stream: int, index: int) -> int:
        return op_seed(seed, stream, index)

    def argv(self, seed: int) -> List[str]:
        raise NotImplementedError

    def run(self, inp: int, out: Path) -> RunDir:
        code = cli.main(["--out", str(out), self.command, *self.argv(inp)])
        return RunDir(code, out)

    def prepare(self, out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)

    def same_result(self, a: RunDir, b: RunDir) -> bool:
        return _dir_bytes(a.out) == _dir_bytes(b.out)

    def check(self, index: int, inp: int, result: RunDir) -> Outcome:
        outcome = Outcome()
        out = result.out
        if result.code != 0:
            outcome.problems.append(f"exit code {result.code}")
            return outcome
        doc = _check_manifest(out, self.command, inp, outcome.problems)
        self.check_rows(index, inp, doc, out, outcome)
        outcome.facts["bytes_written"] = sum(
            p.stat().st_size for p in out.iterdir())
        return outcome

    def check_rows(self, index, inp, doc, out, outcome) -> None:
        raise NotImplementedError


class Battery(CliWorkload):
    """The committed 21-row hexapod battery with a fixed repeat count."""

    name = "battery"
    command = "battery"

    def __init__(self):
        data = Path(chaoscpg.__file__).parent / "data" / "batteries.json"
        self.rows = json.loads(data.read_text())["hexapod"]
        self.plant = PlantConfig()

    def argv(self, seed: int) -> List[str]:
        return ["--morphology", "hexapod", "--repeats", str(BATTERY_REPEATS),
                "--beta", "0.5", "--seed", str(seed)]

    def check_rows(self, index, inp, doc, out, outcome) -> None:
        problems = outcome.problems
        rows = _read_csv(out / "battery.csv", doc, problems)
        expected = ["+".join(sorted(row)) for row in self.rows]
        if [row["disabled"] for row in rows] != expected or \
                doc["rows"] != len(expected):
            problems.append("rows are not the committed battery in order")
            return
        for row, disabled_names in zip(rows, self.rows):
            label = row["disabled"]
            disabled = frozenset(LegId(n) for n in disabled_names)
            functional = [l for l in HEXAPOD.legs if l not in disabled]
            if row["functional"] != "+".join(l.value for l in functional):
                problems.append(f"{label}: functional legs are wrong")
            converged, repeats = (int(v) for v in row["converged"].split("/"))
            if repeats != BATTERY_REPEATS or not 0 <= converged <= repeats:
                problems.append(f"{label}: converged {row['converged']}")
            outcome.work += _count_in_range(float(row["mean_trials"]),
                                            repeats, problems)
            if converged == 0:
                if row["learned"] != "none":
                    problems.append(f"{label}: learned without converging")
                continue
            learned = dict(tok.split("=") for tok in row["learned"].split())
            if set(learned) != {l.value for l in functional} or \
                    any(int(p) not in PERIODS for p in learned.values()):
                problems.append(f"{label}: learned {row['learned']!r}")
                continue
            # period maps in morphology order, as all_fours and learn build them
            scenario = Scenario(disabled, {l: int(learned[l.value])
                                           for l in functional})
            dev = abs(simulate_window(self.plant, scenario).delta_phi)
            stated = float(row["final_deviation_deg"])
            if dev != stated or not stated < E_REQ:
                problems.append(f"{label}: re-evaluated deviation {dev!r} "
                                f"against {stated!r}")


def expected_label(beta: float, betas) -> str:
    """The documented sweep rule: inf is strict greedy, 0 random
    permutation, the largest finite beta greedy unless inf is present."""
    if math.isinf(beta):
        return "strict-greedy"
    if beta == 0:
        return "random-permutation"
    if not any(math.isinf(b) for b in betas) and beta == max(betas):
        return "greedy"
    return "annealing"


class Sweep(CliWorkload):
    """sweep-beta on the same-side double failure R1+R2."""

    name = "sweep"
    command = "sweep-beta"

    def __init__(self):
        self.plant = PlantConfig()
        disabled = [LegId(n) for n in SWEEP_DISABLED.split(",")]
        self.scenario = all_fours(self.plant, disabled)

    def argv(self, seed: int) -> List[str]:
        betas = ",".join("strict" if math.isinf(b) else repr(b)
                         for b in SWEEP_BETAS)
        return ["--disable", SWEEP_DISABLED, "--betas", betas,
                "--runs", str(SWEEP_RUNS), "--seed", str(seed)]

    def check_rows(self, index, inp, doc, out, outcome) -> None:
        problems = outcome.problems
        rows = _read_csv(out / "sweep.csv", doc, problems)
        if [float(row["beta"]) for row in rows] != list(SWEEP_BETAS):
            problems.append("sweep rows do not follow the betas")
            return
        for row, beta in zip(rows, SWEEP_BETAS):
            if row["label"] != expected_label(beta, SWEEP_BETAS):
                problems.append(f"beta {beta}: label {row['label']}")
            rate = float(row["failure_rate"])
            if not 0.0 <= rate <= 1.0 or int(row["runs"]) != SWEEP_RUNS:
                problems.append(f"beta {beta}: failure_rate {rate}")
            outcome.work += _count_in_range(float(row["mean_trials"]),
                                            SWEEP_RUNS, problems)
        # recompute one row per operation, rotating through the betas
        j = index % len(SWEEP_BETAS)
        self.check_row_sessions(inp, SWEEP_BETAS[j], rows[j], problems)

    def check_row_sessions(self, seed, beta, row, problems) -> None:
        counts, failures = [], 0
        for r in range(SWEEP_RUNS):
            cfg = LearnerConfig(beta=beta, e_req=E_REQ, max_trials=MAX_TRIALS,
                                seed=seed + 7919 * r)
            trace = learn(plant_evaluator(self.plant), self.scenario, cfg)
            counts.append(trace.total_evaluations)
            failures += 0 if trace.converged else 1
            walked = {tuple(sorted((l.value, p) for l, p in rec.periods.items()))
                      for rec in trace.records}
            decisions = {rec.decision for rec in trace.records}
            if len(walked) != trace.total_evaluations:
                problems.append(f"beta {beta} run {r}: a combination "
                                "was evaluated twice")
            if beta == 0 and Decision.ABORTED in decisions:
                problems.append("random permutation aborted a trial")
            if math.isinf(beta) and Decision.ACCEPTED_WORSE in decisions:
                problems.append("strict greedy accepted a worse combination")
            if trace.converged != (abs(trace.final.deviation) < E_REQ):
                problems.append(f"beta {beta} run {r}: outcome disagrees "
                                "with the final cost")
        if sum(counts) / SWEEP_RUNS != float(row["mean_trials"]) or \
                failures / SWEEP_RUNS != float(row["failure_rate"]):
            problems.append(f"beta {beta}: library sessions give mean "
                            f"{sum(counts) / SWEEP_RUNS}, row says "
                            f"{row['mean_trials']}")


@dataclass
class EpisodeInput:
    seed: int
    master_init: tuple
    periods: Dict[LegId, int]


@dataclass
class Episode:
    net: CpgNetwork
    before: network.NetworkTrace
    after: network.NetworkTrace


class Oscillate:
    """One malfunction episode on a hexapod CpgNetwork."""

    name = "oscillate"

    def make_input(self, seed: int, stream: int, index: int) -> EpisodeInput:
        s = op_seed(seed, stream, index)
        rng = np.random.default_rng(s)
        init = tuple(float(v) for v in rng.uniform(0.05, 0.95, 2))
        clients = [l for l in HEXAPOD.legs if l is not network.MASTER_LEG]
        periods = {l: int(rng.choice(PERIODS)) for l in clients}
        return EpisodeInput(s, init, periods)

    def run(self, inp: EpisodeInput, out: Path) -> Episode:
        net = CpgNetwork(HEXAPOD, master_period=4, seed=inp.seed,
                         master_init=inp.master_init)
        before = net.run(PRE_STEPS)
        net.set_periods(inp.periods)
        after = net.run(POST_STEPS)
        return Episode(net, before, after)

    def prepare(self, out: Path) -> None:
        pass

    def same_result(self, a: Episode, b: Episode) -> bool:
        return all(np.array_equal(ta.x1[l], tb.x1[l])
                   and np.array_equal(ta.x2[l], tb.x2[l])
                   for ta, tb in ((a.before, b.before), (a.after, b.after))
                   for l in HEXAPOD.legs)

    def check(self, index, inp: EpisodeInput, ep: Episode) -> Outcome:
        outcome = Outcome(work=PRE_STEPS + POST_STEPS)
        problems = outcome.problems
        master = network.MASTER_LEG
        for trace in (ep.before, ep.after):
            for l in HEXAPOD.legs:
                for x in (trace.x1[l], trace.x2[l]):
                    if not np.all((x > 0.0) & (x < 1.0)):
                        problems.append(f"{l.value}: activity outside (0, 1)")
        desync = unlocked = locked = lock_sum = 0
        for l, p in inp.periods.items():
            # step 0 holds the client's own start state; sync begins at 1
            if not np.array_equal(ep.before.x1[l][1:],
                                  ep.before.x1[master][1:]):
                problems.append(f"{l.value}: not in sync before the switch")
            x1 = ep.after.x1[l]
            if p == 4:
                if not (np.array_equal(x1, ep.after.x1[master])
                        and np.all(ep.after.alpha[l] == 1)):
                    problems.append(f"{l.value}: period 4 lost sync")
                continue
            desync += 1
            if np.any(ep.after.alpha[l][1:] != 0):
                problems.append(f"{l.value}: period {p} kept its sync gate")
            lock_step = ep.net.clients[l].osc.lock_step
            if lock_step is None:
                unlocked += 1
                continue
            tail = x1[lock_step - PRE_STEPS:]
            if not np.array_equal(tail[p:], tail[:-p]):
                problems.append(f"{l.value}: not {p}-periodic after its lock")
            # detect_period reads the last third, so it needs 3p samples
            if len(tail) >= 3 * p and detect_period(tail) != p:
                problems.append(f"{l.value}: detect_period is not {p}")
            locked += 1
            lock_sum += lock_step - PRE_STEPS
        master_locks = 1 if ep.net.master.lock_step is not None else 0
        outcome.facts.update(desync_clients=desync, unlocked=unlocked,
                             locks=locked + master_locks,
                             client_locks=locked, lock_steps=lock_sum)
        return outcome


WORKLOADS = {w.name: w for w in (Battery, Sweep, Oscillate)}


def trace_boundaries(tracer) -> None:
    """Register the layer boundaries the traced run wraps."""
    def session_counts(trace, counts):
        counts["learner.trials"] += trace.total_evaluations
        counts["learner.duplicate_skips"] += trace.duplicate_skips

    traced_learn = tracer.wrap("learner.learn", learner.learn, session_counts)
    tracer.patch(cli, "main", tracer.wrap("cli.main", cli.main))
    tracer.patch(cli, "battery",
                 tracer.wrap("scenarios.battery", cli.battery))
    tracer.patch(cli, "learn", traced_learn)
    tracer.patch(learner, "learn", traced_learn)      # as sweep_beta calls it
    tracer.patch(learner, "simulate_window",
                 tracer.wrap("plant.simulate_window", learner.simulate_window))
    tracer.patch(plant, "motor_rhythm",
                 tracer.wrap("gait.motor_rhythm", plant.motor_rhythm))
    tracer.patch(CpgNetwork, "step",
                 tracer.wrap("network.step", CpgNetwork.step))
    tracer.patch(core.CpgOscillator, "advance",
                 tracer.wrap("core.advance", core.CpgOscillator.advance))
    tracer.patch(core, "find_orbit",
                 tracer.wrap("core.find_orbit", core.find_orbit))
