"""Master/client oscillator network with per-leg periods and binary sync.

One oscillator (leg R1) is the master.  Every other leg owns a client
oscillator with a binary sync gate alpha: while alpha is 1 the client's
control inputs are shunted and its first neuron copies the master's fresh
output, so both oscillators emit identical activity.  With alpha 0 the
client runs its own period controller and the legs oscillate independently.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from .core import (CpgOscillator, CpgParams, CpgState, DEFAULT_INIT,
                   GAIT_PERIODS, _activations, sigmoid)


class LegId(str, enum.Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"

    @property
    def side(self) -> str:
        return self.value[0]

    @property
    def row(self) -> int:
        """0-indexed position along the body, front to hind."""
        return int(self.value[1]) - 1

    @property
    def mirrored(self) -> "LegId":
        other = "L" if self.side == "R" else "R"
        return LegId(other + self.value[1])


class Morphology(enum.Enum):
    HEXAPOD = ("hexapod", (LegId.R1, LegId.R2, LegId.R3,
                           LegId.L1, LegId.L2, LegId.L3))
    QUADRUPED = ("quadruped", (LegId.R1, LegId.R2, LegId.L1, LegId.L2))

    def __init__(self, label: str, legs: tuple):
        self.label = label
        self.legs = legs

    @classmethod
    def from_label(cls, label: str) -> "Morphology":
        for m in cls:
            if m.label == label:
                return m
        raise ValueError(f"unknown morphology {label!r}")


MASTER_LEG = LegId.R1


def _check_period(p: int) -> int:
    if p not in GAIT_PERIODS:
        raise ValueError(
            f"period {p} is not usable for locomotion; allowed: {GAIT_PERIODS}"
            " (2 switches too fast, 3 and 7 have no stable pattern)")
    return p


@dataclass
class ClientCpg:
    osc: CpgOscillator
    alpha: int = 1

    def __post_init__(self):
        if self.alpha not in (0, 1):
            raise ValueError("alpha is binary")


class CpgNetwork:
    """Master plus clients; a single sequential state machine."""

    def __init__(self, morphology: Morphology = Morphology.HEXAPOD,
                 params: CpgParams = CpgParams(),
                 master_period: int = 4,
                 periods: Optional[Mapping[LegId, int]] = None,
                 seed: int = 0,
                 master_init: tuple[float, float] = DEFAULT_INIT):
        self.morphology = morphology
        self.params = params
        _check_period(master_period)
        rng = np.random.default_rng(seed)
        self.master = CpgOscillator(params, master_period, init=master_init)
        self.clients: Dict[LegId, ClientCpg] = {}
        self.periods: Dict[LegId, int] = {MASTER_LEG: master_period}
        for leg in morphology.legs:
            if leg is MASTER_LEG:
                continue
            init = tuple(rng.uniform(0.05, 0.95, 2))
            osc = CpgOscillator(params, master_period, init=init)
            self.clients[leg] = ClientCpg(osc=osc, alpha=1)
            self.periods[leg] = master_period
        if periods:
            self.set_periods(periods)

    @property
    def legs(self) -> tuple:
        return self.morphology.legs

    def state_of(self, leg: LegId) -> CpgState:
        if leg is MASTER_LEG:
            return self.master.state
        return self.clients[leg].osc.state

    def step(self) -> None:
        """Advance master first; clients read the master's fresh output."""
        x1_master = self.master.advance().x1
        for client in self.clients.values():
            osc = client.osc
            if client.alpha == 1:
                # control shunted: both c terms are exactly zero, and the
                # first neuron is overwritten by the master (binary gate)
                s = osc.state
                _, a2 = _activations(self.params, s.x1, s.x2, 0.0, 0.0)
                osc.state = CpgState(x1_master, sigmoid(a2), s.t + 1)
                osc.last_c = (0.0, 0.0)
            else:
                osc.advance()

    def set_sync(self, leg: LegId, on: bool) -> None:
        """Toggle a client's sync gate; desync restarts its controller."""
        if leg is MASTER_LEG:
            raise ValueError("R1 is the master; it has no sync gate")
        client = self.clients[leg]
        new_alpha = 1 if on else 0
        if client.alpha == 1 and new_alpha == 0:
            # stale recurrence history from the synchronized regime would
            # poison the controller, so it restarts cleanly
            client.osc.set_period(self.periods[leg])
        client.alpha = new_alpha

    def set_periods(self, assignment: Mapping[LegId, int]) -> None:
        """Assign per-leg periods; mismatched clients lose synchrony."""
        for leg, p in assignment.items():
            _check_period(p)
            if leg not in self.periods:
                raise ValueError(f"{leg} is not a leg of {self.morphology.label}")
        for leg, p in assignment.items():
            if leg is MASTER_LEG:
                if p != self.master.p:
                    self.master.set_period(p)
                self.periods[leg] = p
        master_p = self.periods[MASTER_LEG]
        for leg, p in assignment.items():
            if leg is MASTER_LEG:
                continue
            client = self.clients[leg]
            if p != self.periods[leg]:
                client.osc.set_period(p)
            self.periods[leg] = p
        # synchrony is only kept by clients matching the master's period
        for leg, client in self.clients.items():
            if self.periods[leg] != master_p and client.alpha == 1:
                self.set_sync(leg, False)

    def run(self, steps: int) -> "NetworkTrace":
        legs = self.legs
        n = steps + 1
        x1 = {leg: np.empty(n) for leg in legs}
        x2 = {leg: np.empty(n) for leg in legs}
        alpha = {leg: np.empty(n, dtype=np.int64) for leg in legs
                 if leg is not MASTER_LEG}
        for k in range(n):
            if k > 0:
                self.step()
            for leg in legs:
                s = self.state_of(leg)
                x1[leg][k] = s.x1
                x2[leg][k] = s.x2
                if leg is not MASTER_LEG:
                    alpha[leg][k] = self.clients[leg].alpha
        return NetworkTrace(legs=legs, x1=x1, x2=x2, alpha=alpha)


@dataclass
class NetworkTrace:
    legs: tuple
    x1: Dict[LegId, np.ndarray]
    x2: Dict[LegId, np.ndarray]
    alpha: Dict[LegId, np.ndarray]

    def __len__(self) -> int:
        return len(self.x1[self.legs[0]])

    def to_csv(self, path, header_lines=()) -> None:
        cols = ["t"]
        for leg in self.legs:
            cols += [f"{leg.value}_x1", f"{leg.value}_x2"]
            if leg in self.alpha:
                cols.append(f"{leg.value}_alpha")
        with open(path, "w", newline="") as f:
            for line in header_lines:
                f.write(f"# {line}\n")
            w = csv.writer(f)
            w.writerow(cols)
            for k in range(len(self)):
                row = [k]
                for leg in self.legs:
                    row += [repr(float(self.x1[leg][k])),
                            repr(float(self.x2[leg][k]))]
                    if leg in self.alpha:
                        row.append(int(self.alpha[leg][k]))
                w.writerow(row)
