"""Master/client oscillator network with per-leg periods and binary sync.

One oscillator (leg R1) is the master.  Every other leg owns a client
oscillator with a binary sync gate alpha: while alpha is 1 the client's
control inputs are shunted and its first neuron copies the master's fresh
output, so both oscillators emit identical activity.  With alpha 0 the
client runs its own period controller and the legs oscillate independently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from .core import (CpgOscillator, CpgParams, CpgState, DEFAULT_INIT,
                   _activations, _check_period, sigmoid)


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

    def _leg(self, leg) -> LegId:
        """leg (a LegId or its name) as a leg of this body, else ValueError."""
        leg = LegId(leg)  # raises ValueError for anything that names no leg
        if leg not in self.periods:
            raise ValueError(f"{leg.value} is not a leg of {self.morphology.label}")
        return leg

    def _oscillator(self, leg: LegId) -> CpgOscillator:
        return self.master if leg is MASTER_LEG else self.clients[leg].osc

    def state_of(self, leg: LegId) -> CpgState:
        return self._oscillator(self._leg(leg)).state

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
        leg = self._leg(leg)
        if leg is MASTER_LEG:
            raise ValueError("R1 is the master; it has no sync gate")
        client = self.clients[leg]
        new_alpha = 1 if on else 0
        if client.alpha == 1 and new_alpha == 0:
            # a lock taken before the synchronized regime no longer matches
            # the client's state, so the controller restarts unlocked
            client.osc.set_period(self.periods[leg])
        client.alpha = new_alpha

    def set_periods(self, assignment: Mapping[LegId, int]) -> None:
        """Assign per-leg periods; mismatched clients lose synchrony."""
        assignment = {self._leg(leg): p for leg, p in assignment.items()}
        for p in assignment.values():
            _check_period(p)
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
        """Step the network `steps` times; the trace holds steps + 1 rows.

        Once the master and every desynced client have locked, each of them
        walks its loop, so the network can only repeat with period L, the
        lcm of their periods.  From the row after the last lock on (the
        lock row itself is off the loop), when every leg state and loop
        phase recurs bitwise after L more steps, the remaining rows are
        copies of the last L and the oscillators jump to their final states
        by arithmetic.  Until then, and while the states do not recur (synced
        clients may not settle when w22 != 0), the network steps.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        legs = self.legs
        n = steps + 1
        oscs = [self._oscillator(leg) for leg in legs]
        movers = [self.master] + [c.osc for c in self.clients.values()
                                  if c.alpha == 0]
        pending = [osc for osc in movers if not osc.locked]
        period = math.lcm(*(osc.p for osc in movers))
        x1 = [np.empty(n) for _ in legs]
        x2 = [np.empty(n) for _ in legs]
        series = list(zip(x1, x2, oscs))
        anchor = snapshot = None
        for k in range(n):
            if k > 0:
                self.step()
            for xs1, xs2, osc in series:
                s = osc.state
                xs1[k] = s.x1
                xs2[k] = s.x2
            # locks are never lost within a run; a lock row has its x2 off
            # the loop, so a mover counts as settled one row later
            while pending and pending[-1].locked and \
                    pending[-1].state.t > pending[-1].lock_step:
                pending.pop()
            if pending or (anchor is not None and k < anchor + period):
                continue
            now = ([(osc.state.x1, osc.state.x2) for osc in oscs],
                   [osc._phase for osc in movers])
            if now == snapshot:
                # row r > k repeats row r - L.  Rows after the anchor hold
                # whole hyper-periods, so slices of doubling length copy
                # them without an index or a temporary array.
                span, start = period, k + 1
                while start < n:
                    stop = min(start + span, n)
                    for xs in x1 + x2:
                        xs[start:stop] = xs[start - span:stop - span]
                    start, span = stop, 2 * span
                skipped = n - 1 - k
                for xs1, xs2, osc in series:
                    if osc in movers:
                        osc._skip_locked(skipped)
                    else:   # a synced client: its state is its last row
                        osc.state = CpgState(float(xs1[-1]), float(xs2[-1]),
                                             osc.state.t + skipped)
                break
            anchor, snapshot = k, now
        alpha = {leg: np.full(n, client.alpha, dtype=np.int64)
                 for leg, client in self.clients.items()}
        return NetworkTrace(legs=legs, x1=dict(zip(legs, x1)),
                            x2=dict(zip(legs, x2)), alpha=alpha)


@dataclass
class NetworkTrace:
    legs: tuple
    x1: Dict[LegId, np.ndarray]
    x2: Dict[LegId, np.ndarray]
    alpha: Dict[LegId, np.ndarray]

    def __len__(self) -> int:
        return len(self.x1[self.legs[0]])
