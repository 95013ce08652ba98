"""Stance/swing rhythm generation, leg delay lines and gait diagrams.

A leg running at period p gets a rectangular stance/swing wave whose cycle
is p times the expansion factor; higher periods walk slower and keep the
foot down for a larger fraction of the cycle.  Fixed delay lines shift the
waves along each body side and between sides, which at period 4 produces
the two alternating tripod groups {R1, R3, L2} and {R2, L1, L3}.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from .network import LegId, Morphology

#: controller update rate; one time step is 1/27 s
STEP_RATE_HZ = 27.0

#: default stance fraction per period; 1 means the leg never lifts
DUTY_FACTORS = {1: 1.0, 4: 1 / 2, 5: 3 / 5, 6: 2 / 3, 8: 3 / 4, 9: 5 / 6}

#: cycle length is CYCLE_EXPANSION * p steps
CYCLE_EXPANSION = 8


class UnsupportedPeriodError(ValueError):
    pass


class GaitClass(enum.Enum):
    STOP = 1
    TRIPOD = 4
    TETRAPOD = 5
    TRANSITION = 6
    FAST_WAVE = 8
    SLOW_WAVE = 9


def classify_gait(p: int) -> GaitClass:
    """Map a period to its gait; 2, 3 and 7 are not usable for walking."""
    try:
        return GaitClass(p)
    except ValueError:
        raise UnsupportedPeriodError(
            f"period {p} does not generate a proper walking gait") from None


@dataclass(frozen=True)
class DelayConfig:
    """Ipsilateral (tau) and contralateral (tau_l) delays in steps."""

    tau: int = 16
    tau_l: int = 48
    front_to_hind: bool = True

    def __post_init__(self):
        if self.tau < 0 or self.tau_l < 0:
            raise ValueError("delays must be non-negative")

    def shift(self, leg: LegId, n_rows: int) -> int:
        k = leg.row if self.front_to_hind else (n_rows - 1 - leg.row)
        s = k * self.tau
        if leg.side == "L":
            s += self.tau_l
        return s


def rhythm_cycle(p: int, expansion: int = CYCLE_EXPANSION,
                 duty: Optional[Mapping[int, float]] = None) -> np.ndarray:
    """One stance-first cycle of the period-p wave (bool, length p*expansion)."""
    duty = DUTY_FACTORS if duty is None else duty
    if p not in duty:
        raise UnsupportedPeriodError(
            f"period {p} does not generate a proper walking gait")
    if expansion < 1:
        raise ValueError("expansion must be >= 1")
    cycle_len = p * expansion
    n_stance = round(duty[p] * cycle_len)
    cyc = np.zeros(cycle_len, dtype=bool)
    cyc[:n_stance] = True
    return cyc


def motor_rhythm(p: int, steps: int, expansion: int = CYCLE_EXPANSION,
                 duty: Optional[Mapping[int, float]] = None) -> np.ndarray:
    """Periodic stance/swing wave of the given length."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    cyc = rhythm_cycle(p, expansion, duty)
    reps = math.ceil(steps / len(cyc))
    return np.tile(cyc, reps)[:steps]


@dataclass
class GaitTrace:
    """Per-leg stance (True) / swing (False) series; rows share one length."""

    legs: tuple
    stance: np.ndarray  # shape (n_legs, steps)
    dt: float = 1.0 / STEP_RATE_HZ

    def __post_init__(self):
        if self.stance.ndim != 2 or self.stance.shape[0] != len(self.legs):
            raise ValueError("stance matrix must be legs x steps")

    @property
    def steps(self) -> int:
        return self.stance.shape[1]

    def leg(self, leg: LegId) -> np.ndarray:
        return self.stance[self.legs.index(leg)]

    def duty_factors(self) -> Dict[LegId, float]:
        return {leg: float(self.stance[i].mean())
                for i, leg in enumerate(self.legs)}

    def to_csv(self, path, header_lines: Sequence[str] = ()) -> None:
        with open(path, "w", newline="") as f:
            for line in header_lines:
                f.write(f"# {line}\n")
            w = csv.writer(f)
            w.writerow(["leg"] + [str(i) for i in range(self.steps)])
            for i, leg in enumerate(self.legs):
                w.writerow([leg.value] + [int(v) for v in self.stance[i]])


def apply_delays(rhythms: Mapping[LegId, np.ndarray],
                 cfg: DelayConfig = DelayConfig(),
                 steps: Optional[int] = None) -> GaitTrace:
    """Shift each leg's periodic cycle by its delay-line offset.

    rhythms maps each leg to one full cycle of its wave; shifts are
    circular within that cycle.  The output length defaults to the least
    common multiple of the cycle lengths so every leg closes its pattern.
    """
    legs = tuple(rhythms.keys())
    n_rows = max(leg.row for leg in legs) + 1
    if steps is None:
        steps = 1
        for cyc in rhythms.values():
            steps = math.lcm(steps, len(cyc))
    out = np.zeros((len(legs), steps), dtype=bool)
    idx = np.arange(steps)
    for i, leg in enumerate(legs):
        cyc = np.asarray(rhythms[leg], dtype=bool)
        shift = cfg.shift(leg, n_rows)
        out[i] = cyc[(idx - shift) % len(cyc)]
    return GaitTrace(legs=legs, stance=out)


def gait_trace(morphology: Morphology, p: int, steps: Optional[int] = None,
               expansion: int = CYCLE_EXPANSION,
               cfg: DelayConfig = DelayConfig()) -> GaitTrace:
    """Uniform-period gait diagram for a whole body."""
    cyc = rhythm_cycle(p, expansion)
    return apply_delays({leg: cyc for leg in morphology.legs}, cfg, steps)


def render_gait(trace: GaitTrace, fmt: str = "ascii") -> str:
    """Deterministic diagram; stance is filled, swing is empty."""
    if trace.steps == 0:
        raise ValueError("empty trace")
    if fmt == "ascii":
        return _render_ascii(trace)
    if fmt == "svg":
        return _render_svg(trace)
    raise ValueError(f"unknown format {fmt!r}")


def _render_ascii(trace: GaitTrace) -> str:
    lines = []
    for i, leg in enumerate(trace.legs):
        row = "".join("#" if v else "." for v in trace.stance[i])
        lines.append(f"{leg.value} |{row}|")
    return "\n".join(lines) + "\n"


def _render_svg(trace: GaitTrace, cell: int = 4, row_h: int = 14) -> str:
    width = trace.steps * cell + 40
    height = len(trace.legs) * row_h + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for i, leg in enumerate(trace.legs):
        y = 5 + i * row_h
        parts.append(
            f'<text x="2" y="{y + 10}" font-size="10" '
            f'font-family="monospace">{leg.value}</text>')
        # merge consecutive stance steps into single rectangles
        row = trace.stance[i]
        t = 0
        while t < len(row):
            if row[t]:
                t0 = t
                while t < len(row) and row[t]:
                    t += 1
                parts.append(
                    f'<rect x="{30 + t0 * cell}" y="{y}" '
                    f'width="{(t - t0) * cell}" height="{row_h - 4}" '
                    f'fill="#1f77b4"/>')
            else:
                t += 1
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
