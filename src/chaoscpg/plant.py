"""Surrogate locomotion plant: per-leg stance rhythms to heading deviation.

The plant replaces rigid-body physics with the simplest force balance that
keeps the structure a learner can exploit: stance legs thrust their body
side forward, slower rhythms thrust less, each side's instantaneous thrust
saturates against a shared support budget that shrinks when legs are
disabled, and a disabled leg drags its side.  The signed heading change
over the evaluation window (positive = rightward) is the learning cost.

Left legs are exact mirror images of right legs, so fully symmetric
scenarios deviate by exactly zero and mirroring a scenario flips the sign
of the deviation bit for bit.

The default gains are calibrated so that (a) disabling any single leg at
the all-4 gait deviates by more than 8 degrees, (b) every battery scenario
has at least one period combination below 8 degrees, and (c) same-side
double failures form a plateau landscape on which strictly greedy search
starves while annealing escapes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence

import numpy as np

from .core import GAIT_PERIODS
from .gait import CYCLE_EXPANSION, DUTY_FACTORS, motor_rhythm
from .network import LegId, Morphology


def _default_geometry(morphology: Morphology) -> Dict[LegId, tuple]:
    """(lateral, longitudinal) lever arms; lateral sign is +right/-left."""
    legs = morphology.legs
    n_rows = max(leg.row for leg in legs) + 1
    geo = {}
    for leg in legs:
        lat = 1.0 if leg.side == "R" else -1.0
        # longitudinal arm runs front (+) to hind (-), evenly spaced
        lon = 1.0 - 2.0 * leg.row / max(n_rows - 1, 1)
        geo[leg] = (lat, lon)
    return geo


@dataclass(frozen=True)
class PlantConfig:
    """Morphology, lever geometry and the calibrated force-model gains."""

    morphology: Morphology = Morphology.HEXAPOD
    thrust_gain: float = 1.0        # per-leg thrust impulse per cycle
    falloff: float = 1.3            # extra per-period thrust falloff exponent
    support_budget: float = 0.23    # per-side instantaneous thrust cap
    load_per_disabled: float = 0.07  # cap reduction per disabled leg (any side)
    drag: float = 0.004             # per-step drag torque of a disabled leg
    turn_gain: float = 1.8          # degrees of yaw per unit thrust imbalance
    noise: float = 0.0              # stddev of additive deviation noise
    window: int = 400               # evaluation window in steps
    expansion: int = CYCLE_EXPANSION
    geometry: Optional[Dict[LegId, tuple]] = None

    def __post_init__(self):
        for name in _SCALAR_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.expansion < 1:
            raise ValueError("expansion must be >= 1")
        if self.geometry is None:
            object.__setattr__(self, "geometry",
                               _default_geometry(self.morphology))
        self.validate_geometry()

    def validate_geometry(self) -> None:
        geo = self.geometry
        for leg in self.morphology.legs:
            if leg not in geo:
                raise ValueError(f"geometry missing leg {leg.value}")
            lat, lon = geo[leg]
            mlat, mlon = geo[leg.mirrored]
            if lat != -mlat or lon != mlon:
                raise ValueError(
                    "left legs must be exact reflections of right legs")
            if (lat > 0) != (leg.side == "R"):
                raise ValueError(f"lateral sign of {leg.value} is wrong")

    def stance_force(self, p: int) -> float:
        """Per-step thrust of one leg while in stance at period p.

        The impulse of one cycle is thrust_gain at p=4 and falls off as
        (4/p)**falloff for slower rhythms, spread over the stance steps.
        """
        duty = DUTY_FACTORS[p]
        cycle = duty * self.expansion * p
        return self.thrust_gain * (4.0 / p) ** (self.falloff - 1.0) / cycle


@dataclass(frozen=True)
class Scenario:
    """A disabled-leg set plus the periods of the functional legs."""

    disabled: FrozenSet[LegId]
    periods: Mapping[LegId, int]

    def __init__(self, disabled, periods):
        object.__setattr__(self, "disabled", frozenset(disabled))
        object.__setattr__(self, "periods", dict(periods))

    def validate(self, cfg: PlantConfig) -> None:
        legs = set(cfg.morphology.legs)
        if not self.disabled <= legs:
            raise ValueError(
                f"disabled legs {sorted(l.value for l in self.disabled - legs)}"
                f" do not exist on a {cfg.morphology.label}")
        functional = legs - self.disabled
        if set(self.periods) != functional:
            raise ValueError(
                "periods must cover exactly the functional legs "
                "(disabled legs carry no period)")
        for leg, p in self.periods.items():
            if p not in GAIT_PERIODS:
                raise ValueError(f"period {p} for {leg.value} is not a gait period")

    def functional(self, cfg: PlantConfig) -> tuple:
        return tuple(l for l in cfg.morphology.legs if l not in self.disabled)


@dataclass(frozen=True)
class DeviationSample:
    """Signed heading change over one window, degrees; + is rightward."""

    delta_phi: float

    def __post_init__(self):
        if not math.isfinite(self.delta_phi):
            raise ValueError("deviation must be finite")


def simulate_window(cfg: PlantConfig, scenario: Scenario,
                    seed: int = 0) -> DeviationSample:
    """Deviation accumulated over one evaluation window.

    Per step, each side's thrust is the capped sum of its stance legs'
    forces weighted by their lateral lever magnitude; yaw rate is the
    left-right difference plus the disabled legs' drag torque.
    """
    scenario.validate(cfg)
    w = cfg.window
    # per-side sums, indexed by (lateral > 0): 0 is left, 1 is right.  Both
    # sides add their legs front to hind, whatever the key order of the
    # period map, so a mirrored scenario swaps the sums bit for bit.
    thrust = [np.zeros(w), np.zeros(w)]
    drag_lever = [0.0, 0.0]
    for leg in cfg.morphology.legs:
        lat = cfg.geometry[leg][0]
        right = lat > 0
        if leg in scenario.disabled:
            drag_lever[right] += abs(lat)
        else:
            p = scenario.periods[leg]
            force = abs(lat) * cfg.stance_force(p) * motor_rhythm(p, w, cfg.expansion)
            thrust[right] = thrust[right] + force
    cap = max(cfg.support_budget
              - cfg.load_per_disabled * len(scenario.disabled), 0.0)
    yaw = np.minimum(thrust[0], cap) - np.minimum(thrust[1], cap)
    drag_torque = cfg.drag * (drag_lever[1] - drag_lever[0])
    delta = cfg.turn_gain * (float(yaw.sum()) + drag_torque * w)
    if cfg.noise:
        delta += cfg.noise * float(np.random.default_rng(seed).standard_normal())
    return DeviationSample(delta_phi=delta)


def mirror(scenario: Scenario) -> Scenario:
    """Swap left and right labels of the disabled set and period map."""
    return Scenario(
        disabled=frozenset(l.mirrored for l in scenario.disabled),
        periods={l.mirrored: p for l, p in scenario.periods.items()},
    )


def all_fours(cfg: PlantConfig, disabled) -> Scenario:
    """The canonical starting point: every functional leg at period 4."""
    dis = frozenset(disabled)
    return Scenario(disabled=dis,
                    periods={l: 4 for l in cfg.morphology.legs if l not in dis})


# ---------------------------------------------------------------------------
# config file and evaluation-log formats

_SCALAR_FIELDS = ("thrust_gain", "falloff", "support_budget",
                  "load_per_disabled", "drag", "turn_gain", "noise")
_INT_FIELDS = ("window", "expansion")


def save_config(cfg: PlantConfig, path) -> None:
    """Write the flat key = value form (documented in the README)."""
    with open(path, "w") as f:
        f.write("# surrogate plant configuration\n")
        f.write(f"morphology = {cfg.morphology.label}\n")
        for name in _SCALAR_FIELDS:
            f.write(f"{name} = {getattr(cfg, name)!r}\n")
        for name in _INT_FIELDS:
            f.write(f"{name} = {getattr(cfg, name)}\n")
        for leg in cfg.morphology.legs:
            lat, lon = cfg.geometry[leg]
            f.write(f"lever.{leg.value} = {lat!r} {lon!r}\n")


def load_config(path) -> PlantConfig:
    values: Dict[str, str] = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    morphology = Morphology.from_label(values.pop("morphology", "hexapod"))
    kwargs = {}
    for name in _SCALAR_FIELDS:
        if name in values:
            kwargs[name] = float(values.pop(name))
    for name in _INT_FIELDS:
        if name in values:
            kwargs[name] = int(values.pop(name))
    geometry = {}
    for key in list(values):
        if key.startswith("lever."):
            leg = LegId(key.split(".", 1)[1])
            lat, lon = values.pop(key).split()
            geometry[leg] = (float(lat), float(lon))
    if values:
        raise ValueError(f"unknown config keys: {sorted(values)}")
    return PlantConfig(morphology=morphology,
                       geometry=geometry or None, **kwargs)


def write_eval_log(path, rows: Sequence[tuple],
                   header_lines: Sequence[str] = ()) -> None:
    """CSV log of plant evaluations: scenario, periods, seed, deviation."""
    with open(path, "w", newline="") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        w = csv.writer(f)
        w.writerow(["disabled", "periods", "seed", "delta_phi_deg"])
        for disabled, periods, seed, dphi in rows:
            w.writerow([disabled, periods, seed, repr(float(dphi))])
