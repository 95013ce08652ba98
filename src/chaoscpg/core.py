"""Two-neuron chaotic oscillator and lock-in onto its periodic orbits.

The oscillator is a discrete-time map on activity pairs (x1, x2) in (0,1):

    x_i(t+1) = sigmoid(theta_i + sum_j w_ij * x_j(t) + c_i(t))

With the default weights the free map (c = 0) is chaotic, and unstable
periodic orbits are embedded in its attractor.  The period controller
free-runs the map and watches the recurrence error between the current
state and the state one target period ago.  Once the trajectory shadows a
periodic loop (p consecutive steps with error below CAPTURE_TOL or, after
FALLBACK_AT scan steps, from the best shadowing seed seen), the loop is
refined to the exact orbit by Newton iteration on the period-return map.
One input to the first neuron pulls the state onto that orbit; from then
on the oscillator replays the orbit exactly, the recurrence error is
identically zero and the reported input carries only the machine-epsilon
residue of the replayed first neuron.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: periods that the gait layer accepts; other values are analysis-only
GAIT_PERIODS = (1, 4, 5, 6, 8, 9)

#: default initial activity used by runs that do not specify one
DEFAULT_INIT = (0.1, 0.2)

#: recurrence error below which a step extends a shadowing run
CAPTURE_TOL = 0.15

#: scan steps after which a lock is tried from the best shadowing seed seen
FALLBACK_AT = 800


def sigmoid(a: float) -> float:
    """Numerically safe logistic function, exact for all finite inputs."""
    if a >= 0.0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


def logit(x: float) -> float:
    return math.log(x / (1.0 - x))


@dataclass(frozen=True)
class CpgParams:
    """Synaptic weights and biases of the two-neuron oscillator.

    w_ij is the weight from neuron j to neuron i.  The defaults put the
    free map in its chaotic regime.
    """

    w11: float = -22.0
    w12: float = 5.9
    w21: float = -6.6
    w22: float = 0.0
    theta1: float = -3.4
    theta2: float = 3.8

    def __post_init__(self):
        for name in ("w11", "w12", "w21", "w22", "theta1", "theta2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite parameter {name}")


@dataclass(frozen=True)
class CpgState:
    """Activity pair (x1, x2) at integer step t.  One step is ~0.037 s."""

    x1: float
    x2: float
    t: int = 0


def _activations(params: CpgParams, x1: float, x2: float,
                 c1: float, c2: float) -> tuple[float, float]:
    # single shared expression so every caller gets bitwise-identical floats
    a1 = params.theta1 + params.w11 * x1 + params.w12 * x2 + c1
    a2 = params.theta2 + params.w21 * x1 + params.w22 * x2 + c2
    return a1, a2


def step(state: CpgState, params: CpgParams,
         c1: float = 0.0, c2: float = 0.0) -> CpgState:
    """Advance the map by one step under control inputs (c1, c2)."""
    for v in (state.x1, state.x2, c1, c2):
        if not math.isfinite(v):
            raise ValueError("non-finite input to step")
    a1, a2 = _activations(params, state.x1, state.x2, c1, c2)
    return CpgState(sigmoid(a1), sigmoid(a2), state.t + 1)


def _free_step(params: CpgParams, x1: float, x2: float) -> tuple[float, float]:
    a1, a2 = _activations(params, x1, x2, 0.0, 0.0)
    return sigmoid(a1), sigmoid(a2)


# ---------------------------------------------------------------------------
# orbit location and the lock-in stepper


def _cycle_jacobian(params: CpgParams, x1: float, x2: float,
                    p: int) -> tuple[float, float, float, float, float, float]:
    """p-fold map value and Jacobian (2x2, row-major) at (x1, x2)."""
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for _ in range(p):
        y1, y2 = _free_step(params, x1, x2)
        d1 = y1 * (1.0 - y1)
        d2 = y2 * (1.0 - y2)
        j11, j12 = d1 * params.w11, d1 * params.w12
        j21, j22 = d2 * params.w21, d2 * params.w22
        m11, m12, m21, m22 = (j11 * m11 + j12 * m21, j11 * m12 + j12 * m22,
                              j21 * m11 + j22 * m21, j21 * m12 + j22 * m22)
        x1, x2 = y1, y2
    return x1, x2, m11, m12, m21, m22


def find_orbit(params: CpgParams, p: int, seed_state: tuple[float, float],
               tol: float = 1e-13, max_iter: int = 40) -> Optional[list[tuple[float, float]]]:
    """Newton-refine a nearby period-p point of the free map.

    Returns the full orbit (p points, consecutive map images) or None when
    the iteration diverges, leaves (0,1)^2, or lands on an orbit whose
    prime period is a proper divisor of p.
    """
    y1, y2 = seed_state
    for _ in range(max_iter):
        g1, g2, m11, m12, m21, m22 = _cycle_jacobian(params, y1, y2, p)
        r1, r2 = g1 - y1, g2 - y2
        if max(abs(r1), abs(r2)) < tol:
            break
        # solve (M - I) d = -r
        a11, a12, a21, a22 = m11 - 1.0, m12, m21, m22 - 1.0
        det = a11 * a22 - a12 * a21
        if det == 0.0 or not math.isfinite(det):
            return None
        d1 = (-r1 * a22 + r2 * a12) / det
        d2 = (-a11 * r2 + a21 * r1) / det
        if not (math.isfinite(d1) and math.isfinite(d2)) or max(abs(d1), abs(d2)) > 0.5:
            return None
        y1, y2 = y1 + d1, y2 + d2
    else:
        return None
    if not (0.0 < y1 < 1.0 and 0.0 < y2 < 1.0):
        return None
    # prime-period check: no earlier return to the start
    z1, z2 = y1, y2
    for q in range(1, p):
        z1, z2 = _free_step(params, z1, z2)
        if max(abs(z1 - y1), abs(z2 - y2)) < 1e-6:
            return None
    orbit = [(y1, y2)]
    for _ in range(p - 1):
        orbit.append(_free_step(params, *orbit[-1]))
    return orbit


def _consistent_loop(params: CpgParams,
                     orbit: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Rebuild the x2 component as the exact float image of the x1 chain.

    With the default w22 = 0 the second neuron depends only on x1, so this
    makes every x2 transition around the loop exact in floating point.
    """
    p = len(orbit)
    x1s = [pt[0] for pt in orbit]
    x2s = [pt[1] for pt in orbit]
    for k in range(p):
        a2 = (params.theta2 + params.w21 * x1s[k]
              + params.w22 * x2s[k] + 0.0)
        x2s[(k + 1) % p] = sigmoid(a2)
    return list(zip(x1s, x2s))


class CpgOscillator:
    """One oscillator with its period controller.

    Free-runs the chaotic map while scanning for a shadowing event, i.e. a
    stretch of p steps whose recurrence error stays below CAPTURE_TOL.  The
    shadowed loop is polished to the exact periodic orbit and the stepper
    latches onto it; afterwards the orbit replays exactly, the recurrence
    error is identically zero and the reported control inputs reflect the
    (machine-epsilon) residue of the replayed first neuron.  With enabled
    False the oscillator never locks and runs the free map.
    """

    def __init__(self, params: CpgParams, p: int,
                 init: Sequence[float] = DEFAULT_INIT, enabled: bool = True):
        if len(init) != 2:
            raise ValueError(f"init needs two activities, got {len(init)}")
        if not (0.0 < init[0] < 1.0 and 0.0 < init[1] < 1.0):
            raise ValueError("initial activities must lie in (0,1)")
        self.params = params
        self.state = CpgState(float(init[0]), float(init[1]), 0)
        self.enabled = enabled
        self.last_c = (0.0, 0.0)
        self.set_period(p)

    def set_period(self, p: int) -> None:
        """Change the target period; the delay line and the lock restart."""
        if p < 1:
            raise ValueError(f"period must be >= 1, got {p}")
        self.p = p
        # states of the last p unlocked steps; history[0] is one period ago
        self.history: deque = deque(maxlen=p)
        self.locked = False
        self.lock_step: Optional[int] = None
        self._loop: Optional[list[tuple[float, float]]] = None
        self._loop_c1: Optional[list[float]] = None
        self._phase = 0
        self._scan_steps = 0
        self._run_len = 0
        self._best_err = math.inf
        self._best_seed: Optional[tuple[float, float]] = None

    def _try_lock(self, seed: tuple[float, float]) -> bool:
        orbit = find_orbit(self.params, self.p, seed)
        if orbit is None:
            return False
        loop = _consistent_loop(self.params, orbit)
        # implied first-neuron input that replays the loop through the map
        c1s = []
        for k in range(len(loop)):
            x1, x2 = loop[k]
            nx1 = loop[(k + 1) % len(loop)][0]
            a1 = self.params.theta1 + self.params.w11 * x1 + self.params.w12 * x2
            c1s.append(logit(nx1) - a1)
        self._loop = loop
        self._loop_c1 = c1s
        return True

    def _enter_lock(self) -> CpgState:
        # pull the first neuron onto the loop at the nearest phase; the
        # second neuron follows the free map, so it joins the loop chain
        # one step later by itself (exactly so with the default w22 = 0)
        x1, x2 = self.state.x1, self.state.x2
        dists = [max(abs(l1 - x1), abs(l2 - x2)) for l1, l2 in self._loop]
        k = dists.index(min(dists))
        nxt = self._loop[(k + 1) % len(self._loop)]
        a1, a2 = _activations(self.params, x1, x2, 0.0, 0.0)
        self.last_c = (logit(nxt[0]) - a1, 0.0)
        self._phase = (k + 1) % len(self._loop)
        self.locked = True
        self.lock_step = self.state.t + 1
        return CpgState(nxt[0], sigmoid(a2), self.state.t + 1)

    def advance(self) -> CpgState:
        """One time step; returns the new state."""
        if self.locked:
            self._phase = (self._phase + 1) % self.p
            nxt = self._loop[self._phase]
            self.last_c = (self._loop_c1[(self._phase - 1) % self.p], 0.0)
            self.state = CpgState(nxt[0], nxt[1], self.state.t + 1)
            return self.state

        new_state = None
        if self.enabled and len(self.history) >= self.p:
            old1, old2 = self.history[0]
            err = max(abs(old1 - self.state.x1), abs(old2 - self.state.x2))
            self._run_len = self._run_len + 1 if err < CAPTURE_TOL else 0
            if err < self._best_err:
                self._best_err = err
                self._best_seed = (self.state.x1, self.state.x2)
            trigger = (self._run_len >= self.p
                       or (self._scan_steps >= FALLBACK_AT
                           and self._best_seed is not None))
            if trigger:
                seed = ((self.state.x1, self.state.x2)
                        if self._run_len >= self.p else self._best_seed)
                if self._try_lock(seed):
                    new_state = self._enter_lock()
                else:
                    self._run_len = 0
                    if self._scan_steps >= FALLBACK_AT:
                        self._best_err = math.inf  # rescan for a fresh seed

        self.history.append((self.state.x1, self.state.x2))
        if new_state is None:
            self.last_c = (0.0, 0.0)
            new_state = step(self.state, self.params, 0.0, 0.0)
        self.state = new_state
        self._scan_steps += 1
        return self.state


@dataclass
class Trajectory:
    """Time series of one controlled run; indexable as a sequence of states."""

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    lock_step: Optional[int] = None

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> CpgState:
        return CpgState(float(self.x1[i]), float(self.x2[i]), int(self.t[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def to_csv(self, path, header_lines: Sequence[str] = ()) -> None:
        with open(path, "w", newline="") as f:
            for line in header_lines:
                f.write(f"# {line}\n")
            w = csv.writer(f)
            w.writerow(["t", "x1", "x2", "c1", "c2"])
            for i in range(len(self)):
                w.writerow([int(self.t[i]), repr(float(self.x1[i])),
                            repr(float(self.x2[i])), repr(float(self.c1[i])),
                            repr(float(self.c2[i]))])


def run_controlled(params: CpgParams, p: int, steps: int,
                   init: Sequence[float] = DEFAULT_INIT,
                   enabled: bool = True) -> Trajectory:
    """Run the controlled oscillator and return the full trajectory.

    Gait use expects p in GAIT_PERIODS; any p >= 1 is allowed for analysis
    (periods without a prime orbit, such as 3, simply never lock).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    osc = CpgOscillator(params, p, init=init, enabled=enabled)
    n = steps + 1
    t = np.arange(n, dtype=np.int64)
    x1 = np.empty(n)
    x2 = np.empty(n)
    c1 = np.zeros(n)
    c2 = np.zeros(n)
    x1[0], x2[0] = osc.state.x1, osc.state.x2
    for k in range(1, n):
        osc.advance()
        x1[k], x2[k] = osc.state.x1, osc.state.x2
        c1[k], c2[k] = osc.last_c
        if osc.locked:
            # the remaining steps replay the loop; fill them vectorized
            loop = np.array(osc._loop)
            c1s = np.array(osc._loop_c1)
            phase = osc._phase
            rest = n - 1 - k
            if rest > 0:
                idx = (phase + 1 + np.arange(rest)) % p
                x1[k + 1:] = loop[idx, 0]
                x2[k + 1:] = loop[idx, 1]
                c1[k + 1:] = c1s[idx - 1]
                c2[k + 1:] = 0.0
            break
    return Trajectory(t, x1, x2, c1, c2, lock_step=osc.lock_step)


def detect_period(trace: Sequence[float], tol: float = 1e-6) -> Optional[int]:
    """Smallest q such that the final third of the trace is q-periodic.

    Returns None when no q up to len(trace)//3 qualifies.
    """
    arr = np.asarray(trace, dtype=float)
    n = len(arr)
    if n == 0:
        raise ValueError("empty trace")
    if tol <= 0:
        raise ValueError("tol must be positive")
    start = n - n // 3
    tail = arr[start:]
    for q in range(1, n // 3 + 1):
        if np.all(np.abs(tail - arr[start - q:n - q]) < tol):
            return q
    return None


def lyapunov_estimate(params: CpgParams, steps: int = 100_000,
                      init: tuple[float, float] = DEFAULT_INIT,
                      burn_in: int = 1000) -> float:
    """Largest Lyapunov exponent of the free map (control off).

    Tangent-vector products of the step Jacobians with per-step
    renormalization; the burn-in is discarded.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x1, x2 = init
    for _ in range(burn_in):
        x1, x2 = _free_step(params, x1, x2)
    v1, v2 = 1.0, 0.0
    acc = 0.0
    for _ in range(steps):
        x1, x2 = _free_step(params, x1, x2)
        d1 = x1 * (1.0 - x1)
        d2 = x2 * (1.0 - x2)
        u1 = d1 * (params.w11 * v1 + params.w12 * v2)
        u2 = d2 * (params.w21 * v1 + params.w22 * v2)
        norm = math.hypot(u1, u2)
        if norm == 0.0:
            # tangent space collapsed in one step, e.g. all-zero weights
            return -math.inf
        acc += math.log(norm)
        v1, v2 = u1 / norm, u2 / norm
    return acc / steps
