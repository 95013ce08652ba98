"""Two-neuron chaotic oscillator and lock-in onto its periodic orbits.

The oscillator is a discrete-time map on activity pairs (x1, x2) in (0,1):

    x_i(t+1) = sigmoid(theta_i + sum_j w_ij * x_j(t) + c_i(t))

With the default weights the free map (c = 0) is chaotic, and unstable
periodic orbits are embedded in its attractor.  The period controller
targets them in the manner of Ott, Grebogi and Yorke (1990): a catalogue
of the map's prime period-p orbits is built once per (parameters, p) by
Newton refinement of seeds from a fixed free run, and the oscillator
free-runs until its state comes closer than LOCK_RADIUS (max-norm) to a
catalogued orbit point.  One input to the first neuron then pulls the
state onto that orbit; from then on the oscillator replays the orbit
exactly, the recurrence error is identically zero and the reported input
carries only the machine-epsilon residue of the replayed first neuron.
A period with no catalogued orbit (3 for the default weights) never locks
and runs at nearly free-map cost: its catalogue is built only once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: periods that the gait layer accepts; other values are analysis-only
GAIT_PERIODS = (1, 4, 5, 6, 8, 9)


def _check_period(p: int) -> None:
    """Refuse anything but an int in GAIT_PERIODS."""
    # type(p) is int also keeps out floats such as 4.0 and bools
    if type(p) is not int or p not in GAIT_PERIODS:
        raise ValueError(
            f"period {p!r} is not usable for locomotion; allowed: {GAIT_PERIODS}"
            " (2 switches too fast, 3 and 7 have no stable pattern)")


#: default initial activity used by runs that do not specify one
DEFAULT_INIT = (0.1, 0.2)

#: max-norm distance to a catalogued orbit point that triggers a lock
LOCK_RADIUS = 0.05

#: Newton seeds of the orbit catalogue: every 7th state of a free run from
#: DEFAULT_INIT, 25 of them
_SEED_STRIDE, _SEED_COUNT = 7, 25

#: Newton refinement of an orbit: residual to reach, iterations allowed
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 40

#: free-map steps discarded before the Lyapunov estimate starts
_LYAPUNOV_BURN_IN = 1000


def _initial_state(init: Sequence[float]) -> tuple[float, float]:
    """The two start activities as floats; each must lie in open (0,1)."""
    if len(init) != 2:
        raise ValueError(f"init needs two activities, got {len(init)}")
    x1, x2 = float(init[0]), float(init[1])
    if not (0.0 < x1 < 1.0 and 0.0 < x2 < 1.0):  # also rejects NaN
        raise ValueError("initial activities must lie in (0,1)")
    return x1, x2


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
    """p-fold map value and Jacobian (2x2, row-major) at (x1, x2).

    All six values are NaN once the Jacobian product overflows, which no
    Newton step survives; long analysis-only periods stop there.
    """
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for _ in range(p):
        y1, y2 = _free_step(params, x1, x2)
        d1 = y1 * (1.0 - y1)
        d2 = y2 * (1.0 - y2)
        j11, j12 = d1 * params.w11, d1 * params.w12
        j21, j22 = d2 * params.w21, d2 * params.w22
        m11, m12, m21, m22 = (j11 * m11 + j12 * m21, j11 * m12 + j12 * m22,
                              j21 * m11 + j22 * m21, j21 * m12 + j22 * m22)
        if not math.isfinite(m11 + m12 + m21 + m22):
            return (math.nan,) * 6
        x1, x2 = y1, y2
    return x1, x2, m11, m12, m21, m22


def find_orbit(params: CpgParams, p: int,
               seed_state: tuple[float, float]) -> Optional[list[tuple[float, float]]]:
    """Newton-refine a nearby period-p point of the free map.

    Returns the full orbit (p points, consecutive map images) or None when
    the iteration diverges, leaves (0,1)^2, or lands on an orbit whose
    prime period is a proper divisor of p.
    """
    y1, y2 = seed_state
    for _ in range(_NEWTON_MAX_ITER):
        g1, g2, m11, m12, m21, m22 = _cycle_jacobian(params, y1, y2, p)
        r1, r2 = g1 - y1, g2 - y2
        if max(abs(r1), abs(r2)) < _NEWTON_TOL:
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


@functools.lru_cache(maxsize=64)
def _catalogue(params: CpgParams, p: int) -> tuple:
    """The distinct prime period-p loops that the fixed Newton seeds reach.

    Each entry is (points, inputs): the loop's points, and at each point
    the first-neuron input that replays the loop through the map.  Loops
    are listed in the order of the first seed that reaches them.  Orbits
    go through the module's find_orbit, so a wrapper on it sees every
    search.
    """
    loops = []
    x1, x2 = DEFAULT_INIT
    for _ in range(_SEED_COUNT):
        for _ in range(_SEED_STRIDE):
            x1, x2 = _free_step(params, x1, x2)
        orbit = find_orbit(params, p, (x1, x2))
        if orbit is None or any(
                max(abs(orbit[0][0] - l1), abs(orbit[0][1] - l2)) < 1e-6
                for points, _ in loops for l1, l2 in points):
            continue
        # rebuild x2 as the float image of the x1 chain: with the default
        # w22 = 0 every x2 transition around the loop is then exact
        x1s, x2s = [pt[0] for pt in orbit], [pt[1] for pt in orbit]
        for k in range(p):
            x2s[(k + 1) % p] = _free_step(params, x1s[k], x2s[k])[1]
        c1s = tuple(logit(x1s[(k + 1) % p])
                    - _activations(params, x1s[k], x2s[k], 0.0, 0.0)[0]
                    for k in range(p))
        loops.append((tuple(zip(x1s, x2s)), c1s))
    return tuple(loops)


class CpgOscillator:
    """One oscillator with its period controller.

    Free-runs the chaotic map until its state comes closer than
    LOCK_RADIUS (max-norm) to a point of the period's orbit catalogue; the
    nearest such point wins, ties going to the earlier catalogue entry.
    One input to the first neuron pulls the state onto that loop and the
    stepper latches onto it: afterwards the orbit replays exactly, the
    recurrence error is identically zero and the reported control inputs
    reflect the (machine-epsilon) residue of the replayed first neuron.
    With enabled False the oscillator never locks and runs the free map.
    """

    def __init__(self, params: CpgParams, p: int,
                 init: Sequence[float] = DEFAULT_INIT, enabled: bool = True):
        self.params = params
        self.state = CpgState(*_initial_state(init), 0)
        self.enabled = enabled
        self.last_c = (0.0, 0.0)
        self.set_period(p)

    def set_period(self, p: int) -> None:
        """Change the target period; the lock is cleared."""
        if p < 1:
            raise ValueError(f"period must be >= 1, got {p}")
        self.p = p
        self.locked = False
        self.lock_step: Optional[int] = None
        self._loop: Optional[tuple[tuple[float, float], ...]] = None
        self._loop_c1: Optional[tuple[float, ...]] = None
        self._phase = 0

    def _nearest_target(self) -> Optional[tuple[tuple, int]]:
        """Catalogued loop and phase nearest the state within LOCK_RADIUS."""
        x1, x2 = self.state.x1, self.state.x2
        best, target = LOCK_RADIUS, None
        for loop in _catalogue(self.params, self.p):
            for k, (l1, l2) in enumerate(loop[0]):
                d = max(abs(l1 - x1), abs(l2 - x2))
                if d < best:
                    best, target = d, (loop, k)
        return target

    def _enter_lock(self, loop: tuple, k: int) -> CpgState:
        # pull the first neuron from phase k onto the loop's next point; the
        # second neuron follows the free map, so it joins the loop chain
        # one step later by itself (exactly so with the default w22 = 0)
        self._loop, self._loop_c1 = loop
        x1, x2 = self.state.x1, self.state.x2
        nxt = self._loop[(k + 1) % self.p]
        a1, a2 = _activations(self.params, x1, x2, 0.0, 0.0)
        self.last_c = (logit(nxt[0]) - a1, 0.0)
        self._phase = (k + 1) % self.p
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
        target = self._nearest_target() if self.enabled else None
        if target is not None:
            self.state = self._enter_lock(*target)
        else:
            self.last_c = (0.0, 0.0)
            self.state = step(self.state, self.params, 0.0, 0.0)
        return self.state

    def _skip_locked(self, steps: int) -> None:
        """Move a locked oscillator as `steps` calls of advance would.

        A locked oscillator only walks its loop, so state, _phase and
        last_c follow from the phase by arithmetic.
        """
        if steps == 0:  # the lock step's state may not lie on the loop yet
            return
        self._phase = (self._phase + steps) % self.p
        x1, x2 = self._loop[self._phase]
        self.last_c = (self._loop_c1[(self._phase - 1) % self.p], 0.0)
        self.state = CpgState(x1, x2, self.state.t + steps)


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


def run_controlled(params: CpgParams, p: int, steps: int,
                   init: Sequence[float] = DEFAULT_INIT,
                   enabled: bool = True) -> Trajectory:
    """Run the controlled oscillator and return the full trajectory.

    Gait use expects p in GAIT_PERIODS; any p >= 1 is allowed for analysis
    (periods without a catalogued orbit, such as 3, never lock).
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
                      init: tuple[float, float] = DEFAULT_INIT) -> float:
    """Largest Lyapunov exponent of the free map (control off).

    Tangent-vector products of the step Jacobians with per-step
    renormalization; the burn-in is discarded.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x1, x2 = _initial_state(init)
    for _ in range(_LYAPUNOV_BURN_IN):
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
