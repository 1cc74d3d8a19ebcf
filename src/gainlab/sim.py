"""Exact simulation of stable LTI systems under piecewise-structured inputs.

Inputs built from the signal vocabulary decompose into segments on which the
dynamics admit a closed form: constants propagate through the block matrix
exponential exp([[A, B], [0, 0]] dt), sinusoids through an augmentation with
a two-state harmonic oscillator.  The simulator walks a uniform output grid,
splitting steps at segment boundaries, so the recorded states are exact up
to the matrix exponential (no ODE discretization error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError, SimulationError
from .gains import bang_bang_switches, l1_impulse_gain
from .linalg import StateSpaceSystem, _expm, mat_exp
from .quadrature import tail_horizon
from .signals import (
    InputSignal,
    PeriodicExtension,
    Segment,
    iter_segments,
    signal_dim,
    sup_norm,
)

__all__ = [
    "Trajectory",
    "simulate",
    "steady_periodic_state",
    "WorstCaseSpec",
    "worst_case_periodic_input",
    "EmpiricalGains",
    "empirical_gains",
    "GainEqualityRecord",
    "verify_gain_equality",
]


@dataclass(frozen=True)
class Trajectory:
    """States and outputs sampled on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    step: float

    def output_norms(self) -> np.ndarray:
        return np.linalg.norm(self.outputs, axis=1)


class _Propagators:
    """Per-simulation cache of segment propagators keyed by duration."""

    def __init__(self, sys: StateSpaceSystem):
        self.sys = sys
        self.const: dict = {}
        self.sin: dict = {}

    def advance_const(self, x: np.ndarray, value: np.ndarray, dt: float) -> np.ndarray:
        pair = self.const.get(dt)
        if pair is None:
            n, m = self.sys.n, self.sys.m
            aug = np.zeros((n + m, n + m))
            aug[:n, :n] = self.sys.a
            aug[:n, n:] = self.sys.b
            full = _expm(aug * dt)
            pair = (full[:n, :n], full[:n, n:])
            self.const[dt] = pair
        phi, gamma = pair
        return phi @ x + gamma @ value

    def advance_sin(
        self, x: np.ndarray, seg: Segment, t_local: float, dt: float
    ) -> np.ndarray:
        key = (dt, seg.omega, seg.direction.tobytes())
        full = self.sin.get(key)
        if full is None:
            n = self.sys.n
            aug = np.zeros((n + 2, n + 2))
            aug[:n, :n] = self.sys.a
            aug[:n, n] = self.sys.b @ seg.direction
            aug[n, n + 1] = seg.omega
            aug[n + 1, n] = -seg.omega
            full = _expm(aug * dt)
            self.sin[key] = full
        theta = seg.omega * t_local + seg.theta0
        z = np.concatenate((x, [math.sin(theta), math.cos(theta)]))
        return (full @ z)[: self.sys.n]


# Largest grid a simulation may record: verify's 40,960 steps are the most any
# command takes by default, and ten million take minutes and hundreds of MB.
_MAX_GRID_STEPS = 10**7


def _grid_steps(t_end: float, h: float) -> int:
    if not (math.isfinite(h) and h > 0):
        raise ValueError("step h must be finite and positive")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if t_end < h:
        raise ValueError("t_end must be at least one step")
    ratio = t_end / h
    if ratio >= _MAX_GRID_STEPS + 0.5:
        raise ValueError(
            f"t_end / h = {ratio:.4g} grid steps exceeds the limit of "
            f"{_MAX_GRID_STEPS}; use a larger step (--step) or a shorter "
            "duration (--t-max)"
        )
    n_steps = int(round(ratio))
    if abs(n_steps * h - t_end) > 1e-9 * max(1.0, t_end):
        n_steps = int(math.floor(t_end / h + 1e-12))
    return n_steps


def simulate(
    sys: StateSpaceSystem,
    signal: InputSignal,
    x0: np.ndarray,
    t_end: float,
    h: float,
) -> Trajectory:
    """Propagate x' = Ax + Bu from ``x0`` and record every grid point.

    The input must match the system's input dimension.  Within each grid
    step the exact flow is composed segment by segment, so ``h`` controls
    only the recording density, not the accuracy.
    """
    if signal_dim(signal) != sys.m:
        raise DimensionError(
            f"input dimension {signal_dim(signal)} does not match system m={sys.m}"
        )
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (sys.n,):
        raise DimensionError(f"x0 must have length {sys.n}")
    n_steps = _grid_steps(t_end, h)
    t_final = n_steps * h
    segments = iter_segments(signal, t_final)
    times = np.arange(n_steps + 1) * h
    states = np.empty((n_steps + 1, sys.n))
    states[0] = x
    cache = _Propagators(sys)
    eps = 1e-12 * max(1.0, t_final)
    seg_i = 0
    cursor = 0.0
    for k in range(1, n_steps + 1):
        t_next = k * h
        while t_next - cursor > eps:
            while seg_i < len(segments) - 1 and segments[seg_i].end <= cursor + eps:
                seg_i += 1
            seg = segments[seg_i]
            if seg.end <= cursor + eps:
                break  # coverage exhausted within floating-point noise
            stop = min(seg.end, t_next)
            dt = stop - cursor
            if dt > eps:
                if seg.kind == "const":
                    x = cache.advance_const(x, seg.value, dt)
                else:
                    x = cache.advance_sin(x, seg, cursor - seg.start, dt)
            cursor = stop
        cursor = t_next
        if not np.all(np.isfinite(x)):
            raise SimulationError(f"state diverged at t={t_next}")
        states[k] = x
    outputs = states @ sys.c.T
    return Trajectory(times=times, states=states, outputs=outputs, step=h)


def steady_periodic_state(
    sys: StateSpaceSystem,
    signal: InputSignal,
    period: float,
    h: float | None = None,
) -> np.ndarray:
    """Initial state whose response to the periodic input is itself periodic.

    Solves (exp(A period) - I) x = -x_zs(period) with the zero-state response
    computed by exact segment propagation; ``h`` only sets the recording grid
    used internally (the period must be an integer number of steps).
    """
    if not (period > 0):
        raise ValueError("period must be positive")
    if h is None:
        h = period / 1024.0
    n_sub = max(1, int(round(period / h)))
    h_eff = period / n_sub
    traj = simulate(sys, signal, np.zeros(sys.n), period, h_eff)
    x_zs = traj.states[-1]
    e_t = mat_exp(sys.a, period)
    return np.linalg.solve(e_t - np.eye(sys.n), -x_zs)


class WorstCaseSpec(NamedTuple):
    """Shape parameters of a constructed worst-case periodic input."""

    horizon: float
    rest: float
    period: float
    rest_tolerance: float
    achieved_decay: float


def worst_case_periodic_input(
    sys: StateSpaceSystem, horizon: float, rest_tolerance: float
) -> tuple[PeriodicExtension, WorstCaseSpec]:
    """Periodic input approaching the peak gain asymptotically (SISO).

    One period holds the optimal bang-bang input for the terminal-output
    problem on [0, horizon] followed by a rest long enough that the state
    decays below ``rest_tolerance`` relative to its certified envelope, so
    successive periods barely interact.  The rest length is the smallest
    integer R with M exp(-sigma R) <= rest_tolerance.
    """
    if sys.m != 1 or sys.p != 1:
        raise DimensionError("worst-case construction requires a SISO system")
    if not (0.0 < rest_tolerance < 1.0):
        raise ValueError("rest_tolerance must lie in (0, 1)")
    cert = sys.certificate
    rest = float(math.ceil(math.log(cert.m / rest_tolerance) / cert.sigma))
    rest = max(rest, 0.0)
    achieved = cert.m * math.exp(-cert.sigma * rest)
    if achieved > rest_tolerance:
        rest += 1.0
        achieved = cert.m * math.exp(-cert.sigma * rest)
    bang = bang_bang_switches(sys, horizon)
    signal = PeriodicExtension(base=bang, base_span=horizon, period=horizon + rest)
    spec = WorstCaseSpec(
        horizon=horizon,
        rest=rest,
        period=horizon + rest,
        rest_tolerance=rest_tolerance,
        achieved_decay=achieved,
    )
    return signal, spec


class EmpiricalGains(NamedTuple):
    sup_gain: float
    asymptotic_gain: float


def empirical_gains(
    sys: StateSpaceSystem,
    signal: InputSignal,
    t_end: float,
    window: float,
    h: float,
) -> EmpiricalGains:
    """Measured peak and asymptotic output norms under a unit-bounded input.

    Starts from rest so the output norms are directly comparable to gain
    figures; the asymptotic value is the maximum over the trailing window.
    """
    if sup_norm(signal) > 1.0 + 1e-9:
        raise ValueError("empirical gains require an input bounded by one")
    if not (0.0 < window < t_end):
        raise ValueError("window must lie strictly inside the duration")
    traj = simulate(sys, signal, np.zeros(sys.n), t_end, h)
    norms = traj.output_norms()
    sup_gain = float(np.max(norms))
    tail = traj.times >= traj.times[-1] - window - 1e-12
    asymptotic = float(np.max(norms[tail]))
    return EmpiricalGains(sup_gain=sup_gain, asymptotic_gain=asymptotic)


@dataclass(frozen=True)
class GainEqualityRecord:
    """Outcome of the sup-gain vs asymptotic-gain equality check."""

    gamma: float
    horizon: float
    rest: float
    period: float
    sup_gain: float
    asymptotic_gain: float
    lower_target: float
    upper_limit: float
    accuracy: float
    passed: bool


def verify_gain_equality(
    sys: StateSpaceSystem,
    accuracy: float,
    tol: float = 1e-9,
    steps_per_period: int = 4096,
    periods: int = 10,
) -> GainEqualityRecord:
    """Demonstrate numerically that the asymptotic gain reaches the peak gain.

    Builds a worst-case periodic input whose parameters are derived from the
    requested relative ``accuracy``: the horizon is long enough that the
    terminal-output value falls short of the gain by at most accuracy/2
    (certified tail), the rest tolerance small enough that inter-period
    leakage costs at most accuracy/4 each way.  The simulated asymptotic
    output must land in [(1 - accuracy) gamma, gamma (1 + 1e-6) + 2 tol];
    failure is reported in the record, not raised.
    """
    if sys.m != 1 or sys.p != 1:
        raise DimensionError("gain-equality verification requires a SISO system")
    if not (0.0 < accuracy < 1.0):
        raise ValueError("accuracy must lie in (0, 1)")
    gamma = l1_impulse_gain(sys, tol).value
    cert = sys.certificate
    coef = cert.m * float(np.linalg.norm(sys.b)) * float(np.linalg.norm(sys.c))
    if gamma <= 1e-300:
        return GainEqualityRecord(
            gamma=gamma,
            horizon=0.0,
            rest=0.0,
            period=0.0,
            sup_gain=0.0,
            asymptotic_gain=0.0,
            lower_target=0.0,
            upper_limit=2.0 * tol,
            accuracy=accuracy,
            passed=True,
        )
    horizon = tail_horizon(cert.sigma, coef, 0.5 * accuracy * gamma)
    horizon = max(horizon * 1.05, 1.0 / cert.sigma)
    rest_tol = accuracy * gamma * cert.sigma / (4.0 * cert.m * coef)
    rest_tol = min(max(rest_tol, 1e-14), 0.25)
    signal, spec = worst_case_periodic_input(sys, horizon, rest_tol)
    h = spec.period / steps_per_period
    t_end = periods * spec.period
    window = min(5, periods // 2) * spec.period
    emp = empirical_gains(sys, signal, t_end, window, h)
    lower_target = (1.0 - accuracy) * gamma
    upper_limit = gamma * (1.0 + 1e-6) + 2.0 * tol
    passed = lower_target <= emp.asymptotic_gain <= upper_limit
    return GainEqualityRecord(
        gamma=gamma,
        horizon=horizon,
        rest=spec.rest,
        period=spec.period,
        sup_gain=emp.sup_gain,
        asymptotic_gain=emp.asymptotic_gain,
        lower_target=lower_target,
        upper_limit=upper_limit,
        accuracy=accuracy,
        passed=passed,
    )
