"""Exact simulation of stable LTI systems under piecewise-structured inputs.

Inputs built from the signal vocabulary decompose into segments on which the
input is constant or one sinusoid.  On each segment the state and the input's
own state (the constant, or the sine and cosine of the phase) together follow
one autonomous linear flow z' = G z, so the grid states the segment covers are
one orbit z, exp(G h) z, exp(G h)^2 z, ... of that flow.  The simulator walks
the segments and fills each one's grid rows from its orbit.  Each generator G
is one linalg._Flow on cells c = h / 2^j, the widest with ||c G||_1 <= 1/2:
one stack of powers exp(2^i c G) and the Taylor series of its cell flow; a
flow over any time t is the powers named by the binary digits of t // c and
one Taylor product over the remainder.  So the recorded states are exact up
to those powers and that series (no ODE discretization error).

A periodic input needs one period's walk.  From a start state x_k, period k
records the zero-state outputs of the first period plus the free response
C exp(A j h) x_k, and x_{k+1} = exp(A period) x_k + x_zs(period): the free
response is the orbit of the output row (C, 0) of the same generator flow,
applied to (x_k, 0), and exp(A period) is the top-left block of its power
exp(G period).  So verify_gain_equality walks one of its ten periods and
one row orbit for all ten, and steady_periodic_state reads the periodic
start state off the same one-period helper.  verify reads its bang-bang
input off the sign partition that gave it the gain, so one kernel flow
serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError, SimulationError
from .gains import _bang_bang, _checked_tol, _l1_gain, bang_bang_switches
from .gains import l1_impulse_gain  # noqa: F401  (perfbench's tracing wraps sim.l1_impulse_gain)
from .linalg import _MAX_GRID_STEPS, _STACK_ENTRIES, StateSpaceSystem, _Flow, _grid_flow
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


def _generator(sys: StateSpaceSystem, seg: Segment) -> np.ndarray:
    """G, the flow z' = G z of the state and the input's own state on ``seg``.

    A constant u holds still: G = [[A, B], [0, 0]], z = (x, u).  A sinusoid
    d sin(omega t + theta0) carries (sin, cos) of its phase through a harmonic
    oscillator: G = [[A, B d e1'], [0, omega J]], z = (x, sin, cos).
    """
    n = sys.n
    if seg.kind == "const":
        g = np.zeros((n + sys.m, n + sys.m))
        g[:n, n:] = sys.b
    else:
        g = np.zeros((n + 2, n + 2))
        g[:n, n] = sys.b @ seg.direction
        g[n, n + 1] = seg.omega
        g[n + 1, n] = -seg.omega
    g[:n, :n] = sys.a
    return g


def simulate(
    sys: StateSpaceSystem,
    signal: InputSignal,
    x0: np.ndarray,
    t_end: float,
    h: float,
) -> Trajectory:
    """Propagate x' = Ax + Bu from ``x0`` and record every grid point.

    The input must match the system's input dimension.  The simulator walks
    the input's segments; the grid states a segment covers are one orbit of
    exp(G h) for the segment's flow z' = G z, filled in blocks whose leads,
    like the state at the segment's end, are flows from the segment start,
    so ``h`` controls only the recording density, not the accuracy.
    """
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (sys.n,):
        raise DimensionError(f"x0 must have length {sys.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 contains non-finite entries")
    return _walk(sys, signal, x, t_end, h, {})


def _walk(sys, signal, x, t_end, h, flows) -> Trajectory:
    """simulate's walk from the checked state x.  A generator met again
    (every constant segment has the same one) reuses its (flow, orbit level)
    in ``flows``, keyed on what G depends on, so G is formed once; the
    caller may read the flows afterwards."""
    if signal_dim(signal) != sys.m:
        raise DimensionError(
            f"input dimension {signal_dim(signal)} does not match system m={sys.m}"
        )
    n_steps = _grid_steps(t_end, h)
    t_final = n_steps * h
    times = np.arange(n_steps + 1) * h
    states = np.empty((n_steps + 1, sys.n))
    states[0] = x
    eps = 1e-12 * max(1.0, t_final)
    k = 1
    # A diverging state overflows to inf or nan; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for seg in iter_segments(signal, t_final):
            key = seg.kind if seg.kind == "const" else (seg.omega, seg.direction.tobytes())
            if key not in flows:
                flows[key] = _grid_flow(_generator(sys, seg), h, t_final)
            flow, j = flows[key]
            w = seg.value if seg.kind == "const" else [math.sin(seg.theta0), math.cos(seg.theta0)]
            z = np.concatenate((x, w))
            stop = int(np.searchsorted(times, seg.end + eps, side="right"))
            block = _STACK_ENTRIES // z.size
            for lo in range(k, stop, block):
                hi = min(lo + block, stop)
                lead = flow.advance(z, times[lo] - seg.start)
                rows = flow.orbit(lead, hi - lo, j)[:, : sys.n]
                if not np.isfinite(rows).all():
                    bad = np.nonzero(~np.all(np.isfinite(rows), axis=1))[0]
                    raise SimulationError(f"state diverged at t={times[lo + bad[0]]}")
                states[lo:hi] = rows
            x = flow.advance(z, seg.end - seg.start)[: sys.n]
            k = stop
    outputs = states @ sys.c.T
    return Trajectory(times=times, states=states, outputs=outputs, step=h)


def steady_periodic_state(
    sys: StateSpaceSystem, signal: InputSignal, period: float
) -> np.ndarray:
    """Initial state whose response to the periodic input is itself periodic.

    Solves (exp(A period) - I) x = -x_zs(period), with the zero-state
    response x_zs(period) and exp(A period) from _one_period.
    """
    if not (period > 0):
        raise ValueError("period must be positive")
    zero_state, e_period, _, _ = _one_period(sys, signal, period, 1)
    return np.linalg.solve(e_period - np.eye(sys.n), -zero_state.states[-1])


def _one_period(
    sys: StateSpaceSystem, signal: InputSignal, period: float, steps: int
) -> tuple[Trajectory, np.ndarray, _Flow, int]:
    """(trajectory, exp(A period), flow, level): the zero-state response to
    ``signal`` over one period, recorded in ``steps`` steps of h = period /
    steps (steps a power of two), and one generator flow of its walk with
    its orbit level.

    Every generator is block upper triangular with A top left, and its
    input state enters no state row, so from z = (x, 0) the flow's orbit
    at ``level`` walks exp(A j h) x in its first n rows, and its last power,
    exp(G period) (2^level cells a step, steps a power of two), holds
    exp(A period) top left.
    """
    flows = {}
    zero_state = _walk(sys, signal, np.zeros(sys.n), period, period / steps, flows)
    flow, level = next(iter(flows.values()))
    return zero_state, flow.powers[-1][: sys.n, : sys.n], flow, level


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
    rest = _rest_length(sys.certificate, rest_tolerance)
    return _periodic_input(sys.certificate, bang_bang_switches(sys, horizon), rest, rest_tolerance)


def _periodic_input(
    cert, bang, rest: float, rest_tolerance: float
) -> tuple[PeriodicExtension, WorstCaseSpec]:
    """worst_case_periodic_input's (input, spec) for the bang-bang input
    ``bang`` followed by ``rest``, the rest length of ``rest_tolerance``."""
    period = bang.horizon + rest
    spec = WorstCaseSpec(
        horizon=bang.horizon,
        rest=rest,
        period=period,
        rest_tolerance=rest_tolerance,
        achieved_decay=cert.m * math.exp(-cert.sigma * rest),
    )
    return PeriodicExtension(base=bang, base_span=bang.horizon, period=period), spec


def _rest_length(cert, rest_tolerance: float) -> float:
    """Smallest integer R >= 0 with M exp(-sigma R) <= rest_tolerance."""
    rest = max(float(math.ceil(math.log(cert.m / rest_tolerance) / cert.sigma)), 0.0)
    return rest + 1.0 if cert.m * math.exp(-cert.sigma * rest) > rest_tolerance else rest


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
    return _measured_gains(traj.times, traj.output_norms(), window)


def _measured_gains(times: np.ndarray, norms: np.ndarray, window: float) -> EmpiricalGains:
    """The largest output norm on the grid ``times``, and the largest over
    its trailing ``window``."""
    tail = times >= times[-1] - window - 1e-12
    return EmpiricalGains(float(np.max(norms)), float(np.max(norms[tail])))


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


# verify_gain_equality records each period in this many steps, and runs
# this many periods, measuring the asymptotic output over the last half.
_VERIFY_STEPS = 4096
_VERIFY_PERIODS = 10


def verify_gain_equality(
    sys: StateSpaceSystem, accuracy: float, tol: float = 1e-9
) -> GainEqualityRecord:
    """Demonstrate numerically that the asymptotic gain reaches the peak gain.

    Builds a worst-case periodic input whose parameters are derived from the
    requested relative ``accuracy``: the horizon is long enough that the
    terminal-output value falls short of the gain by at most accuracy/2
    (certified tail) and is a whole number of recording steps period / 4096
    (so the output's peaks at horizon + k period are recorded), the rest
    tolerance small enough that inter-period leakage costs at most
    accuracy/4 each way.  The gain gamma and the input's switches come from
    one sign partition of the kernel on [0, H], H the L1 horizon: a horizon
    past H (gamma below about tol / accuracy) partitions [0, horizon] anew,
    as bang_bang_switches does.  The input runs for 10 periods from rest,
    recorded without simulating more than the first: each later period's
    outputs are the first's plus the free response of its start state, read
    off one orbit of the output row.  The asymptotic output over the last 5
    periods must land in [(1 - accuracy) gamma, gamma (1 + 1e-6) + 2 tol];
    failure is reported in the record, not raised.
    """
    if sys.m != 1 or sys.p != 1:
        raise DimensionError("gain-equality verification requires a SISO system")
    if not (0.0 < accuracy < 1.0):
        raise ValueError("accuracy must lie in (0, 1)")
    _checked_tol(tol)
    l1, _, roots, kernel_flow = _l1_gain(sys, sys.c[:0], tol)
    gamma = l1.value
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
    rest = _rest_length(cert, rest_tol)
    j = min(math.ceil(_VERIFY_STEPS * horizon / (horizon + rest)), _VERIFY_STEPS - 1)
    horizon = max(horizon, j * rest / (_VERIFY_STEPS - j))
    if horizon <= l1.details["horizon"]:
        integral = l1.details["component_integrals"][0]
        bang = _bang_bang(sys, kernel_flow, roots[0], horizon, integral)
    else:
        bang = bang_bang_switches(sys, horizon)
    signal, spec = _periodic_input(cert, bang, rest, rest_tol)
    # The input repeats every period, so period k's outputs are the zero-state
    # ones plus the free response C exp(A j h) x_k of its start state, with
    # x_0 = 0 and x_{k+1} = exp(A period) x_k + x_zs(period).
    zero_state, e_period, flow, level = _one_period(sys, signal, spec.period, _VERIFY_STEPS)
    x_zs = zero_state.states[-1]
    starts = np.zeros((sys.n, _VERIFY_PERIODS + 1))
    for k in range(_VERIFY_PERIODS):
        starts[:, k + 1] = e_period @ starts[:, k] + x_zs
    row = np.zeros(flow.matrix.shape[0])  # (C, 0): the input state adds nothing
    row[: sys.n] = sys.c[0]
    free = flow.row_orbit(row, _VERIFY_STEPS, level)[:, : sys.n] @ starts[:, :-1]
    outputs = zero_state.outputs[:-1] + free
    norms = np.abs(np.append(outputs.T, sys.c @ starts[:, -1]))
    times = np.arange(norms.size) * zero_state.step
    emp = _measured_gains(times, norms, _VERIFY_PERIODS // 2 * spec.period)
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
