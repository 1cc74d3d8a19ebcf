"""Input signal variants and their exact piecewise decomposition.

Every signal the simulator accepts is, on any bounded window, a finite
concatenation of segments on which it is either constant or a pure sinusoid.
``iter_segments`` performs that decomposition; the simulator then carries the
state and the input's own state across each segment as one linear flow, so
signal handling is the only place where switching structure lives.  The
signals and segments are immutable records (_record.Record, not dataclasses:
a changed copy is type(r)(**{**vars(r), name: value})).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ._record import Record
from .exceptions import DimensionError

__all__ = [
    "Zero",
    "Constant",
    "Sinusoid",
    "BangBangInput",
    "PeriodicExtension",
    "InputSignal",
    "evaluate",
    "signal_dim",
    "sup_norm",
    "iter_segments",
]


class Zero(Record):
    """The zero input of a given channel count."""

    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionError("dim must be >= 1")


class Constant(Record):
    """u(t) = u0 for all t."""

    u0: np.ndarray

    def __post_init__(self) -> None:
        u = np.atleast_1d(np.asarray(self.u0, dtype=float)).reshape(-1)
        if not np.all(np.isfinite(u)):
            raise ValueError("u0 contains non-finite entries")
        object.__setattr__(self, "u0", u)


class Sinusoid(Record):
    """u(t) = direction * sin(omega t + phase) with a unit direction vector."""

    direction: np.ndarray
    omega: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        d = np.atleast_1d(np.asarray(self.direction, dtype=float)).reshape(-1)
        norm = np.linalg.norm(d)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise ValueError("direction must have unit Euclidean norm")
        if not 0 < self.omega < np.inf:
            raise ValueError(f"omega must be finite and positive, got {self.omega!r}")
        if not np.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase!r}")
        object.__setattr__(self, "direction", d)


class BangBangInput(Record):
    """Scalar switching input on [0, horizon]: +-1 with sign flips at
    switch_times, zero after the horizon.

    ``initial_sign`` applies on [0, first switch); each switch time flips the
    sign (right-continuous).  ``zero_kernel`` marks the degenerate case where
    the optimizing kernel vanishes identically, making the input zero.
    """

    horizon: float
    switch_times: np.ndarray
    initial_sign: int = 1
    zero_kernel: bool = False

    def __post_init__(self) -> None:
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        s = np.atleast_1d(np.asarray(self.switch_times, dtype=float)).reshape(-1)
        if s.size and (np.any(np.diff(s) <= 0) or s[0] <= 0 or s[-1] >= self.horizon):
            raise ValueError("switch times must be strictly increasing inside (0, horizon)")
        if self.initial_sign not in (-1, 1):
            raise ValueError("initial_sign must be +1 or -1")
        object.__setattr__(self, "switch_times", s)


class PeriodicExtension(Record):
    """Periodic repetition of ``base`` restricted to [0, base_span], padded
    with zero on (base_span, period]."""

    base: "InputSignal"
    base_span: float
    period: float

    def __post_init__(self) -> None:
        if not (self.base_span >= 0):
            raise ValueError("base_span must be nonnegative")
        if not (self.base_span <= self.period < np.inf) or self.period <= 0:
            raise ValueError("period must be finite, positive and >= base_span")


InputSignal = Union[Zero, Constant, Sinusoid, BangBangInput, PeriodicExtension]


def signal_dim(signal: InputSignal) -> int:
    """Number of input channels the signal drives."""
    if isinstance(signal, Zero):
        return signal.dim
    if isinstance(signal, Constant):
        return signal.u0.size
    if isinstance(signal, Sinusoid):
        return signal.direction.size
    if isinstance(signal, BangBangInput):
        return 1
    if isinstance(signal, PeriodicExtension):
        return signal_dim(signal.base)
    raise TypeError(f"not an input signal: {signal!r}")


def sup_norm(signal: InputSignal) -> float:
    """Supremum over time of the Euclidean norm of the signal value."""
    if isinstance(signal, Zero):
        return 0.0
    if isinstance(signal, Constant):
        return float(np.linalg.norm(signal.u0))
    if isinstance(signal, Sinusoid):
        return 1.0
    if isinstance(signal, BangBangInput):
        return 0.0 if signal.zero_kernel else 1.0
    if isinstance(signal, PeriodicExtension):
        return sup_norm(signal.base)
    raise TypeError(f"not an input signal: {signal!r}")


def evaluate(signal: InputSignal, t) -> np.ndarray:
    """Value at time t as a (dim,) array, or at a 1-d array of k times as a
    (k, dim) array; a scalar takes the same path, so both agree bit for bit."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return evaluate(signal, t.reshape(1))[0]
    if t.ndim > 1:
        raise ValueError("t must be a scalar or a 1-d array of times")
    if isinstance(signal, Zero):
        return np.zeros((t.size, signal.dim))
    if isinstance(signal, Constant):
        return np.tile(signal.u0, (t.size, 1))
    if isinstance(signal, Sinusoid):
        return np.sin(signal.omega * t + signal.phase)[:, None] * signal.direction
    if isinstance(signal, BangBangInput):
        flips = np.searchsorted(signal.switch_times, t, side="right")
        signs = np.where(flips % 2 == 0, 1.0, -1.0) * signal.initial_sign
        off = signal.zero_kernel | (t < 0.0) | (t > signal.horizon)
        return np.where(off, 0.0, signs)[:, None]
    if isinstance(signal, PeriodicExtension):
        local = t - signal.period * np.floor(t / signal.period)
        values = evaluate(signal.base, local)
        values[local > signal.base_span] = 0.0
        return values
    raise TypeError(f"not an input signal: {signal!r}")


class Segment(Record):
    """Maximal interval on which the signal is constant or one sinusoid.

    For kind "const", ``value`` holds u; for kind "sin", the signal on the
    segment is direction * sin(omega (t - start) + theta0).  _segments
    builds constant segments positionally, a record's cheapest construction:
    a periodic input over a long horizon has one per switch.
    """

    start: float
    end: float
    kind: str
    value: np.ndarray = None  # type: ignore[assignment]
    direction: np.ndarray = None  # type: ignore[assignment]
    omega: float = 0.0
    theta0: float = 0.0


def iter_segments(signal: InputSignal, t_end: float) -> list[Segment]:
    """Decompose the signal over [0, t_end] into constant/sinusoid segments."""
    return _segments(signal, 0.0, t_end)


def _segments(signal: InputSignal, offset: float, t_end: float) -> list[Segment]:
    # Segments of signal(t - offset) covering [offset, t_end].
    span = t_end - offset
    if span <= 0:
        return []
    if isinstance(signal, Sinusoid):
        return [
            Segment(
                offset,
                t_end,
                "sin",
                direction=signal.direction,
                omega=signal.omega,
                theta0=signal.phase,
            )
        ]
    if isinstance(signal, PeriodicExtension):
        out = []
        k = 0
        dim = signal_dim(signal)
        while True:
            start = offset + k * signal.period
            if start >= t_end:
                break
            span_end = min(start + signal.base_span, t_end)
            if span_end > start:
                out.extend(_segments(signal.base, start, span_end))
            pad_end = min(start + signal.period, t_end)
            if pad_end > start + signal.base_span:
                out.append(
                    Segment(start + signal.base_span, pad_end, "const", np.zeros(dim))
                )
            k += 1
        return out
    # Zero, Constant and BangBangInput are constant between their switch
    # times and horizon; evaluate gives each piece's value at its midpoint.
    cuts = np.empty(0)
    if isinstance(signal, BangBangInput):
        cuts = signal.switch_times[signal.switch_times < span]
        if signal.horizon < span:
            cuts = np.append(cuts, signal.horizon)
    values = evaluate(signal, 0.5 * (np.append(0.0, cuts) + np.append(cuts, span)))
    bounds = [offset, *(offset + cuts).tolist(), t_end]
    return [Segment(lo, hi, "const", v) for lo, hi, v in zip(bounds, bounds[1:], values)]
