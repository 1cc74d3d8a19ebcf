"""Command-line front end: parse a JSON model, run one analysis, emit text.

Commands map one-to-one onto library calls; every document embeds the
tolerances, seeds, and certificates used, and identical inputs produce
byte-identical output.  Exit codes: 0 success, 1 computation or verification
failure, 2 usage error.

Every command takes one path through ``main``, which builds the parser on its
first call and reuses it for the rest of the process.  It reads the model file
once, rejects a kind the command does not accept (``_COMMANDS``), calls the
command's handler, which returns (text, exit code), and writes the text once.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import delay as delaymod
from . import gains, modelio, sim
from .delay import DelayPredictorSystem, DelayState
from .exceptions import GainlabError
from .gains import CertificateBoundInput
from .linalg import StateSpaceSystem
from .signals import Constant, Sinusoid

__all__ = ["build_parser", "main"]

DEFAULT_TOL = 1e-8
# Largest vt and sweep grid: about 125 bytes per point, so 125 MB at the cap.
_MAX_POINTS = 10**6


def _checked_tol(value, source: str) -> float:
    """``value`` as a float; raises ValueError, naming ``source``, unless it
    converts to a finite, positive float."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = value
    gains._checked_tol(tol, f"{source}: tol")
    return tol


def _resolve_tol(flag_value, extras) -> float:
    """Priority: --tol flag, then the model file, then GAINLAB_TOL, then 1e-8."""
    if flag_value is not None:
        return _checked_tol(flag_value, "--tol")
    if extras.get("tol") is not None:
        return _checked_tol(extras["tol"], "model file")
    env = os.environ.get("GAINLAB_TOL")
    if env:
        return _checked_tol(env, "GAINLAB_TOL")
    return DEFAULT_TOL


def _resolve_seed(flag_value, extras) -> int:
    """Priority: --seed flag, then the model file (checked when parsed), then 0."""
    if flag_value is not None:
        return gains._checked_seed(flag_value, "--seed")
    if extras.get("seed") is not None:
        return extras["seed"]
    return 0


def _checked_points(points: int) -> int:
    """``points`` itself, at most _MAX_POINTS; checked before any grid is
    allocated."""
    if points < 1:
        raise ValueError("--points must be at least 1")
    if points > _MAX_POINTS:
        raise ValueError(f"--points {points} exceeds the limit of {_MAX_POINTS}")
    return points


def _check_flag(flag: str, value, what: str, below: float = math.inf) -> None:
    """Raise ValueError naming ``flag`` and ``what`` unless ``value`` was not
    given or lies in (0, below), so is finite: called before any work."""
    if value is not None and not (0 < value < below):
        raise ValueError(f"{flag}: {what}, got {value!r}")


def _unit_direction(dim: int) -> np.ndarray:
    return np.ones(dim) / math.sqrt(dim)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainlab",
        description="Peak-gain analysis and simulation of stable LTI systems.",
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("model", help="path to a JSON model file")
        sub.add_argument("--out", help="write the result to this file instead of stdout")
        return sub

    sub = add("analyze", "gain report (delay files: certified delay bounds)")
    sub.add_argument("--tol", type=float, help="quadrature tolerance")
    sub.add_argument("--seed", type=int, help="seed for randomized searches")

    sub = add("vt", "CSV of the terminal-output curve (T, V)")
    sub.add_argument("--t-max", type=float, default=20.0, help="largest horizon")
    sub.add_argument("--points", type=int, default=40, help="grid size")
    sub.add_argument("--tol", type=float, help="quadrature tolerance")
    sub.add_argument("--seed", type=int, help="seed for randomized searches")

    sub = add("sweep", "CSV of the sinusoid response (omega, Psi)")
    sub.add_argument("--omega-min", type=float, default=1e-3)
    sub.add_argument("--omega-max", type=float, default=1e3)
    sub.add_argument("--points", type=int, default=200, help="log-spaced grid size")

    sub = add("simulate", "trajectory CSV under a constant unit input")
    sub.add_argument("--t-max", type=float, default=20.0, help="duration")
    sub.add_argument(
        "--step", type=float, help="grid step (default 0.01; delay files tau/64)"
    )

    sub = add("worstcase", "trajectory CSV under the worst-case periodic input")
    sub.add_argument("--horizon", type=float, default=10.0, help="bang-bang horizon")
    sub.add_argument(
        "--tol", type=float, help="rest tolerance of the construction (default 1e-6)"
    )
    sub.add_argument("--t-max", type=float, help="duration (default 3 periods)")
    sub.add_argument("--step", type=float, help="grid step (default period/4096)")

    sub = add("verify", "check that the asymptotic gain reaches the peak gain")
    sub.add_argument("--accuracy", type=float, default=0.02, help="relative accuracy")
    sub.add_argument("--tol", type=float, help="gain quadrature tolerance (default 1e-9)")

    add("bound41", "gain bound from a decay-certificate JSON document")

    sub = add("delay-demo", "delay bounds plus an empirical input battery")
    sub.add_argument("--t-max", type=float, help="duration (default max(20/sigma, 10 tau))")
    sub.add_argument("--window", type=float, help="asymptotic window (default t_max/4)")
    sub.add_argument("--step", type=float, help="grid step (default tau/64)")

    return parser


def _cmd_analyze(args, system, extras):
    tol = _resolve_tol(args.tol, extras)
    seed = _resolve_seed(args.seed, extras)
    if isinstance(system, DelayPredictorSystem):
        doc = modelio.delay_bounds_document(delaymod.delay_bounds(system, quad_tol=tol))
    else:
        report = gains.gain_report(system, tol=tol, seed=seed)
        doc = modelio.gain_report_document(report)
    return modelio.dumps_document(doc), 0


def _cmd_vt(args, system, extras):
    _check_flag("--t-max", args.t_max, "largest horizon must be finite and positive")
    points = _checked_points(args.points)
    tol = _resolve_tol(args.tol, extras)
    seed = _resolve_seed(args.seed, extras)
    grid = np.linspace(args.t_max / points, args.t_max, points)
    curve = gains.vcurve(system, grid, tol=tol, seed=seed)
    return modelio.vcurve_csv(curve), 0


def _cmd_sweep(args, system, extras):
    for flag, value in (("--omega-min", args.omega_min), ("--omega-max", args.omega_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite")
    if not (0 < args.omega_min <= args.omega_max):
        raise ValueError("need 0 < --omega-min <= --omega-max")
    omegas = np.geomspace(args.omega_min, args.omega_max, _checked_points(args.points))
    values = gains.sinusoid_sweep(system, omegas)
    return modelio.sweep_csv(omegas, values), 0


def _check_grid_flags(args, h: float) -> None:
    """Check --t-max and --step, and that a given --t-max holds one step of
    the grid step ``h`` the command will take."""
    _check_flag("--t-max", args.t_max, "t_end must be finite and positive")
    _check_flag("--step", args.step, "step h must be finite and positive")
    if args.t_max is not None and args.t_max < h:
        raise ValueError(f"--t-max: t_end must be at least one step ({h!r}), got {args.t_max!r}")


def _cmd_simulate(args, system, extras):
    delayed = isinstance(system, DelayPredictorSystem)
    h = args.step if args.step is not None else system.tau / 64.0 if delayed else 0.01
    _check_grid_flags(args, h)
    if delayed:
        hist_steps, _ = delaymod._predictor_grid(system, h, args.t_max)
        state0 = DelayState.resting(system, hist_steps)
        signal = Constant(_unit_direction(system.p))
        traj = delaymod.simulate_predictor(system, signal, state0, args.t_max, h)
        xi, xi_ref = delaymod.predictor_error_series(traj, system)
        return modelio.delay_trajectory_csv(traj, xi, xi_ref), 0
    signal = Constant(_unit_direction(system.m))
    traj = sim.simulate(system, signal, np.zeros(system.n), args.t_max, h)
    return modelio.trajectory_csv(traj), 0


def _cmd_worstcase(args, system, extras):
    _check_flag("--horizon", args.horizon, "horizon must be finite and positive")
    _check_flag("--tol", args.tol, "rest tolerance must lie in (0, 1)", 1.0)
    rest_tol = args.tol if args.tol is not None else 1e-6
    period = args.horizon + sim._rest_length(system.certificate, rest_tol)
    h = args.step if args.step is not None else period / 4096.0
    _check_grid_flags(args, h)
    gains._check_partition_cells(system, args.horizon, "--horizon")
    signal, spec = sim.worst_case_periodic_input(system, args.horizon, rest_tol)
    t_end = args.t_max if args.t_max is not None else 3.0 * spec.period
    traj = sim.simulate(system, signal, np.zeros(system.n), t_end, h)
    print(
        f"worst-case input: horizon={spec.horizon:g} rest={spec.rest:g} "
        f"period={spec.period:g} rest_tolerance={spec.rest_tolerance:g}",
        file=_sys.stderr,
    )
    return modelio.trajectory_csv(traj), 0


def _cmd_verify(args, system, extras):
    _check_flag("--accuracy", args.accuracy, "accuracy must lie in (0, 1)", 1.0)
    tol = _checked_tol(args.tol, "--tol") if args.tol is not None else 1e-9
    record = sim.verify_gain_equality(system, accuracy=args.accuracy, tol=tol)
    text = modelio.dumps_document(modelio.verification_document(record))
    return text, 0 if record.passed else 1


def _cmd_bound41(args, data, extras):
    est = gains.certificate_gain_bound(data)
    return modelio.dumps_document(modelio.bound_document(est)), 0


def _cmd_delay_demo(args, system, extras):
    h = args.step if args.step is not None else system.tau / 64.0
    _check_grid_flags(args, h)
    sigma = system.certificate.sigma
    t_end = args.t_max if args.t_max is not None else max(20.0 / sigma, 10.0 * system.tau)
    inside = f"window must lie strictly inside the duration (0, {t_end!r})"
    _check_flag("--window", args.window, inside, t_end)
    window = args.window if args.window is not None else t_end / 4.0
    direction = _unit_direction(system.p)
    inputs = [
        Constant(direction),
        Sinusoid(direction, 0.1),
        Sinusoid(direction, 1.0),
        Sinusoid(direction, 10.0),
    ]
    labels = ["constant", "sin-0.1", "sin-1", "sin-10"]
    check = delaymod.delay_empirical_check(system, inputs, t_end, window, h)
    return modelio.dumps_document(modelio.delay_demo_document(check, labels)), 0


# Each command's handler(args, model, extras) and the model it accepts: a
# StateSpaceSystem or DelayPredictorSystem file, either (None), or a
# certificate-bound document.
_COMMANDS = {
    "analyze": (_cmd_analyze, None),
    "vt": (_cmd_vt, StateSpaceSystem),
    "sweep": (_cmd_sweep, StateSpaceSystem),
    "simulate": (_cmd_simulate, None),
    "worstcase": (_cmd_worstcase, StateSpaceSystem),
    "verify": (_cmd_verify, StateSpaceSystem),
    "bound41": (_cmd_bound41, CertificateBoundInput),
    "delay-demo": (_cmd_delay_demo, DelayPredictorSystem),
}
_KIND_NAMES = {
    StateSpaceSystem: "a standard (A, B, C) system file",
    DelayPredictorSystem: "a delay system file",
}
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    handler, kind = _COMMANDS[args.command]
    try:
        if kind is CertificateBoundInput:
            model, extras = modelio.parse_certificate_bound_input(args.model), {}
        else:
            model, extras = modelio.parse_system(args.model)
            if kind is not None and not isinstance(model, kind):
                raise ValueError(f"{args.command} requires {_KIND_NAMES[kind]}")
        text, code = handler(args, model, extras)
        if args.out:
            Path(args.out).write_text(text)
        else:
            _sys.stdout.write(text)
        return code
    except (GainlabError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"gainlab: error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
