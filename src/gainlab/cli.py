"""Command-line front end: parse a JSON model, run one analysis, emit text.

Commands map one-to-one onto library calls; every document embeds the
tolerances, seeds, and certificates used, and identical inputs produce
byte-identical output.  Exit codes: 0 success, 1 computation or verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import delay as delaymod
from . import gains, modelio, sim
from .delay import DelayPredictorSystem, DelayState
from .exceptions import GainlabError
from .signals import Constant, Sinusoid

__all__ = ["build_parser", "main"]

DEFAULT_TOL = 1e-8


def _checked_tol(value, source: str) -> float:
    """``value`` as a float; raises ValueError unless finite and positive."""
    tol = float(value)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{source}: tol must be finite and positive, got {value!r}")
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
    if flag_value is not None:
        return int(flag_value)
    if extras.get("seed") is not None:
        return int(extras["seed"])
    return 0


def _write_output(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        _sys.stdout.write(text)


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


def _require_standard(system, command: str):
    if isinstance(system, DelayPredictorSystem):
        raise ValueError(f"{command} requires a standard (A, B, C) system file")
    return system


def _cmd_analyze(args) -> int:
    system, extras = modelio.parse_system(args.model)
    tol = _resolve_tol(args.tol, extras)
    if isinstance(system, DelayPredictorSystem):
        doc = modelio.delay_bounds_document(delaymod.delay_bounds(system, quad_tol=tol))
    else:
        seed = _resolve_seed(args.seed, extras)
        report = gains.gain_report(system, tol=tol, seed=seed)
        doc = modelio.gain_report_document(report)
    _write_output(modelio.dumps_document(doc), args.out)
    return 0


def _cmd_vt(args) -> int:
    system, extras = modelio.parse_system(args.model)
    system = _require_standard(system, "vt")
    if not (args.t_max > 0):
        raise ValueError("--t-max must be positive")
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    tol = _resolve_tol(args.tol, extras)
    seed = _resolve_seed(args.seed, extras)
    grid = np.linspace(args.t_max / args.points, args.t_max, args.points)
    curve = gains.vcurve(system, grid, tol=tol, seed=seed)
    _write_output(modelio.vcurve_csv(curve), args.out)
    return 0


def _cmd_sweep(args) -> int:
    system, _ = modelio.parse_system(args.model)
    system = _require_standard(system, "sweep")
    if not (0 < args.omega_min <= args.omega_max):
        raise ValueError("need 0 < --omega-min <= --omega-max")
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    omegas = np.geomspace(args.omega_min, args.omega_max, args.points)
    values = [gains.sinusoid_response(system, w) for w in omegas]
    _write_output(modelio.sweep_csv(omegas, values), args.out)
    return 0


def _cmd_simulate(args) -> int:
    system, _ = modelio.parse_system(args.model)
    if isinstance(system, DelayPredictorSystem):
        h = args.step if args.step is not None else system.tau / 64.0
        state0 = DelayState.resting(system, max(1, int(round(system.tau / h))))
        signal = Constant(_unit_direction(system.p))
        traj = delaymod.simulate_predictor(system, signal, state0, args.t_max, h)
        xi, xi_ref = delaymod.predictor_error_series(traj, system)
        _write_output(modelio.delay_trajectory_csv(traj, xi, xi_ref), args.out)
        return 0
    h = args.step if args.step is not None else 0.01
    signal = Constant(_unit_direction(system.m))
    traj = sim.simulate(system, signal, np.zeros(system.n), args.t_max, h)
    _write_output(modelio.trajectory_csv(traj), args.out)
    return 0


def _cmd_worstcase(args) -> int:
    system, _ = modelio.parse_system(args.model)
    system = _require_standard(system, "worstcase")
    rest_tol = _checked_tol(args.tol, "--tol") if args.tol is not None else 1e-6
    signal, spec = sim.worst_case_periodic_input(system, args.horizon, rest_tol)
    t_end = args.t_max if args.t_max is not None else 3.0 * spec.period
    h = args.step if args.step is not None else spec.period / 4096.0
    traj = sim.simulate(system, signal, np.zeros(system.n), t_end, h)
    print(
        f"worst-case input: horizon={spec.horizon:g} rest={spec.rest:g} "
        f"period={spec.period:g} rest_tolerance={spec.rest_tolerance:g}",
        file=_sys.stderr,
    )
    _write_output(modelio.trajectory_csv(traj), args.out)
    return 0


def _cmd_verify(args) -> int:
    system, _ = modelio.parse_system(args.model)
    system = _require_standard(system, "verify")
    tol = _checked_tol(args.tol, "--tol") if args.tol is not None else 1e-9
    record = sim.verify_gain_equality(system, accuracy=args.accuracy, tol=tol)
    _write_output(modelio.dumps_document(modelio.verification_document(record)), args.out)
    return 0 if record.passed else 1


def _cmd_bound41(args) -> int:
    data = modelio.parse_certificate_bound_input(args.model)
    est = gains.certificate_gain_bound(data)
    _write_output(modelio.dumps_document(modelio.bound_document(est)), args.out)
    return 0


def _cmd_delay_demo(args) -> int:
    system, _ = modelio.parse_system(args.model)
    if not isinstance(system, DelayPredictorSystem):
        raise ValueError("delay-demo requires a delay system file")
    sigma = system.certificate.sigma
    t_end = args.t_max if args.t_max is not None else max(20.0 / sigma, 10.0 * system.tau)
    window = args.window if args.window is not None else t_end / 4.0
    h = args.step if args.step is not None else system.tau / 64.0
    direction = _unit_direction(system.p)
    inputs = [
        Constant(direction),
        Sinusoid(direction, 0.1),
        Sinusoid(direction, 1.0),
        Sinusoid(direction, 10.0),
    ]
    labels = ["constant", "sin-0.1", "sin-1", "sin-10"]
    check = delaymod.delay_empirical_check(system, inputs, t_end, window, h)
    _write_output(
        modelio.dumps_document(modelio.delay_demo_document(check, labels)), args.out
    )
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "vt": _cmd_vt,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "worstcase": _cmd_worstcase,
    "verify": _cmd_verify,
    "bound41": _cmd_bound41,
    "delay-demo": _cmd_delay_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return _COMMANDS[args.command](args)
    except (GainlabError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"gainlab: error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
