"""Reference values for the benchmark's checks, computed without gainlab.

Oscillators ``[[0, 1], [-w^2, -d]]`` use the closed-form peak gain
``coth(d pi / (4 sqrt(w^2 - d^2/4))) / w^2``.  Every other SISO gain is the
L1 norm of the impulse response ``g(s) = C exp(As) B``, summed exactly over
the intervals between its sign changes: on each interval the integral is
``F(r1) - F(r0)`` with ``F(s) = C A^-1 exp(As) B``.  Sign changes are
bracketed on a grid finer than the fastest oscillation and polished with
``brentq``; all matrix functions come from SciPy.

Run as a script on a work directory written by ``workloads.generate``; it
writes ``refs.json`` there::

    python3 perfbench/oracle.py .perfbench/gain-report-s1
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize

from workloads import flag_value, manifest_digest

README_OSCILLATOR_GAIN = 1.3895820002  # README: gain of [[0, 1], [-1, -1]], leading digits
TAIL_REL = 1e-16


def oscillator_gain(w: float, d: float) -> float:
    return 1.0 / math.tanh(d * math.pi / (4.0 * math.sqrt(w * w - d * d / 4.0))) / (w * w)


def decay_certificate(a):
    """(M, sigma) with ||exp(As)|| <= M exp(-sigma s), from A'P + PA = -I."""
    p = scipy.linalg.solve_continuous_lyapunov(a.T, -np.eye(a.shape[0]))
    w = scipy.linalg.eigvalsh(0.5 * (p + p.T))
    return math.sqrt(w[-1] / w[0]), 1.0 / (2.0 * w[-1])


def _horizon(a, b, c) -> float:
    """A T after which every row's remaining L1 mass is below TAIL_REL of
    the kernel scale (tail <= |C exp(AT)| M / sigma |B|)."""
    m_const, sigma = decay_certificate(a)
    scale = np.linalg.norm(c) * np.linalg.norm(b) * m_const / sigma
    alpha = -float(np.max(scipy.linalg.eigvals(a).real))
    t = 1.0 / alpha
    while np.linalg.norm(scipy.linalg.expm(a * t), 2) * scale > TAIL_REL * max(scale, 1e-300):
        t *= 1.5
    return t


def _orbit(e, x, count, block=256):
    """Columns x, e x, e^2 x, ... (``count`` of them), built block by block."""
    cols = [x]
    for _ in range(min(block, count) - 1):
        cols.append(e @ cols[-1])
    out = [np.column_stack(cols)]
    e_block = np.linalg.matrix_power(e, block)
    while sum(o.shape[1] for o in out) < count:
        out.append(e_block @ out[-1])
    return np.hstack(out)[:, :count]


def l1_rows(a, b, c, horizons=()):
    """Per output row of a single-input system: the L1 norm of the kernel
    over [0, inf) or, when ``horizons`` are given, its integrals over
    [0, T] for each T (rows: horizons, columns: outputs)."""
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    t_end = max(horizons) if horizons else _horizon(a, b, c)
    omega = float(np.max(np.abs(scipy.linalg.eigvals(a).imag)))
    h = t_end / 8192.0
    if omega > 0:
        h = min(h, math.pi / (16.0 * omega))
    steps = int(math.ceil(t_end / h))
    grid = np.arange(steps + 1) * h
    g = (c @ _orbit(scipy.linalg.expm(a * h), b[:, 0], steps + 1)).T
    w = np.linalg.solve(a.T, c.T).T  # C A^-1
    ends = np.asarray(horizons, dtype=float) if horizons else np.array([np.inf])
    out = np.empty((ends.size, c.shape[0]))
    for row in range(c.shape[0]):
        kernel = lambda s, r=row: float(c[r] @ scipy.linalg.expm(a * s) @ b[:, 0])  # noqa: E731
        sign = np.where(g[:, row] >= 0.0, 1, -1)
        roots = []
        for i in np.nonzero(sign[:-1] != sign[1:])[0]:
            try:
                roots.append(scipy.optimize.brentq(kernel, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15))
            except ValueError:  # the direct kernel agrees in sign at both ends: |g| is at rounding level
                roots.append(0.5 * (grid[i] + grid[i + 1]))
        cuts = np.unique(np.concatenate(([0.0], roots, ends[np.isfinite(ends)])))
        f = np.array([float(w[row] @ scipy.linalg.expm(a * s) @ b[:, 0]) for s in cuts])
        if not horizons:
            f = np.append(f, 0.0)  # F(inf) = 0
            cuts = np.append(cuts, np.inf)
        cum = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(f)))))
        out[:, row] = cum[np.searchsorted(cuts, ends)]
    return out


def siso_gain(model, meta) -> float:
    if "w" in meta:
        return oscillator_gain(meta["w"], meta["d"])
    return float(l1_rows(model["A"], model["B"], model["C"])[0, 0])


def vt_reference(model, args):
    points = int(flag_value(args, "--points", 40))
    t_max = flag_value(args, "--t-max", 20.0)
    horizons = np.linspace(t_max / points, t_max, points)
    partial = l1_rows(model["A"], model["B"], model["C"], horizons.tolist())
    return {"lower": np.max(partial, axis=1).tolist(), "upper": np.linalg.norm(partial, axis=1).tolist()}


def analyze_reference(model, meta, gain=None):
    a, b, c = (np.asarray(model[k], dtype=float) for k in ("A", "B", "C"))
    dc = float(np.linalg.norm(c @ scipy.linalg.solve(a, b), 2))
    if b.shape[1] > 1:
        m_const, sigma = decay_certificate(a)
        upper = float(np.linalg.norm(c, 2) * np.linalg.norm(b, 2) * m_const / sigma)
        return {"lower": dc, "upper": upper, "dc": dc}
    if c.shape[0] == 1:
        gain = siso_gain(model, meta) if gain is None else gain
        return {"lower": gain, "upper": gain, "gain": gain}
    full = l1_rows(a, b, c)[0]
    return {"lower": max(dc, float(np.max(full))), "upper": float(np.linalg.norm(full))}


def sweep_reference(model):
    a, b, c = (np.asarray(model[k], dtype=float) for k in ("A", "B", "C"))
    omegas = np.geomspace(1e-3, 1e3, 200)
    eye = np.eye(a.shape[0])
    return {"psi": [float(np.linalg.norm(c @ scipy.linalg.solve(1j * w * eye - a, b), 2)) for w in omegas]}


def simulate_reference(model):
    """States at t = 5, 10, 20 under the constant input ones(m)/sqrt(m)."""
    a, b, c = (np.asarray(model[k], dtype=float) for k in ("A", "B", "C"))
    u = np.ones(b.shape[1]) / math.sqrt(b.shape[1])
    rows = {}
    for t in (5.0, 10.0, 20.0):
        x = scipy.linalg.solve(a, (scipy.linalg.expm(a * t) - np.eye(a.shape[0])) @ (b @ u))
        rows[str(int(round(t / 0.01)))] = np.concatenate((x, c @ x)).tolist()
    return {"rows": rows}


def delay_reference(model):
    """The certified bounds of the predictor loop, from SciPy quadrature."""
    a, b, g, k = (np.asarray(model[key], dtype=float) for key in ("A", "B", "G", "K"))
    tau, mu = float(model["tau"]), float(model["mu"])
    m_const, sigma = decay_certificate(a + b @ k)
    bk = b @ k
    phi = lambda s: np.linalg.norm(bk @ scipy.linalg.expm(a * s) @ g, 2)  # noqa: E731
    r = lambda s: np.linalg.norm(scipy.linalg.expm(a * s) @ g, 2)  # noqa: E731
    phi_int = scipy.integrate.quad(phi, 0.0, tau, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    r_int = scipy.integrate.quad(r, 0.0, tau, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    oag = (m_const / sigma) * (np.linalg.norm(g, 2) + phi_int + phi(tau) / mu)
    return {"oag": float(oag), "ios": float(oag + m_const * r_int)}


def certificate_bound_reference(doc) -> float:
    """Theorem 4.1 bound: min over (M, sigma, T) cells with M exp(-sigma T) < 1
    of max_k [M exp(-sigma t_k) b(T) / (1 - M exp(-sigma T)) + b_k] over
    t_k < T, or the envelope supremum when that is smaller."""
    samples = np.asarray(doc["b_samples"], dtype=float)
    times, values = samples[:, 0], samples[:, 1]
    best = math.inf
    for m_const, sigma in doc["certificates"]:
        for horizon in doc["T_grid"]:
            decay = m_const * math.exp(-sigma * horizon)
            if decay >= 1.0:
                continue
            b_t = values[max(int(np.searchsorted(times, horizon, side="right")) - 1, 0)]
            early = times < horizon
            cells = m_const * np.exp(-sigma * times[early]) * b_t / (1.0 - decay) + values[early]
            if cells.size:
                best = min(best, float(np.max(cells)))
    return min(best, float(values[-1]))


def references(workdir: Path) -> dict:
    manifest = json.loads((workdir / "manifest.json").read_text())
    refs = {}
    gains = {}
    for op in manifest["ops"]:
        if op["expect_exit"] != 0:
            continue
        name, command = op["model"], op["command"]
        model = json.loads((workdir / name).read_text())
        meta = manifest["models"][name]["meta"]
        standard = "G" not in model and "certificates" not in model
        if standard and np.shape(model["B"])[1] == 1 and np.shape(model["C"])[0] == 1 and name not in gains:
            gains[name] = siso_gain(model, meta)
        key = f"{command} {name}"
        if command == "analyze":
            refs[key] = analyze_reference(model, meta, gains.get(name))
        elif command == "vt":
            refs[key] = vt_reference(model, op["args"])
        elif command == "sweep":
            refs[key] = sweep_reference(model)
        elif command == "simulate":
            refs[key] = delay_reference(model) if "G" in model else simulate_reference(model)
        elif command in ("verify", "worstcase"):
            refs[key] = {"gain": gains[name]}
        elif command == "delay-demo":
            refs[key] = delay_reference(model)
        elif command == "bound41":
            refs[key] = {"value": certificate_bound_reference(model)}
    return {"manifest_sha256": manifest_digest(workdir), "ops": refs, "siso_gains": gains}


def self_check() -> None:
    """The README oscillator must come out at 1.3895820002... both ways."""
    model = {"A": [[0.0, 1.0], [-1.0, -1.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
    closed = oscillator_gain(1.0, 1.0)
    summed = siso_gain(model, {})
    for value in (closed, summed):
        if abs(value - README_OSCILLATOR_GAIN) > 1e-10:
            raise AssertionError(f"oracle self-check: {value!r} is not 1.3895820002...")
    if abs(closed - summed) > 1e-12:
        raise AssertionError(f"oracle self-check: closed form {closed!r} vs segments {summed!r}")


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: oracle.py WORKDIR", file=sys.stderr)
        return 2
    workdir = Path(argv[0])
    self_check()
    (workdir / "refs.json").write_text(json.dumps(references(workdir)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
