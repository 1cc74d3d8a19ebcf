"""Seeded model files and op lists for the benchmark workloads.

A workload is a repeating *cycle* of ops.  Every cycle has the same slots
(model category, size, command), so the op mix does not depend on the seed.

On gain-report and sim-verify the cost of one op varies tenfold between
systems of the same kind (the quadrature work follows the decay
certificate and the oscillation of the kernel), so independently drawn
systems made a 30 s run's ops_per_s spread by 40% across seeds.  These
slots therefore hold a fixed set of *base* systems, drawn once from
``BASE_SEED`` with the acceptance suite's generator for each of
``BASE_CYCLES`` cycles and repeated in that order, and the run's seed
draws a random change of coordinates for each slot of each cycle: an
orthogonal ``x -> Q x`` (a permutation for Metzler models, which must stay
Metzler; ``y -> Q y`` as well where C = I must stay I).  Every matrix entry changes with the
seed; the input-output behaviour, and with it the cost of each op and the
reference gains, does not.  Certificate files and the large-n systems,
whose cost depends only on their size, are drawn from the seed directly.

A benchmarked workload has no failing op, so the models on which gainlab
is known to be wrong, to hang or to accept bad input (fast and lightly
damped oscillators, a tolerance of NaN, ``true`` or a string, the base systems
whose L1 integral misses its own tolerance) are not in gain-report or
sim-verify: they make up the ``defects`` workload, which runs the same
commands on them and reports each failure.

The program sees nothing but the JSON files written here; the generator's
own knowledge of each model (category, oscillator parameters) goes to
``manifest.json`` for the oracle and the checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("gain-report", "sim-verify", "large-n", "defects")
BASE_SEED = 200106636  # the base systems of the coordinate-changed slots
BASE_CYCLES = 3  # cycle c holds the base systems of cycle c % BASE_CYCLES

# Quadrature tolerance passed to analyze/vt on gain-report.  Looser than the
# CLI default (1e-8) so that a run covers enough models to be steady; the
# defects the checks catch show at every tolerance tried (1e-8 to 1e-5).
GAIN_REPORT_TOL = "1e-6"
# Reduced horizon grid for vt on multi-output models (the default 40-point
# grid costs over a minute per model).
MULTI_OUTPUT_VT = ("--points", "2", "--t-max", "2")
# Two models at n = 56: the ten ops above them (n = 80 and 64, analyze and
# simulate at 56) cost at least a third more, so the 11th slowest op, the
# one op_tail_s reads, is always one of the two n = 56 sweeps.
LARGE_N_SIZES = (10, 14, 20, 28, 34, 40, 56, 56, 64, 80)
# Rejected with exit 1.  Seven of them, so that the cheap ops of a
# gain-report cycle (these and bound41) put its median op among the SISO vt
# ops, a dense cluster, and not at the gap above them.
MALFORMED_KINDS = ("tol-inf", "tol-negative", "not-hurwitz", "a-nan", "not-square", "bad-shape", "missing-c")
# tol NaN hangs; a tol of true or of a string is accepted.
DEFECT_MALFORMED_KINDS = ("tol-nan", "tol-bool", "tol-string")
# Base systems, as (slot category, cycle), whose exact L1 gain is off by more
# than its stated tolerance in analyze or verify (found in gain-report's
# cycles 0 to 5 and sim-verify's 0 to 2; at ("random-n6", 2) verify's gamma
# is off and its worst-case input falls short of it, so verify exits 1).
# Where such a cycle is below BASE_CYCLES its slot draws a replacement (see
# ``generate``); the systems themselves are defects models.
UNDER_RESOLVED = (("random-n5", 0), ("random-n6", 2), ("random-n4", 3), ("random-n3", 4), ("random-n5", 5))

# Per-op time limits in seconds.  Bad input must be rejected fast.
LIMIT_S = {"gain-report": 6.0, "sim-verify": 20.0, "large-n": 30.0, "defects": 6.0}
MALFORMED_LIMIT_S = 0.5
# About the seconds one cycle takes at the reference speed on the commit
# that defined the benchmark; a run of S seconds measures ceil(S / CYCLE_S)
# whole cycles, so that every run of a workload has the same op count and
# mix.  At 30 s: gain-report 12 cycles (four passes over its base systems,
# 2.8 s each), sim-verify 2 (13.9 s each; with 46 ops its 11th slowest op,
# which op_tail_s reads, falls among the verify ops, a dense cluster below
# the seven slowest delay-demo ops).
CYCLE_S = {"gain-report": 2.5, "sim-verify": 15.0, "large-n": 36.0, "defects": 40.0}


@dataclass(frozen=True)
class Op:
    op_id: int
    cycle: int
    command: str
    model: str  # file name inside the work directory
    args: tuple
    category: str
    n: int
    expect_exit: int
    limit_s: float

    def argv(self, workdir: Path) -> list[str]:
        return [self.command, str(workdir / self.model), *self.args]


def random_hurwitz_matrix(rng, n, abscissa=-0.2, scale=2.0):
    """The acceptance suite's generator (tests/conftest.py) at a fixed n:
    entries uniform in [-scale, scale], shifted so the spectral abscissa is
    at most ``abscissa``."""
    a = rng.uniform(-scale, scale, (n, n))
    top = float(np.max(np.linalg.eigvals(a).real))
    if top > abscissa:
        a = a - (top - abscissa) * np.eye(n)
    return a


def _loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _abc(a, b, c, **extra):
    return {"A": np.asarray(a).tolist(), "B": np.asarray(b).tolist(),
            "C": np.asarray(c).tolist(), **extra}


def random_siso(rng, n):
    a = random_hurwitz_matrix(rng, n)
    return _abc(a, rng.uniform(-2, 2, (n, 1)), rng.uniform(-2, 2, (1, n))), {}


def oscillator(rng, w_range, d_range):
    """[[0, 1], [-w^2, -d]] driven in the velocity, observed in position."""
    w = _loguniform(rng, *w_range)
    d = _loguniform(rng, *d_range)
    return _abc([[0.0, 1.0], [-w * w, -d]], [[0.0], [1.0]], [[1.0, 0.0]]), {"w": w, "d": d}


def metzler_siso(rng, n):
    """Metzler A with nonnegative B and C: the positivity shortcut applies."""
    a = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(a, 0.0)
    a -= (float(np.max(np.linalg.eigvals(a).real)) + rng.uniform(0.2, 1.0)) * np.eye(n)
    return _abc(a, rng.uniform(0, 2, (n, 1)), rng.uniform(0, 2, (1, n))), {}


def symmetric_identity_output(rng, n):
    """Symmetric negative definite A observed through C = I (p = n)."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = -(q * rng.uniform(0.3, 3.0, n)) @ q.T
    a = 0.5 * (a + a.T)
    return _abc(a, rng.uniform(-2, 2, (n, 1)), np.eye(n)), {}


def multi_output(rng, n, p):
    a = random_hurwitz_matrix(rng, n)
    return _abc(a, rng.uniform(-2, 2, (n, 1)), rng.uniform(-2, 2, (p, n))), {}


def well_conditioned(rng, n, m, p):
    """Hurwitz A = -(1 + s) I + R / (2 sqrt n): eigenvalues within about 0.5
    of -(1 + s), so the Lyapunov solve stays well conditioned at any n."""
    a = -(1.0 + rng.uniform(0.0, 0.5)) * np.eye(n) + rng.standard_normal((n, n)) / (2 * math.sqrt(n))
    return _abc(a, rng.standard_normal((n, m)), rng.standard_normal((p, n)) / math.sqrt(n)), {}


def delay_loop(rng, n):
    """Predictor loop with A + B K Hurwitz and a decay rate of at least 0.3."""
    while True:
        a = rng.uniform(-1.0, 1.0, (n, n)) - 0.5 * np.eye(n)
        b = rng.uniform(-1.0, 1.0, (n, 1))
        k = -1.0 * b.T
        if np.max(np.linalg.eigvals(a + b @ k).real) < -0.3:
            break
    doc = {"A": a.tolist(), "B": b.tolist(), "G": rng.uniform(-1, 1, (n, 1)).tolist(),
           "K": k.tolist(), "tau": rng.uniform(0.3, 1.0), "mu": rng.uniform(1.0, 4.0)}
    return doc, {}


def corrupt(model, kind):
    """A malformed copy of a valid model file."""
    model = dict(model)
    if kind == "tol-nan":
        model["tol"] = float("nan")
    elif kind == "tol-inf":
        model["tol"] = float("inf")
    elif kind == "tol-bool":
        model["tol"] = True
    elif kind == "tol-string":
        model["tol"] = "1e-6"
    elif kind == "tol-negative":
        model["tol"] = -1e-6
    elif kind == "a-nan":
        model["A"] = [[float("nan"), *model["A"][0][1:]], *model["A"][1:]]
    elif kind == "not-square":
        model["A"] = model["A"][:-1]
    elif kind == "missing-c":
        del model["C"]
    elif kind == "not-hurwitz":
        model["A"] = (np.asarray(model["A"]) + 3.0 * np.eye(len(model["A"]))).tolist()
    elif kind == "bad-shape":
        model["B"] = model["B"][:-1]
    return model


def certificate_bound(rng):
    """A bound41 document: (M, sigma) pairs, a nondecreasing envelope, a grid."""
    certs = [[rng.uniform(1.0, 5.0), rng.uniform(0.1, 2.0)] for _ in range(int(rng.integers(1, 4)))]
    k = int(rng.integers(5, 21))
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, k - 1))))
    values = np.cumsum(rng.uniform(0.0, 1.0, k))
    grid = np.sort(rng.uniform(0.1, 20.0, int(rng.integers(10, 31))))
    doc = {"certificates": certs, "b_samples": np.column_stack([times, values]).tolist(),
           "T_grid": grid.tolist()}
    return doc, {}


@dataclass(frozen=True)
class Slot:
    category: str
    make: Callable  # rng -> (model document, generator metadata)
    commands: tuple  # (command, args, expected exit code)
    coords: str = "rotate"  # rotate | rotate-output | permute | fresh
    corrupt: str | None = None  # a MALFORMED_KINDS entry


def orthogonal(rng, n):
    """A random orthogonal matrix; for n = 1, where that leaves only +-1, a
    random nonzero scale (a scalar system's decay certificate, and so the
    cost of every op on it, does not depend on the scale)."""
    if n == 1:
        return np.array([[rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-1.0, 1.0))]])
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def change_coordinates(doc, q, rotate_output=False):
    """The same system in the state coordinates x' = Q x (and, with
    ``rotate_output``, y' = Q y): new matrices, the same input-output map."""
    a = np.asarray(doc["A"], dtype=float)
    q_inv = np.linalg.inv(q) if len(a) == 1 else q.T
    out = dict(doc, A=q @ a @ q_inv, B=q @ np.asarray(doc["B"], dtype=float))
    if np.array_equal(a, a.T):
        out["A"] = 0.5 * (out["A"] + out["A"].T)  # keep exact symmetry
    if "C" in doc:
        c = np.asarray(doc["C"], dtype=float)
        out["C"] = c if rotate_output and np.array_equal(c, np.eye(len(a))) else c @ q_inv
    if "G" in doc:
        out["G"] = q @ np.asarray(doc["G"], dtype=float)
        out["K"] = np.asarray(doc["K"], dtype=float) @ q_inv
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


def _gain_report_slots():
    tol = ("--tol", GAIN_REPORT_TOL)
    pair = lambda vt_args=(): (("analyze", tol, 0), ("vt", tol + vt_args, 0))  # noqa: E731
    slots = [Slot(f"random-n{n}", lambda r, n=n: random_siso(r, n), pair()) for n in (2, 3, 4, 5, 6)]
    slots += [
        Slot("metzler", lambda r: metzler_siso(r, int(r.integers(2, 7))), pair(), "permute"),
        Slot("symmetric", lambda r: symmetric_identity_output(r, int(r.integers(2, 4))),
             pair(MULTI_OUTPUT_VT), "rotate-output"),
        Slot("multi-output", lambda r: multi_output(r, int(r.integers(2, 4)), int(r.integers(2, 4))),
             pair(MULTI_OUTPUT_VT)),
        Slot("certificate", certificate_bound, (("bound41", (), 0),), "fresh"),
    ]
    slots += [Slot(f"malformed-{k}", lambda r: random_siso(r, 3), (("analyze", (), 1),), corrupt=k)
              for k in MALFORMED_KINDS]
    return slots


def _sim_verify_slots():
    siso = (("verify", (), 0), ("worstcase", (), 0), ("simulate", (), 0))
    slots = [Slot(f"random-n{n}", lambda r, n=n: random_siso(r, n), siso) for n in (2, 3, 4, 5, 6)]
    slots += [Slot(f"delay-n{n}", lambda r, n=n: delay_loop(r, n), (("delay-demo", (), 0), ("simulate", (), 0)))
              for n in (1, 2, 3, 4)]
    return slots


def _large_n_slots():
    slots = []
    for n in LARGE_N_SIZES:
        slots.append(Slot(f"two-input-n{n}", lambda r, n=n: well_conditioned(r, n, 2, 2),
                          (("analyze", (), 0),), "fresh"))
        slots.append(Slot(f"siso-n{n}", lambda r, n=n: well_conditioned(r, n, 1, 1),
                          (("sweep", (), 0), ("simulate", (), 0)), "fresh"))
    return slots


def base_system(category, cycle):
    """The base system that gain-report's slot ``category`` draws in
    ``cycle`` (sim-verify's random-n* slots draw the same ones)."""
    base = np.random.default_rng([BASE_SEED, cycle])
    for slot in _gain_report_slots():
        doc, meta = slot.make(base)
        if slot.category == category:
            return doc, meta
    raise ValueError(f"no base system for slot {category!r}")


def _defects_slots():
    """The models gainlab gets wrong at the commit that defined the
    benchmark, each under the commands that show it."""
    tol = ("--tol", GAIN_REPORT_TOL)
    report = (("analyze", tol, 0), ("vt", tol, 0))
    sim = (("verify", (), 0), ("worstcase", (), 0), ("simulate", (), 0))
    slots = [
        Slot("oscillator-fast", lambda r: oscillator(r, (3.0, 10.0), (0.3, 2.0)), report + sim),
        Slot("oscillator-light", lambda r: oscillator(r, (0.5, 3.0), (0.02, 0.2)), report + sim),
    ]
    slots += [Slot(f"under-resolved-{category}-c{cycle}", lambda r, k=(category, cycle): base_system(*k),
                   (("analyze", tol, 0), ("verify", (), 0)))
              for category, cycle in UNDER_RESOLVED]
    slots += [Slot(f"malformed-{k}", lambda r: random_siso(r, 3), (("analyze", (), 1),), corrupt=k)
              for k in DEFECT_MALFORMED_KINDS]
    return slots


SLOTS = {"gain-report": _gain_report_slots, "sim-verify": _sim_verify_slots, "large-n": _large_n_slots,
         "defects": _defects_slots}


def _draw(slot: Slot, base_rng, run_rng):
    if slot.coords == "fresh":
        return slot.make(run_rng)
    doc, meta = slot.make(base_rng)
    n = len(doc["A"])
    if slot.coords == "permute":
        q = np.eye(n)[run_rng.permutation(n)]
    else:
        q = orthogonal(run_rng, n)
    doc = change_coordinates(doc, q, rotate_output=slot.coords == "rotate-output")
    if slot.corrupt is not None:
        doc = corrupt(doc, slot.corrupt)
    return doc, meta


def _dump(doc) -> str:
    # allow_nan keeps the NaN/Infinity tolerances of the malformed files.
    return json.dumps(doc, allow_nan=True)


def _model_n(doc) -> int:
    return len(doc["A"]) if "A" in doc else 0


def generate(workload: str, seed: int, workdir: Path, cycles: int) -> list[Op]:
    """Write the model files and manifest for (workload, seed); return the ops.

    Each cycle draws from its own generators, seeded by (BASE_SEED,
    cycle % BASE_CYCLES) and (seed, cycle), so the first cycles do not
    depend on how many are made.
    """
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    slots = SLOTS[workload]()
    ops: list[Op] = []
    manifest = {}
    for cycle in range(cycles):
        base_cycle = cycle % BASE_CYCLES
        base_rng = np.random.default_rng([BASE_SEED, base_cycle])
        run_rng = np.random.default_rng([seed, cycle])
        for index, slot in enumerate(slots):
            doc, meta = _draw(slot, base_rng, run_rng)
            if (slot.category, base_cycle) in UNDER_RESOLVED:
                # A replacement from a stream of its own, so that the later
                # slots of the cycle keep their base systems.
                doc, meta = _draw(slot, np.random.default_rng([BASE_SEED, base_cycle, index]), run_rng)
            category = slot.category
            name = f"c{cycle:02d}-{index:02d}-{category}.json"
            (workdir / name).write_text(_dump(doc))
            n = _model_n(doc)
            manifest[name] = {"category": category, "n": n, "meta": meta}
            for command, args, expect in slot.commands:
                limit = MALFORMED_LIMIT_S if expect == 1 else LIMIT_S[workload]
                ops.append(Op(len(ops), cycle, command, name, tuple(args), category, n, expect, limit))
    (workdir / "manifest.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "models": manifest,
         "ops": [asdict(op) for op in ops]}, indent=1))
    return ops


def manifest_digest(workdir: Path) -> str:
    return hashlib.sha256((workdir / "manifest.json").read_bytes()).hexdigest()


def flag_value(args, name, default):
    """The value following ``name`` in an op's CLI arguments, as a float."""
    args = list(args)
    return float(args[args.index(name) + 1]) if name in args else default


def ops_per_cycle(ops: list[Op]) -> int:
    return sum(1 for op in ops if op.cycle == 0)


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / CYCLE_S[workload]))
