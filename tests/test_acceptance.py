"""End-to-end acceptance gate.

Each test prints one line, "ACCEPTANCE n (<name>): PASS" or "... FAIL", so a
plain ``pytest tests/test_acceptance.py -s`` run doubles as a checklist.
Tolerances are fixed here on purpose: loosening them is a behavior change.
"""

import functools
import itertools
import math
import time

import numpy as np

from gainlab import (
    CertificateBoundInput,
    StateSpaceSystem,
    bang_bang_switches,
    certificate_gain_bound,
    dc_gain,
    is_hurwitz,
    l1_impulse_gain,
    mat_exp,
    onb_upper_bound,
    periodic_upper_estimate,
    simulate,
    sinusoid_lower_bound,
    spectral_norm,
    stability_certificate,
    vcurve,
    verify_gain_equality,
)
from gainlab_testkit import random_hurwitz_matrix, random_siso_system


def criterion(num, name, budget_s):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget_s, (
                    f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
                )
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({name}): PASS")

        return wrapper

    return decorator


def scalar_system():
    return StateSpaceSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]])


def diagonal_system():
    return StateSpaceSystem(
        a=[[-1.0, 0.0], [0.0, -2.0]], b=[[1.0], [1.0]], c=np.eye(2)
    )


def metzler_system():
    return StateSpaceSystem(a=[[-2.0, 1.0], [1.0, -2.0]], b=[[1.0], [0.0]], c=[[1.0, 0.0]])


def oscillator_system():
    return StateSpaceSystem(a=[[0.0, 1.0], [-1.0, -1.0]], b=[[0.0], [1.0]], c=[[1.0, 0.0]])


@criterion(1, "scalar-exactness", budget_s=1.0)
def test_acceptance_1_scalar_exactness():
    sys = scalar_system()
    l1 = l1_impulse_gain(sys, tol=1e-10)
    assert abs(l1.value - 1.0) <= 1e-9, f"l1 gain {l1.value}"
    dc = dc_gain(sys)
    assert dc.kind == "exact"
    assert abs(dc.value - 1.0) <= 1e-12, f"dc gain {dc.value}"
    psi = sinusoid_lower_bound(sys)
    assert abs(psi.value - 1.0) <= 1e-5, f"sinusoid sup {psi.value}"
    per = periodic_upper_estimate(sys, tol=1e-10)
    for t, v in zip(per.details["horizons"], per.details["values"]):
        assert abs(v - 1.0) <= 1e-9, f"periodic value {v} at T={t}"


@criterion(2, "diagonal-identity", budget_s=5.0)
def test_acceptance_2_diagonal_identity():
    sys = diagonal_system()
    target = math.sqrt(5.0) / 2.0
    l1 = l1_impulse_gain(sys, tol=1e-9)
    assert abs(l1.value - target) <= 1e-7, f"l1 {l1.value} vs {target}"
    dc = dc_gain(sys)
    assert dc.kind == "exact", "constant-input value must be certified exact"
    assert dc.details["positivity"] == "assumption-h"
    assert abs(dc.value - target) <= 1e-7, f"dc {dc.value} vs {target}"
    onb = onb_upper_bound(sys, tol=1e-9)
    assert abs(onb.value - target) <= 1e-7, f"onb {onb.value} vs {target}"


@criterion(3, "metzler-identity", budget_s=5.0)
def test_acceptance_3_metzler_identity():
    sys = metzler_system()
    target = 2.0 / 3.0
    dc = dc_gain(sys)
    assert dc.kind == "exact"
    assert dc.details["positivity"] == "metzler-nonneg"
    assert abs(dc.value - target) <= 1e-12, f"dc {dc.value} vs {target}"
    l1 = l1_impulse_gain(sys, tol=1e-9)
    assert abs(l1.value - target) <= 1e-7, f"l1 {l1.value} vs {target}"


@criterion(4, "gain-equality-check", budget_s=60.0)
def test_acceptance_4_gain_equality():
    for label, sys in (
        ("scalar", scalar_system()),
        ("metzler", metzler_system()),
        ("oscillator", oscillator_system()),
    ):
        record = verify_gain_equality(sys, accuracy=0.02)
        assert record.passed, f"{label}: verification failed ({record})"
        assert record.asymptotic_gain >= 0.98 * record.gamma, (
            f"{label}: asymptotic {record.asymptotic_gain} below 0.98 gamma"
        )
        assert record.asymptotic_gain <= 1.001 * record.gamma, (
            f"{label}: asymptotic {record.asymptotic_gain} above 1.001 gamma"
        )


@criterion(5, "sandwich-suite", budget_s=600.0)
def test_acceptance_5_sandwich_suite():
    rng = np.random.default_rng(12345)
    for trial in range(100):
        sys = random_siso_system(rng, n_max=5)
        gamma = l1_impulse_gain(sys, tol=1e-8).value
        scale = max(1.0, gamma)
        dc = dc_gain(sys)
        assert dc.value <= gamma + 1e-6 * scale, f"trial {trial}: dc above gain"
        psi = sinusoid_lower_bound(sys)
        assert psi.value <= gamma + 1e-6 * scale, f"trial {trial}: psi above gain"
        onb = onb_upper_bound(sys, tol=1e-8)
        assert onb.value >= gamma - 1e-6 * scale, f"trial {trial}: onb below gain"
        per = periodic_upper_estimate(sys, tol=1e-8)
        assert gamma - 1e-4 * scale <= per.value <= onb.value + 1e-4 * scale, (
            f"trial {trial}: periodic {per.value} outside "
            f"[{gamma - 1e-4 * scale}, {onb.value + 1e-4 * scale}]"
        )
        cert = sys.certificate
        t_max = 20.0 / cert.sigma
        grid = np.linspace(t_max / 40.0, t_max, 40)
        curve = vcurve(sys, grid, tol=1e-9)
        assert np.all(np.diff(curve.values) >= -1e-9 * scale), (
            f"trial {trial}: terminal-output curve decreased"
        )
        tail = (
            spectral_norm(sys.c)
            * cert.m
            * spectral_norm(sys.b)
            * math.exp(-cert.sigma * t_max)
            / cert.sigma
        )
        assert curve.values[-1] >= gamma - tail - 1e-6 * scale, (
            f"trial {trial}: V({t_max}) = {curve.values[-1]} misses gain {gamma}"
        )


@criterion(6, "bang-bang-realization", budget_s=10.0)
def test_acceptance_6_bang_bang_realization():
    sys = oscillator_system()
    t_end = 15.0
    target, _ = max_terminal(sys, t_end)
    u = bang_bang_switches(sys, t_end)
    traj = simulate(sys, u, np.zeros(2), t_end, t_end / 8192.0)
    terminal = abs(float(traj.outputs[-1, 0]))
    assert abs(terminal - target) <= 1e-4 * target, (
        f"terminal {terminal} vs optimum {target}"
    )


def max_terminal(sys, horizon):
    from gainlab import max_terminal_output

    return max_terminal_output(sys, horizon, tol=1e-10)


@criterion(7, "certificate-closed-form", budget_s=1.0)
def test_acceptance_7_certificate_closed_form():
    m_const, sigma = 2.0, 1.0
    data = CertificateBoundInput(
        certificates=[(m_const, sigma)],
        b_samples=[[0.0, 1.0]],
        t_grid=[2.0, 4.0, 8.0, 16.0],
    )
    est = certificate_gain_bound(data)
    cells = {cell["horizon"]: cell["value"] for cell in est.details["cells"]}
    for t in (2.0, 4.0, 8.0, 16.0):
        decay = m_const * math.exp(-sigma * t)
        reference = (1.0 + m_const * (1.0 - math.exp(-sigma * t))) / (1.0 - decay)
        assert abs(cells[t] - reference) <= 1e-12, (
            f"T={t}: cell {cells[t]} vs closed form {reference}"
        )
    long_data = CertificateBoundInput(
        certificates=[(m_const, sigma)], b_samples=[[0.0, 1.0]], t_grid=[30.0]
    )
    long_cell = certificate_gain_bound(long_data).details["cells"][0]["value"]
    assert abs(long_cell - (m_const + 1.0)) <= 1e-3, (
        f"large-horizon cell {long_cell} vs limit {m_const + 1.0}"
    )


@criterion(8, "delay-oracle", budget_s=60.0)
def test_acceptance_8_delay_oracle():
    from gainlab import (
        Constant,
        DelayPredictorSystem,
        DelayState,
        Sinusoid,
        delay_bounds,
        delay_empirical_check,
        predictor_error_residual,
        simulate_predictor,
    )

    sys = DelayPredictorSystem(
        a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[-0.5]], tau=0.5, mu=2.0
    )
    residuals = []
    for steps in (50, 100, 200):
        state = DelayState.resting(sys, steps)
        traj = simulate_predictor(
            sys, Constant(u0=[1.0]), state, 10.0, sys.tau / steps
        )
        residuals.append(predictor_error_residual(traj, sys))
    assert residuals[0] <= 1e-4, f"residual at tau/50 is {residuals[0]}"
    assert residuals[0] / residuals[1] >= 3.5, f"halving ratio {residuals[0] / residuals[1]}"
    assert residuals[1] / residuals[2] >= 3.5, f"halving ratio {residuals[1] / residuals[2]}"

    bounds = delay_bounds(sys)
    assert bounds.oag_bound < bounds.ios_bound
    sigma = sys.certificate.sigma
    t_end = 20.0 / sigma
    check = delay_empirical_check(
        sys,
        inputs=[Constant(u0=[1.0]), Sinusoid(direction=[1.0], omega=1.0)],
        t_end=t_end,
        window=t_end / 4.0,
        h=sys.tau / 64.0,
        tolerance=1e-3,
    )
    # The constant disturbance settles exactly on the asymptotic bound, so a
    # small tolerance absorbs the integrator's own error on that instance.
    for label, entry in zip(("constant", "sinusoid"), check.entries):
        assert entry.asymptotic_gain <= bounds.oag_bound + 1e-3, (
            f"{label}: asymptotic {entry.asymptotic_gain} above oag {bounds.oag_bound}"
        )
    assert check.all_within_oag


@criterion(9, "core-numerics", budget_s=30.0)
def test_acceptance_9_core_numerics():
    rng = np.random.default_rng(2024)
    h = 1e-5
    for _ in range(200):
        a = random_hurwitz_matrix(rng, n_max=5, abscissa=-0.1, scale=1.0)
        norm = np.linalg.norm(a)
        if norm > 2.0:
            a = a * (2.0 / norm)
        n = a.shape[0]
        t = float(rng.uniform(0.0, 3.0))
        s = float(rng.uniform(0.0, 3.0))
        gap = np.linalg.norm(mat_exp(a, t + s) - mat_exp(a, t) @ mat_exp(a, s))
        assert gap <= 1e-10, f"semigroup defect {gap}"
        fd = (mat_exp(a, h) - np.eye(n)) / h
        bound = 2.0 * np.linalg.norm(a) ** 2 * h
        assert np.linalg.norm(fd - a) <= bound, "derivative defect"
        cert = stability_certificate(a)
        for tt in np.linspace(0.0, 10.0 / cert.sigma, 50):
            envelope = cert.m * math.exp(-cert.sigma * tt) * (1.0 + 1e-8)
            assert spectral_norm(mat_exp(a, tt)) <= envelope, "certificate violated"
    values = range(-3, 4)
    for entries in itertools.product(values, repeat=4):
        aa, bb, cc, dd = entries
        m = np.array([[aa, bb], [cc, dd]], dtype=float)
        tr = aa + dd
        det = aa * dd - bb * cc
        disc = tr * tr - 4 * det
        top = (tr + math.sqrt(disc)) / 2.0 if disc >= 0 else tr / 2.0
        assert is_hurwitz(m) == (top < 0), f"oracle disagreement at {m.tolist()}"
