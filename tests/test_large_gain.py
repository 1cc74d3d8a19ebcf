"""Gain figures follow B's scale alone, to about 1e300.

Every figure the package reports is a norm integral of C exp(As) B or a
response simulated from it, so B -> 10^k B scales it by exactly 10^k.  On
A = diag(-1, -2) with C unscaled, each figure f_k must meet
|f_k - 10^k f_0| <= 10^k tol_0 + 1e-12 |f_k|, tol_0 the k = 0 figure's stated
tolerance: the tol passed where a figure states none (V(T), verify's gamma),
0 for simulated ones.  A tolerance is absolute, so at k = 0 it is the larger
error.  From k = 160 on, squares of gain-sized vectors leave double range,
and pytest turns the RuntimeWarning of one that overflows into an error.
"""

import functools

import numpy as np
import pytest

from gainlab import (
    StateSpaceSystem,
    empirical_gains,
    gain_report,
    simulate,
    vcurve,
    verify_gain_equality,
    worst_case_periodic_input,
)

TOL = 1e-8
POWERS = (160, 200, 300)
# (B_0, C) of each file of the family; A = diag(-1, -2) throughout.
FAMILY = {
    "siso": ([[1.0], [1.0]], [[1.0, -3.0]]),
    "two-input": ([[1.0, 0.5], [1.0, -1.0]], [[1.0, -3.0]]),
    "two-output": ([[1.0], [1.0]], [[1.0, -3.0], [2.0, 1.0]]),
}


def _system(name, k):
    b, c = FAMILY[name]
    return StateSpaceSystem(a=np.diag([-1.0, -2.0]), b=10.0**k * np.array(b), c=c)


@functools.cache
def _report_figures(name, k):
    """{label: (values, tolerance)}: every estimate of gain_report with the
    partial integrals and ONB basis values it carries, and a 5-point V(T)."""
    system = _system(name, k)
    report = gain_report(system, tol=TOL)
    estimates = ([report.exact] if report.exact is not None else []) + [*report.lowers, *report.uppers]
    figures = {f"positivity-{report.positivity}": (np.zeros(0), 0.0)}
    for i, est in enumerate(estimates):
        extra = [*est.details.get("component_integrals", []), *est.details.get("basis_values", [])]
        figures[f"{i}-{est.kind}-{est.method}"] = (np.array([est.value, *extra]), est.tolerance)
    figures["vt"] = (vcurve(system, np.linspace(1.0, 5.0, 5), tol=TOL).values, TOL)
    return figures


@functools.cache
def _siso_figures(k):
    """(figures, times): verify's record, the worst-case input's trajectory
    over two periods and its empirical gains, and the times that must not
    move with B (verify's horizon, rest and period, the input's switches)."""
    system = _system("siso", k)
    record = verify_gain_equality(system, 0.02, tol=TOL)
    assert record.passed
    signal, spec = worst_case_periodic_input(system, 4.0, 1e-6)
    t_end, h = 2.0 * spec.period, spec.period / 1024
    traj = simulate(system, signal, np.zeros(system.n), t_end, h)
    figures = {
        "verify-gamma": (np.array([record.gamma]), TOL),
        "verify-measured": (np.array([record.sup_gain, record.asymptotic_gain]), 0.0),
        "states": (traj.states, 0.0),
        "outputs": (traj.outputs, 0.0),
        "empirical": (np.array(empirical_gains(system, signal, t_end, spec.period, h)), 0.0),
    }
    times = [record.horizon, record.rest, record.period, spec.period, *signal.base.switch_times]
    return figures, np.array(times)


def _assert_follow_b(figures, reference, k):
    """Each figure within 10^k tol_0 + 1e-12 |f_k| of 10^k f_0; a row of a
    2-d figure (a state or output vector) in the max norm."""
    assert figures.keys() == reference.keys()
    scale = 10.0**k
    for label, (values, _) in figures.items():
        ref, tol0 = reference[label]
        assert values.shape == ref.shape, label
        gap, size = np.abs(values - scale * ref), np.abs(values)
        if values.ndim == 2:
            gap, size = gap.max(axis=1), size.max(axis=1)
        excess = gap - (scale * tol0 + 1e-12 * size)
        assert np.all(excess <= 0.0), (label, float(np.max(gap / np.maximum(size, 1e-300))))


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("name", sorted(FAMILY))
def test_report_and_curve_follow_b(name, k):
    _assert_follow_b(_report_figures(name, k), _report_figures(name, 0), k)


@pytest.mark.parametrize("k", POWERS)
def test_siso_simulation_follows_b(k):
    figures, times = _siso_figures(k)
    reference, reference_times = _siso_figures(0)
    _assert_follow_b(figures, reference, k)
    np.testing.assert_allclose(times, reference_times, rtol=1e-12, atol=0.0)
