import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from gainlab import (
    CertificateBoundInput,
    ConsistencyError,
    DimensionError,
    GainEstimate,
    PositivityCertificate,
    StateSpaceSystem,
    bang_bang_switches,
    certificate_cell_value,
    certificate_gain_bound,
    dc_gain,
    evaluate,
    gain_report,
    l1_impulse_gain,
    max_terminal_output,
    onb_upper_bound,
    periodic_upper_estimate,
    positivity_certificate,
    sinusoid_lower_bound,
    sinusoid_response,
    sinusoid_sweep,
    vcurve,
    verify_gain_equality,
    worst_case_periodic_input,
)
from gainlab import gains, linalg
from gainlab_testkit import (
    OSCILLATOR_GAIN,
    SMALL_KERNEL_MODELS,
    aligned_terminal,
    damped_oscillator,
    damped_oscillator_l1,
    eigenbasis_sinusoid_response,
    expm_times,
    heat_system,
    near_zero_kernel_system,
    oscillator_kernel,
    quad_kernel_integrals,
    random_hurwitz_matrix,
    random_metzler_system,
    random_siso_system,
    reference_aligned_terminal,
    reference_bang_bang_switches,
    reference_impulse_rows,
    reference_periodic_values,
    reference_sinusoid_refine,
    reference_sinusoid_zoom,
    reference_terminal_ascent,
    signed_states_loop,
)

SQRT5_HALF = math.sqrt(5.0) / 2.0

TOL_ENTRY_POINTS = {
    "l1_impulse_gain": lambda sys, tol: l1_impulse_gain(sys, tol=tol),
    "max_terminal_output": lambda sys, tol: max_terminal_output(sys, 5.0, tol=tol),
    "vcurve": lambda sys, tol: vcurve(sys, [1.0, 2.0], tol=tol),
    "onb_upper_bound": lambda sys, tol: onb_upper_bound(sys, tol=tol),
    "periodic_upper_estimate": lambda sys, tol: periodic_upper_estimate(sys, tol=tol),
    "gain_report": lambda sys, tol: gain_report(sys, tol=tol),
}


BAD_TOLS = (math.inf, math.nan, True, 0, 0.0, -1e-6, -1e-8, "1e-6")


def refuse_computation(monkeypatch):
    """Make linalg._pade13 and np.linalg.solve raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("computation reached")

    monkeypatch.setattr(linalg, "_pade13", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)


@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_rejects_bad_tol(entry, oscillator, monkeypatch):
    # Each entry point checks its tolerance before any computation.  tol=inf
    # failed l1_impulse_gain and gain_report with "math domain error" and was
    # accepted by the rest; tol=True passed everywhere as 1.0.
    refuse_computation(monkeypatch)
    for tol in BAD_TOLS:
        with pytest.raises(ValueError, match="^tol must be finite and positive, got "):
            TOL_ENTRY_POINTS[entry](oscillator, tol)


SEED_ENTRY_POINTS = {
    "gain_report": lambda sys, seed: gain_report(sys, seed=seed),
    "onb_upper_bound": lambda sys, seed: onb_upper_bound(sys, seed=seed),
    "max_terminal_output": lambda sys, seed: max_terminal_output(sys, 5.0, seed=seed),
    "vcurve": lambda sys, seed: vcurve(sys, [1.0, 2.0], seed=seed),
}


@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
def test_rejects_bad_seed_first(entry):
    # gain_report(seed=-1) on this model raised NumPy's bare ValueError from
    # default_rng after the l1, positivity and sinusoid work.
    sys = seeded_three_output()
    for seed in (-1, True, 1.5, "3", None):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got "):
            SEED_ENTRY_POINTS[entry](sys, seed)
        assert time.perf_counter() - start < 0.05


COUNT_ENTRY_POINTS = {
    "onb_upper_bound": ("random_bases", lambda sys, k: onb_upper_bound(sys, random_bases=k)),
    "vcurve": ("restarts", lambda sys, k: vcurve(sys, [1.0, 2.0], restarts=k)),
    "max_terminal_output": ("restarts", lambda sys, k: max_terminal_output(sys, 5.0, restarts=k)),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_rejects_bad_count_first(entry, monkeypatch):
    # onb_upper_bound(random_bases=2.5) raised NumPy's TypeError after a whole
    # L1 partition, and vcurve(restarts=-3) ran with no restarts.
    name, call = COUNT_ENTRY_POINTS[entry]
    sys = seeded_three_output()
    refuse_computation(monkeypatch)
    for count in (-3, 2.5, True, "3", None):
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got "):
            call(sys, count)


def test_one_expm_call_per_refinement_level(oscillator, monkeypatch):
    # The quadrature hands each refinement level to the kernel in one stack,
    # and the 1e-6 width floor caps the levels at 21 after the first call.
    v_end, _ = max_terminal_output(oscillator, 20.0, tol=1e-10)
    calls = []

    def counting(m):
        calls.append(m.shape)
        return original(m)

    original = linalg._pade13
    # gains reaches _pade13 only through linalg (each _Flow's power stack).
    monkeypatch.setattr(linalg, "_pade13", counting)
    est = l1_impulse_gain(oscillator)
    assert 0 < len(calls) <= 22
    assert est.value == pytest.approx(OSCILLATOR_GAIN, abs=1e-7)
    calls.clear()
    curve = vcurve(oscillator, np.linspace(0.5, 20.0, 40))
    assert 0 < len(calls) <= 22
    assert curve.values[-1] == pytest.approx(v_end, abs=1e-8)


def test_partition_forms_orbit_powers_once(monkeypatch):
    # A seeded n = 6 SISO system whose L1 partition at tol 1e-12 walks 5
    # blocks of 1,024 cells, the largest power of two within a quarter
    # stack: one stack of orbit powers exp(2^i w A) serves every block and
    # every block's lead, and no exponential of a sub-cell width is formed
    # (the halving midpoints and the zeros' polish take a Taylor series).
    rng = np.random.default_rng(0)
    a = random_hurwitz_matrix(rng, n=6)
    sys = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (6, 1)), c=rng.uniform(-2.0, 2.0, (1, 6)))
    stacks = []
    original = linalg._pade13

    def recording(m):
        stacks.append(m)
        return original(m)

    monkeypatch.setattr(linalg, "_pade13", recording)
    horizon = l1_impulse_gain(sys, tol=1e-12).details["horizon"]
    monkeypatch.undo()
    flow = gains._KernelFlow(sys, [horizon])
    block = 1 << ((linalg._STACK_ENTRIES // (4 * (sys.n + 4))).bit_length() - 1)
    assert block == 1024 and -(-flow.count // block) == 5
    assert sum(np.array_equal(m[0], a * flow.cell) for m in stacks) == 1
    narrowest = min(float(np.linalg.norm(m, 1, axis=(1, 2)).min()) for m in stacks)
    assert narrowest >= np.linalg.norm(a * flow.cell, 1)


def test_partition_figures_do_not_depend_on_cell_width(oscillator, monkeypatch):
    # The README oscillator, a seeded n = 6 SISO system and a seeded p = 3
    # system (C's rows and four drawn ONB bases, 15 rows), partitioned on
    # base cells of 1 / ||A||_1 and again on cells half as wide: the zero
    # counts and the unresolved loss are identical, and the L1 and ONB
    # figures agree within 1e-13 relative.  The chord tests hold at any
    # width, and the Taylor stack is exact to rounding on both.
    rng = np.random.default_rng(0)
    a = random_hurwitz_matrix(rng, n=6)
    siso = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (6, 1)), c=rng.uniform(-2.0, 2.0, (1, 6)))
    a = random_hurwitz_matrix(rng, n=4)
    three = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (4, 1)), c=rng.uniform(-2.0, 2.0, (3, 4)))
    systems = oscillator, siso, three

    def partitions():
        out = []
        for sys in systems:
            l1, onb = gains._onb_bound(sys, 4, 1e-8, 0)
            count = gains._KernelFlow(sys, [l1.details["horizon"]]).count
            out.append((count, l1.details, [l1.value, *onb.details["basis_values"]]))
        return out

    wide = partitions()
    monkeypatch.setattr(
        linalg, "_partition_cells", lambda a, t: max(1, math.ceil(2.0 * np.linalg.norm(a, 1) * t))
    )
    narrow = partitions()
    for (count, details, values), (half_count, half_details, half_values) in zip(wide, narrow):
        assert half_count in (2 * count - 1, 2 * count)
        assert details["roots"] == half_details["roots"] and sum(details["roots"]) > 0
        assert details["unresolved_bound"] == half_details["unresolved_bound"]
        np.testing.assert_allclose(values, half_values, rtol=1e-13, atol=0.0)


def test_partitioned_flow_forms_no_exponential(monkeypatch):
    # Once a flow has been partitioned, partitioning rows on it again forms
    # no matrix exponential: the blocks' leads are orbit rows, and the
    # halving midpoints and every Newton iterate of the zeros' polish are
    # Taylor series inside one cell.  The oscillator's output kernel is zero
    # at k pi / w_d.
    sys = damped_oscillator(3.0, 0.3)
    flow = gains._KernelFlow(sys, [20.0, 60.0])
    rows = np.array([[1.0, 0.0], [0.3, -1.0]])
    gains._sign_partition(flow, rows, 1e-10)
    calls = []
    original = linalg._pade13

    def counting(m):
        calls.append(m.shape)
        return original(m)

    monkeypatch.setattr(linalg, "_pade13", counting)
    roots = gains._sign_partition(flow, rows, 1e-10)[0]
    assert calls == []
    w_d = math.sqrt(9.0 - 0.3**2 / 4.0)
    zeros = np.arange(1, int(60.0 * w_d / math.pi) + 1) * math.pi / w_d
    np.testing.assert_allclose(roots[0], zeros, rtol=0.0, atol=1e-12)


def test_cell_stack_formed_only_for_brackets_or_halvings():
    # A kernel e^-s + e^-2s with no zero whose cells all clear their tests
    # takes no Taylor step, so its flow never forms the cell's Taylor
    # stack; the oscillator's zeros do.
    sys = StateSpaceSystem(a=[[-1.0, 0.0], [0.0, -2.0]], b=[[1.0], [1.0]], c=[[1.0, 1.0]])
    flow = gains._KernelFlow(sys, [10.0])
    assert gains._sign_partition(flow, sys.c, 1e-8)[0][0].size == 0
    assert "stack" not in vars(flow)
    sys = damped_oscillator(3.0, 0.3)
    flow = gains._KernelFlow(sys, [10.0])
    assert gains._sign_partition(flow, sys.c, 1e-8)[0][0].size > 0
    assert "stack" in vars(flow)


def polish_steps(monkeypatch):
    """Per call of gains._kernel_zeros, in order, the list of its lockstep
    iterates' cell offsets (one Taylor step each), filled as partitions run."""
    calls, original = [], gains._kernel_zeros

    def recording(flow, *args):
        steps, taylor = [], flow.taylor
        flow.taylor = lambda s, x: steps.append(np.array(s)) or taylor(s, x)
        try:
            return original(flow, *args)
        finally:
            del flow.taylor
            calls.append(steps)

    monkeypatch.setattr(gains, "_kernel_zeros", recording)
    return calls


def close_pair_system(eps):
    """g(s) = exp(-s) (1 - eps - cos s): a pair of zeros 2 acos(1 - eps) apart at each 2 pi k."""
    a = [[-1.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, -1.0, -1.0]]
    return StateSpaceSystem(a=a, b=[[1.0], [1.0], [0.0]], c=[[1.0 - eps, -1.0, 0.0]])


def test_close_zero_pairs_halve_cells_on_a_shared_flow(monkeypatch):
    # g(s) = exp(-s) (1 - eps - cos s) has a pair of zeros 2 acos(1 - eps)
    # apart at each 2 pi k, inside one base cell, so those cells are halved
    # level after level, each midpoint reached by the Taylor series of its
    # cell's flow.  One of the brackets left has g' of the wrong sign at an
    # end, where the Hermite start is least sure.  The zeros meet their closed
    # form, and a flow other rows already used gives the partition's bits again.
    eps, t_end = 1e-4, 20.0
    sys = close_pair_system(eps)
    flow = gains._KernelFlow(sys, [t_end])
    gains._sign_partition(flow, np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]]), 1e-10)
    brackets, original = [], gains._kernel_zeros

    def recording(flow, lift, x0, width, end0, end1):
        brackets.append((end0, end1))
        return original(flow, lift, x0, width, end0, end1)

    monkeypatch.setattr(gains, "_kernel_zeros", recording)
    shared = gains._sign_partition(flow, sys.c, 1e-10)
    monkeypatch.undo()
    fresh = gains._sign_partition(gains._KernelFlow(sys, [t_end]), sys.c, 1e-10)
    r = math.acos(1.0 - eps)
    zeros = sorted(z for k in range(4) for z in (2.0 * math.pi * k - r, 2.0 * math.pi * k + r) if z > 0)
    np.testing.assert_allclose(shared[0][0], zeros, rtol=0.0, atol=1e-12)
    (end0, end1), = brackets
    slope = end1[:, 0] - end0[:, 0]
    assert np.any((end0[:, 1] * slope < 0.0) | (end1[:, 1] * slope < 0.0))
    assert np.array_equal(shared[0][0], fresh[0][0])
    assert np.array_equal(shared[1], fresh[1]) and np.array_equal(shared[2], fresh[2])


def test_tangent_zero_halves_to_the_width_floor():
    # With eps = 0 the pair of zeros merges into a tangent zero at each
    # 2 pi k: those cells never clear their tests, and at a budget of 1e-30
    # they are halved until they are under 1e-6 of the horizon, 2^-14 of a
    # base cell when the horizon is 40 cells (2^-14 < 2e-6 * 40 < 2^-13).  One
    # Taylor step per level, and the loss left is reported, not a zero.
    sys = close_pair_system(0.0)
    flow = gains._KernelFlow(sys, [20.0])
    steps, taylor = [], flow.taylor
    flow.taylor = lambda s, x: steps.append(s) or taylor(s, x)
    roots, _, lost = gains._sign_partition(flow, sys.c, 1e-30)
    assert flow.count == 40 and steps == [2.0**-k for k in range(1, 15)]
    assert roots[0].size == 0 and 0.0 < lost[0] < 1e-13


def test_zero_polish_start_falls_back_to_the_secant_point(monkeypatch):
    # The bracket [2 pi - 0.3, 2 pi + 0.01] of g(s) = exp(-s) (1 - eps -
    # cos s) holds the zero 2 pi - acos(1 - eps) and ends past the minimum at
    # 2 pi, so g' has the wrong sign there: the Hermite cubic's root is not
    # found inside the bracket, the polish starts at the secant point, and
    # Newton steps from near the minimum leave the bracket, so the guard
    # bisects.  The zero still meets its closed form.  A kernel that is
    # exactly 0 at a bracket's start, -e^-s + e^-2s at s = 0, starts there and
    # stops at once.
    calls = polish_steps(monkeypatch)
    eps = 1e-4
    sys = close_pair_system(eps)
    flow = gains._KernelFlow(sys, [20.0])
    w, lo, hi = flow.cell, 2.0 * math.pi - 0.3, 2.0 * math.pi + 0.01
    lift = np.array([sys.c[0], sys.c[0] @ (w * sys.a)])
    x0 = flow.advance(flow.b[:, 0], lo)[None]
    end0, end1 = ((lift @ x.T).T for x in (x0, flow.taylor((hi - lo) / w, x0)))
    width = np.array([(hi - lo) / w])
    offset, _ = gains._kernel_zeros(flow, lift[:, None, None], x0, width, end0, end1)
    np.testing.assert_allclose(lo + offset * w, 2.0 * math.pi - math.acos(1.0 - eps), rtol=0.0, atol=1e-12)
    assert end1[0, 1] * (end1[0, 0] - end0[0, 0]) < 0.0
    steps = [float(u[0]) for u in calls[0]]
    assert steps[0] == width[0] * end0[0, 0] / (end0[0, 0] - end1[0, 0])
    # The bracket each iterate leaves, from the kernel's sign at each offset.
    below, above, bisected = 0.0, width[0], []
    for u, nxt in zip(steps, steps[1:]):
        g = sys.c[0] @ flow.advance(flow.b[:, 0], lo + u * w)
        below, above = (u, above) if g > 0.0 else (below, u)
        bisected.append(nxt == 0.5 * (below + above))
    assert any(bisected)
    sys = StateSpaceSystem(a=[[-1.0, 0.0], [0.0, -2.0]], b=[[1.0], [1.0]], c=[[-1.0, 1.0]])
    roots = gains._sign_partition(gains._KernelFlow(sys, [10.0]), sys.c, 1e-10)[0]
    assert roots[0].tolist() == [0.0] and [u.tolist() for u in calls[-1]] == [[0.0]]


def test_zero_polish_sheds_finished_brackets(monkeypatch):
    # Six brackets 0.02 wide around the close pairs' zeros at 2 pi k +- r
    # converge in a few iterates; the seventh, the slow bracket of the test
    # above, bisects for longer.  Once the finished brackets are at least
    # half of the lockstep they leave it, so the late iterates step the slow
    # bracket alone, and every zero meets its closed form.
    calls = polish_steps(monkeypatch)
    eps = 1e-4
    sys = close_pair_system(eps)
    flow = gains._KernelFlow(sys, [20.0])
    w, r = flow.cell, math.acos(1.0 - eps)
    zeros = [2.0 * math.pi * k + side * r for k in (1, 2, 3) for side in (-1.0, 1.0)] + [2.0 * math.pi - r]
    lo = np.array([z - 0.01 for z in zeros[:-1]] + [2.0 * math.pi - 0.3])
    width = np.array([0.02] * 6 + [0.31]) / w
    lift = np.array([sys.c[0], sys.c[0] @ (w * sys.a)])
    x0 = flow.advance(flow.b[:, 0], lo)
    ends = (x0 @ lift.T, flow.taylor(width, x0) @ lift.T)
    offset, _ = gains._kernel_zeros(flow, np.repeat(lift[:, None, None], 7, axis=1), x0, width, *ends)
    np.testing.assert_allclose(lo + offset * w, zeros, rtol=0.0, atol=1e-12)
    sizes = [u.size for u in calls[0]]
    assert sizes[:3] == [7, 7, 7] and sizes[3:] == [1] * (len(sizes) - 3) and len(sizes) >= 8


def test_zero_polish_takes_at_most_three_iterates(monkeypatch):
    # Each bracket's Newton polish starts at the root of the cubic Hermite
    # interpolant of g and g' at its ends.  On the seeded SISO and p = 3
    # systems (C's rows and four drawn ONB bases, as gain_report partitions
    # them) and on the seeded three-output system, every lockstep call ends
    # after three iterates (from the secant point the p = 3 call took four).
    # So do the oscillator's rows, whose zeros meet their closed form.
    calls = polish_steps(monkeypatch)
    rng = np.random.default_rng(0)
    a = random_hurwitz_matrix(rng, n=6)
    siso = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (6, 1)), c=rng.uniform(-2.0, 2.0, (1, 6)))
    a = random_hurwitz_matrix(rng, n=4)
    three = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (4, 1)), c=rng.uniform(-2.0, 2.0, (3, 4)))
    for sys in siso, three, seeded_three_output():
        gains._onb_bound(sys, 4, 1e-8, 0)
    sys = damped_oscillator(3.0, 0.3)
    roots = gains._sign_partition(gains._KernelFlow(sys, [20.0, 60.0]), np.array([[1.0, 0.0], [0.3, -1.0]]), 1e-10)[0]
    w_d = math.sqrt(9.0 - 0.3**2 / 4.0)
    np.testing.assert_allclose(roots[0], np.arange(1, int(60.0 * w_d / math.pi) + 1) * math.pi / w_d, rtol=0.0, atol=1e-12)
    assert [len(steps) for steps in calls] == [3, 3, 3, 3]


def cell_flow_systems():
    """Random Hurwitz A of several sizes, a Jordan chain and two companion
    oscillators, lightly damped and fast."""
    rng = np.random.default_rng(23)
    systems = {f"random-{n}": random_hurwitz_matrix(rng, n=n) for n in (2, 3, 5, 10, 20, 40)}
    systems["jordan-20"] = -0.5 * np.eye(20) + np.eye(20, k=1)
    for w, d in (100.0, 1e-3), (10.0, 0.02):
        systems[f"oscillator-{w:g}-{d:g}"] = damped_oscillator(w, d).a
    return systems


@pytest.mark.parametrize("name", sorted(cell_flow_systems()))
def test_cell_flow_meets_scipy_expm(name):
    # Within a cell of w = 1 / ||A||_1 the Taylor stack is exact to
    # double precision: each exp(t A) x, for t from -w to w, meets SciPy's
    # within 1e-15 relative in the 1-norm, taken by _cell_flow on its own
    # stack and by the taylor step of a _Flow on cells of w.
    a = cell_flow_systems()[name]
    w = 1.0 / np.linalg.norm(a, 1)
    t = np.repeat([0.0, w / 1024.0, w / 7.0, w / 2.0, w, -w / 3.0, -w], 3)
    x = np.random.default_rng(a.shape[0]).standard_normal((t.size, a.shape[0]))
    by_function = linalg._cell_flow(linalg._cell_stack(a * w), t / w, x)
    by_flow = linalg._Flow(a, w, w).taylor(t / w, x)
    for y in by_function, by_flow:
        for t_k, x_k, y_k in zip(t, x, y):
            ref = scipy.linalg.expm(t_k * a) @ x_k
            assert np.linalg.norm(y_k - ref, 1) <= 1e-15 * np.linalg.norm(ref, 1)


def test_signed_states_match_per_row_loop():
    # Rows with unequal zero counts, one with none, and ends before the first
    # zero, among the zeros and after the last: the padded cumulative sum
    # equals the per-row loop it replaced bit for bit.
    sys = seeded_three_output()
    flow = gains._KernelFlow(sys, [0.05, 1.0, 2.5, 7.0, 19.0, 20.0])
    rng = np.random.default_rng(4)
    counts = [3, 0, 7, 1, 12]
    row = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    t = rng.uniform(0.1, 19.5, row.size)
    y_roots = rng.standard_normal((row.size, sys.n))
    rows = rng.standard_normal((len(counts), sys.n))
    roots, signed = gains._signed_states(rows, row, t, y_roots, flow)
    ref_roots, ref_signed = signed_states_loop(rows, row, t, y_roots, flow)
    assert [r.size for r in roots] == counts
    assert all(np.array_equal(r, ref) for r, ref in zip(roots, ref_roots))
    assert np.array_equal(signed, ref_signed)


def seeded_three_output():
    """Five states, one input, three outputs: entries uniform in [-2, 2], A
    shifted to abscissa -0.2."""
    rng = np.random.default_rng(5)
    a = random_hurwitz_matrix(rng, n=5)
    return StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (5, 1)), c=rng.uniform(-2.0, 2.0, (3, 5)))


def test_single_input_scalar_kernels_skip_simpson(monkeypatch, oscillator):
    def refuse(*args, **kwargs):
        raise AssertionError("gauss_legendre reached")

    monkeypatch.setattr(gains, "gauss_legendre", refuse)
    three = seeded_three_output()
    l1_impulse_gain(oscillator)
    onb_upper_bound(three)
    periodic_upper_estimate(oscillator)
    for sys in (oscillator, three):
        max_terminal_output(sys, 5.0)
        vcurve(sys, [1.0, 2.0])
        gain_report(sys)
    assert positivity_certificate(oscillator) is None
    bang_bang_switches(oscillator, 5.0)
    # Two inputs make the aligned-terminal integrand a vector norm, still quadrature's.
    two_input = StateSpaceSystem(a=[[-1.0, 0.0], [0.0, -2.0]], b=np.eye(2), c=[[1.0, 1.0]])
    with pytest.raises(AssertionError, match="gauss_legendre reached"):
        max_terminal_output(two_input, 5.0)


def test_report_partitions_l1_kernel_once(monkeypatch, oscillator):
    # The ONB bound's standard basis is the L1 value, and its drawn bases
    # (p > 1) ride in the same partition: C's p rows and 4 x p more.  A
    # standalone ONB bound makes that one partition too.
    rows = []
    original = gains._sign_partition

    def counting(flow, r, budget):
        rows.append(r.shape[0])
        return original(flow, r, budget)

    monkeypatch.setattr(gains, "_sign_partition", counting)
    gain_report(oscillator)
    assert rows == [1]
    rows.clear()
    gain_report(seeded_three_output())
    assert rows == [15]
    rows.clear()
    onb_upper_bound(seeded_three_output())
    assert rows == [15]


def test_drawn_basis_loss_leaves_c_rows_certified(monkeypatch):
    # Both kernels, e^{-s} and 2 e^{-s}, are positive (triangular_positive
    # with a second output).  Loss planted on a drawn-basis row of the shared
    # partition stays on that row, so the report still certifies positivity
    # from C's rows and l1 states nothing unresolved.
    a, b, c = [[-1.0, -1.0], [0.0, -2.0]], [[1.0], [0.0]], [[1.0, -1.0], [2.0, -1.0]]
    sys = StateSpaceSystem(a=a, b=b, c=c)
    partition = gains._sign_partition
    planted = []

    def lossy(flow, rows, budget):
        roots, signed, lost = partition(flow, rows, budget)
        lost[-1] += 1e-3
        planted.append(rows.shape[0])
        return roots, signed, lost

    monkeypatch.setattr(gains, "_sign_partition", lossy)
    rep = gain_report(sys)
    assert planted == [10]
    assert rep.positivity is PositivityCertificate.SIGN_PARTITION
    assert rep.uppers[0].details["unresolved_bound"] == 0.0


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_l1_figure_ignores_state_coordinates(tol, p):
    # The kernel C exp(As) b does not depend on the state coordinates, and an
    # orthogonal change x -> Q x (Q drawn as the benchmark draws it) keeps
    # the certificate (M, sigma) and the norms of b and C's rows: so H and
    # the zero counts stay put, and the value moves within tol, though the
    # partition's cells of 1 / ||A||_1 do not.  Zeros where exp(As) b
    # has underflowed are rounding noise in any coordinates (the p = 3 draw
    # 9 has 131 zeros per row before its H = 6812 reaches them, and more
    # after, a different number in each), so only the others are compared.
    rng = np.random.default_rng(22 + p)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_hurwitz_matrix(rng, n=n)
        b, c = rng.uniform(-2.0, 2.0, (n, 1)), rng.uniform(-2.0, 2.0, (p, n))
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q *= np.sign(np.diag(r))
        estimates, counts = [], []
        for sys in StateSpaceSystem(a=a, b=b, c=c), StateSpaceSystem(a=q @ a @ q.T, b=q @ b, c=c @ q.T):
            est = l1_impulse_gain(sys, tol)
            flow = gains._KernelFlow(sys, [est.details["horizon"]])
            roots = gains._sign_partition(flow, sys.c, tol / 2.0)[0]
            assert [t.size for t in roots] == est.details["roots"]
            norms = [np.linalg.norm(expm_times(a, t, b)[:, :, 0], axis=1) for t in roots]
            estimates.append(est)
            counts.append([int(np.sum(x >= 1e-300)) for x in norms])
        base, moved = estimates
        horizon = base.details["horizon"]
        assert abs(moved.details["horizon"] - horizon) <= 1e-12 * horizon
        assert counts[0] == counts[1]
        assert abs(moved.value - base.value) <= tol


@pytest.mark.parametrize("seed, p", [(910, 2), (911, 3)])
def test_report_l1_and_onb_against_scipy(seed, p):
    # Every basis value of the shared partition, the standard one (l1) and
    # the drawn ones rebuilt from the seed, meets SciPy's integrals within tol.
    rng = np.random.default_rng(seed)
    n, tol = int(rng.integers(2, 5)), 1e-6
    c = rng.uniform(-2.0, 2.0, (p, n))
    sys = StateSpaceSystem(a=random_hurwitz_matrix(rng, n=n), b=rng.uniform(-2.0, 2.0, (n, 1)), c=c)
    l1, onb = gain_report(sys, tol=tol, seed=seed).uppers
    draws = np.random.default_rng(seed).standard_normal((4, p, p))
    bases = [np.eye(p), *(np.linalg.qr(g)[0].T for g in draws)]
    t_end = 40.0 / 0.2
    refs = [
        np.linalg.norm([quad_kernel_integrals(sys.a, sys.b, row, t_end)[0] for row in e @ sys.c])
        for e in bases
    ]
    assert abs(l1.value - refs[0]) <= tol
    np.testing.assert_allclose(onb.details["basis_values"], refs, rtol=0.0, atol=tol)


def lapack_calls(monkeypatch):
    """The names of the np.linalg solve and inv calls made from now on, in order."""
    calls = []

    def counted(name):
        call = getattr(np.linalg, name)
        return lambda *args, **kwargs: calls.append(name) or call(*args, **kwargs)

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def test_siso_report_costs_one_l1_partition(monkeypatch, oscillator, triangular_positive):
    # The report reads positivity off its own L1 partition: one partition per
    # SISO report, and per p = 3 report (the ONB bases share it), none when
    # structure certifies positivity (Metzler).  The sinusoid grid is one solve.
    def refuse(*args, **kwargs):
        raise AssertionError("refused call reached")

    calls = []
    partition = gains._sign_partition

    def counting_partition(*args, **kwargs):
        calls.append(1)
        return partition(*args, **kwargs)

    for name in ("periodic_upper_estimate", "positivity_certificate", "dc_gain"):
        monkeypatch.setattr(gains, name, refuse)
    monkeypatch.setattr(gains, "_sign_partition", counting_partition)
    metzler = StateSpaceSystem(a=[[-2.0, 1.0], [1.0, -2.0]], b=[[1.0], [0.0]], c=[[1.0, 0.0]])
    cases = (
        (damped_oscillator(3.0, 1.0), 1, None),
        (oscillator, 1, None),
        (seeded_three_output(), 1, None),
        (triangular_positive, 1, PositivityCertificate.SIGN_PARTITION),
        (metzler, 0, PositivityCertificate.METZLER_NONNEG),
    )
    for sys, expected, positivity in cases:
        calls.clear()
        rep = gain_report(sys)
        assert len(calls) == expected
        assert rep.positivity is positivity

    solves = lapack_calls(monkeypatch)
    # The bound's 200-point grid maximum is one solve.
    sinusoid_sweep(oscillator, np.logspace(-3.0, 3.0, 200)).max()
    assert solves == ["solve"]
    # The golden-section refinement made 22 more solves, one per frequency,
    # and the zoom one per round, 4 in all; the Newton polish takes one
    # inverse per iterate (4 here) and one solve for the value.
    solves.clear()
    est = sinusoid_lower_bound(oscillator)
    assert solves[0] == "solve" and solves[-1] == "solve"
    assert len(solves) <= 7 and set(solves[1:-1]) == {"inv"}
    assert est.details["grid_points"] == 200


def oscillator_two_output(w, d):
    """The damped oscillator with both states as outputs."""
    return StateSpaceSystem(a=[[0.0, 1.0], [-w * w, -d]], b=[[0.0], [1.0]], c=np.eye(2))


@pytest.mark.parametrize(
    "make",
    [
        lambda: StateSpaceSystem(a=[[-1.0, 0.0], [0.0, -2.0]], b=[[1.0], [1.0]], c=np.eye(2)),
        seeded_three_output,
        lambda: oscillator_two_output(3.0, 0.3),
    ],
    ids=["diag_two_output", "seeded_three_output", "oscillator_two_output"],
)
def test_multi_output_periodic_never_tightens_l1(make):
    # (exp(AT) - I)^-1 exp(As) b = -sum_k exp(A(s + kT)) b, so by Minkowski's
    # inequality the periodic norm integral is at least l1 less twice the
    # kernel's norm integral beyond T, which the last default period makes
    # far below tol: dropping the p > 1 periodic estimate loses nothing.
    sys = make()
    l1 = l1_impulse_gain(sys, tol=1e-8).value
    grid = [2.0**k / sys.certificate.sigma for k in range(-2, 7)]
    assert max(reference_periodic_values(sys, grid, 1e-8)) >= l1 - 1e-8


def transfer_magnitude(sys, omega):
    """Reference |C (i omega I - A)^{-1} B| for SISO systems."""
    n = sys.n
    h = sys.c @ np.linalg.solve(1j * omega * np.eye(n) - sys.a, sys.b)
    return float(np.abs(h[0, 0]))


@pytest.fixture
def triangular_positive():
    # non-Metzler, asymmetric, sign-indefinite C, yet the kernel is e^{-s} > 0
    return StateSpaceSystem(
        a=[[-1.0, -1.0], [0.0, -2.0]], b=[[1.0], [0.0]], c=[[1.0, -1.0]]
    )


class TestGainEstimate:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            GainEstimate(value=1.0, kind="banana", method="x", tolerance=0.0)

    def test_value_validated(self):
        with pytest.raises(ValueError):
            GainEstimate(value=-1.0, kind="exact", method="x", tolerance=0.0)
        with pytest.raises(ValueError):
            GainEstimate(value=float("nan"), kind="exact", method="x", tolerance=0.0)

    def test_tolerance_validated(self):
        # A NaN, infinite or negative tolerance states no accuracy.
        for bad in (math.nan, math.inf, -1e-12):
            with pytest.raises(ValueError, match="^estimate tolerance must be finite and nonnegative"):
                GainEstimate(value=1.0, kind="lower", method="x", tolerance=bad)


class TestL1ImpulseGain:
    def test_scalar_exact(self, scalar_system):
        est = l1_impulse_gain(scalar_system, tol=1e-10)
        assert est.kind == "exact"
        assert est.method == "l1-impulse"
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_oscillator_frozen_value(self, oscillator):
        est = l1_impulse_gain(oscillator, tol=1e-10)
        assert est.kind == "exact"
        assert est.value == pytest.approx(1.389582000246153, abs=1e-9)

    def test_oscillator_dense_trapezoid_oracle(self, oscillator):
        s = np.arange(0.0, 60.0, 1e-4)
        oracle = np.trapezoid(np.abs(oscillator_kernel(s)), dx=1e-4)
        est = l1_impulse_gain(oscillator, tol=1e-8)
        assert est.value == pytest.approx(float(oracle), abs=1e-5)

    def test_two_output_componentwise(self, diag_two_output):
        est = l1_impulse_gain(diag_two_output, tol=1e-10)
        assert est.kind == "upper"
        # kernels e^{-s} and e^{-2s}: integrals 1 and 1/2, combined in norm
        assert est.value == pytest.approx(SQRT5_HALF, abs=1e-9)
        np.testing.assert_allclose(
            est.details["component_integrals"], [1.0, 0.5], atol=1e-9
        )

    def test_tightens_with_tolerance(self, scalar_system):
        loose = l1_impulse_gain(scalar_system, tol=1e-4)
        tight = l1_impulse_gain(scalar_system, tol=1e-10)
        assert abs(loose.value - 1.0) <= 1e-4
        assert abs(tight.value - 1.0) < abs(loose.value - 1.0) + 1e-12

    def test_rejects_multi_input(self):
        sys = StateSpaceSystem(a=-np.eye(2), b=np.eye(2), c=[[1.0, 0.0]])
        with pytest.raises(DimensionError):
            l1_impulse_gain(sys)


# x'' + d x' + w^2 x = u, y = x.  (10, 0.02) is left out: its decay-certificate
# horizon needs about 3e7 kernel samples.
OSCILLATOR_FAMILY = [(w, d) for w in (1.0, 2.0, 3.0, 5.0, 10.0) for d in (1.0, 0.3)] + [
    (2.0, 0.02),
    (0.5, 0.02),
]


class TestOscillatorClosedForms:
    """||g||_1 = coth(pi d / (4 w_d)) / w^2 and zeros k pi / w_d, w_d = sqrt(w^2 - d^2 / 4)."""

    @pytest.mark.parametrize("w, d", OSCILLATOR_FAMILY)
    def test_l1_within_tol(self, w, d):
        est = l1_impulse_gain(damped_oscillator(w, d), tol=1e-8)
        assert est.kind == "exact"
        assert abs(est.value - damped_oscillator_l1(w, d)) <= 1e-8
        assert est.details["unresolved_bound"] <= 0.5e-8

    @pytest.mark.parametrize("w, d", [c for c in OSCILLATOR_FAMILY if c[0] < 10.0])
    def test_root_count(self, w, d):
        # At w = 10 the kernel underflows to 0 (exp(-d s / 2) < 1e-308) well
        # before the horizon, so its zeros there are not representable.
        est = l1_impulse_gain(damped_oscillator(w, d), tol=1e-8)
        w_d = math.sqrt(w * w - d * d / 4.0)
        assert est.details["roots"] == [math.floor(est.details["horizon"] * w_d / math.pi)]

    def test_readme_oscillator_to_rounding(self, oscillator):
        assert abs(l1_impulse_gain(oscillator).value - OSCILLATOR_GAIN) <= 1e-12

    @pytest.mark.parametrize("w, d", [(1.0, 1.0), (3.0, 0.3), (10.0, 1.0), (2.0, 0.02)])
    def test_vcurve_partial_integrals(self, w, d):
        hs = np.linspace(0.5, 20.0, 40)
        curve = vcurve(damped_oscillator(w, d), hs, tol=1e-9)
        expected = [damped_oscillator_l1(w, d, t) for t in hs]
        np.testing.assert_allclose(curve.values, expected, rtol=0.0, atol=1e-9)

    def test_terminal_output_not_above_gain(self):
        # Adaptive Simpson gave 0.12743522 here, above ||g||_1 = 0.12742672.
        value, _ = max_terminal_output(damped_oscillator(10.0, 1.0), 20.0)
        assert abs(value - damped_oscillator_l1(10.0, 1.0, 20.0)) <= 1e-9
        assert value <= damped_oscillator_l1(10.0, 1.0)

    @pytest.mark.parametrize("w", [3.0, 10.0])
    def test_bang_bang_switch_times(self, w):
        t_end = 12.0
        w_d = math.sqrt(w * w - 0.25)
        u = bang_bang_switches(damped_oscillator(w, 1.0), t_end)
        lags = np.arange(1, math.floor(t_end * w_d / math.pi) + 1) * math.pi / w_d
        np.testing.assert_allclose(u.switch_times, np.sort(t_end - lags), rtol=0.0, atol=1e-9)
        # On [0, first switch) the kernel is read at lags between its last zero and t_end.
        assert u.initial_sign == (1 if math.sin(w_d * t_end) >= 0.0 else -1)


class TestReferencePaths:
    def test_l1_agrees_with_simpson(self):
        # Both claim tol, so they agree within 2 tol.  Simpson's error estimate
        # holds where |g| is smooth, on kernels that keep one sign; across a
        # sign change it missed tol by up to 15% on these draws.
        rng = np.random.default_rng(41)
        for _ in range(20):
            sys = random_siso_system(rng, n_max=4)
            est = l1_impulse_gain(sys, tol=1e-8)
            ref, horizon = reference_impulse_rows(sys, sys.c, 1e-8)
            assert est.details["horizon"] == horizon
            assert est.details["unresolved_bound"] <= 0.5e-8
            assert abs(est.value - ref[0]) <= (1e-8 if est.details["roots"] == [0] else 2e-8)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_bang_bang_agrees_with_sampled(self, n):
        rng = np.random.default_rng(50 + n)
        for t_end in (3.0, 10.0, 25.0):
            for _ in range(5):
                a = random_hurwitz_matrix(rng, n=n)
                b, c = rng.uniform(-2.0, 2.0, (n, 1)), rng.uniform(-2.0, 2.0, (1, n))
                sys = StateSpaceSystem(a=a, b=b, c=c)
                ours, ref = bang_bang_switches(sys, t_end), reference_bang_bang_switches(sys, t_end)
                np.testing.assert_allclose(ours.switch_times, ref.switch_times, rtol=0.0, atol=1e-9)
                first = ours.switch_times[0] if ours.switch_times.size else t_end
                kernel = (c @ scipy.linalg.expm(a * (t_end - first / 2.0)) @ b).item()
                assert ours.initial_sign == (1 if kernel >= 0.0 else -1)
                # The sampled finder reads the sign off its first sample above
                # 1e-14 of |C| |B|, past the first switch where the kernel at
                # t_end is below that.
                at_end = (c @ scipy.linalg.expm(a * t_end) @ b).item()
                if abs(at_end) > 1e-14 * np.linalg.norm(c) * np.linalg.norm(b):
                    assert ours.initial_sign == ref.initial_sign

    @pytest.mark.parametrize("p", [2, 3])
    def test_aligned_terminal_agrees_with_simpson(self, p):
        # Simpson's value holds its tol.  Its terminal state stops at the width
        # floor where the aligned input jumps (5.6e-6 off at tol 1e-8 on these
        # draws), so the state is held to SciPy's quad instead.
        rng = np.random.default_rng(60 + p)
        for _ in range(8):
            n = int(rng.integers(1, 6))
            a = random_hurwitz_matrix(rng, n=n)
            sys = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (n, 1)), c=rng.uniform(-2.0, 2.0, (p, n)))
            d = rng.standard_normal(p)
            d /= np.linalg.norm(d)
            for t_end in (1.0, 5.0, 20.0):
                ours = aligned_terminal(sys, t_end, d, 1e-8)
                ref = reference_aligned_terminal(sys, t_end, d, 1e-8)
                assert abs(ours[0] - ref[0]) <= 2e-8
                quad = quad_kernel_integrals(sys.a, sys.b, d @ sys.c, t_end)
                np.testing.assert_allclose(ours, quad, rtol=0.0, atol=1e-8)

    def test_periodic_agrees_with_simpson(self):
        # Where Simpson misses its own tol (by up to 100x on these draws) the
        # value is held to SciPy's quad instead.
        rng = np.random.default_rng(70)
        for _ in range(10):
            sys = random_siso_system(rng, n_max=5)
            est = periodic_upper_estimate(sys, tol=1e-8)
            ref = reference_periodic_values(sys, est.details["horizons"], 1e-8)
            for t_per, ours, simpson in zip(est.details["horizons"], est.details["values"], ref):
                if abs(ours - simpson) > 2e-8:
                    e_t = scipy.linalg.expm(sys.a * t_per)
                    row = np.linalg.solve((e_t - np.eye(sys.n)).T, sys.c[0])
                    assert abs(ours - quad_kernel_integrals(sys.a, sys.b, row, t_per)[0]) <= 1e-8


class TestDcGain:
    def test_scalar(self, scalar_system):
        est = dc_gain(scalar_system)
        assert est.kind == "exact"
        assert est.details["positivity"] == "assumption-h"
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_metzler(self, metzler_system):
        est = dc_gain(metzler_system)
        assert est.kind == "exact"
        assert est.details["positivity"] == "metzler-nonneg"
        assert est.value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_sign_partition(self, triangular_positive):
        est = dc_gain(triangular_positive)
        assert est.kind == "exact"
        assert est.details["positivity"] == "sign-partition"
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_sign_partition_tolerance_covers_tail(self, triangular_positive, metzler_system):
        # The report's partition to 1e-8 leaves its rows' tails unchecked, so
        # the L1 gain may exceed the dc value by 1e-8; the tolerance said 1e-12.
        est = dc_gain(triangular_positive)
        assert est.tolerance == 1e-8 + 1e-12 * max(1.0, est.value)
        assert dc_gain(metzler_system).tolerance == 1e-12

    def test_oscillator_lower_only(self, oscillator):
        est = dc_gain(oscillator)
        assert est.kind == "lower"
        assert est.details["positivity"] is None
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.value <= OSCILLATOR_GAIN

    def test_two_output(self, diag_two_output):
        est = dc_gain(diag_two_output)
        assert est.kind == "exact"
        assert est.value == pytest.approx(SQRT5_HALF, abs=1e-12)

    def test_multi_input_lower(self):
        sys = StateSpaceSystem(a=-np.eye(2), b=np.eye(2), c=[[1.0, 0.0]])
        est = dc_gain(sys)
        assert est.kind == "lower"
        assert est.value == pytest.approx(1.0, abs=1e-12)


class TestPositivityCertificate:
    def test_precedence_assumption_h(self, scalar_system):
        assert positivity_certificate(scalar_system) is PositivityCertificate.ASSUMPTION_H

    def test_symmetric_identity_output(self, diag_two_output):
        assert (
            positivity_certificate(diag_two_output)
            is PositivityCertificate.ASSUMPTION_H
        )

    def test_metzler(self, metzler_system):
        assert (
            positivity_certificate(metzler_system)
            is PositivityCertificate.METZLER_NONNEG
        )

    def test_sign_partition(self, triangular_positive):
        assert (
            positivity_certificate(triangular_positive)
            is PositivityCertificate.SIGN_PARTITION
        )

    def test_oscillator_none(self, oscillator):
        assert positivity_certificate(oscillator) is None

    @pytest.mark.parametrize("w, d", [(5.0, 0.1), (7.0, 1.0), (10.0, 1.0)])
    def test_fast_oscillator_dc_is_lower(self, w, d):
        # 64 kernel samples on the horizon all fell on one side of zero here,
        # and dc = 1 / w^2 was labelled exact far below the gain.
        sys = damped_oscillator(w, d)
        assert positivity_certificate(sys) is None
        assert dc_gain(sys).kind == "lower"

    def test_rejects_multi_input(self):
        sys = StateSpaceSystem(a=-np.eye(2), b=np.eye(2), c=[[1.0, 0.0]])
        with pytest.raises(DimensionError):
            positivity_certificate(sys)

    def test_no_partition_proves_nothing(self):
        # The whole kernel 1e-10 (e^-s - 3 e^-2s), which changes sign at ln 3,
        # lies within the 1e-8 tail, so no partition ran: SIGN_PARTITION was
        # returned all the same, and dc = 5e-11 was printed as exact.
        model = SMALL_KERNEL_MODELS["b-1e-10"]
        sys = StateSpaceSystem(a=model["A"], b=model["B"], c=model["C"])
        assert positivity_certificate(sys) is None
        assert dc_gain(sys).kind == "lower"
        report = gain_report(sys)
        assert report.positivity is None
        assert report.exact.method == "l1-impulse"

    def test_agrees_with_the_report(self):
        # positivity_certificate and dc_gain are the report's own positivity
        # and dc entry.  With a rule of their own (a 1e-8 tail per row, a
        # first pass on [0, 1/sigma]) dc_gain stated 2e-8 sqrt(p) where the
        # report stated 1e-8, on every system the partition certifies.
        rng = np.random.default_rng(46)
        systems = [random_siso_system(rng) for _ in range(8)]
        for p in (2, 3, 2, 3):
            n = int(rng.integers(2, 5))
            a, b = random_hurwitz_matrix(rng, n=n), rng.uniform(-2.0, 2.0, (n, 1))
            systems.append(StateSpaceSystem(a=a, b=b, c=rng.uniform(-2.0, 2.0, (p, n))))
        # Positive kernels that no structure certifies: Metzler systems in
        # rotated coordinates, and e^-s, 2 e^-s from a sign-indefinite C.
        for _ in range(6):
            sys = random_metzler_system(rng)
            q, _ = np.linalg.qr(rng.standard_normal((sys.n, sys.n)))
            systems.append(StateSpaceSystem(a=q @ sys.a @ q.T, b=q @ sys.b, c=sys.c @ q.T))
        a, b, c = [[-1.0, -1.0], [0.0, -2.0]], [[1.0], [0.0]], [[1.0, -1.0], [2.0, -1.0]]
        systems.append(StateSpaceSystem(a=a, b=b, c=c))
        systems += [damped_oscillator(w, d) for w, d in ((3.0, 1.0), (1.0, 2.5), (0.5, 1.2))]
        systems += [StateSpaceSystem(a=m["A"], b=m["B"], c=m["C"]) for m in SMALL_KERNEL_MODELS.values()]
        certified = 0
        for sys in systems:
            report = gain_report(sys)
            assert positivity_certificate(sys) is report.positivity
            assert vars(dc_gain(sys)) == vars(report.lowers[0])
            certified += report.positivity is PositivityCertificate.SIGN_PARTITION
        assert certified >= 6


def identity_output_oscillator(w, d):
    """The damped oscillator with both states as outputs (C = I)."""
    osc = damped_oscillator(w, d)
    return StateSpaceSystem(a=osc.a, b=osc.b, c=np.eye(2))


DIAGONAL = [[-1.0, 0.0], [0.0, -2.0]]
# name -> (system, restarts, tol) for the lockstep ascent against the
# reference.  Two seeded restarts keep the reference's one partition per
# start, horizon and step affordable; the reference's multi-input ascent
# integrates each start, horizon and step alone, so it runs at tol 1e-6.
ASCENT_CASES = {
    "three-output": lambda: (seeded_three_output(), 8, 1e-8),
    **{
        f"oscillator-{w}-{d}": (lambda w=w, d=d: (identity_output_oscillator(w, d), 2, 1e-8))
        for w, d in ((1.0, 1.0), (3.0, 0.3), (10.0, 1.0), (7.0, 0.1))
    },
    "m2-p2": lambda: (
        StateSpaceSystem(a=DIAGONAL, b=[[1.0, 0.5], [0.0, 1.0]], c=[[1.0, 0.0], [1.0, 1.0]]),
        2,
        1e-6,
    ),
    "m3-p2": lambda: (
        StateSpaceSystem(a=DIAGONAL, b=[[1.0, 0.0, 1.0], [0.0, 1.0, -0.5]], c=np.eye(2)),
        2,
        1e-6,
    ),
    "m2-p1": lambda: (
        StateSpaceSystem(a=[[0.0, 1.0], [-1.0, -1.0]], b=np.eye(2), c=[[1.0, 0.5]]),
        2,
        1e-6,
    ),
}


class TestMaxTerminalOutput:
    def test_scalar_closed_form(self, scalar_system):
        # V(T) = integral of e^{-s} over [0, T]
        for t in (0.5, 1.0, 3.0):
            val, d = max_terminal_output(scalar_system, t)
            assert val == pytest.approx(1.0 - math.exp(-t), abs=1e-8)
            assert d == pytest.approx([1.0])

    def test_oscillator_approaches_gain(self, oscillator):
        val, _ = max_terminal_output(oscillator, 15.0)
        assert val <= OSCILLATOR_GAIN + 1e-9
        assert OSCILLATOR_GAIN - val < 2e-3

    def test_two_output_is_lower_bound(self, diag_two_output):
        val, d = max_terminal_output(diag_two_output, 20.0, tol=1e-10)
        assert d.shape == (2,)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-9)
        # the exact gain is sqrt(5)/2 (positivity certified dc value)
        assert val <= SQRT5_HALF + 1e-8
        assert val >= SQRT5_HALF - 1e-3

    def test_rejects_bad_horizon(self, scalar_system):
        with pytest.raises(ValueError):
            max_terminal_output(scalar_system, 0.0)

    def test_siso_is_one_horizon_curve(self):
        # The one-horizon curve replaced a SISO branch that integrated the
        # aligned kernel itself; the values agree to the bit here.
        rng = np.random.default_rng(7)
        for _ in range(20):
            sys = random_siso_system(rng, n_max=6)
            for t in (0.3, 2.0, 11.0):
                value, direction = max_terminal_output(sys, t)
                reference = aligned_terminal(sys, t, np.ones(1), 1e-9)[0]
                assert value == pytest.approx(reference, rel=1e-15, abs=0.0)
                assert direction == pytest.approx([1.0])


class TestVCurve:
    def test_matches_pointwise(self, oscillator):
        hs = [1.0, 2.0, 4.0, 8.0]
        curve = vcurve(oscillator, hs, tol=1e-9)
        assert curve.exact
        for t, v in zip(hs, curve.values):
            ref, _ = max_terminal_output(oscillator, t, tol=1e-10)
            assert v == pytest.approx(ref, abs=1e-7)

    def test_monotone_nondecreasing(self, oscillator):
        curve = vcurve(oscillator, np.linspace(0.5, 20.0, 40), tol=1e-9)
        assert np.all(np.diff(curve.values) >= -1e-9)

    def test_three_output_curve_in_seconds(self):
        # The ascent took 15 s for these 40 horizons when adaptive Simpson
        # integrated each step, and 2.3 s with one sign partition per start,
        # horizon and step; in lockstep it takes 0.4 s.
        sys = seeded_three_output()
        start = time.perf_counter()
        curve = vcurve(sys, np.linspace(0.5, 20.0, 40), tol=1e-8)
        assert time.perf_counter() - start < 5.0
        assert not curve.exact
        assert np.max(curve.values) <= l1_impulse_gain(sys, tol=1e-8).value + 1e-8

    @pytest.mark.parametrize("case", sorted(ASCENT_CASES))
    def test_lockstep_ascent_matches_reference(self, case):
        # The lockstep partitions run out to the last horizon, the reference's
        # out to each one, so with one input the values differ only by
        # rounding.  With several inputs the lockstep integrates every
        # direction on each grid interval under one shared refinement, the
        # reference each direction alone on [0, T]: m3-p2 still agrees to
        # rounding, m2-p1 and m2-p2 by 6.8e-10 at most, within their tol.
        sys, restarts, tol = ASCENT_CASES[case]()
        hs = np.linspace(0.5, 20.0, 40)
        curve = vcurve(sys, hs, restarts=restarts, tol=tol)
        reference = reference_terminal_ascent(sys, hs, restarts=restarts, tol=tol)
        rtol, atol = (0.0, tol) if case in ("m2-p1", "m2-p2") else (1e-12, 0.0)
        np.testing.assert_allclose(curve.values, reference, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("m", [2, 3])
    def test_single_output_curve_against_scipy(self, m):
        # With one output the aligned input is optimal: V(T) is the integral
        # of |c exp(As) B| over [0, T], each value within tol.
        rng = np.random.default_rng(80 + m)
        hs = [0.5, 3.0, 12.0]
        for _ in range(3):
            n = int(rng.integers(2, 6))
            a = random_hurwitz_matrix(rng, n=n)
            sys = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (n, m)), c=rng.uniform(-2.0, 2.0, (1, n)))
            curve = vcurve(sys, hs, tol=1e-8)
            kernel = lambda s: np.linalg.norm(sys.c @ scipy.linalg.expm(a * s) @ sys.b)  # noqa: E731
            for t, value in zip(hs, curve.values):
                ref = scipy.integrate.quad(kernel, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                assert abs(value - ref) <= 1e-8

    def test_single_output_skips_restarts(self, monkeypatch):
        # Every unit direction of one output is +-1, and the aligned states
        # from -1 mirror the ones from +1 bit for bit, so seeded restarts
        # could only repeat them: a curve takes one pass of the aligned
        # states at every horizon, the reference ascent's first step from +1.
        rng = np.random.default_rng(31)
        a = random_hurwitz_matrix(rng, n=3)
        sys = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (3, 2)), c=rng.uniform(-2.0, 2.0, (1, 3)))
        hs = np.linspace(0.5, 20.0, 8)
        flow = linalg._grid_flow(sys.a, hs[-1], hs[-1])[0]
        plus = gains._aligned_states(sys, flow, hs, np.ones((1, 1)), 1e-8)
        minus = gains._aligned_states(sys, flow, hs, -np.ones((1, 1)), 1e-8)
        assert plus.shape == (hs.size, 1, 3) and np.array_equal(minus, -plus)
        calls = []
        aligned = gains._aligned_states

        def counting(*args):
            calls.append(args[3].copy())
            return aligned(*args)

        monkeypatch.setattr(gains, "_aligned_states", counting)
        curve = vcurve(sys, hs, restarts=8, tol=1e-8)
        assert len(calls) == 1 and np.array_equal(calls[0], [[1.0]])
        reference = reference_terminal_ascent(sys, hs, restarts=8, tol=1e-8)
        np.testing.assert_allclose(curve.values, reference, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("m", [2, 3])
    def test_multi_input_states_against_scipy(self, m):
        # x(T) = int_0^T exp(Ar) B w(r) dr, w = v / |v|, v = B' exp(A'r) C'd:
        # every state component at every horizon within tol of SciPy's quad.
        rng = np.random.default_rng(90 + m)
        hs, tol = np.array([0.5, 3.0, 12.0]), 1e-8
        for _ in range(3):
            n = int(rng.integers(2, 6))
            a = random_hurwitz_matrix(rng, n=n)
            sys = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (n, m)), c=rng.uniform(-2.0, 2.0, (2, n)))
            d = np.array([0.6, -0.8])
            flow = linalg._grid_flow(a, hs[-1], hs[-1])[0]
            ours = gains._aligned_states(sys, flow, hs, d[None], tol)[:, 0]

            def f(r, sys=sys):
                eb = scipy.linalg.expm(sys.a * r) @ sys.b
                v = eb.T @ sys.c.T @ d
                return eb @ v / np.linalg.norm(v)

            for t, state in zip(hs, ours):
                ref = scipy.integrate.quad_vec(f, 0.0, t, epsabs=1e-13, epsrel=1e-13)[0]
                assert np.max(np.abs(state - ref)) <= tol

    def test_single_output_multi_input_curve_nondecreasing(self):
        # Each grid interval adds the Gauss sum of |c exp(Ar) B| >= 0, so a
        # one-output curve falls by rounding at most.  With one integral per
        # horizon the B = 10^k B0 curve fell at 9 of its 39 steps and sat
        # 2.4e-4 off 10^k V0; now it holds 10^k V0 to 6.7e-16 (measured, not
        # guaranteed).
        hs = np.linspace(0.5, 20.0, 40)
        b0 = np.array([[1.0, 0.5], [1.0, -1.0]])
        scaled = lambda k: StateSpaceSystem(a=DIAGONAL, b=10.0**k * b0, c=[[1.0, -3.0]])  # noqa: E731
        base = vcurve(scaled(0), hs, tol=1e-9).values
        assert np.all(np.diff(base) >= 0.0)
        for k in (-10, -100, -300):
            values = vcurve(scaled(k), hs, tol=1e-9).values
            assert np.all(np.diff(values) >= 0.0)
            np.testing.assert_allclose(values, 10.0**k * base, rtol=1e-12, atol=0.0)
        rng = np.random.default_rng(98)
        for _ in range(6):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            a = random_hurwitz_matrix(rng, n=n)
            sys = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (n, m)), c=rng.uniform(-2.0, 2.0, (1, n)))
            assert np.all(np.diff(vcurve(sys, hs, tol=1e-8).values) >= 0.0)

    def test_multi_input_ascent_costs_one_pass_per_step(self, monkeypatch):
        # One aligned integral per live (start, horizon) pair and step made
        # 897 adaptive integrals here; now each of the ascent's 8 steps (160
        # live pairs for five steps, then 53, 42 and 2) is one call on the
        # whole grid, one integral per grid interval for every live pair.
        sys, restarts, tol = ASCENT_CASES["m3-p2"]()
        hs = np.linspace(0.5, 20.0, 40)
        calls, passes = [], []
        aligned, quad = gains._aligned_states, gains.gauss_legendre

        def counting(*args):
            assert np.array_equal(args[2], hs)
            calls.append(args[3].shape[0])
            return aligned(*args)

        def counting_quad(*args):
            passes.append(1)
            return quad(*args)

        monkeypatch.setattr(gains, "_aligned_states", counting)
        monkeypatch.setattr(gains, "gauss_legendre", counting_quad)
        vcurve(sys, hs, restarts=restarts, tol=tol)
        assert calls[0] == hs.size * (sys.p + restarts)
        assert calls == sorted(calls, reverse=True) and len(calls) == 8
        assert len(passes) == hs.size * len(calls)

    @pytest.mark.parametrize("m", [1, 2])
    def test_single_output_never_runs_the_ascent(self, m, monkeypatch):
        # One output's V(T) is its norm integral: the ascent serves p > 1 only.
        calls = []
        ascent = gains._iterative_terminal_output

        def counting(*args):
            calls.append(args[0].p)
            return ascent(*args)

        monkeypatch.setattr(gains, "_iterative_terminal_output", counting)
        rng = np.random.default_rng(40 + m)
        a = random_hurwitz_matrix(rng, n=3)
        one = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (3, m)), c=rng.uniform(-2.0, 2.0, (1, 3)))
        curve = vcurve(one, np.linspace(0.5, 20.0, 40), restarts=8, tol=1e-8)
        assert curve.exact and all(np.array_equal(d, [1.0]) for d in curve.directions)
        max_terminal_output(one, 5.0)
        assert calls == []
        two = StateSpaceSystem(a=a, b=one.b, c=rng.uniform(-2.0, 2.0, (2, 3)))
        assert not vcurve(two, [1.0, 2.0], restarts=2, tol=1e-8).exact
        assert calls == [2]

    def test_ascent_costs_one_partition_per_step(self, monkeypatch):
        # One partition per start, horizon and step made 1,706 calls here.
        calls = []
        partition = gains._sign_partition

        def counting(*args, **kwargs):
            calls.append(1)
            return partition(*args, **kwargs)

        monkeypatch.setattr(gains, "_sign_partition", counting)
        vcurve(seeded_three_output(), np.linspace(0.5, 20.0, 40), tol=1e-8)
        assert 0 < len(calls) <= 40
        calls.clear()
        max_terminal_output(identity_output_oscillator(1.0, 1.0), 20.0)
        assert 0 < len(calls) <= 40

    def test_ascent_expm_calls(self, monkeypatch):
        # The ascent's steps share one kernel flow, whose orbit powers are
        # its only exponential stack: formed once, not per step and block
        # (3,412 calls when each block formed its own; 43 while the flow
        # formed block leads and halving steps, and the zeros' polish one
        # stack per iteration; 2 while the flow formed its ends' own stack).
        calls = []
        original = linalg._pade13

        def counting(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(linalg, "_pade13", counting)
        vcurve(identity_output_oscillator(10.0, 1.0), np.linspace(0.5, 20.0, 40), tol=1e-8)
        assert len(calls) == 1

    def test_shared_flow_partitions_bit_for_bit(self):
        # Row sets of changing size, so of changing block length, partitioned
        # in turn on one flow as the ascent does: each equals a partition
        # that builds its own flow.
        sys = seeded_three_output()
        hs = np.linspace(0.5, 20.0, 40)
        flow = gains._KernelFlow(sys, hs)
        rng = np.random.default_rng(3)
        for q in (120, 33, 5, 1, 12):
            rows = rng.standard_normal((q, sys.p)) @ sys.c
            shared = gains._sign_partition(flow, rows, 1e-8)
            fresh = gains._sign_partition(gains._KernelFlow(sys, hs), rows, 1e-8)
            assert len(shared[0]) == len(fresh[0]) == q
            assert all(np.array_equal(r, f) for r, f in zip(shared[0], fresh[0]))
            assert np.array_equal(shared[1], fresh[1]) and np.array_equal(shared[2], fresh[2])

    def test_two_output_not_exact(self, diag_two_output):
        curve = vcurve(diag_two_output, [1.0, 5.0], tol=1e-8)
        assert not curve.exact
        assert len(curve.directions) == 2

    def test_rejects_bad_grid(self, scalar_system):
        with pytest.raises(ValueError):
            vcurve(scalar_system, [2.0, 1.0])
        with pytest.raises(ValueError):
            vcurve(scalar_system, [])

    def test_rejects_non_finite_horizon(self, oscillator, diag_two_output, monkeypatch):
        # Infinite horizons raised OverflowError converting the cell count.
        refuse_computation(monkeypatch)
        message = "^horizons must be finite, positive and strictly increasing$"
        for sys in (oscillator, diag_two_output):
            for bad in ([1.0, math.inf], [math.nan], [1.0, math.nan]):
                with pytest.raises(ValueError, match=message):
                    vcurve(sys, bad)
            with pytest.raises(ValueError, match=message):
                max_terminal_output(sys, math.inf)

    def test_rejects_horizon_past_cell_limit(self, oscillator, diag_two_output, monkeypatch):
        # ||A||_1 = 2 for both: T = 1e9 asks for 2 x 10^9 base cells, many
        # minutes of partition; 2.6e6 just passes the 5 x 10^6 limit, and
        # 1e308 cells of 1 / ||A||_1 are past the float range.
        refuse_computation(monkeypatch)
        for sys in (oscillator, diag_two_output):
            for horizons in ([1.0, 1e9], [2.6e6], [1e308]):
                with pytest.raises(ValueError, match=r"partition cells.*\(--t-max\)$"):
                    vcurve(sys, horizons)
            with pytest.raises(ValueError, match="partition cells"):
                max_terminal_output(sys, 2.6e6)

    def test_rejects_ascent_past_state_limit(self, oscillator, monkeypatch):
        # C = I: k horizons hold k^2 (2 + restarts) 2 signed state entries,
        # 40 horizons 1.3 x 10^5 of them; 2,000 took 171 s and 1.3 GB.
        two_output = StateSpaceSystem(a=oscillator.a, b=oscillator.b, c=np.eye(2))
        refuse_computation(monkeypatch)
        for k, restarts in ((708, 8), (1000, 8), (1119, 2)):
            with pytest.raises(ValueError, match=r"ascent state entries.*\(--points\)$"):
                vcurve(two_output, np.linspace(0.01, 10.0, k), restarts=restarts)
        # 707^2 (2 + 8) 2 is just under the limit: the ascent starts.
        with pytest.raises(AssertionError, match="computation reached"):
            vcurve(two_output, np.linspace(0.01, 10.0, 707))


class TestBangBangSwitches:
    def test_scalar_no_switches(self, scalar_system):
        u = bang_bang_switches(scalar_system, 5.0)
        assert u.switch_times.size == 0
        assert u.initial_sign == 1
        assert not u.zero_kernel

    def test_oscillator_switch_oracle(self, oscillator):
        # kernel zeros at s = T - 2 pi k / sqrt(3)
        t_end = 15.0
        u = bang_bang_switches(oscillator, t_end)
        period = 2.0 * math.pi / math.sqrt(3.0)
        expected = sorted(
            t_end - period * k
            for k in range(1, int(t_end / period) + 1)
            if t_end - period * k > 0
        )
        np.testing.assert_allclose(u.switch_times, expected, atol=1e-9)
        # sign on each segment matches the sign of the closed-form kernel
        bounds = [0.0, *u.switch_times, t_end]
        for lo, hi in zip(bounds, bounds[1:]):
            mid = 0.5 * (lo + hi)
            assert evaluate(u, mid)[0] == (1 if oscillator_kernel(t_end - mid) >= 0 else -1)

    def test_zero_kernel_detected(self):
        # C B and C A B vanish identically in the observable direction
        sys = StateSpaceSystem(
            a=[[-1.0, 0.0], [0.0, -2.0]], b=[[0.0], [1.0]], c=[[1.0, 0.0]]
        )
        u = bang_bang_switches(sys, 4.0)
        assert u.zero_kernel

    def test_rejects_multi_output(self, diag_two_output):
        with pytest.raises(DimensionError):
            bang_bang_switches(diag_two_output, 1.0)

    def test_rejects_bad_horizon(self, scalar_system):
        for horizon in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="horizon must be finite and positive"):
                bang_bang_switches(scalar_system, horizon)


class TestVanishes:
    @pytest.mark.parametrize(
        "c, b",
        [*(([[10.0**-k, 1.0]], [[1.0], [0.0]]) for k in (15, 20, 100, 300)),
         *(([[1.0, -3.0]], [[10.0**-k], [10.0**-k]]) for k in (10, 100, 300))],
        ids=[*(f"c-1e-{k}" for k in (15, 20, 100, 300)), *(f"b-1e-{k}" for k in (10, 100, 300))],
    )
    def test_small_real_kernels_are_driven(self, c, b):
        # Each Markov parameter is its own absolute-value bound or half of it,
        # however small: a real kernel, which the bang-bang input drives (its
        # one zero, at ln 3 for C = (1, -3), a switch).
        sys = StateSpaceSystem(a=DIAGONAL, b=b, c=c)
        assert not gains._vanishes(sys)
        u = bang_bang_switches(sys, 4.0)
        assert not u.zero_kernel and u.initial_sign == 1
        switches = [4.0 - math.log(3.0)] if c[0][1] == -3.0 else []
        np.testing.assert_allclose(u.switch_times, switches, atol=1e-12)

    def test_vanishing_kernels(self):
        exact = StateSpaceSystem(a=DIAGONAL, b=[[1.0], [0.0]], c=[[0.0, 1.0]])
        for sys in (exact, near_zero_kernel_system()):
            assert gains._vanishes(sys)
            assert bang_bang_switches(sys, 4.0).zero_kernel

    def test_krylov_vectors_stay_in_range(self):
        # |A|^k |b| reaches 4e8^39 = 1e336 unscaled at n = 40.
        a = -4e8 * np.diag(np.linspace(0.5, 1.0, 40))
        zero = StateSpaceSystem(a=a, b=np.eye(40)[:, :1], c=np.eye(40)[1:2])
        assert gains._vanishes(zero)
        assert not gains._vanishes(StateSpaceSystem(a=a, b=np.ones((40, 1)), c=np.ones((1, 40))))


def test_caller_horizons_past_cell_budget_refused_at_once(oscillator, monkeypatch):
    # ||A||_1 = 2: a horizon or period of 1e11 asks for 2 x 10^11 cells;
    # bang_bang_switches at 1e7 took 3-4 s, and at 1e11 had not finished in
    # 120 s.  Each entry point that turns a caller's horizon into a flow
    # refuses it before any exponential; the L1 horizon, which the code
    # derives, is not checked.
    refuse_computation(monkeypatch)
    calls = (
        lambda: bang_bang_switches(oscillator, 1e11),
        lambda: worst_case_periodic_input(oscillator, 1e11, 1e-6),
        lambda: periodic_upper_estimate(oscillator, [1e11]),
    )
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="partition cells"):
            call()
        assert time.perf_counter() - start < 0.1
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("budget checked")

    monkeypatch.setattr(linalg, "_check_partition_cells", refuse)
    assert l1_impulse_gain(oscillator).value == pytest.approx(OSCILLATOR_GAIN, abs=1e-7)


def test_default_period_grid_past_cell_budget_refused_at_once():
    # On the (10, 0.02) oscillator the default grid's longest period, 64 /
    # sigma = 3.2e5, asks for 3.2 x 10^7 cells of 1 / ||A||_1, past the
    # budget of 5 x 10^6; it is refused before the first flow is built.
    sys = damped_oscillator(10.0, 0.02)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^\d+ partition cells for horizon 3\.232e\+05 exceeds "
                       r"the limit of 5000000 \(t_grid\)$"):
        periodic_upper_estimate(sys)
    assert time.perf_counter() - start < 0.1


VERIFY_HORIZON = "derived from the system, with no flag"


def test_every_partition_goes_through_the_entry_point(monkeypatch, oscillator, triangular_positive):
    # Every path that partitions a kernel does so inside gains._partition,
    # and the cell budget is checked on exactly the horizons a caller gives
    # (--t-max, --horizon, a t_grid's longest period), on the default period
    # grid's longest and on verify's horizon past the L1 horizon, never on
    # another derived one: the L1 horizon or positivity's.
    entry, partition, check = gains._partition, gains._sign_partition, linalg._check_partition_cells
    depth, entries, checked = [], [], []

    def recording_entry(*args, **kwargs):
        entries.append(1)
        depth.append(1)
        try:
            return entry(*args, **kwargs)
        finally:
            depth.pop()

    def guarded_partition(*args):
        assert depth, "a sign partition bypassed gains._partition"
        return partition(*args)

    def recording_check(a, horizon, flag):
        checked.append((float(horizon), flag))
        return check(a, horizon, flag)

    base = random_siso_system(np.random.default_rng(0))
    past_h = StateSpaceSystem(a=base.a, b=base.b, c=base.c * 1e-9)
    past_h_horizon = verify_gain_equality(past_h, 0.02).horizon
    monkeypatch.setattr(gains, "_partition", recording_entry)
    monkeypatch.setattr(gains, "_sign_partition", guarded_partition)
    monkeypatch.setattr(linalg, "_check_partition_cells", recording_check)
    two_output = oscillator_two_output(1.0, 1.0)
    sigma = oscillator.certificate.sigma
    cases = (
        (lambda: gain_report(oscillator), 1, []),
        (lambda: gain_report(two_output), 1, []),
        (lambda: vcurve(oscillator, [1.0, 2.0]), 1, [(2.0, "--t-max")]),
        (lambda: vcurve(two_output, [1.0, 2.0]), None, [(2.0, "--t-max")]),
        (lambda: bang_bang_switches(oscillator, 3.0), 1, [(3.0, "--horizon")]),
        (lambda: worst_case_periodic_input(oscillator, 3.0, 1e-6), 1, [(3.0, "--horizon")]),
        (lambda: verify_gain_equality(oscillator, 0.02), 1, []),
        (lambda: verify_gain_equality(past_h, 0.02), 2, [(past_h_horizon, VERIFY_HORIZON)]),
        (lambda: periodic_upper_estimate(oscillator), 9, [(64.0 / sigma, "t_grid")]),
        (lambda: periodic_upper_estimate(oscillator, [1.0, 4.0, 2.0]), 3, [(4.0, "t_grid")]),
        (lambda: positivity_certificate(damped_oscillator(3.0, 1.0)), 1, []),
        (lambda: positivity_certificate(triangular_positive), 1, []),
    )
    for case, (call, partitions, budget_checks) in enumerate(cases):
        entries.clear()
        checked.clear()
        call()
        # The ascent takes one partition per step, at most 40.
        assert len(entries) == partitions if partitions else 0 < len(entries) <= 40, case
        assert checked == budget_checks, case


def test_tail_rule_meets_the_largest_rows_tail():
    # Rows of norms 5 and 1/2, so the largest row's norm, not ||C||_2 = 5.009,
    # sets the horizon: there max_i ||c_i|| M ||b|| exp(-sigma H) / sigma is
    # the tail.
    a, b, c = [[-1.0, 2.0], [0.0, -3.0]], [[1.0], [1.0]], [[3.0, 4.0], [0.5, 0.0]]
    sys = StateSpaceSystem(a=a, b=b, c=c)
    cert, coef = sys.certificate, 5.0 * sys.certificate.m * math.sqrt(2.0)
    for tail in (1e-2, 1e-6, 1e-10, 1e-14):
        horizon = gains._tail_horizon(sys, sys.c, tail)
        assert horizon > 0.0
        reached = coef * math.exp(-cert.sigma * horizon) / cert.sigma
        assert reached == pytest.approx(tail, rel=1e-12, abs=0.0)


class TestSinusoidResponse:
    def test_scalar_closed_form(self, scalar_system):
        for omega in (0.1, 1.0, 10.0):
            val = sinusoid_response(scalar_system, omega)
            assert val == pytest.approx(1.0 / math.sqrt(1.0 + omega**2), abs=1e-12)

    def test_matches_transfer_function_siso(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            sys = random_siso_system(rng, n_max=4)
            omega = float(rng.uniform(0.05, 20.0))
            assert sinusoid_response(sys, omega) == pytest.approx(
                transfer_magnitude(sys, omega), rel=1e-9, abs=1e-12
            )

    def test_rejects_bad_omega(self, scalar_system):
        for omega in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="omega must be finite and positive"):
                sinusoid_response(scalar_system, omega)

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_heat_family_against_eigenbasis(self, n):
        # cond(A) is about 0.4 (n + 1)^2.  A solve with A^2 + omega^2 I squares
        # it and missed the 40-digit figure by 1.1e-11 at n = 40 and 1.5e-11
        # at n = 60; one complex solve with i omega I - A stays within 1e-14.
        sys = heat_system(n)
        lam, q = np.linalg.eigh(sys.a)
        for omega in (1e-3, 1e-2, 1.0, 100.0):
            ref = eigenbasis_sinusoid_response(sys.c, q, lam, sys.b, omega)
            assert abs(sinusoid_response(sys, omega) - ref) <= 1e-12 * max(1.0, ref), omega

    def test_stiff_normal_against_eigenbasis(self):
        # Eigenvalues -1e-2 ... -1e3 in a random orthogonal basis, p = 2: the
        # A^2 + omega^2 I solve was off by up to 1e-6 relative on such draws.
        rng = np.random.default_rng(0)
        lam = -np.logspace(-2.0, 3.0, 6)
        for trial in range(5):
            q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            b, c = rng.uniform(-1.0, 1.0, (6, 1)), rng.uniform(-1.0, 1.0, (2, 6))
            sys = StateSpaceSystem(a=q @ np.diag(lam) @ q.T, b=b, c=c)
            for omega in (1e-3, 1e-2, 1.0, 100.0):
                assert sinusoid_response(sys, omega) == pytest.approx(
                    eigenbasis_sinusoid_response(c, q, lam, b, omega), rel=1e-11, abs=0.0
                ), (trial, omega)

    def test_sweep_is_single_calls_to_the_bit(self):
        # One batched solve over the frequency stack, p up to 3 outputs: the
        # same bits as one call per frequency.
        rng = np.random.default_rng(32)
        for _ in range(30):
            n, p = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            a = random_hurwitz_matrix(rng, n=n)
            sys = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (n, 1)), c=rng.uniform(-2.0, 2.0, (p, n)))
            omegas = np.concatenate((np.geomspace(1e-3, 1e40, 60), [1e100, 1e300, 1.7976931348623157e308]))
            sweep = sinusoid_sweep(sys, omegas)
            assert [float(v) for v in sweep] == [sinusoid_response(sys, w) for w in omegas]

    def test_sweep_memory_bounded(self):
        # One stack for the whole grid peaked at 176 MB; stacks of
        # _STACK_ENTRIES // n^2 frequencies keep the peak to a few MB.
        rng = np.random.default_rng(33)
        a = random_hurwitz_matrix(rng, n=6)
        sys = StateSpaceSystem(a=a, b=rng.uniform(-2.0, 2.0, (6, 1)), c=rng.uniform(-2.0, 2.0, (2, 6)))
        omegas = np.geomspace(1e-3, 1e3, 200_000)
        tracemalloc.start()
        try:
            sinusoid_sweep(sys, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_sweep_rejects_bad_omega(self, scalar_system):
        for bad in ([1.0, 0.0], [math.inf], [1.0, math.nan]):
            with pytest.raises(ValueError, match="omega must be finite and positive"):
                sinusoid_sweep(scalar_system, bad)
        with pytest.raises(DimensionError):
            sinusoid_sweep(StateSpaceSystem(a=-np.eye(2), b=np.eye(2), c=[[1.0, 0.0]]), [1.0])

    def test_huge_omega(self, scalar_system, oscillator, diag_two_output):
        # Python floats: omega**2 raised OverflowError above about 1.3e154.
        # First order, closed form 1 / sqrt(1 + omega^2) = (1 / omega) / sqrt(1 + omega^-2).
        largest = 1.7976931348623157e308
        for omega in (1e200, 1e300, largest):
            assert sinusoid_response(scalar_system, omega) == pytest.approx(
                (1.0 / omega) / math.sqrt(1.0 + omega**-2.0), rel=1e-15, abs=0.0
            )
            # p = 2, G_k = 1 / (i omega + k): Psi ~ sqrt(2) / omega, subnormal
            # at the largest double.
            assert sinusoid_response(diag_two_output, omega) == pytest.approx(
                math.sqrt(2.0) / omega, rel=1e-12, abs=0.0
            )
        # Relative degree two: Psi ~ 1 / omega^2 (it once underflowed to 0 from
        # about 1e77), and 0.0 where 1 / omega^2 underflows.
        for omega in (1e30, 1e77, 1e100, 1e150):
            assert sinusoid_response(oscillator, omega) == pytest.approx(
                omega**-2.0, rel=1e-12, abs=0.0
            )
        assert sinusoid_response(oscillator, largest) == 0.0
        # Never NaN, and no complex value written into the float output
        # (NumPy's ComplexWarning is a RuntimeWarning, an error here).
        for sys in (diag_two_output, oscillator):
            sweep = sinusoid_sweep(sys, np.append(np.logspace(0.0, 308.0, 200), largest))
            assert np.all(np.isfinite(sweep)) and np.all(sweep >= 0.0)


class TestSinusoidLowerBound:
    def test_scalar_near_unity(self, scalar_system):
        est = sinusoid_lower_bound(scalar_system)
        assert est.kind == "lower"
        assert est.value <= 1.0 + 1e-12
        assert est.value >= 1.0 - 1e-5

    def test_oscillator_resonance(self, oscillator):
        est = sinusoid_lower_bound(oscillator)
        # peak of |H(i w)| for the damped oscillator: w^2 = 1/2 gives 2/sqrt(3)
        assert est.value == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-6)
        assert est.details["omega"] == pytest.approx(math.sqrt(0.5), rel=1e-2)
        assert est.value <= OSCILLATOR_GAIN

    def test_refinement_improves(self, oscillator):
        coarse = sinusoid_sweep(oscillator, [0.3, 1.0, 3.0]).max()
        fine = sinusoid_lower_bound(oscillator, omegas=[0.3, 1.0, 3.0])
        assert fine.value >= coarse - 1e-15

    def test_rejects_bad_grid(self, scalar_system):
        with pytest.raises(ValueError):
            sinusoid_lower_bound(scalar_system, omegas=[-1.0, 1.0])

    def test_zoom_between_golden_section_and_gain(self):
        # The acceptance suite's 100 draws and five oscillators, two of them
        # lightly damped: the polish never falls below the golden-section
        # refinement the zoom replaced, and stays a lower bound on the L1 gain
        # (closed form for the oscillators: (10, 0.02) takes 18 s at 1e-10).
        rng = np.random.default_rng(12345)
        cases = [random_siso_system(rng, n_max=5) for _ in range(100)]
        cases += [(1.0, 1.0), (3.0, 0.3), (10.0, 0.02), (7.0, 0.1), (0.5, 0.05)]
        for trial, case in enumerate(cases):
            if isinstance(case, tuple):
                sys, gain = damped_oscillator(*case), damped_oscillator_l1(*case)
            else:
                sys, gain = case, l1_impulse_gain(case, tol=1e-10).value
            est = sinusoid_lower_bound(sys)
            reference = reference_sinusoid_refine(sys)[0]
            assert est.value >= reference - 1e-12 * max(1.0, reference), trial
            assert est.value <= gain + 1e-9 * max(1.0, gain), trial
            assert est.value == sinusoid_response(sys, est.details["omega"]), trial

    @pytest.mark.parametrize(
        "w, d", [(1.0, 1.0), (7.0, 0.1), (10.0, 0.02), (100.0, 1e-3), (1000.0, 0.1), (30.0, 1e-4)]
    )
    def test_oscillator_peak_in_closed_form(self, w, d):
        # |G(i omega)| = 1 / |w^2 - omega^2 + i omega d| peaks at
        # omega^2 = w^2 - d^2 / 2 with 1 / (d sqrt(w^2 - d^2 / 4)).  The zoom
        # fell short by up to 9.7e-6 at (100, 1e-3) and 4.7e-5 at (30, 1e-4).
        est = sinusoid_lower_bound(damped_oscillator(w, d))
        peak = 1.0 / (d * math.sqrt(w * w - d * d / 4.0))
        assert abs(est.value - peak) <= 1e-12 * peak
        assert est.details["omega"] == pytest.approx(math.sqrt(w * w - d * d / 2.0), rel=1e-6)

    def test_never_below_the_zoom(self, diag_two_output):
        # The acceptance suite's 100 draws, 60 seeded p = 2 or 3 draws, and
        # symmetric A with C = I: the polish never falls below the batched
        # zoom it replaced.
        rng = np.random.default_rng(12345)
        cases = [random_siso_system(rng, n_max=5) for _ in range(100)]
        rng = np.random.default_rng(3232)
        for _ in range(60):
            n, p = int(rng.integers(1, 7)), int(rng.integers(2, 4))
            b, c = rng.uniform(-2.0, 2.0, (n, 1)), rng.uniform(-2.0, 2.0, (p, n))
            cases.append(StateSpaceSystem(a=random_hurwitz_matrix(rng, n=n), b=b, c=c))
        for n in (2, 3, 3, 4):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            a = -(q * rng.uniform(0.3, 3.0, n)) @ q.T
            b = rng.uniform(-2.0, 2.0, (n, 1))
            cases.append(StateSpaceSystem(a=0.5 * (a + a.T), b=b, c=np.eye(n)))
        cases += [diag_two_output, oscillator_two_output(1.0, 1.0), oscillator_two_output(3.0, 0.3)]
        for trial, sys in enumerate(cases):
            est = sinusoid_lower_bound(sys)
            zoom = reference_sinusoid_zoom(sys)[0]
            assert est.value >= zoom - 1e-12 * max(1.0, zoom), trial
            assert est.value == sinusoid_response(sys, est.details["omega"]), trial

    def test_grid_end_stands(self, scalar_system, monkeypatch):
        # 1 / (1 + i omega) peaks at omega -> 0: the grid maximum is its first
        # point, phi' points out of the grid, and one inverse decides it.
        calls = lapack_calls(monkeypatch)
        est = sinusoid_lower_bound(scalar_system)
        assert calls == ["solve", "inv"]
        assert est.details["omega"] == 1e-3
        assert est.value == sinusoid_response(scalar_system, 1e-3)

    @pytest.mark.parametrize("p", [1, 3])
    def test_phi_derivatives_by_finite_differences(self, p):
        # _sinusoid_phi returns phi, phi', phi'' times one positive factor,
        # so phi' / phi and phi'' / phi match central differences of
        # phi(t) = Psi(e^t)^2 on either side of a peak and near it.
        rng = np.random.default_rng(40 + p)
        h = 1e-4
        for _ in range(5):
            n = int(rng.integers(2, 6))
            a = random_hurwitz_matrix(rng, n=n)
            b, c = rng.uniform(-2.0, 2.0, (n, 1)), rng.uniform(-2.0, 2.0, (p, n))
            sys = StateSpaceSystem(a=a, b=b, c=c)
            peak = sinusoid_lower_bound(sys).details["omega"]
            for t in math.log(peak) + np.array([-2.0, -0.3, 0.05, 0.4, 1.5]):
                phi = [sinusoid_response(sys, math.exp(t + k * h)) ** 2 for k in (-1, 0, 1)]
                slope = (phi[2] - phi[0]) / (2.0 * h * phi[1])
                curve = (phi[2] - 2.0 * phi[1] + phi[0]) / (h * h * phi[1])
                value, d1, d2 = gains._sinusoid_phi(sys, math.exp(t))
                assert d1 / value == pytest.approx(slope, rel=1e-5, abs=1e-6)
                assert d2 / value == pytest.approx(curve, rel=1e-5, abs=1e-5)


class TestOnbUpperBound:
    def test_scalar(self, scalar_system):
        est = onb_upper_bound(scalar_system, tol=1e-10)
        assert est.kind == "upper"
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_two_output_standard_basis_optimal(self, diag_two_output):
        est = onb_upper_bound(diag_two_output, random_bases=6, tol=1e-9)
        # rotating the output basis only mixes the kernels, never improves here,
        # so every basis value ties with or exceeds the true gain sqrt(5)/2
        assert est.value == pytest.approx(SQRT5_HALF, abs=1e-7)
        assert len(est.details["basis_values"]) == 7
        assert all(v >= SQRT5_HALF - 1e-7 for v in est.details["basis_values"])

    def test_seed_deterministic(self, diag_two_output):
        a = onb_upper_bound(diag_two_output, random_bases=3, seed=5)
        b = onb_upper_bound(diag_two_output, random_bases=3, seed=5)
        assert a.value == b.value


class TestPeriodicUpperEstimate:
    def test_scalar_identically_one(self, scalar_system):
        est = periodic_upper_estimate(scalar_system, tol=1e-10)
        assert est.kind == "lower"
        np.testing.assert_allclose(est.details["values"], 1.0, atol=1e-9)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_siso_large_period_converges_to_gain(self):
        # kernel e^{-s} + e^{-2s} is positive: gain = 1.5 exactly
        sys = StateSpaceSystem(
            a=[[-1.0, 0.0], [0.0, -2.0]], b=[[1.0], [1.0]], c=[[1.0, 1.0]]
        )
        est = periodic_upper_estimate(sys, t_grid=[40.0], tol=1e-11)
        assert est.value == pytest.approx(1.5, abs=1e-10)

    def test_siso_bounds_gain_above(self, oscillator):
        est = periodic_upper_estimate(oscillator, tol=1e-9)
        assert est.value >= OSCILLATOR_GAIN - 1e-6
        vals = est.details["values"]
        assert max(vals) == est.value

    def test_two_output_euclidean_limit(self, diag_two_output):
        # large-T limit integrates the pointwise Euclidean kernel norm:
        # int_0^inf sqrt(e^{-2s} + e^{-4s}) ds = (sqrt(2) + asinh(1)) / 2
        expected = (math.sqrt(2.0) + math.asinh(1.0)) / 2.0
        (value,) = reference_periodic_values(diag_two_output, [40.0], 1e-10)
        assert value == pytest.approx(expected, abs=1e-8)
        # The library leaves it out: it never tightens the L1 bound.
        with pytest.raises(DimensionError):
            periodic_upper_estimate(diag_two_output, t_grid=[40.0], tol=1e-10)

    def test_rejects_bad_grid(self, scalar_system):
        # A non-finite period once reached the matrix exponential.
        for grid in ([0.0], [1.0, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="t_grid"):
                periodic_upper_estimate(scalar_system, t_grid=grid)


class TestPeriodicLowerBound:
    """l1_impulse_gain's exact SISO value against SciPy: the steady output, at
    phase 0, of the bang-bang input u(t) = sgn g(H - t), g(s) = c exp(As) b,
    repeated with the L1 horizon H as period."""

    SYSTEMS = [
        ("readme-oscillator", lambda: damped_oscillator(1.0, 1.0)),
        ("oscillator-3-0.3", lambda: damped_oscillator(3.0, 0.3)),
        ("oscillator-10-1", lambda: damped_oscillator(10.0, 1.0)),
        ("scalar", lambda: StateSpaceSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]])),
        ("metzler", lambda: random_metzler_system(np.random.default_rng(812))),
    ] + [
        (f"random-{k}", lambda k=k: random_siso_system(np.random.default_rng(800 + k)))
        for k in range(5)
    ]

    @pytest.mark.parametrize("make", [m for _, m in SYSTEMS], ids=[i for i, _ in SYSTEMS])
    def test_matches_scipy_steady_output(self, make):
        sys, tol = make(), 1e-8
        exact = l1_impulse_gain(sys, tol)
        period = exact.details["horizon"]
        assert exact.kind == "exact"
        # Past 40 / |abscissa| the kernel has decayed by e^-40: SciPy's
        # integrals stop there, on [0, H] for W_H and on [0, inf) for the gain.
        decay = -float(np.max(scipy.linalg.eigvals(sys.a).real))
        t_end = 40.0 / decay
        w_h = quad_kernel_integrals(sys.a, sys.b, sys.c[0], min(period, t_end))[1:]
        flow = scipy.linalg.expm(sys.a * period)
        steady = abs(float(sys.c[0] @ scipy.linalg.solve(np.eye(sys.n) - flow, w_h)))
        assert abs(exact.value - steady) <= 1e-9 * steady
        l1_ref = quad_kernel_integrals(sys.a, sys.b, sys.c[0], t_end)[0]
        scale = max(1.0, l1_ref)
        assert exact.value <= l1_ref + 1e-12 * scale
        assert exact.details["component_integrals"][0] - exact.value <= tol
        # On a positive kernel the periodic output is c (-A^-1) b itself.
        if positivity_certificate(sys) is not None:
            assert abs(exact.value - dc_gain(sys).value) <= 1e-12 * scale


class TestCertificateBound:
    def closed_form(self, m_const, sigma, horizon, level):
        decay = m_const * math.exp(-sigma * horizon)
        return (1.0 + m_const * (1.0 - math.exp(-sigma * horizon))) / (1.0 - decay) * level

    def test_constant_envelope_cells(self):
        data = CertificateBoundInput(
            certificates=[(2.0, 1.0)],
            b_samples=[[0.0, 1.0]],
            t_grid=[2.0, 4.0, 8.0, 16.0],
        )
        est = certificate_gain_bound(data)
        cells = est.details["cells"]
        assert len(cells) == 4
        for cell in cells:
            ref = self.closed_form(2.0, 1.0, cell["horizon"], 1.0)
            assert cell["value"] == pytest.approx(ref, abs=1e-12)
        # every cell exceeds the envelope supremum, so the bound falls back
        assert est.details["used_fallback"]
        assert est.value == pytest.approx(1.0)
        assert est.kind == "upper"
        assert est.method == "theorem41"

    def test_cells_approach_limit(self):
        # closed form tends to level * (M + 1) as the horizon grows
        data = CertificateBoundInput(
            certificates=[(2.0, 1.0)], b_samples=[[0.0, 1.0]], t_grid=[30.0]
        )
        est = certificate_gain_bound(data)
        assert est.details["cells"][0]["value"] == pytest.approx(3.0, abs=1e-3)

    def test_short_horizon_skipped(self):
        # M exp(-sigma T) >= 1: the split certifies nothing
        assert certificate_cell_value(2.0, 1.0, np.array([[0.0, 1.0]]), 0.5) is None
        data = CertificateBoundInput(
            certificates=[(2.0, 1.0)], b_samples=[[0.0, 1.0]], t_grid=[0.5]
        )
        est = certificate_gain_bound(data)
        assert est.details["cells"] == []
        assert est.value == pytest.approx(1.0)

    def test_step_envelope_lookup(self):
        samples = np.array([[0.0, 1.0], [1.0, 2.0]])
        val = certificate_cell_value(2.0, 1.0, samples, 3.0)
        decay = 2.0 * math.exp(-3.0)
        denom = 1.0 - decay
        cand0 = 2.0 * 1.0 * 2.0 / denom + 1.0
        cand1 = 2.0 * math.exp(-1.0) * 2.0 / denom + 2.0
        assert val == pytest.approx(max(cand0, cand1), abs=1e-12)

    def test_multiple_certificates_take_min(self):
        data = CertificateBoundInput(
            certificates=[(2.0, 1.0), (1.5, 2.0)],
            b_samples=[[0.0, 1.0]],
            t_grid=[8.0],
        )
        est = certificate_gain_bound(data)
        ref = min(
            self.closed_form(2.0, 1.0, 8.0, 1.0),
            self.closed_form(1.5, 2.0, 8.0, 1.0),
            1.0,
        )
        assert est.value == pytest.approx(ref, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CertificateBoundInput(certificates=[], b_samples=[[0.0, 1.0]], t_grid=[1.0])
        with pytest.raises(ValueError):
            CertificateBoundInput(
                certificates=[(0.5, 1.0)], b_samples=[[0.0, 1.0]], t_grid=[1.0]
            )
        with pytest.raises(ValueError):
            CertificateBoundInput(
                certificates=[(2.0, -1.0)], b_samples=[[0.0, 1.0]], t_grid=[1.0]
            )
        with pytest.raises(ValueError):
            CertificateBoundInput(
                certificates=[(2.0, 1.0)], b_samples=[[0.5, 1.0]], t_grid=[1.0]
            )
        with pytest.raises(ValueError):
            CertificateBoundInput(
                certificates=[(2.0, 1.0)],
                b_samples=[[0.0, 2.0], [1.0, 1.0]],
                t_grid=[1.0],
            )
        with pytest.raises(ValueError):
            CertificateBoundInput(
                certificates=[(2.0, 1.0)], b_samples=[[0.0, 1.0]], t_grid=[]
            )


class TestGainReport:
    def test_scalar(self, scalar_system):
        rep = gain_report(scalar_system, tol=1e-10)
        assert rep.exact is not None
        assert rep.exact.value == pytest.approx(1.0, abs=1e-9)
        assert rep.positivity is PositivityCertificate.ASSUMPTION_H
        assert rep.dims == (1, 1, 1)
        assert rep.exact.method == "dc"
        assert {e.method for e in rep.lowers} == {"dc", "sinusoid"}
        assert rep.uppers == ()
        for low in rep.lowers:
            assert low.value <= rep.exact.value + 1e-9

    def test_two_output_exact_from_positivity(self, diag_two_output):
        rep = gain_report(diag_two_output, tol=1e-9)
        assert rep.exact is not None
        assert rep.exact.method == "dc"
        assert rep.exact.value == pytest.approx(SQRT5_HALF, abs=1e-9)
        assert {e.method for e in rep.uppers} == {"l1-impulse", "onb"}

    def test_oscillator_brackets_gain(self, oscillator):
        rep = gain_report(oscillator, tol=1e-9)
        assert rep.exact is not None
        assert rep.exact.value == pytest.approx(OSCILLATOR_GAIN, abs=1e-7)
        for low in rep.lowers:
            assert low.value <= OSCILLATOR_GAIN + 1e-9
        for high in rep.uppers:
            if high.kind == "upper":
                assert high.value >= OSCILLATOR_GAIN - 1e-7

    def test_multi_input_reduced(self):
        sys = StateSpaceSystem(a=-np.eye(2), b=np.eye(2), c=[[1.0, 0.0]])
        rep = gain_report(sys)
        assert rep.exact is None
        assert rep.uppers == ()
        assert len(rep.lowers) == 1
        assert any("multi-input" in note for note in rep.notes)

    def test_sign_partition_positivity_needs_no_note(self, triangular_positive):
        rep = gain_report(triangular_positive, tol=1e-9)
        assert rep.positivity is PositivityCertificate.SIGN_PARTITION
        assert rep.notes == ()

    @pytest.mark.parametrize("n", [9, 19, 39])
    def test_heat_equation_dc_without_partition(self, n, monkeypatch):
        # u_t = u_xx on (0, 1), u(0) = v, u(1) = 0, y = u(0.3), on n interior
        # nodes: Metzler, so the gain is the dc value, and the discrete steady
        # state is linear in x, so that is 1 - 0.3 at every n.
        sys = heat_system(n)

        def refuse(*args, **kwargs):
            raise AssertionError("sign partition reached")

        monkeypatch.setattr(gains, "_sign_partition", refuse)
        rep = gain_report(sys)
        assert rep.positivity is PositivityCertificate.METZLER_NONNEG
        assert rep.exact.method == "dc"
        assert abs(rep.exact.value - 0.7) <= 1e-10
        assert rep.uppers == ()

    @pytest.mark.parametrize("seed, p", [(900, 1), (901, 1), (902, 2), (903, 3)])
    def test_sign_partition_dc_against_scipy_l1(self, seed, p):
        # A Metzler system with nonnegative b and C in random coordinates: its
        # kernels stay positive but its structure no longer shows it, so the
        # report certifies positivity by its L1 partition, and its dc figure
        # must meet SciPy's L1 gain within the tolerance it states.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        a = rng.uniform(0.0, 2.0, (n, n))
        a -= (float(np.max(np.linalg.eigvals(a).real)) + 0.3) * np.eye(n)
        t = rng.standard_normal((n, n)) + n * np.eye(n)
        t_inv = np.linalg.inv(t)
        b, c = rng.uniform(0.0, 2.0, (n, 1)), rng.uniform(0.0, 2.0, (p, n))
        sys = StateSpaceSystem(a=t @ a @ t_inv, b=t @ b, c=c @ t_inv)
        rep = gain_report(sys, tol=1e-8)
        assert rep.positivity is PositivityCertificate.SIGN_PARTITION
        assert rep.exact.method == "dc"
        t_end = 40.0 / 0.3
        l1 = [quad_kernel_integrals(sys.a, sys.b, row, t_end)[0] for row in sys.c]
        assert abs(float(np.linalg.norm(l1)) - rep.exact.value) <= rep.exact.tolerance

    def test_random_systems_self_consistent(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            sys = random_siso_system(rng, n_max=4)
            rep = gain_report(sys, tol=1e-8)  # must not raise ConsistencyError
            assert rep.exact is not None
            for low in rep.lowers:
                assert low.value <= rep.exact.value + 1e-6 * max(1.0, rep.exact.value)

    def test_inconsistency_detected(self, monkeypatch):
        def fake_sinusoid(sys, omegas=None):
            return GainEstimate(value=100.0, kind="lower", method="sinusoid", tolerance=0.0)

        monkeypatch.setattr(gains, "sinusoid_lower_bound", fake_sinusoid)
        with pytest.raises(ConsistencyError, match="^lower sinusoid=100.0 exceeds exact dc="):
            gain_report(StateSpaceSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]]))

    def test_exact_above_periodic_detected(self, oscillator, monkeypatch):
        # A periodic output short of the partial integral would leave the
        # exact value uncertified: a flow whose exp(AH) is -I halves it.
        class Reflected(gains._KernelFlow):
            def __init__(self, sys, ends):
                super().__init__(sys, ends)
                self.exp_end = -np.eye(sys.n)

        monkeypatch.setattr(gains, "_KernelFlow", Reflected)
        with pytest.raises(ConsistencyError, match="periodic input"):
            gain_report(oscillator)

    def test_siso_report_computes_l1_once(self, oscillator, monkeypatch):
        # The report's L1 figure comes from the partition it would share with
        # the ONB bound's drawn bases, and one output draws none.
        calls = []
        original = gains._l1_gain

        def counting(sys, extra_rows, tol):
            calls.append(extra_rows.shape[0])
            return original(sys, extra_rows, tol)

        monkeypatch.setattr(gains, "_l1_gain", counting)
        rep = gain_report(oscillator, tol=1e-8)
        assert calls == [0]
        assert rep.exact.method == "l1-impulse"
