"""Theorem 4.1 cells against the one-sample-at-a-time reference, on drawn
envelopes and on one large envelope."""

import json
import math
import time

import numpy as np
import pytest

from gainlab import CertificateBoundInput, certificate_cell_value, certificate_gain_bound
from gainlab.cli import main
from gainlab_testkit import reference_certificate_cell_value

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# np.exp and math.exp may differ in the last bit; a cell carries that
# difference through a product, a quotient and a sum.
ULPS = 4


def assert_same_cell(ours, ref):
    if ref is None:
        assert ours is None
    else:
        assert abs(ours - ref) <= ULPS * np.spacing(abs(ref)), (ours, ref)


@st.composite
def envelopes(draw):
    """A validated envelope of one sample, a few or up to 300, some steps
    flat; a certificate (M, sigma); and horizons at every sample time past
    t_0, between samples, below t_1, past the last sample and at the edge
    M exp(-sigma T) = 1 where cells start to count."""
    k = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.concatenate(([0.0], np.cumsum(rng.exponential(draw(st.floats(0.01, 5.0)), k - 1))))
    levels = np.cumsum(rng.exponential(1.0, k) * (rng.random(k) < 0.7))
    data = CertificateBoundInput(
        certificates=[(draw(st.floats(1.0, 50.0)), draw(st.floats(1e-3, 10.0)))],
        b_samples=np.column_stack((times, levels)),
        t_grid=[1.0],
    )
    (m_const, sigma), last = data.certificates[0], times[-1]
    edge = math.log(m_const) / sigma
    first = times[1] if k > 1 else last + 1.0
    horizons = np.concatenate((
        times[1:],
        (times[1:] + times[:-1]) / 2.0,
        first * rng.uniform(0.0, 1.0, 3),
        last + rng.exponential(1.0 + edge, 3),
        edge * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12]),
    ))
    return m_const, sigma, data.b_samples, [float(t) for t in horizons if t > 0.0]


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(envelopes())
def test_cell_matches_per_sample_reference(case):
    m_const, sigma, samples, horizons = case
    for horizon in horizons:
        assert_same_cell(
            certificate_cell_value(m_const, sigma, samples, horizon),
            reference_certificate_cell_value(m_const, sigma, samples, horizon),
        )


def test_cell_reads_right_open_step_envelope():
    # b(T) at T = t_1 is b_1, and t_1 itself is no candidate; below t_1 only
    # t_0 is, with b(T) = b_0.
    samples = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 7.0]])
    decay = 2.0 * math.exp(-2.0)
    assert certificate_cell_value(2.0, 1.0, samples, 2.0) == pytest.approx(
        2.0 * 3.0 / (1.0 - decay) + 1.0, rel=1e-15
    )
    decay = 2.0 * math.exp(-1.5)
    assert certificate_cell_value(2.0, 1.0, samples, 1.5) == pytest.approx(
        2.0 * 1.0 / (1.0 - decay) + 1.0, rel=1e-15
    )


def test_unvalidated_samples_keep_their_answers():
    # Samples not starting at t = 0 reach the cell only through a direct
    # library call: no t_k below T gives -inf, whatever b(T) is.
    samples = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert certificate_cell_value(1.0, 1.0, samples, 0.5) == -math.inf
    assert certificate_cell_value(1.0, 1.0, samples, 1.0) == -math.inf
    assert reference_certificate_cell_value(1.0, 1.0, samples, 0.5) == -math.inf
    assert certificate_cell_value(1.0, 1.0, samples, 1.5) == pytest.approx(
        math.exp(-1.0) * 2.0 / (1.0 - math.exp(-1.5)) + 2.0, rel=1e-15
    )


def large_envelope():
    """3 certificates, 200 horizons, 5,000 samples of a linearly growing
    envelope, so that cells, not the envelope supremum, give the bound."""
    times = np.linspace(0.0, 50.0, 5000)
    return {
        "certificates": [[2.0, 0.5], [5.0, 1.0], [1.5, 0.2]],
        "b_samples": np.column_stack((times, times / 10.0)).tolist(),
        "T_grid": np.linspace(0.25, 60.0, 200).tolist(),
    }


def test_large_envelope_bound_is_fast_and_matches_reference():
    doc = large_envelope()
    data = CertificateBoundInput(doc["certificates"], doc["b_samples"], doc["T_grid"])
    start = time.perf_counter()
    est = certificate_gain_bound(data)
    assert time.perf_counter() - start < 0.5
    cells = est.details["cells"]
    assert len(cells) > 500 and not est.details["used_fallback"]
    for cell in cells:
        ref = reference_certificate_cell_value(cell["m"], cell["sigma"], data.b_samples, cell["horizon"])
        assert_same_cell(cell["value"], ref)
    assert est.value == min(cell["value"] for cell in cells)


def test_large_envelope_cli_document(tmp_path, capsys):
    path = tmp_path / "b41.json"
    path.write_text(json.dumps(large_envelope()))
    start = time.perf_counter()
    assert main(["bound41", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "theorem41"
    assert len(doc["details"]["cells"]) > 500
