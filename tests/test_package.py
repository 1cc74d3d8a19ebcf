"""The package's public surface: every module's ``__all__``, once each,
and every attribute that the benchmark's tracing wraps."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import gainlab
from gainlab import delay, exceptions, gains, linalg, quadrature, signals, sim

MODULES = (exceptions, linalg, quadrature, signals, gains, sim, delay)

# Every name the package exported before it re-exported its modules' __all__;
# none may be dropped.  (DelayState went with the all-zero z history it
# carried: simulate_predictor takes y0 and starts from a resting history.
# symmetric_eigen and steady_periodic_state went because no command reached
# them: the certificate reads its eigenvalues off numpy.linalg.eigh.
# empirical_gains and EmpiricalGains went because no command reached them:
# verify and delay-demo measure their outputs with sim._measured_gains.)
EXPORTED = """
__version__ GainlabError DimensionError NotHurwitzError LyapunovSolveError
SimulationError ConsistencyError mat_exp lyapunov_solve is_hurwitz
spectral_norm StabilityCertificate stability_certificate
StructureFlags structure_flags StateSpaceSystem adaptive_simpson tail_horizon
Zero Constant Sinusoid BangBangInput PeriodicExtension signal_dim sup_norm
evaluate iter_segments GainEstimate GainReport VCurve PositivityCertificate
CertificateBoundInput l1_impulse_gain dc_gain positivity_certificate
max_terminal_output vcurve bang_bang_switches sinusoid_response sinusoid_sweep
sinusoid_lower_bound onb_upper_bound periodic_upper_estimate
certificate_cell_value certificate_gain_bound gain_report Trajectory simulate
WorstCaseSpec worst_case_periodic_input GainEqualityRecord verify_gain_equality
DelayPredictorSystem DelayTrajectory simulate_predictor predictor_error_series
predictor_error_residual DelayBoundReport delay_bounds DelayEmpiricalEntry
DelayEmpiricalCheck delay_empirical_check
""".split()


def test_no_name_exported_twice():
    assert len(gainlab.__all__) == len(set(gainlab.__all__))


def test_exports_are_the_modules_public_names():
    names = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert set(gainlab.__all__) == names
    assert {"as_matrix", "gauss_legendre", "InputSignal"} <= names


def test_every_export_resolves_to_its_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gainlab, name) is getattr(module, name)
    assert gainlab.__version__ == "0.1.0"


def test_no_earlier_export_dropped():
    assert len(EXPORTED) == len(set(EXPORTED)) == 62
    assert set(EXPORTED) <= set(gainlab.__all__)


def test_every_tracing_boundary_resolves(monkeypatch):
    # perfbench/tracing.py wraps gainlab.<module>.<attribute> for each of its
    # BOUNDARIES; an attribute that a change moves or deletes breaks it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert len(tracing.BOUNDARIES) == 35
    for module_name, attr, _, _ in tracing.BOUNDARIES:
        module = importlib.import_module(f"gainlab.{module_name}")
        assert callable(getattr(module, attr, None)), f"gainlab.{module_name}.{attr}"


def test_power_of_two_scaling_lives_in_linalg():
    # linalg._power_of_two_at is the package's one exact power-of-two scale
    # and _spectral_norms its one overflow-safe norm: no other module calls
    # frexp or ldexp, from numpy or math, or imports them by name.
    users = set()
    for path in Path(gainlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):  # np.frexp(...), math.ldexp(...), frexp(...)
                names = {getattr(node.func, "attr", getattr(node.func, "id", None))}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & {"frexp", "ldexp"}:
                users.add(path.stem)
    assert users == {"linalg"}


def test_no_module_imports_dataclasses():
    # Records subclass gainlab._record.Record, which generates no code:
    # dataclasses compiled six methods per class with exec at every import.
    users = set()
    for path in Path(gainlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module}
            else:
                continue
            if "dataclasses" in names:
                users.add(path.stem)
    assert users == set()


def test_no_module_reads_the_environment():
    # A tolerance comes from --tol, the model file or the default, never from
    # the environment: no module names os.environ or os.getenv, as an
    # attribute or in an import.
    readers = set()
    for path in Path(gainlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in {"environ", "getenv"}:
                readers.add(path.stem)
    assert readers == set()
