"""The contract of the package's one record base, ``gainlab._record.Record``:
immutable value types whose fields, order and defaults come from the class
body, built without generating code."""

import json

import numpy as np
import pytest

from gainlab import (
    BangBangInput,
    CertificateBoundInput,
    Constant,
    DelayBoundReport,
    DelayEmpiricalCheck,
    DelayEmpiricalEntry,
    DelayPredictorSystem,
    DelayTrajectory,
    GainEqualityRecord,
    GainEstimate,
    GainReport,
    PeriodicExtension,
    Sinusoid,
    StabilityCertificate,
    StateSpaceSystem,
    StructureFlags,
    Trajectory,
    VCurve,
    Zero,
)
from gainlab._record import Record
from gainlab.signals import Segment

# Every record type with its fields in order, and each default, as the
# frozen dataclasses they replace declared them.
FIELDS = {
    StabilityCertificate: ("p", "m", "sigma"),
    StructureFlags: ("metzler", "nonnegative_b", "nonnegative_c", "assumption_h"),
    Zero: ("dim",),
    Constant: ("u0",),
    Sinusoid: ("direction", "omega", "phase"),
    BangBangInput: ("horizon", "switch_times", "initial_sign", "zero_kernel"),
    PeriodicExtension: ("base", "base_span", "period"),
    Segment: ("start", "end", "kind", "value", "direction", "omega", "theta0"),
    GainEstimate: ("value", "kind", "method", "tolerance", "details"),
    VCurve: ("horizons", "values", "directions", "exact"),
    CertificateBoundInput: ("certificates", "b_samples", "t_grid"),
    GainReport: (
        "exact", "lowers", "uppers", "dims", "structure", "positivity", "certificate",
        "tolerance", "seed", "notes",
    ),
    Trajectory: ("times", "states", "outputs", "step"),
    GainEqualityRecord: (
        "gamma", "horizon", "rest", "period", "sup_gain", "asymptotic_gain",
        "lower_target", "upper_limit", "accuracy", "passed",
    ),
    DelayTrajectory: ("times", "ys", "zs", "xis", "step", "history_steps", "kernels", "exp_a_tau"),
    DelayBoundReport: (
        "m_const", "sigma", "g_norm", "phi_integral", "phi_tau", "r_integral",
        "oag_bound", "ios_bound", "quad_tol",
    ),
    DelayEmpiricalEntry: ("sup_gain", "asymptotic_gain", "gap_to_oag", "within"),
    DelayEmpiricalCheck: ("bounds", "entries", "all_within_oag", "tolerance"),
}
DEFAULTS = {
    Zero: {"dim": 1},
    Sinusoid: {"phase": 0.0},
    BangBangInput: {"initial_sign": 1, "zero_kernel": False},
    Segment: {"value": None, "direction": None, "omega": 0.0, "theta0": 0.0},
    GainEstimate: {"details": None},
}


def flags(**changes):
    fields = {"metzler": True, "nonnegative_b": False, "nonnegative_c": True, "assumption_h": False}
    return StructureFlags(**{**fields, **changes})


def test_every_record_keeps_its_fields_order_and_defaults():
    assert len(FIELDS) == 18
    for cls, fields in FIELDS.items():
        assert issubclass(cls, Record)
        assert cls._fields == fields, cls.__name__
        defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        assert defaults == DEFAULTS.get(cls, {}), cls.__name__


def test_the_two_systems_are_plain_objects_equal_only_to_themselves():
    one = StateSpaceSystem([[-1.0]], [[1.0]], [[1.0]])
    two = StateSpaceSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]])
    assert one == one and one != two and len({one, two}) == 2
    assert list(vars(one)) == ["a", "b", "c", "certificate"]
    loop = DelayPredictorSystem([[0.0]], [[1.0]], [[1.0]], [[-1.0]], 0.5, 2.0)
    assert not isinstance(one, Record) and not isinstance(loop, Record)
    assert loop == loop and loop != DelayPredictorSystem(
        a=[[0.0]], b=[[1.0]], g=[[1.0]], k=[[-1.0]], tau=0.5, mu=2.0
    )
    assert list(vars(loop)) == ["a", "b", "g", "k", "tau", "mu", "certificate"]


def test_assignment_and_deletion_are_refused():
    record = flags()
    with pytest.raises(AttributeError, match="cannot assign to field 'metzler'"):
        record.metzler = False
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field 'metzler'"):
        del record.metzler
    assert record == flags()


def test_equality_and_hash_go_by_type_and_fields():
    assert flags() == flags() and hash(flags()) == hash(flags())
    assert flags() != flags(assumption_h=True)
    assert len({flags(), flags(), flags(metzler=False)}) == 2

    class Twin(Record):
        metzler: bool
        nonnegative_b: bool
        nonnegative_c: bool
        assumption_h: bool

    twin = Twin(**vars(flags()))
    assert vars(twin) == vars(flags())
    assert twin != flags() and flags() != twin
    assert (flags() == 1) is False


def test_vars_lists_the_fields_in_declaration_order_whatever_the_keyword_order():
    est = GainEstimate(details={"k": 1}, tolerance=0.5, method="dc", kind="lower", value=2.0)
    assert list(vars(est)) == list(FIELDS[GainEstimate])
    assert json.dumps({**vars(est)}) == (
        '{"value": 2.0, "kind": "lower", "method": "dc", "tolerance": 0.5, "details": {"k": 1}}'
    )
    seg = Segment(theta0=0.5, kind="sin", end=2.0, start=1.0, omega=3.0)
    assert list(vars(seg)) == list(FIELDS[Segment])


def test_defaults_apply_and_no_two_estimates_share_details():
    one, two = GainEstimate(1.0, "lower", "dc", 0.0), GainEstimate(1.0, "lower", "dc", 0.0)
    assert one.details == {} and two.details == {} and one.details is not two.details
    assert GainEstimate(1.0, "lower", "dc", 0.0, None).details == {}
    seg = Segment(0.0, 1.0, "const")
    assert (seg.value, seg.direction, seg.omega, seg.theta0) == (None, None, 0.0, 0.0)
    assert Zero().dim == 1


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((0.0, 1.0), {}, "Segment is missing kind"),
        ((), {"end": 1.0, "omega": 2.0}, "Segment is missing start, kind"),
        ((0.0, 1.0, "const"), {"colour": 1}, "Segment has only the fields start, end, kind"),
        ((0.0, 1.0, "const", None, None, 0.0, 0.0, 9.0), {}, "Segment has only the fields"),
        ((0.0, 1.0, "const"), {"start": 0.0}, "Segment got a field twice"),
    ],
)
def test_a_missing_unknown_or_repeated_field_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Segment(*args, **kwargs)


def test_positional_and_keyword_construction_give_equal_records():
    v = np.zeros(2)
    assert Segment(0.0, 1.0, "const", v) == Segment(start=0.0, end=1.0, kind="const", value=v)
    assert Segment(0.0, 1.0, "sin", None, v, 2.0, 0.5) == Segment(
        0.0, 1.0, "sin", direction=v, omega=2.0, theta0=0.5
    )
    assert flags() == StructureFlags(True, False, True, False)


def test_post_init_normalizes_and_validates_each_construction():
    u = Constant([3, 4])
    assert u.u0.dtype == float and list(vars(u)) == ["u0"]
    with pytest.raises(ValueError, match="unknown estimate kind"):
        GainEstimate(1.0, "guess", "dc", 0.0)
    est = GainEstimate(1.0, "lower", "dc", 0.0, {"k": 1})
    changed = type(est)(**{**vars(est), "value": 3.0})
    assert vars(changed) == {**vars(est), "value": 3.0}
    with pytest.raises(ValueError, match="estimate value must be finite"):
        type(est)(**{**vars(est), "value": -1.0})
