"""The package's public name list, its lazy namespace and its records."""

import copy
import importlib
import math
import pickle

import pytest

import bose_eos
from bose_eos import BoxSpec, DomainError, GasSpec, SweepRequest


def test_every_public_name_resolves_once():
    # a plain import does not catch a stale entry left by a removed name
    missing = [name for name in bose_eos.__all__ if not hasattr(bose_eos, name)]
    assert missing == []
    assert len(set(bose_eos.__all__)) == len(bose_eos.__all__)


@pytest.mark.parametrize("name", bose_eos.__all__)
def test_public_name_is_the_object_of_its_defining_module(name):
    value = getattr(bose_eos, name)
    module = importlib.import_module(f"bose_eos.{bose_eos._MODULE_OF[name]}")
    assert value is getattr(module, name)
    if callable(value):  # the defining module, not one that imports the name
        assert value.__module__ == module.__name__


def test_dir_covers_the_public_names():
    assert set(bose_eos.__all__) <= set(dir(bose_eos))
    assert "__version__" in dir(bose_eos)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bose_eos.no_such_name
    with pytest.raises(ImportError):
        from bose_eos import no_such_name


RECORDS = (
    "BoxSpec CheckResult CorrelationQuantities DerivativeEstimate EvalResult ExponentSet "
    "FitResult GasSpec IsobarPoint LandauModel SweepRequest SweepTable ThermoPoint"
).split()

SPEC = GasSpec(d=3.0, sigma=2.0)
REQUEST = SweepRequest(spec=SPEC, constraint="density", value=1.0, T_min=0.5, T_max=2.0, points=5)


@pytest.mark.parametrize("name", RECORDS)
def test_every_public_record_is_a_named_tuple(name):
    record = getattr(bose_eos, name)
    assert issubclass(record, tuple) and record._fields
    assert name in bose_eos.__all__


@pytest.mark.parametrize(
    "record, field, bad",
    [
        (SPEC, "sigma", 5.0),
        (REQUEST, "points", 1),
        (REQUEST, "T_max", math.inf),
        (BoxSpec(L=8.0, d=3), "d", 4),
    ],
)
def test_validation_holds_for_replace_and_make(record, field, bad):
    # namedtuple's own _make, which _replace calls, would skip __new__
    with pytest.raises(DomainError):
        record._replace(**{field: bad})
    values = [bad if name == field else value for name, value in zip(record._fields, record)]
    with pytest.raises(DomainError):
        type(record)._make(values)
    good = record._replace(**{field: getattr(record, field)})
    assert good == record and type(good) is type(record)


@pytest.mark.parametrize(
    "record",
    [
        SPEC,
        GasSpec(d=3.0, sigma=1.5, mass=1.443e-25, units="si"),
        REQUEST,
        BoxSpec(L=8.0, d=3, n_max=16),
        bose_eos.solve_gap_isochore(SPEC, 2.0, 1.0),
        bose_eos.run_sweep(REQUEST),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_round_trip_and_are_immutable(record):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert copied == record and type(copied) is type(record)
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.no_such_field = None
