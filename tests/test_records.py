"""The immutable records: each is an ``algebra._Record`` subclass with
``__slots__`` that compares, hashes, prints and pickles by its fields."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from dunkl_pauli.algebra import WignerParams, _Record
from dunkl_pauli.angular import AngularEigenpair, Poly1, TrigPoly
from dunkl_pauli.radial_oracle import ComparisonRow, RadialProblem
from dunkl_pauli.spectrum import OscillatorScale, SectorState
from dunkl_pauli.thermo import ThermoCurve, ThermoInputs
from dunkl_pauli.verify import DiscrepancyFinding

P = WignerParams(F(2, 5), 0)
POINT = ThermoInputs(1.0, 0.5, 0.25)

# (class, every field positionally, how many trailing fields are defaults,
# the repr as printed before the records had a common base)
CASES = [
    (WignerParams, (F(2, 5), 0), 0,
     "WignerParams(nu1=Fraction(2, 5), nu2=Fraction(0, 1))"),
    (TrigPoly, (Poly1(), Poly1()), 2, "TrigPoly(even=[], odd=[])"),
    (AngularEigenpair,
     (1, F(0), 1, 0.0, (TrigPoly.one(),), (F(0), F(0)), (1 + 0j,), P, False), 1,
     "AngularEigenpair(epsilon=1, ell=Fraction(0, 1), branch=1, lam=0.0, "
     "basis=(TrigPoly(even=[Fraction(1, 1)], odd=[]),), "
     "restriction=(Fraction(0, 1), Fraction(0, 1)), weights=((1+0j),), "
     "params=WignerParams(nu1=Fraction(2, 5), nu2=Fraction(0, 1)), "
     "is_constant_mode=False)"),
    (OscillatorScale, (1.0,), 1, "OscillatorScale(omega_c=1.0)"),
    (SectorState, (1, -1, 2, F(1, 2), -1, 1), 1,
     "SectorState(eps1=1, eps2=-1, n=2, ell=Fraction(1, 2), m_s=-1, branch=1)"),
    (ThermoInputs, (1.0, 0.5, 0.25, "consistent"), 1,
     "ThermoInputs(x=1.0, rho=0.5, eta=0.25, mode='consistent')"),
    (ThermoCurve, ("U", (0.5, 1.0), (1.0, 2.0), POINT), 0,
     "ThermoCurve(quantity='U', grid=(0.5, 1.0), values=(1.0, 2.0), "
     "provenance=ThermoInputs(x=1.0, rho=0.5, eta=0.25, mode='consistent'))"),
    (RadialProblem, (1.5, -1, P), 0,
     "RadialProblem(lam=1.5, epsilon=-1, "
     "params=WignerParams(nu1=Fraction(2, 5), nu2=Fraction(0, 1)))"),
    (ComparisonRow, (1, 1, F(1), 0, 1, 2.0000001, 2.0), 0,
     "ComparisonRow(eps1=1, eps2=1, ell=Fraction(1, 1), n=0, m_s=1, "
     "oracle=2.0000001, closed_form=2.0)"),
    (DiscrepancyFinding, ("key", True, "detail"), 0,
     "DiscrepancyFinding(key='key', confirmed=True, detail='detail')"),
]


def test_every_record_is_a_case():
    # the package's own; a test may make a throwaway subclass
    package = {cls for cls in _Record.__subclasses__()
               if cls.__module__.startswith("dunkl_pauli")}
    assert {case[0] for case in CASES} == package


@pytest.mark.parametrize("cls, fields, defaults, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_the_record_contract(cls, fields, defaults, text):
    record = cls(*fields)
    assert repr(record) == str(record) == text
    assert not hasattr(record, "__dict__")
    # positional, keyword and default construction give one record
    assert cls(**dict(zip(cls.__slots__, fields))) == record
    assert cls(*fields[:len(fields) - defaults]) == record
    # equal fields: equal records with equal hashes; no other class is equal
    twin = cls(*fields)
    assert twin == record and hash(twin) == hash(record)
    assert record != tuple(getattr(record, name) for name in cls.__slots__)
    other = next(c(*args) for c, args, _, _ in CASES if c is not cls)
    assert record != other and other != record
    # nor a record of another class with the same fields and name
    namesake_class = type(cls.__name__, (_Record,), {"__slots__": cls.__slots__})
    namesake = object.__new__(namesake_class)
    namesake._set(*[getattr(record, name) for name in cls.__slots__])
    assert namesake != record and record != namesake
    # immutable: no field may be assigned or deleted, and none added
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == text


def test_records_with_a_different_field_differ():
    assert WignerParams(F(2, 5), 0) != WignerParams(0, F(2, 5))
    assert SectorState(1, 1, 0, 1, 1) != SectorState(1, 1, 0, 1, 1, -1)
    assert ThermoInputs(1.0, 0.5, 0.25) != ThermoInputs(1.0, 0.5, 0.25,
                                                        "paper-faithful")
