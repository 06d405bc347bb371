"""The record contract: the 25 value classes against frozen dataclass twins,
construction, frozenness, and an import of the CLI without dataclasses."""

import copy
import dataclasses
import itertools
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import bratteli
from bratteli import (
    Leg,
    NumericValue,
    OrderedDiagram,
    PathWord,
    StationaryDiagram,
    Substitution,
    aperiodicity_check,
    core_membership,
    core_preimage_oracle,
    decompose,
    distinguished_eigenvector,
    eigenvalue_check,
    empirical_orbit_frequency,
    enumerate_ergodic,
    enumerate_infinite,
    growth_check,
    make_diamond,
    measure_from_point,
    measure_record,
    nonmixing_witness,
    p_sequence,
    substitution_measures,
    validate,
    verify_invariance,
)
from bratteli.record import FrozenInstanceError, record

SRC = Path(__file__).resolve().parents[1] / "src"

# The field names of every record, in order, as the dataclasses had them.
FIELDS = {
    "AperiodicityResult": ("kind", "witness_class", "reason"),
    "ComponentClass": ("index", "vertices", "block", "is_zero", "rho", "imprimitivity",
                       "distinguished", "perron"),
    "ComponentDecomposition": ("diagram", "a_matrix", "classes", "class_of", "access",
                               "initial_classes", "final_classes", "fnf_permutation"),
    "CoreOracleResult": ("feasible", "k", "preimage", "certificate"),
    "CoreVerdict": ("kind", "k", "coefficients"),
    "Diagnostic": ("kind", "vertex", "message"),
    "Diamond": ("leg_a", "leg_b", "class_id"),
    "Eigendata": ("alpha", "lam", "xi", "support_classes"),
    "EigenvalueVerdict": ("passed", "theta", "window", "decisive", "fail_n", "fail_diamond",
                          "fail_vertex"),
    "ErgodicMeasure": ("decomp", "class_id", "lam", "xi", "support"),
    "GrowthReport": ("verdicts",),
    "InvarianceReport": ("n_max", "checks_run", "violations", "skipped"),
    "InvariantMeasure": ("measures", "coefficients"),
    "Leg": ("vertices", "mults"),
    "MeasureRecord": ("class_id", "members", "type", "eigenvalue", "eigenvector", "support"),
    "NonmixingReport": ("alpha", "diamond", "limit", "path", "mass"),
    "NumericValue": ("value", "residual_bound"),
    "OrbitFrequency": ("visits", "steps", "exhausted", "working_level"),
    "OrderedDiagram": ("base", "order"),
    "PSequence": ("diamond", "values", "coefficients"),
    "PathWord": ("vertices", "indices"),
    "StationaryDiagram": ("incidence", "labels"),
    "Substitution": ("alphabet", "rules"),
    "SubstitutionMeasures": ("substitution", "ordered", "telescope_power", "decomp", "ergodic",
                             "infinite", "unique_ergodic"),
    "TailMeasure": ("decomp", "class_id", "lam", "y", "atomic", "base"),
}

DEFAULTS = {
    "AperiodicityResult": {"witness_class": None, "reason": None},
    "CoreVerdict": {"k": None, "coefficients": None},
    "Diamond": {"class_id": None},
    "EigenvalueVerdict": {"fail_n": None, "fail_diamond": None, "fail_vertex": None},
    "NumericValue": {"residual_bound": None},
    "PathWord": {"indices": ()},
    "StationaryDiagram": {"labels": None},
}


def _samples():
    """Class name -> instances built by the library, two or more each."""
    b1 = StationaryDiagram(((2, 0), (1, 2)))
    b2 = StationaryDiagram(((2, 1, 0), (0, 2, 0), (0, 1, 2)))
    morse = StationaryDiagram(tuple(zip(*((1, 1, 0, 0, 1), (1, 1, 0, 0, 0), (0, 0, 1, 1, 1),
                                          (0, 0, 1, 1, 0), (0, 0, 0, 0, 3)))))
    odometer = OrderedDiagram(StationaryDiagram(((2,),)), ((0, 0),))
    wm_a = OrderedDiagram(StationaryDiagram(((2, 0), (2, 3))), ((0, 0), (0, 1, 1, 1, 0)))
    thue_morse = Substitution(("a", "b"), {"a": "ab", "b": "ba"})
    sigma = Substitution(("a", "b", "c"), {"a": "abb", "b": "ab", "c": "accb"})
    dec1, dec2, dec_m = decompose(b1), decompose(b2), decompose(morse)
    ergodic = enumerate_ergodic(morse)
    legs = [Leg((1, 1), (m,)) for m in range(3)]
    diamonds = [make_diamond(wm_a, legs[0], legs[1]), make_diamond(wm_a, legs[0], legs[2])]
    paths = [PathWord((1,)), PathWord((1, 1), (2,))]
    return {
        "AperiodicityResult": [aperiodicity_check(dec1),
                               aperiodicity_check(decompose(StationaryDiagram(((1,),))))],
        "ComponentClass": list(dec1.classes + dec2.classes),
        "ComponentDecomposition": [dec1, dec2, decompose(StationaryDiagram(b1.incidence))],
        "CoreOracleResult": [core_preimage_oracle(dec1.a_matrix, (1, 1), k) for k in (1, 3)],
        "CoreVerdict": [core_membership(dec1, x) for x in ((2, 0), (0, 1), (1, 1))],
        "Diagnostic": validate(StationaryDiagram(((0, 0, 0), (1, 1, 0), (1, 1, 0)))),
        "Diamond": diamonds + [make_diamond(wm_a, legs[0], legs[1], class_id=1)],
        "Eigendata": [distinguished_eigenvector(dec_m, e.class_id) for e in ergodic],
        "EigenvalueVerdict": [eigenvalue_check(wm_a, 1, 0),
                              eigenvalue_check(wm_a, 1, Fraction(1, 5), window=(2, 6))],
        "ErgodicMeasure": ergodic,
        "GrowthReport": [growth_check(thue_morse),
                         growth_check(Substitution(("a", "b"), {"a": "ab", "b": "b"}))],
        "InvarianceReport": [verify_invariance(morse, ergodic[0], n) for n in (2, 3)],
        "InvariantMeasure": [measure_from_point(morse, p) for p in
                             ((Fraction(2, 9), Fraction(1, 9), Fraction(2, 9), Fraction(1, 9),
                               Fraction(1, 3)),
                              (Fraction(1, 2), Fraction(1, 2), 0, 0, 0))],
        "Leg": legs,
        "MeasureRecord": [measure_record(m) for m in ergodic + enumerate_infinite(morse)],
        "NonmixingReport": [nonmixing_witness(wm_a, 1, dm) for dm in diamonds],
        "NumericValue": [NumericValue(Fraction(3)), NumericValue(2.5, 1e-12), NumericValue(3)],
        "OrbitFrequency": [empirical_orbit_frequency(odometer, PathWord((0,)), 32,
                                                     PathWord((0, 0), (0,))),
                           empirical_orbit_frequency(odometer, PathWord((0,)), 50,
                                                     PathWord((0, 0), (1,)))],
        "OrderedDiagram": [odometer, wm_a],
        "PSequence": [p_sequence(wm_a, diamonds[0], n) for n in (4, 5)],
        "PathWord": paths,
        "StationaryDiagram": [b1, b2, StationaryDiagram(b1.incidence, ("x", "y"))],
        "Substitution": [thue_morse, sigma],
        "SubstitutionMeasures": [substitution_measures(thue_morse), substitution_measures(sigma)],
        "TailMeasure": enumerate_infinite(b2),
    }


def _twin(name):
    """A frozen dataclass with the record's name and fields: the oracle."""
    return dataclasses.make_dataclass(name, FIELDS[name], frozen=True)


def _values(obj):
    return [getattr(obj, name) for name in FIELDS[type(obj).__name__]]


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


class TestAgainstDataclassTwins:
    def test_every_public_record_is_covered(self):
        records = {name for name in bratteli.__all__
                   if isinstance(getattr(bratteli, name), type)
                   and "_fields" in vars(getattr(bratteli, name))}
        assert records == FIELDS.keys() and len(records) == 25
        for name in records:
            cls = getattr(bratteli, name)
            assert cls._fields == FIELDS[name]
            assert {f: vars(cls)[f] for f in FIELDS[name] if f in vars(cls)} == \
                DEFAULTS.get(name, {})

    def test_repr_eq_and_hash_match_the_twin(self):
        samples = _samples()
        assert samples.keys() == FIELDS.keys()
        for name, objs in samples.items():
            twin = _twin(name)
            twins = [twin(*_values(obj)) for obj in objs]
            assert len(objs) >= 2 and len(set(map(repr, objs))) >= 2, name
            for obj, tw in zip(objs, twins):
                assert type(obj).__name__ == name
                assert repr(obj) == repr(tw)
                assert _hash_or_error(obj) == _hash_or_error(tw)
                rebuilt = type(obj)(*_values(obj))
                assert rebuilt == obj and not rebuilt != obj
                assert obj != tw and tw != obj
            for (a, ta), (b, tb) in itertools.product(zip(objs, twins), repeat=2):
                assert (a == b) == (ta == tb), (name, a, b)
                assert (a != b) == (ta != tb), (name, a, b)

    def test_records_of_different_classes_are_not_equal(self):
        # same field values, different classes: as for dataclasses, no equality
        path, leg = PathWord((0, 1), (0,)), Leg((0, 1), (0,))
        assert path._values(path) == leg._values(leg)
        assert path != leg and leg != path
        assert path.__eq__(leg) is NotImplemented
        assert path.__eq__((path.vertices, path.indices)) is NotImplemented


@record
class Point:
    x: int
    y: int = 0
    label: str = "p"


@record
class Magnitude:
    """A record with a __post_init__ and a cached property."""

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int):
            raise TypeError("value must be an int")
        object.__setattr__(self, "value", abs(self.value))

    @cached_property
    def double(self):
        return 2 * self.value


class TestConstruction:
    def test_positional_keyword_and_default_arguments(self):
        want = Point(1, 0, "p")
        assert Point(1) == Point(x=1) == Point(1, y=0) == Point(label="p", x=1) == want
        assert Point(1, label="q") == Point(1, 0, "q")
        assert repr(Point(1, label="q")) == "Point(x=1, y=0, label='q')"
        assert PathWord((1,)).indices == ()
        assert bratteli.CoreVerdict("unknown") == bratteli.CoreVerdict(kind="unknown", k=None)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, r"missing required argument 'x'"),
        ((), {"y": 1}, r"missing required argument 'x'"),
        ((1, 2, "p", 4), {}, r"takes 3 positional arguments but 4 were given"),
        ((1,), {"z": 2}, r"unexpected keyword argument 'z'"),
        ((1,), {"x": 2}, r"multiple values for argument 'x'"),
        ((1, 2), {"y": 3}, r"multiple values for argument 'y'"),
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Point(*args, **kwargs)

    def test_post_init_runs_after_the_fields_are_set(self):
        assert Magnitude(-3).value == 3
        assert Magnitude(value=-3) == Magnitude(3)
        with pytest.raises(TypeError, match="must be an int"):
            Magnitude("3")
        # the library's own checks and normalizations
        assert Substitution(["a", "b"], {"a": "ab", "b": "ba"}).alphabet == ("a", "b")
        with pytest.raises(ValueError, match="length at least 1"):
            PathWord(())

    def test_cached_properties_stay_outside_eq_hash_and_repr(self):
        m = Magnitude(4)
        assert m.double == 8 and vars(m)["double"] == 8
        assert m == Magnitude(4) and hash(m) == hash(Magnitude(4))
        assert repr(m) == "Magnitude(value=4)"

    def test_pickle_and_copy_rebuild_from_the_fields(self):
        # a diagram holds its decomposition by a weak reference, which
        # pickle refuses; a record is rebuilt from its fields, caches left out
        wm_a = OrderedDiagram(StationaryDiagram(((2, 0), (2, 3))), ((0, 0), (0, 1, 1, 1, 0)))
        mu = enumerate_ergodic(wm_a.base)[1]
        mu.value(3, 1)
        assert wm_a._decomposition is mu.decomp and "_decomposition" in vars(wm_a.base)
        for obj in (wm_a.base, wm_a, mu, mu.decomp):
            for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
                assert again == obj and type(again) is type(obj)
                assert vars(again).keys() == set(obj._fields)
        assert pickle.loads(pickle.dumps(mu)).value(3, 1) == mu.value(3, 1)


class TestFrozen:
    def test_assignment_and_deletion_raise(self):
        for obj, name in ((Point(1), "x"), (Point(1), "other"), (PathWord((0,)), "vertices")):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 5)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        p = Point(1)
        with pytest.raises(FrozenInstanceError, match="cannot delete field 'x'"):
            del p.x
        assert p == Point(1)
        assert issubclass(FrozenInstanceError, AttributeError)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import bratteli.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"
