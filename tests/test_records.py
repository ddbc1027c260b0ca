"""The six records of the package behave as frozen dataclasses did, and no module loads `dataclasses`."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qlaplacian
from qlaplacian.cartan import CenterElement, SimpleType, Weight, build_root_system, check_dominant_integral
from qlaplacian.errors import InvariantError, ResourceCapError
from qlaplacian.spectra import GeneralFunctionalSpec, LaplacianSpec, classical_laplacian_eigenvalue
from qlaplacian.weights import weight_system

RECORDS = {
    "SimpleType": lambda: SimpleType("A", 2),
    "Weight": lambda: Weight((1, 0)),
    "CenterElement": lambda: CenterElement((1, 0)),
    "RootSystem": lambda: build_root_system(["A1xG2"], Fraction(3, 2)),
    "LaplacianSpec": lambda: LaplacianSpec.of([((1, 0), Fraction(1, 2)), ((0, 1), 2.5)]),
    "GeneralFunctionalSpec": lambda: GeneralFunctionalSpec.of([(CenterElement((1, 0)), (1, 0), 1 - 2j)]),
}


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__slots__)


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]()


def test_a_record_cannot_be_changed(record):
    for name in (*type(record).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")


def test_a_record_equals_only_its_own_class(record):
    values = fields(record)
    assert record != values and values != record and not record == values
    assert record != object()
    assert Weight((1, 0)) != CenterElement((1, 0))


def test_a_record_hashes_as_the_tuple_of_its_fields(record):
    twin = RECORDS[type(record).__name__]()
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(fields(record))


def test_copy_deepcopy_and_pickle_give_an_equal_record(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record and hash(clone) == hash(record)


def test_the_constructor_takes_exactly_the_fields(record):
    cls, values = type(record), fields(record)
    names = cls.__slots__
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record
    assert cls(**dict(reversed(list(zip(names, values))))) == record
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == record
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, other=None)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def test_generic_reprs_name_every_field():
    R = build_root_system(["A1"])
    assert repr(SimpleType("G", 2)) == "SimpleType(family='G', rank=2)"
    assert repr(R).startswith("RootSystem(factors=(SimpleType(family='A', rank=1),), rank=1, cartan=((2,),), ")
    assert repr(R).endswith(", scale=Fraction(1, 1), denominator=2, form=((1,),))")
    assert repr(LaplacianSpec.of([((1,), 1)])) == "LaplacianSpec(terms=((Weight(1), Fraction(1, 1)),))"


def test_laplacian_spec_refuses_a_coefficient_whose_float_is_zero():
    for make in (lambda a: LaplacianSpec.of([((1,), a)]), lambda a: LaplacianSpec(((Weight((1,)), a),))):
        with pytest.raises(InvariantError, match="^float underflow: "):
            make(Fraction(1, 10**400))
        with pytest.raises(InvariantError, match="^float underflow: "):
            make(Fraction(1, 2**1075))
    # the least positive float is kept; an exact coefficient past the float range is refused
    assert LaplacianSpec.of([((1,), Fraction(2**-1074))]).terms[0][1] == Fraction(1, 2**1074)
    for make in (lambda a: LaplacianSpec.of([((1,), a)]), lambda a: LaplacianSpec(((Weight((1,)), a),))):
        with pytest.raises(InvariantError, match="^float overflow: the coefficient of term 1 is past the float range$"):
            make(Fraction(10**400))
    # the largest float is kept, so an exact coefficient of that size still has its exact limit
    top = LaplacianSpec.of([((1,), Fraction(sys.float_info.max))])
    R = build_root_system(["A1"])
    assert classical_laplacian_eigenvalue(R, top, Weight((1,))) == Fraction(sys.float_info.max) * \
        classical_laplacian_eigenvalue(R, LaplacianSpec.of([((1,), 1)]), Weight((1,)))


def test_a_refused_coefficient_too_long_to_print_is_named_by_its_term():
    # str() of a Fraction of more than 4300 digits raises ValueError; the refusal prints none of them
    with pytest.raises(InvariantError, match="^the coefficient of term 1 is not positive$"):
        LaplacianSpec.of([((1,), Fraction(-10**5000 - 1, 10**5000))])
    # the float check comes first: -1/10^5000 is refused as a float underflow
    with pytest.raises(InvariantError, match="^float underflow: a nonzero part of the coefficient of term 1 "):
        LaplacianSpec.of([((1,), Fraction(-1, 10**5000))])


def test_a_refused_weight_too_long_to_print_is_named_by_its_position():
    # str() of an int of more than 4300 digits raises ValueError; no refusal prints a weight
    R = build_root_system(["A1"])
    huge, negative = Weight((10**5000,)), Weight((-10**5000,))
    with pytest.raises(InvariantError, match="^the weight of term 1 is not dominant integral$"):
        LaplacianSpec.of([(negative, 1)])
    with pytest.raises(InvariantError, match="^the weight of term 1 is not dominant integral$"):
        GeneralFunctionalSpec.of([(CenterElement((0,)), negative, 1)])
    with pytest.raises(InvariantError, match="^the weight is not dominant integral at coordinate 1$"):
        check_dominant_integral(R, negative)
    with pytest.raises(ResourceCapError, match="^the weight system exceeds the row cap of"):
        weight_system(R, huge)


def test_importing_the_cli_loads_no_dataclasses():
    code = ("import sys; before = set(sys.modules); import qlaplacian.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(qlaplacian.__file__).parents[1])}
    new = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout.split()
    assert "qlaplacian.cli" in new and "qlaplacian.spectra" in new
    assert "dataclasses" not in new
