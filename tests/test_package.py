"""The package surface: value records, and the lazily imported top-level names."""

import doctest
import re
from fractions import Fraction
from pathlib import Path

import pytest

import starconfig as sc
from starconfig.errors import UsageError
from starconfig.record import Record

README = Path(__file__).resolve().parent.parent / "README.md"

_EMPTY = sc.SparsePoly(1, ())
_X0 = sc.SparsePoly(1, (((1,), 1),))

# (class, fields, other fields, fields that fail validation or None, repr)
RECORDS = [
    (sc.MonomialIdeal, (2, ((1, 0), (0, 1))), (2, ((1, 0),)), (0, ()),
     "MonomialIdeal(arity=2, gens=((1, 0), (0, 1)))"),
    (sc.StarConfig, (4, 2), (4, 3), (4, 4), "StarConfig(s=4, c=2)"),
    (sc.SimplicialComplex, (3, ((0, 1), (1, 2))), (3, ((0, 1),)), (3, ((0, 3),)),
     "SimplicialComplex(vertex_count=3, facets=((0, 1), (1, 2)))"),
    (sc.HVector, ((1, 2), 1), ((1, 3), 1), None, "HVector(entries=(1, 2), codim=1)"),
    (sc.SparsePoly, (1, (((1,), 1),)), (1, ()), None, "SparsePoly(arity=1, terms=(((1,), 1),))"),
    (sc.SymbolicMatrix, (1, 1, ((_EMPTY,),)), (1, 1, ((_X0,),)), (2, 1, ((_EMPTY,),)),
     "SymbolicMatrix(rows=1, cols=1, entries=((SparsePoly(arity=1, terms=()),),))"),
    (sc.ResolutionShape, ((((-2, 3),),),), ((((-2, 4),),),), None,
     "ResolutionShape(modules=(((-2, 3),),))"),
    (sc.ContainmentReport, (4, 2, ((1, 1, True),), None, Fraction(3, 2), Fraction(3, 2)),
     (4, 2, ((1, 1, True),), None, Fraction(3, 2), Fraction(3, 2), ((1, 1),)), None,
     "ContainmentReport(s=4, c=2, entries=((1, 1, True),), empirical_sup=None, "
     "lower_bound=Fraction(3, 2), rho=Fraction(3, 2), criterion_mismatches=())"),
]


@pytest.mark.parametrize("cls, fields, other, invalid, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, other, invalid, text):
    value = cls(*fields)
    assert value == cls(*fields) and hash(value) == hash(cls(*fields))
    assert value != cls(*other)
    # equal only within its class: not to a tuple of its fields, nor to a record of another class
    assert value != tuple(fields) and tuple(fields) != value
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(cls._fields, object)})
    assert value != twin(*value._values())
    assert len({value, cls(*fields)}) == 1
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == fields[0]
    assert repr(value) == text
    with pytest.raises(TypeError):
        cls()
    if invalid is not None:
        with pytest.raises(UsageError):
            cls(*invalid)


def test_readme_example():
    # the fenced block alone: read whole, doctest would take the closing fence as expected output
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert failed == 0 and attempted == len(test.examples) > 0
