"""The package surface: value records, the lazily imported top-level names, and the one refusal rule."""

import ast
import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import starconfig as sc
from starconfig import errors
from starconfig.errors import UsageError
from starconfig.record import Record

README = Path(__file__).resolve().parent.parent / "README.md"

# (class, fields, other fields, fields that fail validation or None, repr)
RECORDS = [
    (sc.MonomialIdeal, (2, ((1, 0), (0, 1))), (2, ((1, 0),)), (0, ()),
     "MonomialIdeal(arity=2, gens=((1, 0), (0, 1)))"),
    (sc.StarConfig, (4, 2), (4, 3), (4, 4), "StarConfig(s=4, c=2)"),
    (sc.SimplicialComplex, (3, ((0, 1), (1, 2))), (3, ((0, 1),)), (3, ((0, 3),)),
     "SimplicialComplex(vertex_count=3, facets=((0, 1), (1, 2)))"),
    (sc.HVector, ((1, 2),), ((1, 3),), None, "HVector(entries=(1, 2))"),
    (sc.SymbolicMatrix, (1, 1, ((None,),)), (1, 1, (((1, (1,)),),)), (2, 1, ((None,),)),
     "SymbolicMatrix(rows=1, cols=1, entries=((None,),))"),
    (sc.ResolutionShape, ((((-2, 3),),),), ((((-2, 4),),),), None,
     "ResolutionShape(modules=(((-2, 3),),))"),
    (sc.ContainmentReport, (((1, 1, True),), None, (3, 2), ()),
     (((1, 1, True),), None, (3, 2), ((1, 1),)), None,
     "ContainmentReport(entries=((1, 1, True),), empirical_sup=None, rho=(3, 2), criterion_mismatches=())"),
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
    # built from exactly its fields, positionally: a keyword, a missing field or an extra field is a TypeError
    with pytest.raises(TypeError):
        cls(*fields[:-1], **{cls._fields[-1]: fields[-1]})
    with pytest.raises(TypeError):
        cls(*fields[:-1])
    with pytest.raises(TypeError):
        cls(*fields, fields[-1])
    if invalid is not None:
        with pytest.raises(UsageError):
            cls(*invalid)


def test_export_lists_name_what_their_modules_define():
    for module_name, names in sc._EXPORTS.items():
        module = importlib.import_module(f"starconfig.{module_name}")
        for name in names:
            assert name in module.__all__, (module_name, name)
            assert getattr(sc, name) is getattr(module, name)
    # a stale __all__ entry breaks `from starconfig.x import *`
    listed = [info.name for info in pkgutil.walk_packages(sc.__path__, "starconfig.")]
    modules = [sc] + [importlib.import_module(name) for name in listed]
    assert set(listed) >= {f"starconfig.{name}" for name in sc._EXPORTS}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
        exec(f"from {module.__name__} import *", {})


def test_resource_cap_error_is_raised_only_by_check_cap():
    # every refusal is worded by errors.check_cap, `<what with the count>, cap is <cap>`, and by nothing else
    raisers = []
    for path in sorted(Path(sc.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, (ast.Name, ast.Attribute)) and ast.unparse(exc).endswith("ResourceCapError"):
                    inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                    raisers.append((path.stem, inside))
    assert raisers == [("errors", ["check_cap"])]
    module_functions = {node.name for node in ast.parse(Path(errors.__file__).read_text()).body
                        if isinstance(node, ast.FunctionDef)}
    assert module_functions == {"check_cap"}  # over_cap is folded in


def test_readme_example():
    # the fenced block alone: read whole, doctest would take the closing fence as expected output
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert failed == 0 and attempted == len(test.examples) > 0
