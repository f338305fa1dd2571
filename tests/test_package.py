"""The package surface: value records, the lazily imported top-level names, and the one refusal rule."""

import ast
import doctest
import importlib
import inspect
import pkgutil
import re
import typing
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


def test_record_fields_are_read_through_the_annotations_attribute():
    # since 3.14 (PEP 649) a class namespace holds no __annotations__ dict: the class builds it when it is read.
    # A metaclass property stands in for that here, so the fields must not be looked up in the class __dict__
    class Lazy(type):
        @property
        def __annotations__(cls):
            return {"x": int, "y": int}

    class Point(Record, metaclass=Lazy):
        pass

    assert "__annotations__" not in Point.__dict__
    assert Point._fields == ("x", "y") and Point(1, 2).y == 2


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


def test_only_hilbert_names_the_pivot_recursion():
    # hilbert owns the Hilbert numerator recursion: other layers reach it through h_vector, bdg_hf_check, euler_check
    namers = set()
    for path in sorted(Path(sc.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if "_numerator" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                namers.add(path.stem)
    assert namers == {"hilbert"}


def test_only_exponents_sorts_with_a_key():
    # MonomialIdeal puts its generators in grlex order: no other layer restates that order as a sort key
    sorters = set()
    for path in sorted(Path(sc.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and any(k.arg == "key" for k in node.keywords):
                if getattr(node.func, "id", None) == "sorted" or getattr(node.func, "attr", None) == "sort":
                    sorters.add(path.stem)
    assert sorters == {"exponents"}


def test_public_functions_have_resolvable_annotations():
    # an annotation that names a type its module does not import fails only when it is resolved
    unresolved = []
    for info in pkgutil.walk_packages(sc.__path__, "starconfig."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if getattr(value, "__module__", None) != info.name:  # a constant, a type alias or a re-export
                continue
            methods = [v for v in vars(value).values() if inspect.isfunction(v)] if inspect.isclass(value) else []
            for target in [value, *methods]:
                try:
                    typing.get_type_hints(target)
                except NameError as exc:
                    unresolved.append(f"{info.name}.{getattr(target, '__qualname__', name)}: {exc}")
    assert unresolved == []


def test_readme_example():
    # the fenced block alone: read whole, doctest would take the closing fence as expected output
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert failed == 0 and attempted == len(test.examples) > 0
