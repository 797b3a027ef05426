"""No module of the package imports another module's private names.

A name that starts with an underscore is free to change with its own
module; a relative ``from .m import _name`` would tie a second module to
it. Dunder names such as ``__version__`` are public.

Elements and class invariants are interned per datum, so the package
builds them only through their interning constructors. Finite Weyl parts
are built only through the datum's tables, so only ``root_datum`` calls
``reflect_left``; and the ``root_datum`` docstring lists exactly the
caches that ``RootDatum.__init__`` makes. Lengths have one writer: only
``affine_weyl.length`` stores into ``_length_cache``. Every parameter of a
package function is read in its body.
"""

import ast
import re
from pathlib import Path

import adlvkit

PACKAGE = Path(adlvkit.__file__).parent


def private_imports(source):
    """(line, module, name) for each relative import of a private name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    out.append((node.lineno, node.module, name))
    return out


def test_no_module_imports_a_private_name():
    found = {
        path.name: private_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_scan_sees_function_local_imports():
    source = "def f():\n    from .levi import _levi\n    from . import __version__\n"
    assert private_imports(source) == [(2, "levi", "_levi")]


# -- who may build the interned records ---------------------------------------


def scopes(source, matches):
    """The enclosing (class and) function names of each node that ``matches``."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif matches(child):
                out.append(scope)
            visit(child, inner)

    visit(ast.parse(source), ())
    return out


def calls(source, matches):
    """The enclosing (class and) function names of each call whose callee ``matches``."""
    return scopes(source, lambda node: isinstance(node, ast.Call) and matches(node.func))


def _named(func, name):
    return getattr(func, "id", getattr(func, "attr", None)) == name


def _record_copy(func):
    return isinstance(func, ast.Attribute) and func.attr in ("_make", "_replace")


def _object_new(func):
    return isinstance(func, ast.Attribute) and func.attr == "__new__" and _named(func.value, "object")


def package_scopes(matches):
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for scope in scopes(path.read_text(), matches):
            found.setdefault(path.name, []).append(scope)
    return found


def package_calls(matches):
    return package_scopes(lambda node: isinstance(node, ast.Call) and matches(node.func))


def test_class_invariants_are_built_only_by_invariant_from_sum():
    """Any other constructor would bypass the datum's intern table."""
    assert package_calls(lambda f: _named(f, "ClassInvariant")) == {
        "conjugacy.py": [("invariant_from_sum",)]
    }
    # a static scan cannot tell a ClassInvariant from another record, so
    # no record is copied by _make or _replace
    assert package_calls(_record_copy) == {}


def test_elements_are_allocated_only_by_their_interning_constructor():
    assert package_calls(_object_new) == {"affine_weyl.py": [("AffineElement", "__new__")]}


def test_the_construction_scan_sees_every_scope():
    source = (
        "x = ClassInvariant(1)\n"
        "class C:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return object.__new__(C), c._replace(period=2)\n"
    )
    assert calls(source, lambda f: _named(f, "ClassInvariant")) == [()]
    assert calls(source, _object_new) == [("C", "f", "g")]
    assert calls(source, _record_copy) == [("C", "f", "g")]


# -- one builder of finite Weyl parts, and the datum's caches -------------------


def test_only_the_datum_multiplies_finite_matrices():
    """A finite Weyl part is built through the datum's tables, never beside them."""
    assert package_calls(lambda f: _named(f, "reflect_left")) == {
        "root_datum.py": [("RootDatum", "finite_left"), ("RootDatum", "weyl_elements")]
    }


def init_caches(source):
    """The ``self.*_cache`` attributes that ``RootDatum.__init__`` assigns."""
    tree = ast.parse(source)
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RootDatum")
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    return {
        target.attr
        for node in ast.walk(init)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
        and _named(target.value, "self")
        and target.attr.endswith("_cache")
    }


def test_the_datum_docstring_lists_every_cache():
    source = (PACKAGE / "root_datum.py").read_text()
    listed = set(re.findall(r"``(_\w+_cache)``", ast.get_docstring(ast.parse(source))))
    assert init_caches(source) == listed


# -- one writer of lengths --------------------------------------------------------


def _names_length_cache(node):
    return isinstance(node, ast.Attribute) and node.attr == "_length_cache"


def _stores_a_length(node):
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and _names_length_cache(node.value)
    )


def test_only_length_writes_lengths():
    # every scope that names the cache is listed, so an alias of it
    # cannot hide a store
    named = package_scopes(_names_length_cache)
    assert {name: set(found) for name, found in named.items()} == {
        "affine_weyl.py": {("length",)},
        "root_datum.py": {("RootDatum", "__init__")},
    }
    assert package_scopes(_stores_a_length) == {"affine_weyl.py": [("length",)]}


def test_the_length_scan_sees_stores_and_aliases():
    source = (
        "def f(d):\n"
        "    d._length_cache[1] = 0\n"
        "def g(d):\n"
        "    cache = d._length_cache\n"
        "    cache[1] = 0\n"
    )
    assert scopes(source, _stores_a_length) == [("f",)]
    assert scopes(source, _names_length_cache) == [("f",), ("g",)]


# -- every parameter is read --------------------------------------------------


def unread_parameters(source):
    """(line, function, parameter) for each parameter its function never reads.

    ``self``, ``cls``, names starting with an underscore and the
    parameters of dunder methods (fixed by protocol) are exempt. A read
    in a nested function counts as a read.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for param in params:
            if param not in read and param not in ("self", "cls") and not param.startswith("_"):
                out.append((node.lineno, name, param))
    return out


def test_every_parameter_is_read():
    found = {
        path.name: unread_parameters(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_parameter_scan_sees_every_kind_of_parameter():
    source = (
        "def f(a, /, b, *args, c=1, d, **kw):\n"
        "    def g(e):\n"
        "        return b\n"
        "    return lambda h: d\n"
        "class C:\n"
        "    def m(self, x, _y):\n"
        "        return self\n"
        "    def __copy__(self, memo):\n"
        "        return self\n"
    )
    assert sorted(unread_parameters(source)) == [
        (1, "f", "a"), (1, "f", "args"), (1, "f", "c"), (1, "f", "kw"),
        (2, "g", "e"), (4, "<lambda>", "h"), (6, "m", "x"),
    ]
