"""No module of the package imports another module's private names.

A name that starts with an underscore is free to change with its own
module; a relative ``from .m import _name`` would tie a second module to
it. Dunder names such as ``__version__`` are public.
"""

import ast
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
