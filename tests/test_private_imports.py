"""No module of src/waveqed imports another's leading-underscore names.

Each kernel has one entry point, its public function, which checks its
inputs; a private name imported across modules is an unchecked side door.
The input checks themselves are shared, and so is the cascade's running
product, which spectra.excitation_amplitudes and pulses.atom_spectra both use.
"""

import ast

import pytest

from test_numpy_compat import SOURCES

SHARED = frozenset({"_require_integer", "_require_finite", "_validate_grid", "_grid_length",
                    "_cascade_amplitudes"})


def private_imports(source):
    """(line, name) of each private name that source imports from a waveqed
    module or reads as an attribute of one it imports."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0]
                                                 == "waveqed"):
            for alias in node.names:
                if node.module is None or (node.level == 0 and node.module == "waveqed"):
                    modules.add(alias.asname or alias.name)  # from . import spectra
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "waveqed":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and ast.unparse(node.value) in modules):
            found.append((node.lineno, node.attr))
    return sorted((line, name) for line, name in found if name not in SHARED)


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("source, expected", [
    ("from .pulses import _propagate, propagate_pulse", [(1, "_propagate")]),
    ("from waveqed.spectra import (\n    _recursion as r,\n)", [(1, "_recursion")]),
    ("from . import spectra\nspectra._integer_power(t, 3)", [(2, "_integer_power")]),
    ("import waveqed.pulses as p\np._check_grid(a, b)", [(2, "_check_grid")]),
    ("from .physics import _require_integer\nfrom .spectra import _validate_grid", []),
    ("from . import __version__\nfrom .pulses import atom_dynamics", []),
    ("from numpy import _core\nself._log\nnp._NoValue", []),
])
def test_the_scan_finds_private_imports(source, expected):
    assert private_imports(source) == expected


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_import_only_public_or_shared_names(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
