"""No module of src/waveqed imports another's leading-underscore names.

Each kernel has one entry point, its public function, which checks its
inputs; a private name imported across modules is an unchecked side door.
The input rules themselves are shared, each stated once in physics.py, and
so is the cascade's running product, which spectra.excitation_amplitudes
and pulses.atom_spectra both use.
"""

import ast

import pytest

from test_numpy_compat import SOURCES

# the input rules of physics.py that other modules call, and the cascade's
# running product, defined in spectra.py
SHARED = frozenset({"_require_integer", "_require_finite", "_require_positive", "_require_beta",
                    "_calibration_beta", "_grid_length", "_uniform_grid", "_validate_grid",
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


def _defined(path):
    """The names that a source defines at module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))} | {
        target.id for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)}


def test_each_shared_rule_is_defined_in_physics_alone():
    # a rule written again in another module, and imported from there, fails here
    homes = {name: sorted(p.name for p in SOURCES if name in _defined(p)) for name in SHARED}
    assert homes == {name: ["spectra.py" if name == "_cascade_amplitudes" else "physics.py"]
                     for name in SHARED}
