"""waveqed's sources call no numpy API newer than the oldest numpy that
pyproject.toml allows (1.24).

The test parses every module of src/waveqed with ast, so it holds whichever
numpy runs the suite: the tests themselves run on a newer one, where such a
call passes unnoticed.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "waveqed").glob("*.py"))

# names that numpy 1.24 lacks, relative to the numpy namespace: the 2.x
# array-API aliases and additions, and the 1.25 submodules
NEWER_THAN_1_24 = frozenset("""
    acos acosh asin asinh atan atan2 atanh astype bitwise_invert bitwise_left_shift
    bitwise_right_shift concat cumulative_prod cumulative_sum dtypes exceptions isdtype
    matrix_transpose matvec permute_dims pow strings trapezoid unique_all unique_counts
    unique_inverse unique_values unstack vecdot vecmat
    linalg.cross linalg.diagonal linalg.matrix_norm linalg.matrix_transpose linalg.outer
    linalg.svdvals linalg.trace linalg.vecdot linalg.vector_norm
""".split())


def _dotted(node, aliases):
    """'numpy.fft.ifft' for np.fft.ifft under `import numpy as np`, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    return ".".join([aliases[node.id], *reversed(parts)])


def newer_numpy_calls(source):
    """(line, text) of each use in source of numpy API that numpy 1.24 lacks:
    a name of NEWER_THAN_1_24, or out= in a numpy.fft call (numpy 2.0)."""
    tree = ast.parse(source)
    aliases, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    aliases[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                aliases[alias.asname or alias.name] = name
                if name.removeprefix("numpy.") in NEWER_THAN_1_24:
                    used.append((node.lineno, name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = _dotted(node, aliases)
            if name and name.removeprefix("numpy.") in NEWER_THAN_1_24:
                used.append((node.lineno, name))
        elif isinstance(node, ast.Call):
            name = _dotted(node.func, aliases) or ""
            if name.startswith("numpy.fft.") and any(k.arg == "out" for k in node.keywords):
                used.append((node.lineno, f"{name}(out=...)"))
    return sorted(used)


@pytest.mark.parametrize("source, expected", [
    ("import numpy as np\nnp.fft.ifft(a, out=b)", [(2, "numpy.fft.ifft(out=...)")]),
    ("import numpy\nimport numpy.fft\nnumpy.fft.fft(a, n=4, out=b)", [(3, "numpy.fft.fft(out=...)")]),
    ("from numpy import fft\nfft.rfft(a, out=b)", [(2, "numpy.fft.rfft(out=...)")]),
    ("import numpy as np\nnp.cumulative_sum(a)", [(2, "numpy.cumulative_sum")]),
    ("import numpy as xp\ny = xp.concat([a, b])", [(2, "numpy.concat")]),
    ("import numpy as np\nf = np.unique_values", [(2, "numpy.unique_values")]),
    ("import numpy as np\nnp.linalg.vector_norm(a)", [(2, "numpy.linalg.vector_norm")]),
    ("from numpy import trapezoid", [(1, "numpy.trapezoid")]),
    ("import numpy as np\nnp.fft.ifft(a)\nnp.cumsum(a, out=b)\nnp.concatenate([a])", []),
    ("concat = list\nconcat([1])\nfft.ifft(a, out=b)", []),
])
def test_the_scan_finds_newer_numpy_calls(source, expected):
    assert newer_numpy_calls(source) == expected


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_run_on_numpy_1_24(path):
    assert newer_numpy_calls(path.read_text(encoding="utf-8")) == []
