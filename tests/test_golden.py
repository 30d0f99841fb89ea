import json

import numpy as np
import pytest

from waveqed.scenarios import SCENARIOS

from golden import GOLDEN, moved_columns, run_defaults, summarize


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_outputs_match_the_pinned_files(tmp_path, scenario):
    # every CSV of every scenario at its defaults keeps its bytes; a change
    # that moves them on purpose re-records the file (python tests/golden.py record)
    golden = json.loads(GOLDEN.read_text())
    recorded = golden["outputs"][scenario]
    actual = summarize(run_defaults(scenario, tmp_path))
    assert sorted(actual) == sorted(recorded)
    if golden["numpy"] != np.__version__:
        # another numpy may round FFTs differently: hold the shapes and
        # column scales, not the bytes
        for name, summary in recorded.items():
            assert actual[name]["rows"] == summary["rows"]
            for column, values in summary["columns"].items():
                assert actual[name]["columns"][column]["max_abs"] == pytest.approx(
                    values["max_abs"], rel=1e-9, abs=1e-300)
        return
    moved = {name: moved_columns(summary, actual[name])
             for name, summary in recorded.items()
             if actual[name]["sha256"] != summary["sha256"]}
    assert not moved, "\n".join(f"{scenario}/{name}: " + "; ".join(lines)
                                for name, lines in moved.items())
