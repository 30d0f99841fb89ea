"""The mutation gate of tests/mutants.py, under the slow marker."""

import pytest

import mutants


@pytest.mark.slow
def test_every_mutant_killed():
    assert mutants.main() == 0
