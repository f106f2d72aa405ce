"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  `bargspec verify` executes the same checks."""

import pytest

from bargspec import acceptance


@pytest.mark.parametrize("crit", acceptance.CRITERIA, ids=lambda c: c.__name__)
def test_criterion(crit):
    result = crit()
    print()
    print(result.line())
    assert result.passed, result.detail
