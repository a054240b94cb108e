"""End-to-end acceptance gate.

Each check exercises one verifiable claim about the library at its stated
tolerance and prints a single [PASS]/[FAIL] line; the slowest (the Monte
Carlo moment comparison) takes ~18s. Run with -s to see every line as it
completes.
"""

import pytest

from memlqg.acceptance import ALL_CHECKS, run_check


@pytest.mark.parametrize(
    "index,name", [(i, n) for i, n, _ in ALL_CHECKS], ids=[n for _, n, _ in ALL_CHECKS]
)
def test_acceptance(index, name):
    result = run_check(index)
    print(result.line())
    assert result.passed, result.detail


def test_source_blindness_solves_each_filter_independently(filter_solves):
    """Check 12 compares two separately solved filters, not one cached entry."""
    assert run_check(12).passed
    assert filter_solves == ["s2", "s2"]
