"""Solver outputs on fixed planted corpus instances, pinned across commits.

`golden.json` holds one record per case of `update_golden.CASES`; see that
script for what a record pins and how to regenerate one.
"""

from __future__ import annotations

import pytest

from update_golden import CASES, load, record

GOLDEN = load()


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden_outputs(key):
    assert record(key) == GOLDEN[key]
