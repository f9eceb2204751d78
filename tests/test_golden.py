"""Solver outputs on fixed planted corpus instances, and the corpus
families' polymorphism reports, pinned across commits.

`golden.json` holds one record per case of `update_golden.CASES` and
`update_golden.POLYMORPHISM_CASES`; see that script for what a record pins
and how to regenerate one.
"""

from __future__ import annotations

import pytest

from update_golden import CASES, POLYMORPHISM_CASES, load, record

GOLDEN = load()


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted({**CASES, **POLYMORPHISM_CASES})


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden_outputs(key):
    assert record(key) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(POLYMORPHISM_CASES))
def test_polymorphism_reports(key):
    assert record(key) == GOLDEN[key]
