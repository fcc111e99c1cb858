"""HEXT's output bytes, pinned; and a compose chain deeper than 1,000."""

import json

import pytest

from repro import extract
from repro.hext import hext_extract
from repro.hext.wirelist import to_hierarchical_wirelist
from repro.wirelist import (
    circuit_to_flat,
    compare_netlists,
    flatten,
    parse_wirelist,
    write_wirelist,
)

from .hext_digests import DIGEST_CASES, FIXTURE, hext_digest, long_row

PINNED = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(PINNED) == sorted(DIGEST_CASES)


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_output_matches_pinned_digests(name):
    assert hext_digest(DIGEST_CASES[name](), name) == PINNED[name]


def test_long_row_round_trips_to_flat_ace():
    layout = long_row()
    result = hext_extract(layout)
    assert result.stats.compose_calls > 1100
    text = write_wirelist(to_hierarchical_wirelist(result, name="long_row"))
    hierarchical = flatten(parse_wirelist(text))
    reference = circuit_to_flat(extract(layout))
    assert len(reference.devices) == 5
    report = compare_netlists(reference, hierarchical)
    assert report.equivalent, report.reason
