"""The reproduce report at its default limit and seed, pinned: a change to
the program leaves every section as it was, apart from elapsed_seconds.

The committed JSON is the output of `factorbench reproduce --limit 1000000
--seed 12345` without its elapsed_seconds key.
"""

import json
from pathlib import Path

from factorbench.reproduce import reproduce_report

GOLDEN = Path(__file__).with_name("reproduce_1e6_seed12345.json")


def test_report_equals_the_committed_report():
    got = reproduce_report(1_000_000, 12345)
    del got["elapsed_seconds"]
    want = json.loads(GOLDEN.read_text())
    assert list(got) == list(want)
    for key in want:  # as JSON text, so that an int and an equal float differ
        assert json.dumps(got[key]) == json.dumps(want[key]), key
