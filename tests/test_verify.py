"""Every row of `verify` as one Tier-1 case.

The suites run once, when this module is collected; each row then passes or
fails on its own, with the row's detail as the failure message.
"""

import re

import pytest

from dgpcyclegan import verify

ROWS = [(suite, row) for suite, rows in verify.run_suites().items() for row in rows]


def _id(suite: str, name: str) -> str:
    return suite + "-" + re.sub(r"\W+", "_", name).strip("_")


@pytest.mark.parametrize("suite, row", ROWS, ids=[_id(suite, row.name) for suite, row in ROWS])
def test_verify_row_passes(suite, row):
    assert row.ok, f"{suite}: {row.name}: {row.detail}"
