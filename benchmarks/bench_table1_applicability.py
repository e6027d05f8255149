"""Table I: applicability of the transformation rules.

Paper numbers: Auction 9/9 (100%), Bulletin Board 6/8 (75%) — the two
bulletin-board blockers are loops performing recursive method
invocations.  This reproduction matches both rows exactly.
"""

from __future__ import annotations

from conftest import run_once

from repro.transform.errors import REASON_RECURSION


def test_table1_applicability(benchmark):
    text, reports = run_once(benchmark, "table1")
    auction, bulletin = reports
    assert auction.opportunities == 9
    assert auction.transformed == 9
    assert bulletin.opportunities == 8
    assert bulletin.transformed == 6
    blocked = [row for row in bulletin.rows if not row.transformed]
    assert all(REASON_RECURSION in row.reasons for row in blocked)

