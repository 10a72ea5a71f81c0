"""Correctness oracle: the benchmark's own record of what is shared.

The ledger is written by the benchmark as it tells owners what to share,
reshare and unshare; it never searches a store, because a search would
move buffer state and with it the simulated I/O cost of later queries.
Objects are identified by payload, which is unique per object and
version in every workload, so an answer from a replica holder checks
against the same entry as one from the owner.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.storm.objects import normalize_keyword


@dataclass
class QueryCheck:
    """The oracle's verdict on one finished query."""

    #: answer items that are not a live record for the queried keyword
    foreign: int
    #: distinct live records for the keyword among the answers
    found: int
    #: live records for the keyword the ledger says exist
    expected: int


@dataclass
class Ledger:
    """Live records by payload, with per-keyword counts."""

    #: payload -> normalized keywords of the live record carrying it
    live: dict[bytes, frozenset[str]] = field(default_factory=dict)
    #: normalized keyword -> number of live records tagged with it
    per_keyword: Counter = field(default_factory=Counter)

    def add(self, keywords, payload: bytes) -> None:
        tags = frozenset(normalize_keyword(k) for k in keywords)
        self.live[payload] = tags
        self.per_keyword.update(tags)

    def remove(self, payload: bytes) -> None:
        """Retire a record (deleted, or superseded by a reshare)."""
        self.per_keyword.subtract(self.live.pop(payload))

    def check(self, keyword: str, answers) -> QueryCheck:
        """Judge the answer items of one query against the live set."""
        needle = normalize_keyword(keyword)
        foreign = 0
        found: set[bytes] = set()
        for answer in answers:
            for item in answer.items:
                tags = self.live.get(item.payload)
                if tags is None or needle not in tags:
                    foreign += 1
                else:
                    found.add(item.payload)
        return QueryCheck(foreign, len(found), self.per_keyword[needle])
