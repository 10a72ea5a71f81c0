"""Store templating: populate once, clone cheaply.

Every figure sweep rebuilds the same node-local stores for every sweep
point — the dominant setup cost.  A :class:`StoreTemplate` freezes a
fully populated store (heap pages, keyword-index postings, record
count) and :meth:`StoreTemplate.instantiate` hands back a clone backed
by a copy-on-write :class:`SnapshotDisk`: the immutable page images are
shared between every clone, a page is only copied when some clone
writes to it, and each clone gets its own buffer manager and access
statistics.  A clone is observationally identical to a store freshly
populated with the same objects — same record ids, same postings, same
buffer residency after the ``HeapFile`` open scan — so figures built on
clones produce bit-identical series (the recorded goldens checked by
``tests/eval/test_fastpath_determinism.py`` pin the figures built on
them).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import StormError
from repro.storm.disk import InMemoryDisk
from repro.storm.heapfile import RecordId
from repro.storm.replacement import ReplacementStrategy
from repro.storm.store import StorM

#: Registry capacity; oldest entries are evicted first.  Experiments key
#: templates by content digest, and one figure needs at most a few dozen
#: distinct (corpus, node, size) combinations at a time.
REGISTRY_CAPACITY = 128

_REGISTRY: dict[str, "StoreTemplate"] = {}


def cached_template(key: str) -> "StoreTemplate | None":
    """The registered template for ``key``, or None."""
    return _REGISTRY.get(key)


def register_template(key: str, template: "StoreTemplate") -> None:
    """Cache ``template`` under ``key``, evicting the oldest past capacity."""
    _REGISTRY[key] = template
    while len(_REGISTRY) > REGISTRY_CAPACITY:
        del _REGISTRY[next(iter(_REGISTRY))]


def clear_templates() -> None:
    """Drop every registered template (tests; memory pressure)."""
    _REGISTRY.clear()


class SnapshotDisk(InMemoryDisk):
    """An in-memory disk seeded from immutable page images.

    The seed pages are shared — every clone of a template points at the
    same ``bytes`` objects.  :meth:`InMemoryDisk.read_page` already
    copies on read and :meth:`InMemoryDisk.write_page` replaces the
    page entry wholesale, so a write in one clone can never reach
    another: copy-on-write without any bookkeeping.
    """

    def __init__(self, pages: Iterable[bytes], page_size: int):
        super().__init__(page_size)
        self._pages = list(pages)  # type: ignore[assignment]


@dataclass(frozen=True)
class StoreTemplate:
    """An immutable snapshot of a populated :class:`StorM` store."""

    pages: tuple[bytes, ...]
    page_size: int
    index_snapshot: dict[str, frozenset[RecordId]]
    record_count: int

    @classmethod
    def from_store(cls, store: StorM) -> "StoreTemplate":
        """Snapshot ``store`` (flushes it first; the store stays usable).

        Only plain in-memory stores can be templated: a WAL or a
        persistent index ties the store to external files that a shared
        snapshot cannot represent.
        """
        if store.wal is not None:
            raise StormError("cannot template a WAL-backed store")
        if store.index_disk is not None:
            raise StormError(
                "cannot template a store with a persistent index"
            )
        store.flush()
        disk = store.disk
        pages = tuple(
            bytes(disk.read_page(page_id))
            for page_id in range(disk.num_pages)
        )
        return cls(
            pages=pages,
            page_size=disk.page_size,
            index_snapshot=store.index.snapshot(),
            record_count=store.count,
        )

    def instantiate(
        self,
        pool_size: int = 512,
        strategy: ReplacementStrategy | None = None,
        scan_cache: bool | None = None,
    ) -> StorM:
        """A fresh store over shared pages, with its own buffer pool.

        The clone's ``HeapFile`` open scan pins every page in ascending
        order — the same residency and recency a just-populated store
        ends with — and the index loads from the snapshot instead of
        decoding every record.
        """
        return StorM(
            disk=SnapshotDisk(self.pages, self.page_size),
            pool_size=pool_size,
            strategy=strategy,
            scan_cache=scan_cache,
            index_snapshot=self.index_snapshot,
        )
