"""The StorM facade: what a BestPeer node programs against.

Composes disk + buffer manager + heap file + keyword index behind the
small API the paper's StorM agent needs: store keyword-tagged objects,
look them up by record id, and search by keyword — either through the
inverted index or by the full object scan the paper's agent performs
("the agent makes a comparison for each object stored in the
Shared-StorM database with its query").

Search results carry ``objects_examined`` and a buffer-stats delta so
the simulation layer can convert real buffer behaviour into simulated
agent service time.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.errors import PageError, StorageClosedError, StormError
from repro.storm.buffer import AccessStats, BufferManager
from repro.storm.disk import Disk, InMemoryDisk
from repro.storm.heapfile import HeapFile, RecordId
from repro.storm.index import KeywordIndex
from repro.storm.objects import StoredObject
from repro.storm.page import SlottedPage
from repro.storm.replacement import ReplacementStrategy

#: Default for :class:`StorM`'s decoded-scan cache.  Tests monkeypatch
#: this to ``False`` to prove the cache changes no observable result.
SCAN_CACHE_DEFAULT = True


@dataclass
class ScoredSearchResult:
    """Outcome of one *scored* keyword search at one node.

    Matches are ``(score, rid, object)`` triples ordered best-first:
    score descending, ties broken by heap order (page id, then slot) so
    any two stores holding the same records rank them identically —
    the deterministic order the in-network top-k merge depends on.
    """

    keyword: str
    matches: list[tuple[float, RecordId, StoredObject]] = field(default_factory=list)
    #: how many stored objects were compared against the query
    objects_examined: int = 0
    #: buffer activity caused by this search
    io: AccessStats = field(default_factory=AccessStats)
    #: matches cut by the ``k`` bound (scored, then never surfaced)
    truncated: int = 0

    @property
    def match_count(self) -> int:
        return len(self.matches)

    @property
    def answer_bytes(self) -> int:
        """Total payload bytes across surfaced matches."""
        return sum(obj.size for _, _, obj in self.matches)

    @property
    def scores(self) -> list[float]:
        """The surfaced scores, best first."""
        return [score for score, _, _ in self.matches]


def _settle_scored(
    result: ScoredSearchResult,
    scored: list[tuple[float, RecordId, StoredObject]],
    k: int | None,
) -> None:
    """Order ``scored`` best-first and apply the ``k`` bound.

    Shared by the index and scan paths so both rank (and truncate)
    identically; the sort is stable over input already in heap order,
    so equal scores keep their (page, slot) tie-break.
    """
    scored.sort(key=lambda match: -match[0])
    if k is not None and len(scored) > k:
        result.truncated = len(scored) - k
        del scored[k:]
    result.matches = scored


def _check_k(k: int | None) -> None:
    if k is not None and k < 1:
        raise StormError(f"scored search needs k >= 1 or None, got {k}")


@dataclass
class SearchResult:
    """Outcome of one keyword search at one node."""

    keyword: str
    matches: list[tuple[RecordId, StoredObject]] = field(default_factory=list)
    #: how many stored objects were compared against the query
    objects_examined: int = 0
    #: buffer activity caused by this search
    io: AccessStats = field(default_factory=AccessStats)

    @property
    def match_count(self) -> int:
        return len(self.matches)

    @property
    def answer_bytes(self) -> int:
        """Total payload bytes across matches."""
        return sum(obj.size for _, obj in self.matches)


class StorM:
    """A node-local persistent object store with keyword search."""

    def __init__(
        self,
        disk: Disk | None = None,
        pool_size: int = 512,
        strategy: ReplacementStrategy | None = None,
        index_disk: Disk | None = None,
        index_pool_size: int = 64,
        wal_path: str | None = None,
        scan_cache: bool | None = None,
        index_snapshot: dict | None = None,
    ):
        self.disk = disk if disk is not None else InMemoryDisk()
        self._closed = False
        self._scan_cache_enabled = (
            SCAN_CACHE_DEFAULT if scan_cache is None else scan_cache
        )
        # page_id -> (page version, decoded records).  The buffer is still
        # pinned/unpinned for every page on every scan — the simulated I/O
        # accounting is untouched — only the CPU-side decode is reused.
        self._scan_cache: dict[int, tuple[int, list[tuple[RecordId, StoredObject]]]] = {}
        self.scan_cache_hits = 0
        self.scan_cache_misses = 0
        if wal_path is not None:
            # Crash recovery happens before anything reads the heap:
            # committed page images in the log supersede the heap file.
            from repro.storm.wal import WriteAheadLog

            self.wal: WriteAheadLog | None = WriteAheadLog(wal_path)
            self._recover_from_wal()
        else:
            self.wal = None
        self.buffer = BufferManager(self.disk, pool_size=pool_size, strategy=strategy)
        self.heap = HeapFile(self.buffer)
        if index_disk is not None:
            # Persistent index: survives reopen with no heap rescan.
            if index_snapshot is not None:
                raise StormError(
                    "index_snapshot applies to the in-memory index only"
                )
            from repro.storm.pindex import PersistentKeywordIndex

            self.index_disk: Disk | None = index_disk
            index_buffer = BufferManager(index_disk, pool_size=index_pool_size)
            fresh_index = index_disk.num_pages == 0
            self.index = PersistentKeywordIndex(index_buffer)
            if fresh_index and self.heap.record_count:
                self.index.rebuild(self._index_entries())
        else:
            self.index_disk = None
            self.index = KeywordIndex()
            if index_snapshot is not None:
                # A store template carries the prototype's postings, so
                # a clone skips the decode-everything heap rescan.
                self.index.load_snapshot(index_snapshot)
            elif self.heap.record_count:
                self.index.rebuild(self._index_entries())

    def _index_entries(self):
        return (
            (rid, StoredObject.decode(record).keywords)
            for rid, record in self.heap.scan()
        )

    def _recover_from_wal(self) -> None:
        """Replay committed page images onto the heap disk, then reset."""
        assert self.wal is not None
        replayed = 0
        for _lsn, page_id, data in self.wal.replay():
            while page_id >= self.disk.num_pages:
                self.disk.allocate_page()
            self.disk.write_page(page_id, data)
            replayed += 1
        if replayed:
            self.wal.truncate()

    # -- mutation ----------------------------------------------------------------

    def put(self, keywords: Iterable[str], payload: bytes) -> RecordId:
        """Store a new sharable object; returns its record id."""
        self._check_open()
        obj = StoredObject(tuple(keywords), bytes(payload))
        rid = self.heap.insert(obj.encode())
        self.index.add(rid, obj.keywords)
        return rid

    def put_many(
        self,
        items: Iterable[tuple[Sequence[str], bytes]],
        durable: bool = False,
    ) -> list[RecordId]:
        """Store a batch of ``(keywords, payload)`` objects in one pass.

        The bulk path packs records page-at-a-time with deferred
        free-space accounting (:meth:`HeapFile.insert_many`) and updates
        the keyword index in one batch; record ids, index contents,
        search results, and buffer statistics are bit-identical to a
        :meth:`put` loop (``tests/storm/test_bulk_load.py`` pins that).

        ``durable=True`` additionally issues one grouped
        :meth:`commit` for the whole batch — equivalent to a per-record
        loop followed by a single commit; requires a WAL-backed store.
        """
        self._check_open()
        objs = [
            StoredObject(tuple(keywords), bytes(payload))
            for keywords, payload in items
        ]
        records = [obj.encode() for obj in objs]
        # An oversized record leaves a per-record loop half done:
        # everything before it stored *and indexed*.  Split there so the
        # failure state matches exactly.
        bad = next(
            (
                i
                for i, record in enumerate(records)
                if len(record) > self.heap.max_record_size
            ),
            None,
        )
        prefix = records if bad is None else records[:bad]
        rids = self.heap.insert_many(prefix)
        self.index.insert_many(
            zip(rids, (obj.keywords for obj in objs)), normalized=True
        )
        if bad is not None:
            raise PageError(
                f"record of {len(records[bad])} bytes exceeds max "
                f"{self.heap.max_record_size} for this page size"
            )
        if durable:
            self.commit()
        return rids

    def share_many(
        self,
        items: Iterable[tuple[Sequence[str], bytes]],
        durable: bool = False,
    ) -> list[RecordId]:
        """Alias of :meth:`put_many` under the node-facing name."""
        return self.put_many(items, durable=durable)

    def delete(self, rid: RecordId) -> None:
        """Remove an object (and its index postings)."""
        self._check_open()
        obj = self.get(rid)
        self.heap.delete(rid)
        self.index.remove(rid, obj.keywords)

    # -- lookup ------------------------------------------------------------------

    def get(self, rid: RecordId) -> StoredObject:
        """Fetch one object by record id."""
        self._check_open()
        return StoredObject.decode(self.heap.read(rid))

    def scan(self) -> Iterator[tuple[RecordId, StoredObject]]:
        """Yield every stored object in page order.

        Pages whose contents have not changed since the last scan (checked
        via :meth:`HeapFile.page_version`) reuse their previously decoded
        objects instead of re-parsing every record.  Each page is pinned
        and unpinned exactly as an uncached scan would, so buffer hit/miss
        statistics — and therefore simulated I/O cost — are identical.
        """
        self._check_open()
        heap = self.heap
        for page_id in range(heap.page_count):
            version = heap.page_version(page_id)
            cached = self._scan_cache.get(page_id) if self._scan_cache_enabled else None
            data = heap.buffer.pin(page_id)
            try:
                if cached is not None and cached[0] == version:
                    self.scan_cache_hits += 1
                    entries = cached[1]
                else:
                    self.scan_cache_misses += 1
                    page = SlottedPage(data)
                    entries = [
                        (RecordId(page_id, slot), StoredObject.decode(record))
                        for slot, record in page.records()
                    ]
                    if self._scan_cache_enabled:
                        self._scan_cache[page_id] = (version, entries)
            finally:
                heap.buffer.unpin(page_id)
            yield from entries

    def search(self, keyword: str) -> SearchResult:
        """Keyword search via the inverted index (reads only matching pages).

        Returns the same match set, in the same heap order, as
        :meth:`search_scan` — both paths now rank through the index's
        :meth:`~repro.storm.index.KeywordIndex.lookup_ordered` heap
        ordering, pinned by the consistency battery in
        ``tests/storm/test_scored_search.py``.
        """
        self._check_open()
        before = self.buffer.stats.snapshot()
        result = SearchResult(keyword)
        rids = self.index.lookup_ordered(keyword)
        for rid in rids:
            result.matches.append((rid, self.get(rid)))
        result.objects_examined = len(rids)
        result.io = self.buffer.stats.since(before)
        return result

    def scored_search(self, keyword: str, k: int | None = None) -> ScoredSearchResult:
        """Scored keyword search via the inverted index.

        Each match carries a TF-style score
        (:meth:`~repro.storm.objects.StoredObject.score`: matching-tag
        count over total tag count) and the result is ordered score
        descending with heap-order (page, slot) tie-breaks.  ``k``
        bounds how many matches are surfaced; the cut count is reported
        in :attr:`ScoredSearchResult.truncated`.  Scores come from the
        decoded object's full tag tuple — never from the postings sets,
        which deduplicate and therefore cannot see repeated tags — so
        the index and scan paths score identically.
        """
        self._check_open()
        _check_k(k)
        before = self.buffer.stats.snapshot()
        result = ScoredSearchResult(keyword)
        scored = []
        rids = self.index.lookup_ordered(keyword)
        for rid in rids:
            obj = self.get(rid)
            scored.append((obj.score(keyword), rid, obj))
        result.objects_examined = len(rids)
        _settle_scored(result, scored, k)
        result.io = self.buffer.stats.since(before)
        return result

    def scored_search_scan(
        self, keyword: str, k: int | None = None
    ) -> ScoredSearchResult:
        """Scored keyword search by full scan — the paper's agent walk.

        Same scores, order, and ``k`` semantics as :meth:`scored_search`
        (the consistency battery asserts bit-equality), at the full-scan
        cost profile of :meth:`search_scan`.
        """
        self._check_open()
        _check_k(k)
        before = self.buffer.stats.snapshot()
        result = ScoredSearchResult(keyword)
        scored = []
        for rid, obj in self.scan():
            result.objects_examined += 1
            score = obj.score(keyword)
            if score > 0.0:
                scored.append((score, rid, obj))
        _settle_scored(result, scored, k)
        result.io = self.buffer.stats.since(before)
        return result

    def search_scan(self, keyword: str) -> SearchResult:
        """Keyword search by full scan — the paper's StorM agent behaviour.

        Every stored object is compared against the query, touching every
        page of the heap file; this is the default query path in the
        reproduction because it is what the evaluated prototype did.
        """
        self._check_open()
        before = self.buffer.stats.snapshot()
        result = SearchResult(keyword)
        for rid, obj in self.scan():
            result.objects_examined += 1
            if obj.matches(keyword):
                result.matches.append((rid, obj))
        result.io = self.buffer.stats.since(before)
        return result

    def grep(self, needle: bytes) -> SearchResult:
        """Content search: objects whose *payload* contains ``needle``.

        This is the finer granularity the paper motivates ("most of the
        existing P2P systems ... ignore the content of the file"): a
        full scan comparing payload bytes, with the same cost accounting
        as :meth:`search_scan`.
        """
        self._check_open()
        needle = bytes(needle)
        before = self.buffer.stats.snapshot()
        result = SearchResult(keyword=f"grep:{needle!r}")
        for rid, obj in self.scan():
            result.objects_examined += 1
            if needle in obj.payload:
                result.matches.append((rid, obj))
        result.io = self.buffer.stats.since(before)
        return result

    def vacuum(self) -> int:
        """Compact deletion holes in the heap; returns bytes reclaimed."""
        self._check_open()
        return self.heap.vacuum()

    # -- lifecycle -----------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of stored objects."""
        return self.heap.record_count

    @property
    def stats(self) -> AccessStats:
        """Cumulative buffer statistics."""
        return self.buffer.stats

    def flush(self) -> None:
        """Write all dirty pages (heap and index) to the backing disks."""
        self._check_open()
        self.buffer.flush_all()
        if self.index_disk is not None:
            self.index.flush()

    # -- durability (WAL) -----------------------------------------------------------

    def commit(self) -> None:
        """Make everything stored so far crash-durable.

        Logs the image of every dirty page plus a commit marker and
        syncs the WAL — one sequential write.  Data pages stay dirty in
        the pool (no-force); they reach the heap file on eviction or at
        the next :meth:`checkpoint`.
        """
        self._check_open()
        if self.wal is None:
            raise StormError("this store was opened without a WAL")
        for page_id, image in self.buffer.dirty_pages():
            self.wal.append(page_id, image)
        self.wal.mark_commit()
        self.wal.sync()

    def checkpoint(self) -> None:
        """Flush data pages, then truncate the (now redundant) log."""
        self._check_open()
        if self.wal is None:
            raise StormError("this store was opened without a WAL")
        self.buffer.flush_all()
        if hasattr(self.disk, "flush"):
            self.disk.flush()
        self.wal.truncate()

    def crash(self) -> None:
        """Abandon the store as a crash would: dirty pool contents are
        lost, nothing is flushed.  For durability tests."""
        if self._closed:
            return
        self.disk.close()
        if self.wal is not None:
            self.wal.close()
        if self.index_disk is not None:
            self.index_disk.close()
        self._closed = True

    def close(self) -> None:
        """Flush and release the backing disk(s) (idempotent)."""
        if self._closed:
            return
        self.buffer.flush_all()
        if self.wal is not None:
            self.wal.truncate()  # everything is in the heap file now
            self.wal.close()
        self.disk.close()
        if self.index_disk is not None:
            self.index.flush()
            self.index_disk.close()
        self._closed = True

    def __enter__(self) -> "StorM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageClosedError("StorM store is closed")
