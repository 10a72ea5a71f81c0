"""Store provisioning for experiments: bulk load once, clone thereafter.

Every figure sweep loads the same per-node corpus (plus optional placed
answers) into a fresh StorM store at every sweep point.
:func:`provision_store` funnels all of that through two fast paths:

* the objects are inserted with :meth:`StorM.put_many` (bulk load), and
* the populated store is frozen into a
  :class:`~repro.storm.template.StoreTemplate` keyed by a content digest
  of the exact object sequence, so the next sweep point needing the
  same (corpus, node, size) combination gets a copy-on-write clone
  instead of re-inserting a thousand objects.

Both paths are observationally identical to a fresh ``put`` loop —
record ids, postings, search results, and per-search buffer deltas all
match bit-for-bit.  ``tests/storm/test_bulk_load.py`` pins that per
store, and the recorded goldens checked by
``tests/eval/test_fastpath_determinism.py`` pin the figures built on
provisioned stores.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Sequence

from repro.storm.store import StorM
from repro.storm.template import (
    StoreTemplate,
    cached_template,
    register_template,
)
from repro.workloads.corpus import KeywordCorpus, generate_objects
from repro.workloads.placement import AnswerPlacement

_U32 = struct.Struct("<I")

#: ``(keywords, payload)`` pairs as :meth:`StorM.put_many` accepts them.
Items = list[tuple[tuple[str, ...], bytes]]


def experiment_items(
    node_index: int,
    *,
    count: int,
    size: int,
    corpus: KeywordCorpus,
    seed: int,
    placement: AnswerPlacement | None = None,
) -> Items:
    """One node's full object load: background corpus + placed answers."""
    items: Items = [
        (spec.keywords, spec.payload)
        for spec in generate_objects(
            node_index, count=count, size=size, corpus=corpus, seed=seed
        )
    ]
    if placement is not None:
        items.extend(
            ((placement.keyword,), payload)
            for payload in placement.objects_for(node_index, size=size)
        )
    return items


def content_digest(items: Sequence[tuple[Sequence[str], bytes]]) -> str:
    """A collision-resistant key for an exact object sequence.

    Every field is length-prefixed, so no two distinct sequences share
    an encoding; templates cached under this key can only ever be
    cloned for a byte-identical load.
    """
    hasher = hashlib.sha256()
    for keywords, payload in items:
        for keyword in keywords:
            raw = keyword.encode("utf-8")
            hasher.update(_U32.pack(len(raw)))
            hasher.update(raw)
        hasher.update(b"\xff")
        hasher.update(_U32.pack(len(payload)))
        hasher.update(payload)
    return hasher.hexdigest()


def store_for_items(items: Items) -> StorM:
    """A store holding exactly ``items``, via the template registry.

    The first call per distinct item sequence builds and registers a
    template; later calls clone it.
    """
    key = content_digest(items)
    template = cached_template(key)
    if template is None:
        prototype = StorM()
        prototype.put_many(items)
        template = StoreTemplate.from_store(prototype)
        prototype.close()
        register_template(key, template)
    return template.instantiate()


def provision_store(
    node_index: int,
    *,
    count: int,
    size: int,
    corpus: KeywordCorpus,
    seed: int,
    placement: AnswerPlacement | None = None,
    warm: bool = True,
) -> StorM:
    """Build one experiment node's store, ready to attach to the node.

    ``warm=True`` reproduces the figures' warm-up scan (touch every
    page once) so cold-cache I/O does not drown protocol effects.
    """
    items = experiment_items(
        node_index,
        count=count,
        size=size,
        corpus=corpus,
        seed=seed,
        placement=placement,
    )
    store = store_for_items(items)
    if warm:
        store.search_scan(corpus.keyword(0))
    return store
