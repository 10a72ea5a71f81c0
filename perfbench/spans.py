"""In-memory span recorder and the layer wrappers of the traced run.

A span is one call into a layer's entry point: its name, start, end,
parent span and the operation it ran under.  Spans live in flat arrays
while the run is going and are written out once, at the end.  A span's
self time is its duration minus the part its child spans cover; since
the program is single-threaded, children nest strictly inside their
parent and that part is simply the sum of the children's durations.

``install_layer_spans`` wraps each layer's entry points on their classes
(the program's own files are not touched).  It must run before the
deployment is built, because hosts bind handler methods at construction.
The wrappers only read the clock and append to arrays: they change no
argument, return value or call order, so every simulated quantity of a
traced run equals the untraced run's.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path

#: The layers of the program, named after its top-level modules, plus
#: ``bench`` for the benchmark's own regions (set-up and one span per
#: operation), whose self time is the unattributed remainder.
LAYERS = ("storm", "net", "sim", "agents", "core", "replication", "workloads")
BENCH_SPANS = ("bench.setup", "bench.op")


class SpanRecorder:
    """Flat arrays of spans plus the stack of currently open ones."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        #: operation id stamped on new spans (0 during set-up)
        self.current_op = 0
        #: simulator events fired (counted, not spanned: one per event)
        self.events = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records one span ``name``."""
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, ops = self.parent, self.op

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return spanned

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def summary(self) -> dict:
        """Per-name calls and self seconds, plus the bench-region totals.

        ``wall_s`` is the summed duration of the benchmark's regions;
        ``stray`` counts program spans recorded outside any region
        (there must be none, or the breakdown would not add up).
        """
        count = len(self.start)
        self_s = [0.0] * count
        starts, ends, parents = self.start, self.end, self.parent
        for index in range(count):
            duration = ends[index] - starts[index]
            self_s[index] += duration
            parent = parents[index]
            if parent >= 0:
                self_s[parent] -= duration
        per_name: dict[str, list] = {name: [0, 0.0] for name in self.names}
        wall = 0.0
        stray = 0
        for index in range(count):
            name = self.names[self.name_id[index]]
            entry = per_name[name]
            entry[0] += 1
            entry[1] += self_s[index]
            if parents[index] < 0:
                if name in BENCH_SPANS:
                    wall += ends[index] - starts[index]
                else:
                    stray += 1
        return {
            "spans": count,
            "wall_s": wall,
            "stray": stray,
            "names": {name: {"calls": c, "self_s": s} for name, (c, s) in per_name.items()},
        }

    def write(self, stem: Path) -> None:
        """Write the spans as ``<stem>.json`` (header) + ``<stem>.bin``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.name_id, self.start, self.end, self.parent, self.op)
        header = {
            "names": self.names,
            "count": len(self.start),
            "fields": [
                {"name": field, "typecode": arr.typecode}
                for field, arr in zip(("name_id", "start", "end", "parent", "op"), arrays)
            ],
        }
        stem.with_suffix(".json").write_text(json.dumps(header))
        with open(stem.with_suffix(".bin"), "wb") as out:
            for arr in arrays:
                arr.tofile(out)


def load_spans(stem: Path) -> SpanRecorder:
    """Read back spans written by :meth:`SpanRecorder.write`."""
    header = json.loads(stem.with_suffix(".json").read_text())
    recorder = SpanRecorder()
    for name in header["names"]:
        recorder._intern(name)
    count = header["count"]
    with open(stem.with_suffix(".bin"), "rb") as source:
        for field in header["fields"]:
            target = getattr(recorder, field["name"])
            target.fromfile(source, count)
    return recorder


def _patch(recorder: SpanRecorder, cls, attrs, name: str) -> None:
    for attr in attrs:
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr)))


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap every traced layer entry point in the running process."""
    from repro.agents.codeship import AgentCodeRegistry
    from repro.agents.engine import AgentEngine
    from repro.core.node import BestPeerNode
    from repro.net import message
    from repro.net.network import Host, Network
    from repro.replication.manager import ReplicationManager
    from repro.sim.kernel import Simulator
    from repro.storm.store import StorM
    from repro.util.serialization import WireEncoder

    _patch(recorder, StorM, ("search", "search_scan", "scored_search", "scored_search_scan"), "storm.search")
    _patch(recorder, StorM, ("put", "put_many", "delete"), "storm.write")

    _patch(recorder, WireEncoder, ("encode",), "net.encode")
    _patch(recorder, Host, ("send",), "net.send")
    _patch(recorder, Network, ("_propagate", "_deliver"), "net.deliver")
    _patch(recorder, Host, ("_dispatch",), "net.deliver")
    decode = recorder.wrap("net.decode", message.Packet.payload.fget)
    undecoded = message._UNDECODED

    def payload(packet):
        cached = packet._decoded
        return decode(packet) if cached is undecoded else cached

    message.Packet.payload = property(payload, doc=message.Packet.payload.__doc__)

    _patch(recorder, Simulator, ("run",), "sim.run")
    step = Simulator.step

    def counted_step(sim):
        fired = step(sim)
        if fired:
            recorder.events += 1
        return fired

    Simulator.step = counted_step

    _patch(recorder, AgentEngine, ("dispatch",), "agents.dispatch")
    _patch(recorder, AgentCodeRegistry, ("install",), "agents.install")
    _patch(
        recorder,
        AgentEngine,
        ("_on_agent", "_on_class_request", "_on_class_response", "_release_outputs"),
        "agents.receive",
    )

    _patch(recorder, BestPeerNode, ("issue_query",), "core.query")
    _patch(recorder, BestPeerNode, ("finish_query",), "core.reconfig")
    _patch(recorder, BestPeerNode, ("_on_answer",), "core.answer")
    _patch(recorder, BestPeerNode, ("share", "share_many", "reshare", "unshare"), "core.share")

    _patch(
        recorder,
        ReplicationManager,
        (
            "on_share",
            "on_delete",
            "on_reshare",
            "note_query_hits",
            "replica_search",
            "self_answer",
            "cached_answers",
            "cache_answers",
            "note_peer_alive",
            "_on_offer",
            "_on_accept",
            "_on_push",
            "_on_invalidate",
            "_expire_offer",
        ),
        "replication",
    )
