"""The pace loop: a machine-speed reference for the benchmark's host metrics.

On a shared host the same process runs 20-30% faster or slower from one
minute to the next, as neighbours come and go.  The pace loop measures
that speed while the program runs: a thread of fixed pure-Python work
(heap, dict, list and attribute traffic, as in a discrete-event
simulator) that wakes every ``NAP_S`` seconds and runs one short chunk,
interleaved with the timed call through the interpreter lock.  It never
imports ``repro``, so a change to the program cannot move it.

The host metrics are expressed at ``NOMINAL_OPS_PER_S``: a cost measured
while the pace loop ran at ``p`` ops/s is scaled by ``p / NOMINAL_OPS_PER_S``.
"""

from __future__ import annotations

import heapq
import threading
import time

#: The speed the host metrics are expressed at, pace ops per second.
NOMINAL_OPS_PER_S = 500_000.0
#: Pace ops in one chunk (about 2 ms at the nominal speed).
CHUNK = 1_000
#: Sleep between two chunks of the pace thread.
NAP_S = 0.03
#: Chunks of the in-line measurement that follows each set-up.
SETUP_CHUNKS = 64


class _Event:
    __slots__ = ("at", "key", "value")

    def __init__(self, at, key, value):
        self.at = at
        self.key = key
        self.value = value


def _chunk(ops: int = CHUNK) -> float:
    """``ops`` pace ops: fixed work, the same on every call."""
    heap, table, acc = [], {}, 0.0
    for i in range(ops):
        heapq.heappush(heap, (((i * 7919) % 1000) * 0.001 + i * 1e-6, i,
                              _Event(i * 0.5, i & 255, acc)))
        if len(heap) > 64:
            at, _, event = heapq.heappop(heap)
            record = table.get(event.key)
            if record is None:
                record = table[event.key] = [0, 0.0, []]
            record[0] += 1
            record[1] += at * event.at
            record[2].append(event.value)
            if len(record[2]) > 32:
                acc += sum(record[2]) / len(record[2])
                record[2] = []
    return acc


def measure(chunks: int = SETUP_CHUNKS) -> float:
    """Pace ops per CPU second of ``chunks`` chunks run in line."""
    began = time.thread_time()
    for _ in range(chunks):
        _chunk()
    return chunks * CHUNK / (time.thread_time() - began)


class PaceThread:
    """Runs pace chunks beside the main thread until :meth:`stop`."""

    def __init__(self):
        self._stop = threading.Event()
        self._cpu_s = 0.0
        self._chunks = 0
        self._thread = threading.Thread(target=self._loop, name="pace", daemon=True)

    def _loop(self):
        while not self._stop.is_set():
            began = time.thread_time()
            _chunk()
            self._cpu_s += time.thread_time() - began
            self._chunks += 1
            self._stop.wait(NAP_S)

    def start(self) -> "PaceThread":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stops the thread; pace ops per CPU second while it ran."""
        self._stop.set()
        self._thread.join()
        if not self._chunks:
            return measure(1)
        return self._chunks * CHUNK / self._cpu_s
