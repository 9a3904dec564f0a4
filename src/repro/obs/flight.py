"""Flight recorder: an always-on ring of compact job/fault records.

Spans answer "where did this job spend its time", but only when someone
turned tracing on *before* the interesting failure.  The paper's
production posture is the opposite: the NX counters are always live, so
a post-mortem starts from data that was already being collected.  The
flight recorder is that posture in software — a fixed-size
``deque(maxlen=...)`` of ``(perf_counter, kind, fields)`` tuples that
every layer appends compact records to unconditionally (one call and
one ring append per record; the cost is measured by
``benchmarks/bench_obs_overhead.py`` and gated by
``tools/perf_gate.py`` alongside the null-span overhead).

On the paths where an operator would want the story — an injected
chaos fault, a breaker opening, a blown deadline, a worker crash — the
layer calls :meth:`FlightRecorder.auto_dump`, which writes the ring to
a JSON file.  Dumps are throttled (a minimum interval and a per-process
cap) so a fault storm produces a handful of files, not thousands.

Environment knobs:

* ``REPRO_FLIGHT=0`` disables recording entirely;
* ``REPRO_FLIGHT_DIR`` sets the dump directory (default: the system
  temp dir, so test runs and CI never litter the working tree).

The ring is process-local; worker processes own their own rings and
dump independently (the dump file name carries the pid).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

#: Records kept in the ring; compact tuples, so this is ~a few hundred
#: KB of bounded memory at the default capacity.
DEFAULT_CAPACITY = 4096

#: Throttle: at most one dump per interval, at most this many per
#: process lifetime (a crash loop must not fill the disk).
MIN_DUMP_INTERVAL_S = 1.0
MAX_DUMPS_PER_PROCESS = 8


class FlightRecorder:
    """Fixed-size ring of compact event records with throttled dumps."""

    def __init__(self) -> None:
        self.enabled = os.environ.get("REPRO_FLIGHT", "1") != "0"
        self.dumps_written = 0
        self.dumps_suppressed = 0
        self._ring: deque = deque(maxlen=DEFAULT_CAPACITY)
        self._epoch_time_s = time.time()
        self._epoch_perf_s = time.perf_counter()
        self._last_dump_s = float("-inf")
        self._dump_lock = threading.Lock()
        self._seq = 0

    # -- recording (the hot path) ------------------------------------------

    def record(self, kind: str, /, **fields: object) -> None:
        """Append one compact record; near-free, never raises.

        ``deque.append`` with a ``maxlen`` is atomic under the GIL, so
        the hot path takes no lock.  ``kind`` is positional-only so a
        field may itself be named ``kind`` (the rescue path does).
        """
        if not self.enabled:
            return
        self._ring.append((time.perf_counter(), kind, fields))

    # -- lifecycle ----------------------------------------------------------

    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def reset(self) -> None:
        """Drop the ring and the dump throttle state (tests)."""
        self._ring.clear()
        self.dumps_written = 0
        self.dumps_suppressed = 0
        self._last_dump_s = float("-inf")
        self._seq = 0

    def __len__(self) -> int:
        return len(self._ring)

    # -- inspection / dumping ------------------------------------------------

    def snapshot(self) -> list[dict]:
        """The ring as JSON-able records with absolute timestamps.

        A field whose name collides with the record envelope (``t_s``,
        ``kind``) is kept under an ``f_`` prefix instead of clobbering
        the envelope — the rescue path legitimately records a ``kind``
        field of its own.
        """
        offset = self._epoch_time_s - self._epoch_perf_s
        records = []
        for t, kind, fields in list(self._ring):
            rec = {"t_s": round(t + offset, 6), "kind": kind}
            for key, value in fields.items():
                rec[("f_" + key) if key in rec else key] = value
            records.append(rec)
        return records

    @staticmethod
    def dump_dir() -> str:
        import tempfile  # pulls in shutil and random: only a dump pays

        return os.environ.get("REPRO_FLIGHT_DIR") or tempfile.gettempdir()

    def dump(self, reason: str, /, path: str | os.PathLike | None = None,
             **fields: object) -> str | None:
        """Write the ring to a JSON file; returns the path, None on error.

        Dumping must never take down the path that triggered it, so any
        OS error is swallowed (and counted as suppressed).
        """
        self._seq += 1
        if path is None:
            path = os.path.join(
                self.dump_dir(),
                f"repro-flight-{os.getpid()}-{self._seq}.json")
        doc = {
            "reason": reason,
            "pid": os.getpid(),
            "time_s": time.time(),
            "capacity": DEFAULT_CAPACITY,
            "records": self.snapshot(),
        }
        if fields:
            doc["detail"] = {k: repr(v) if not isinstance(
                v, (str, int, float, bool, type(None))) else v
                for k, v in fields.items()}
        try:
            with open(path, "w") as handle:
                json.dump(doc, handle, indent=1)
        except OSError:
            self.dumps_suppressed += 1
            return None
        self.dumps_written += 1
        return os.fspath(path)

    def auto_dump(self, reason: str, /, **fields: object) -> str | None:
        """Throttled dump for fault paths; returns the path or None.

        The trigger itself is recorded first, so the dump (and the ring
        any *later* dump sees) contains it.
        """
        if not self.enabled:
            return None
        self.record(f"dump.{reason}", **fields)
        with self._dump_lock:
            now = time.perf_counter()
            if (self.dumps_written >= MAX_DUMPS_PER_PROCESS
                    or now - self._last_dump_s < MIN_DUMP_INTERVAL_S):
                self.dumps_suppressed += 1
                return None
            self._last_dump_s = now
        return self.dump(reason, **fields)


#: The process-global recorder every layer appends to.
FLIGHT = FlightRecorder()
