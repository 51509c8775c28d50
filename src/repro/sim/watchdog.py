"""Simulation progress watchdog.

A discrete-event run can only hang in one way: events keep firing at
the same simulated instant without the clock ever advancing (the PR 2
reviewer livelock — a zero-think-time closed loop resubmitting at the
exact instant of its rejection).  The generic ``max_events`` guard in
:meth:`~repro.sim.events.SimulationClock.run` does eventually trip,
but only after tens of millions of wasted dispatches and with no clue
about *what* was spinning.

A :class:`Watchdog` attaches to a clock
(``clock.watchdog = Watchdog(...)``), observes every dispatch, and
raises :class:`WatchdogError` as soon as more than
``max_events_per_instant`` events fire without the clock advancing —
carrying a diagnostic dump of the most recent events so the offending
callback loop is visible in the traceback instead of requiring a
debugger on a wedged process.

The watchdog is pure observation: it never changes event order,
timing, or counts, so an armed watchdog that does not trip is
invisible to results (the workload engine arms one by default).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Tuple

#: Default trip threshold.  Legitimate workloads dispatch at most a few
#: thousand events at one instant (bounded by machine size × concurrent
#: queries); a livelock blows past this within milliseconds of wall
#: time instead of spinning toward the 50M-event runaway guard.
DEFAULT_MAX_EVENTS_PER_INSTANT = 100_000

#: How many recent events the diagnostic dump shows.
DEFAULT_TRACE_EVENTS = 20


class WatchdogError(RuntimeError):
    """The simulation stopped making progress (no-advance livelock)."""

    def __init__(self, message: str, at: float, diagnostic: str):
        super().__init__(f"{message}\n{diagnostic}")
        self.at = at
        self.diagnostic = diagnostic


def _describe(fn: Callable, args: tuple) -> str:
    """One compact line for one event: callback name plus a bounded
    argument summary (reprs can be huge for simulator internals)."""
    name = getattr(fn, "__qualname__", None) or getattr(
        fn, "__name__", repr(fn)
    )
    parts = []
    for arg in args[:3]:
        text = type(arg).__name__
        for attr in ("index", "name", "ident"):
            value = getattr(arg, attr, None)
            if value is not None and not callable(value):
                text = f"{text}({attr}={value})"
                break
        parts.append(text)
    if len(args) > 3:
        parts.append("...")
    return f"{name}({', '.join(parts)})"


class Watchdog:
    """No-advance livelock detector for one :class:`SimulationClock`.

    ``max_events_per_instant``
        Trip threshold: the number of consecutive events dispatched at
        one simulated time before the run is declared livelocked.
    ``trace_events``
        Ring-buffer size of the diagnostic event dump.
    """

    def __init__(
        self,
        max_events_per_instant: int = DEFAULT_MAX_EVENTS_PER_INSTANT,
        trace_events: int = DEFAULT_TRACE_EVENTS,
    ):
        if max_events_per_instant < 1:
            raise ValueError("max_events_per_instant must be positive")
        if trace_events < 1:
            raise ValueError("trace_events must be positive")
        self.max_events_per_instant = max_events_per_instant
        self._instant: float = float("-inf")
        self._count_at_instant = 0
        # Raw (time, fn, args) events: they are described only in
        # dump(), i.e. when the watchdog trips, never per dispatch.
        self._recent: Deque[Tuple[float, Callable, Tuple[Any, ...]]] = deque(
            maxlen=trace_events
        )
        self.tripped = False

    # -- the clock's per-dispatch hook ------------------------------------

    def observe(self, time: float, fn: Callable, args: tuple) -> None:
        """Called by the clock before dispatching each event."""
        if time != self._instant:
            self._instant = time
            self._count_at_instant = 1
        else:
            self._count_at_instant += 1
        self._recent.append((time, fn, args))
        if self._count_at_instant > self.max_events_per_instant:
            self.tripped = True
            raise WatchdogError(
                f"simulation livelock: {self._count_at_instant} events "
                f"dispatched at simulated t={time:.6f}s without the clock "
                "advancing (a callback keeps rescheduling itself at the "
                "current instant)",
                at=time,
                diagnostic=self.dump(),
            )

    # -- diagnostics ------------------------------------------------------

    def dump(self) -> str:
        """The recent-event trace as a readable diagnostic block."""
        lines: List[str] = [
            f"last {len(self._recent)} events before the watchdog tripped:"
        ]
        for time, fn, args in self._recent:
            lines.append(f"  t={time:.6f}s  {_describe(fn, args)}")
        return "\n".join(lines)


__all__ = [
    "DEFAULT_MAX_EVENTS_PER_INSTANT",
    "DEFAULT_TRACE_EVENTS",
    "Watchdog",
    "WatchdogError",
]
