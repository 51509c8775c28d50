"""The no-advance livelock watchdog and cancellable clock events."""

import pytest

from repro.sim import SimulationClock, Watchdog, WatchdogError


class TestCancellableEvents:
    def test_cancelled_event_never_fires(self):
        clock = SimulationClock()
        fired = []
        handle = clock.at_cancellable(1.0, fired.append, "late")
        clock.at(0.5, fired.append, "early")
        handle.cancel()
        clock.run()
        assert fired == ["early"]

    def test_cancelled_event_leaves_no_trace(self):
        """A cancelled entry is skipped entirely: not counted, and the
        clock never advances to its time — the property deadline
        identity rests on."""
        plain = SimulationClock()
        plain.at(1.0, lambda: None)
        plain.run()

        cancelled = SimulationClock()
        cancelled.at(1.0, lambda: None)
        handle = cancelled.at_cancellable(50.0, lambda: None)
        handle.cancel()
        cancelled.run()

        assert cancelled.now == plain.now == 1.0
        assert cancelled.events_dispatched == plain.events_dispatched == 1

    def test_uncancelled_handle_fires_normally(self):
        clock = SimulationClock()
        fired = []
        clock.at_cancellable(2.0, fired.append, "x")
        clock.run()
        assert fired == ["x"]
        assert clock.now == 2.0

    def test_cannot_schedule_into_the_past(self):
        clock = SimulationClock()
        clock.at(1.0, lambda: None)
        clock.run()
        with pytest.raises(ValueError, match="past"):
            clock.at_cancellable(0.5, lambda: None)


class TestWatchdog:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Watchdog(max_events_per_instant=0)
        with pytest.raises(ValueError, match="positive"):
            Watchdog(trace_events=0)

    def test_trips_on_same_instant_flood(self):
        watchdog = Watchdog(max_events_per_instant=5)
        for _ in range(5):
            watchdog.observe(1.0, lambda: None, ())
        with pytest.raises(WatchdogError) as excinfo:
            watchdog.observe(1.0, lambda: None, ())
        assert watchdog.tripped
        assert excinfo.value.at == 1.0
        assert "livelock" in str(excinfo.value)

    def test_advancing_time_resets_the_count(self):
        watchdog = Watchdog(max_events_per_instant=3)
        for step in range(100):
            for _ in range(3):
                watchdog.observe(float(step), lambda: None, ())
        assert not watchdog.tripped

    def test_diagnostic_names_the_spinning_callback(self):
        def spinning_callback():
            pass

        watchdog = Watchdog(max_events_per_instant=2, trace_events=4)
        with pytest.raises(WatchdogError) as excinfo:
            for _ in range(5):
                watchdog.observe(2.5, spinning_callback, ())
        assert "spinning_callback" in excinfo.value.diagnostic
        assert "t=2.500000s" in excinfo.value.diagnostic

    def test_clock_integration_aborts_livelock(self):
        """A callback rescheduling itself at the current instant is the
        exact livelock class; the armed clock raises instead of
        spinning toward the 50M-event runaway guard."""
        clock = SimulationClock()
        clock.watchdog = Watchdog(max_events_per_instant=100)

        def respin():
            clock.at(clock.now, respin)

        clock.at(0.0, respin)
        with pytest.raises(WatchdogError):
            clock.run()
        assert clock.watchdog.tripped

    def test_armed_watchdog_is_invisible_when_quiet(self):
        """Pure observation: an armed watchdog that never trips changes
        nothing about the run."""
        def advance(clock, depth):
            if depth:
                clock.after(1.0, advance, clock, depth - 1)

        plain = SimulationClock()
        plain.at(0.0, advance, plain, 10)
        plain.run()

        armed = SimulationClock()
        armed.watchdog = Watchdog(max_events_per_instant=2)
        armed.at(0.0, advance, armed, 10)
        armed.run()

        assert armed.now == plain.now
        assert armed.events_dispatched == plain.events_dispatched
        assert not armed.watchdog.tripped


class _Probe:
    """An event argument exposing one of the probed attributes."""

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


def _eager_line(fn, args):
    """The diagnostic line the watchdog formatted eagerly at every
    dispatch before the ring buffer kept raw events."""
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


class TestLazyTrace:
    def test_diagnostic_matches_eager_formatting(self):
        """Raw events described at trip time read exactly as the old
        per-dispatch formatting: wrap-around keeps the newest events,
        more than three args end in ``...``, and the index/name/ident
        probes (first non-callable one wins) name the arguments."""
        def step():
            pass

        def spin():
            pass

        events = [
            (0.5, step, ()),
            (1.0, step, (_Probe(index=3),)),
            (1.0, spin, (_Probe(name="Q1:J0"), _Probe(ident=7), 2.5)),
            (1.0, spin, (1, "x", None, 4, 5)),
            (1.0, step, (_Probe(index=None, name="n", ident=9),)),
            (1.0, step, (_Probe(index=len, ident=4),)),
            (1.0, spin, (_Probe(index=0, name="both"),)),
        ]
        watchdog = Watchdog(max_events_per_instant=5, trace_events=4)
        expected = []
        with pytest.raises(WatchdogError) as excinfo:
            for time, fn, args in events:
                expected.append(f"  t={time:.6f}s  {_eager_line(fn, args)}")
                watchdog.observe(time, fn, args)
        assert excinfo.value.diagnostic == "\n".join(
            ["last 4 events before the watchdog tripped:"] + expected[-4:]
        )
        qualname = spin.__qualname__
        assert excinfo.value.diagnostic.splitlines()[1:] == [
            f"  t=1.000000s  {qualname}(int, str, NoneType, ...)",
            f"  t=1.000000s  {step.__qualname__}(_Probe(name=n))",
            f"  t=1.000000s  {step.__qualname__}(_Probe(ident=4))",
            f"  t=1.000000s  {qualname}(_Probe(index=0))",
        ]

    def test_quiet_run_never_describes_an_event(self, monkeypatch):
        """A multi-query workload arms the watchdog by default; when it
        never trips, no event is ever formatted."""
        from repro import api
        from repro.sim import MachineConfig
        from repro.sim import watchdog as watchdog_module

        def refuse(fn, args):
            raise AssertionError("event described without a trip")

        monkeypatch.setattr(watchdog_module, "_describe", refuse)
        result = api.run_workload(
            "wide_bushy", arrivals="poisson", rate=2.0, duration=10.0,
            seed=1, machine_size=12, policy="round_robin", share=6,
            strategy="SE", cardinality=300,
            config=MachineConfig(
                tuple_unit=0.001, process_startup=0.008, handshake=0.012,
                network_latency=0.05, batches=8,
            ),
        )
        assert len(result.completed()) > 1
        assert result.peak_in_flight > 1

        # Tripping is what pays for the descriptions: one per buffered
        # event, all at dump time.
        described = []
        monkeypatch.setattr(
            watchdog_module,
            "_describe",
            lambda fn, args: described.append(fn) or "event",
        )
        watchdog = Watchdog(max_events_per_instant=3, trace_events=2)
        for _ in range(3):
            watchdog.observe(1.0, refuse, ())
        assert described == []
        with pytest.raises(WatchdogError):
            watchdog.observe(1.0, refuse, ())
        assert described == [refuse, refuse]
