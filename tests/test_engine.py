"""Unit tests for the discrete-event engine."""

import math
import sysconfig
from pathlib import Path

import pytest

import repro.sim.engine
from repro.sim import _core
from repro.sim.engine import Event, PeriodicTimer, Simulator
from repro.util import cbuild


class TestScheduling:
    def test_runs_callbacks_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, lambda: order.append("c"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.2, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda l=label: order.append(l))
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_clamped_to_now(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(-5.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.0]

    def test_schedule_at_in_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling_runs_same_pass(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0.1, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]


NAN = float("nan")


class TestNaNTimes:
    """A NaN time passes a ``time < now`` check; every entry point must
    reject it, or the loop runs it and ``now`` becomes NaN, after which
    every past-time check passes too."""

    @pytest.mark.parametrize("schedule", [
        lambda sim, cb: sim.schedule(NAN, cb),
        lambda sim, cb: sim.schedule_at(NAN, cb),
        lambda sim, cb: sim.schedule_claimed(NAN, sim.claim_seq(), cb),
    ], ids=["schedule", "schedule_at", "schedule_claimed"])
    def test_scheduling_rejects_nan(self, schedule):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(sim.now))
        sim.schedule_at(3.0, lambda: seen.append(sim.now))
        with pytest.raises(ValueError, match="NaN time: nan"):
            schedule(sim, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0, 3.0]
        assert sim.now == 3.0 and sim.pending_events == 0

    @pytest.mark.parametrize("rearm", [
        lambda sim, event: sim.reschedule(event, NAN),
        lambda sim, event: sim.reschedule_at(event, NAN),
        lambda sim, event: sim.requeue_claimed(event, NAN, sim.claim_seq()),
    ], ids=["reschedule", "reschedule_at", "requeue_claimed"])
    def test_rearming_rejects_nan(self, rearm):
        sim = Simulator()
        errors, fired = [], []

        def fire():
            fired.append(sim.now)
            if len(fired) > 1:
                return  # the NaN entry ran
            try:
                rearm(sim, event)
            except ValueError as exc:
                errors.append(str(exc))

        event = sim.schedule_at(1.0, fire)
        sim.run()
        assert fired == [1.0]
        assert len(errors) == 1 and "NaN time: nan" in errors[0]
        assert sim.now == 1.0 and sim.pending_events == 0
        assert sim.events_processed == 1

    def test_past_time_keeps_its_message(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(ValueError,
                           match=r"cannot schedule in the past: 0.5 < now=1.0"):
            sim.schedule_at(0.5, lambda: None)
        assert not math.isnan(sim.now)


class TestRunUntil:
    def test_until_leaves_later_events_queued(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(3.0, lambda: seen.append(3))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_consecutive_runs_compose(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(3.0, lambda: seen.append(3))
        sim.run(until=2.0)
        sim.run(until=4.0)
        assert seen == [1, 3]
        assert sim.now == 4.0

    def test_run_until_advances_now_even_without_events(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_event_exactly_at_until_boundary_runs(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append("x"))
        sim.run(until=2.0)
        assert seen == ["x"]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append("x"))
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        cancelled = sim.schedule(2.0, lambda: None)
        cancelled.cancel()
        assert sim.pending_events == 1


class TestStep:
    def test_step_runs_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]

    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestEventOrdering:
    def test_event_lt_by_time_then_seq(self):
        early = Event(1.0, 5, lambda: None)
        late = Event(2.0, 1, lambda: None)
        assert early < late
        a = Event(1.0, 1, lambda: None)
        b = Event(1.0, 2, lambda: None)
        assert a < b


class TestPeriodicTimer:
    def test_fires_at_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 0.5, lambda: ticks.append(sim.now))
        sim.run(until=2.1)
        assert ticks == [0.5, 1.0, 1.5, 2.0]

    def test_start_delay_zero_fires_immediately(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now), start_delay=0.0)
        sim.run(until=2.5)
        assert ticks == [0.0, 1.0, 2.0]

    def test_stop_prevents_further_firing(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.5, lambda: ticks.append(sim.now))
        sim.schedule(1.1, timer.stop)
        sim.run(until=5.0)
        assert ticks == [0.5, 1.0]
        assert not timer.running

    def test_callback_may_stop_its_own_timer(self):
        sim = Simulator()
        ticks = []
        timer = None

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                timer.stop()

        timer = PeriodicTimer(sim, 1.0, tick)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)


class TestCoreBuild:
    """The C core is built once per source, compiler command and Python
    ABI, and cached beside the package."""

    def test_loaded_from_the_cache_for_this_interpreter(self):
        built = Path(_core.__file__)
        package = Path(repro.sim.engine.__file__).parent
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        assert built == cbuild.cached_path(
            package / "__pycache__", "core",
            (package / "_core.c").read_bytes(), cbuild.EXTENSION_FLAGS,
            suffix, extra=(suffix,))
        assert isinstance(Simulator(), _core.Engine)

    def test_cache_key_covers_the_abi_and_the_include_directory(self):
        def key(include, suffix):
            return cbuild.cached_path(Path("cache"), "core", b"source",
                                      ("-O2", "-I" + include), suffix,
                                      extra=(suffix,))

        names = {key("/py310", ".cpython-310-x86_64-linux-gnu.so"),
                 key("/py311", ".cpython-310-x86_64-linux-gnu.so"),
                 key("/py310", ".cpython-311-x86_64-linux-gnu.so")}
        assert len(names) == 3

