"""CircuitBreaker transitions, deterministic via an injectable clock."""

from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make(clock):
    return CircuitBreaker(cooldown_s=10.0, clock=clock)


class TestConsecutiveFailureTrip:
    def test_trips_at_threshold(self):
        b = make(FakeClock())
        b.record_failure()
        b.record_failure()
        assert b.state == CLOSED
        b.record_failure()
        assert b.state == OPEN
        assert b.trips == 1

    def test_success_resets_the_streak(self):
        b = make(FakeClock())
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == CLOSED

    def test_open_sheds_completions(self):
        clock = FakeClock()
        b = make(clock)
        for _ in range(3):
            b.record_failure()
        assert not b.allow_completion()
        clock.advance(5.0)  # still inside the cooldown
        assert not b.allow_completion()


class TestProbeSchedule:
    def test_cooldown_half_opens_one_probe(self):
        clock = FakeClock()
        b = make(clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(10.0)
        assert b.allow_completion()  # the probe
        assert b.state == HALF_OPEN
        assert b.probes == 1
        assert not b.allow_completion()  # only one probe at a time

    def test_probe_success_closes(self):
        clock = FakeClock()
        b = make(clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(10.0)
        assert b.allow_completion()
        b.record_success()
        assert b.state == CLOSED
        assert b.allow_completion()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        b = make(clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(10.0)
        assert b.allow_completion()
        b.record_failure()
        assert b.state == OPEN
        assert b.trips == 2
        clock.advance(9.0)
        assert not b.allow_completion()  # cooldown restarted at reopen
        clock.advance(1.0)
        assert b.allow_completion()

    def test_silent_probe_is_replaced_after_cooldown(self):
        # A probe whose Core Phase aborts (or whose worker dies) never
        # reports back; the breaker must not shed forever in HALF_OPEN.
        clock = FakeClock()
        b = make(clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(10.0)
        assert b.allow_completion()  # probe 1, never reports
        clock.advance(9.0)
        assert not b.allow_completion()  # probe 1 still has its window
        clock.advance(1.0)
        assert b.allow_completion()  # probe 2
        assert b.state == HALF_OPEN
        assert b.probes == 2
        assert not b.allow_completion()
        b.record_success()
        assert b.state == CLOSED
        assert b.trips == 1


class TestSnapshot:
    def test_snapshot_fields(self):
        b = make(FakeClock())
        b.record_failure()
        snap = b.snapshot()
        assert set(snap) == {
            "state", "trips", "probes", "consecutive_failures",
        }
        assert snap["state"] == CLOSED
        assert snap["consecutive_failures"] == 1
        assert snap["trips"] == 0
