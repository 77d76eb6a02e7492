"""Unit tests for the preemptive-resume priority server."""

import pytest

from repro.des import Environment, Event, Server, SimulationError


def run_until(env, event):
    return env.run(until=event)


class TestBasicService:
    def test_single_job_completes_after_demand(self, env):
        server = Server(env)
        done = server.submit(5)
        env.run(until=done)
        assert env.now == 5

    def test_fcfs_ordering(self, env):
        server = Server(env)
        finish_times = {}
        for name, demand in (("a", 3), ("b", 2), ("c", 1)):
            done = server.submit(demand)
            done.callbacks.append(
                lambda _e, n=name: finish_times.setdefault(n, env.now)
            )
        env.run()
        assert finish_times == {"a": 3, "b": 5, "c": 6}

    def test_zero_demand_completes_immediately(self, env):
        server = Server(env)
        done = server.submit(0)
        env.run(until=done)
        assert env.now == 0

    def test_negative_demand_rejected(self, env):
        server = Server(env)
        with pytest.raises(ValueError):
            server.submit(-1)

    def test_unknown_discipline_rejected(self, env):
        with pytest.raises(ValueError):
            Server(env, discipline="lifo")

    def test_queue_length_counts_waiting_only(self, env):
        server = Server(env)
        server.submit(10)
        server.submit(10)
        server.submit(10)
        assert server.queue_length == 2
        assert server.busy

    def test_idle_after_all_jobs(self, env):
        server = Server(env)
        server.submit(2)
        env.run()
        assert not server.busy
        assert server.queue_length == 0


class TestPreemption:
    def test_high_priority_preempts_and_victim_resumes(self, env):
        server = Server(env)
        victim_done = server.submit(10, priority=1, tag="txn")

        def intruder(env):
            yield env.timeout(4)
            done = server.submit(2, priority=0, tag="lock")
            yield done
            assert env.now == 6

        env.process(intruder(env))
        env.run(until=victim_done)
        # 4 served + 2 preempted + remaining 6 => finishes at 12.
        assert env.now == 12

    def test_equal_priority_does_not_preempt(self, env):
        server = Server(env)
        first = server.submit(5, priority=1)

        def second_arrival(env):
            yield env.timeout(1)
            done = server.submit(1, priority=1)
            yield done
            assert env.now == 6

        env.process(second_arrival(env))
        env.run(until=first)
        assert env.now == 5

    def test_nested_preemption(self, env):
        server = Server(env)
        low_done = server.submit(10, priority=2)

        def mid(env):
            yield env.timeout(2)
            done = server.submit(4, priority=1)
            yield done
            # mid was itself preempted by high for 1 unit: 2+4+1 = 7
            assert env.now == 7

        def high(env):
            yield env.timeout(3)
            done = server.submit(1, priority=0)
            yield done
            assert env.now == 4

        env.process(mid(env))
        env.process(high(env))
        env.run(until=low_done)
        assert env.now == 15

    def test_preemptor_arriving_at_completion_instant(self, env):
        # A preemption at the exact instant the victim finishes must
        # complete the victim rather than requeue a zero-work job.
        server = Server(env)
        victim_done = server.submit(3, priority=1)

        def intruder(env):
            yield env.timeout(3)
            yield server.submit(1, priority=0)

        env.process(intruder(env))
        env.run(until=victim_done)
        assert env.now <= 4  # victim must not wait behind the intruder

    def test_preempt_resume_accounting(self, env):
        server = Server(env)
        finished = []

        def low(env):
            yield server.submit(5.0, priority=5, tag="low")
            finished.append(("low", env.now))

        def high(env):
            yield env.timeout(2.0)
            yield server.submit(1.0, priority=0, tag="high")
            finished.append(("high", env.now))

        env.process(low(env))
        env.process(high(env))
        env.run()
        assert finished == [("high", 3.0), ("low", 6.0)]
        assert server.busy_time("low") == pytest.approx(5.0)
        assert server.busy_time("high") == pytest.approx(1.0)


class TestFailAll:
    def test_fail_all_mid_service_no_double_release(self, env):
        """A crash mid-service: the failed done-events deliver exactly
        one failure each, the stale completion callback is ignored, and
        the server keeps serving afterwards."""
        server = Server(env)
        outcomes = []

        def worker(env, demand, tag):
            try:
                yield server.submit(demand, tag=tag)
                outcomes.append((tag, "done", env.now))
            except RuntimeError:
                outcomes.append((tag, "failed", env.now))

        env.process(worker(env, 4.0, "a"))
        env.process(worker(env, 4.0, "b"))
        env.schedule_callback(lambda: server.fail_all(RuntimeError("crash")), 1.0)
        env.run(until=1.0)
        env.run()
        assert sorted(outcomes) == [
            ("a", "failed", 1.0),
            ("b", "failed", 1.0),
        ]
        assert not server.busy
        # Job a's original completion callback (scheduled for t=4.0)
        # is still on the heap; draining it advanced the clock there,
        # and the token guard ignored it, so served counts stay zero.
        assert env.now == 4.0
        assert server.jobs_served() == 0
        env.process(worker(env, 2.0, "c"))
        env.run()
        assert ("c", "done", 6.0) in outcomes
        assert server.jobs_served("c") == 1


class _Relay:
    """A completion target that, like a done event, takes effect one
    heap entry after the server triggers it."""

    def __init__(self, env, log, label):
        self.env = env
        self.log = log
        self.label = label
        self.calls = []

    def succeed(self):
        self.calls.append(("succeed", self.env.now))
        self.env.schedule_callback(
            lambda: self.log.append((self.label, self.env.now))
        )

    def fail(self, exception):
        self.calls.append(("fail", exception, self.env.now))


def _event_target(env, log, label):
    done = Event(env)
    done.callbacks.append(lambda _e: log.append((label, env.now)))
    return done


class TestCompletionTarget:
    """``submit(done=...)`` triggers the target where it would trigger
    the done event."""

    @staticmethod
    def _preemption_then_tie(env, make_target):
        # The victim is preempted at t=1 and resumes at t=2, to finish
        # at t=4.  Rivals also fire at t=4: one scheduled before the
        # victim's completion (at t=0), one after it (at t=2, once the
        # intruder is done), and one scheduled by the latter at t=4,
        # after the done event.  The done event lands between them.
        log = []
        server = Server(env)
        victim = make_target(env, log, "victim")
        assert server.submit(3, priority=1, tag="txn", done=victim) is victim
        env.timeout(4).callbacks.append(lambda _e: log.append(("early", env.now)))

        def intruder(env):
            yield env.timeout(1)
            yield server.submit(1, priority=0, tag="lock")
            log.append(("intruder", env.now))
            yield env.timeout(2)
            log.append(("late", env.now))
            env.schedule_callback(lambda: log.append(("after", env.now)))

        env.process(intruder(env))
        env.run()
        return log, server

    def test_target_succeeds_where_the_done_event_would(self):
        expected = [
            ("intruder", 2.0), ("early", 4.0), ("late", 4.0), ("victim", 4.0),
            ("after", 4.0),
        ]
        with_event, _ = self._preemption_then_tie(Environment(), _event_target)
        env = Environment()
        with_target, server = self._preemption_then_tie(env, _Relay)
        assert with_event == expected
        assert with_target == expected
        assert server.busy_time("txn") == pytest.approx(3.0)
        assert server.jobs_served("txn") == 1

    def test_fail_all_fails_every_target(self, env):
        server = Server(env)
        log = []
        in_service = _Relay(env, log, "a")
        queued = _Relay(env, log, "b")
        server.submit(4.0, done=in_service)
        server.submit(4.0, done=queued)
        crash = RuntimeError("crash")
        killed = []
        env.schedule_callback(lambda: killed.append(server.fail_all(crash)), 1.0)
        env.run()
        assert killed == [2]
        assert in_service.calls == [("fail", crash, 1.0)]
        assert queued.calls == [("fail", crash, 1.0)]
        # The stale completion of the killed job succeeds nothing.
        assert log == []
        assert server.jobs_served() == 0


class TestAccounting:
    def test_busy_time_split_by_tag(self, env):
        server = Server(env)
        server.submit(10, priority=1, tag="txn")

        def intruder(env):
            yield env.timeout(3)
            yield server.submit(2, priority=0, tag="lock")

        env.process(intruder(env))
        env.run()
        assert server.busy_time("txn") == pytest.approx(10)
        assert server.busy_time("lock") == pytest.approx(2)
        assert server.busy_time() == pytest.approx(12)

    def test_busy_time_includes_in_progress_service(self, env):
        server = Server(env)
        server.submit(10, tag="txn")
        env.timeout(4)
        env.run(until=4)
        assert server.busy_time("txn") == pytest.approx(4)

    def test_jobs_served_counts(self, env):
        server = Server(env)
        for _ in range(3):
            server.submit(1, tag="a")
        server.submit(1, tag="b")
        env.run()
        assert server.jobs_served("a") == 3
        assert server.jobs_served("b") == 1
        assert server.jobs_served() == 4

    def test_demand_submitted_totals(self, env):
        server = Server(env)
        server.submit(2.5, tag="a")
        server.submit(1.5, tag="a")
        env.run()
        assert server.demand_submitted("a") == pytest.approx(4.0)

    def test_busy_never_exceeds_elapsed_time(self, env):
        server = Server(env)
        for i in range(5):
            server.submit(7, priority=i % 2, tag=str(i))
        env.run(until=11)
        assert server.busy_time() <= 11 + 1e-9


class TestSJF:
    def test_sjf_orders_waiting_jobs_by_demand(self, env):
        server = Server(env, discipline="sjf")
        finish = {}
        for name, demand in (("long", 5), ("short", 1), ("mid", 3)):
            done = server.submit(demand)
            done.callbacks.append(
                lambda _e, n=name: finish.setdefault(n, env.now)
            )
        env.run()
        # "long" occupies the server first (it arrived to an idle
        # server); then the queue drains shortest-first.
        assert finish == {"long": 5, "short": 6, "mid": 9}

    def test_sjf_respects_priority_levels(self, env):
        server = Server(env, discipline="sjf")
        server.submit(5, priority=1)
        finish = {}
        for name, demand, priority in (
            ("urgent-long", 4, 0),
            ("normal-short", 1, 1),
        ):
            done = server.submit(demand, priority=priority)
            done.callbacks.append(
                lambda _e, n=name: finish.setdefault(n, env.now)
            )
        env.run()
        assert finish["urgent-long"] < finish["normal-short"]


class TestHold:
    def test_held_job_resumes_with_exact_remaining_demand(self, env):
        server = Server(env)
        done = server.submit(5.0, priority=1, tag="txn")
        env.schedule_callback(server.hold, 1.5)
        env.schedule_callback(server.release, 4.0)
        env.run(until=done)
        # 1.5 served, held for 2.5, the remaining 3.5 from 4.0 on.
        assert env.now == 7.5
        assert server.busy_time("txn") == 5.0
        assert server.jobs_served("txn") == 1

    def test_submits_during_a_hold_queue_up(self, env):
        server = Server(env)
        server.hold()
        assert server.busy
        finish = []
        for name, demand in (("a", 2.0), ("b", 1.0)):
            done = server.submit(demand, priority=1)
            done.callbacks.append(lambda _e, n=name: finish.append((n, env.now)))
        # Even a more urgent job waits: the lane owns the server.
        urgent = server.submit(0.5, priority=0)
        urgent.callbacks.append(lambda _e: finish.append(("urgent", env.now)))
        assert server.queue_length == 3
        env.run(until=3.0)
        assert finish == []
        assert server.busy_time() == 0.0
        server.release()
        env.run()
        assert finish == [("urgent", 3.5), ("a", 5.5), ("b", 6.5)]

    def test_job_ending_at_the_hold_instant_finishes(self, env):
        server = Server(env)
        # The hold is scheduled before the job, so at t=2 it runs first
        # and finds a job with no demand left.
        env.schedule_callback(server.hold, 2.0)
        done = server.submit(2.0, priority=1, tag="txn")
        env.run(until=2.0)
        assert done.triggered and done.ok
        assert server.queue_length == 0
        assert server.jobs_served("txn") == 1
        assert server.busy_time("txn") == 2.0
        server.release()
        assert not server.busy

    def test_per_tag_busy_time_is_exact_across_holds(self):
        # A hold is a preemption by work served elsewhere: the tags'
        # busy times match, to the bit, a twin server preempted by
        # urgent jobs over the same windows.
        windows = ((0.05, 0.15), (0.2, 0.35), (0.4, 0.45))
        held_env, twin_env = Environment(), Environment()
        held, twin = Server(held_env), Server(twin_env)
        for server in (held, twin):
            server.submit(0.1, priority=1, tag="a")
            server.submit(0.2, priority=1, tag="b")
        for start, end in windows:
            held_env.schedule_callback(held.hold, start)
            held_env.schedule_callback(held.release, end)
            twin_env.schedule_callback(
                lambda d=end - start: twin.submit(d, priority=0, tag="x"), start
            )
        held_env.run()
        twin_env.run()
        assert held_env.now == twin_env.now
        for tag in ("a", "b"):
            assert held.busy_time(tag) == twin.busy_time(tag)
            assert held.jobs_served(tag) == twin.jobs_served(tag) == 1
        assert held.busy_time("a") == pytest.approx(0.1)
        assert held.busy_time("b") == pytest.approx(0.2)

    def test_double_hold_and_stray_release_raise(self, env):
        server = Server(env)
        with pytest.raises(SimulationError):
            server.release()
        server.hold()
        with pytest.raises(SimulationError):
            server.hold()


class TestStress:
    def test_many_jobs_conserve_work(self):
        env = Environment()
        server = Server(env)
        import random

        rng = random.Random(1)
        total = 0.0
        for _ in range(200):
            demand = rng.uniform(0.1, 2.0)
            total += demand
            server.submit(demand, priority=rng.choice([0, 1, 2]))
        env.run()
        assert env.now == pytest.approx(total)
        assert server.busy_time() == pytest.approx(total)
        assert server.jobs_served() == 200
