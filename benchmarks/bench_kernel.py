"""DES kernel micro-benchmark: raw event throughput.

Pins the events-per-second baseline of the simulation kernel — heap
scheduling, callback dispatch and generator resume — independent of
the locking model, so a kernel regression is visible without running
a whole sweep.  The measured rate lands in pytest-benchmark's
``extra_info`` as ``events_per_second``.

The assertion floors are deliberately an order of magnitude below
what the kernel does on a developer laptop (a few million scheduled
timeouts per second, roughly half that through full processes), so
they only trip on a real regression, not on a slow CI runner.
"""

from conftest import smoke_run
from repro.des import Environment, ProfiledEnvironment

#: Concurrently running processes in the process benchmark.
N_PROCESSES = 10
#: Total events per benchmark round (small under REPRO_SMOKE=1).
N_EVENTS = 2_000 if smoke_run() else 100_000

#: Conservative events/second floors (see module docstring).  Locally
#: measured: ~490k ev/s draining a pre-built 100k-entry heap, ~750k
#: ev/s through full processes, ~800k ev/s for bare callbacks
#: (CPython 3.11, single-core container).
MIN_TIMEOUT_RATE = 25_000.0
MIN_PROCESS_RATE = 60_000.0


def _drain_timeouts(n):
    """Schedule *n* bare timeouts up front, then drain the heap."""
    env = Environment()
    timeout = env.timeout
    for i in range(n):
        timeout(float(i % 97))
    env.run()
    return env.now


def _drain_callbacks(n):
    """Schedule *n* bare callbacks up front, then drain the heap."""
    env = Environment()
    fired = [0]

    def tick():
        fired[0] += 1

    schedule_callback = env.schedule_callback
    for i in range(n):
        schedule_callback(tick, float(i % 97))
    env.run()
    return fired[0]


def _ticker(env, n):
    """A process that waits out *n* unit timeouts."""
    timeout = env.timeout
    for _ in range(n):
        yield timeout(1.0)


def _run_processes(n_processes, events_per_process):
    """Run *n_processes* tickers to completion; returns the end time."""
    env = Environment()
    for _ in range(n_processes):
        env.process(_ticker(env, events_per_process))
    env.run()
    return env.now


def _events_per_second(benchmark, events):
    """Record events/second in extra_info; None if timing disabled."""
    stats = getattr(benchmark, "stats", None)
    if not stats:  # --benchmark-disable (e.g. the CI smoke job)
        return None
    rate = events / stats.stats.mean
    benchmark.extra_info["events_per_second"] = round(rate)
    return rate


def test_kernel_timeout_throughput(benchmark):
    """Heap push/pop + callback dispatch, no generators involved."""
    final_time = benchmark(lambda: _drain_timeouts(N_EVENTS))
    assert final_time == 96.0
    rate = _events_per_second(benchmark, N_EVENTS)
    if rate is not None and not smoke_run():
        assert rate > MIN_TIMEOUT_RATE, "kernel regression: {:.0f} ev/s".format(rate)


def test_kernel_callback_throughput(benchmark):
    """Bare-callback path: heap tuple -> callable, no Event at all."""
    fired = benchmark(lambda: _drain_callbacks(N_EVENTS))
    assert fired == N_EVENTS
    rate = _events_per_second(benchmark, N_EVENTS)
    if rate is not None and not smoke_run():
        assert rate > MIN_TIMEOUT_RATE, "kernel regression: {:.0f} ev/s".format(rate)


def test_kernel_process_throughput(benchmark):
    """Full path: timeout -> callback -> generator resume -> schedule."""
    per_process = N_EVENTS // N_PROCESSES
    final_time = benchmark(lambda: _run_processes(N_PROCESSES, per_process))
    assert final_time == float(per_process)
    rate = _events_per_second(benchmark, N_EVENTS)
    if rate is not None and not smoke_run():
        assert rate > MIN_PROCESS_RATE, "kernel regression: {:.0f} ev/s".format(rate)


def test_kernel_self_profile(benchmark):
    """Kernel self-profiling: counters reported via extra_info.

    Runs the ticker workload once on a :class:`ProfiledEnvironment`
    and records what the kernel saw — events dispatched, peak heap
    population, the event-type mix and the kernel's own events/sec —
    so a profile of the run loop ships with every benchmark report.
    The profiled kernel is a subclass; the assertions double as a
    check that its accounting agrees with the workload's shape.
    """
    per_process = N_EVENTS // N_PROCESSES

    def profiled_run():
        env = ProfiledEnvironment()
        for _ in range(N_PROCESSES):
            env.process(_ticker(env, per_process))
        env.run()
        return env

    env = benchmark.pedantic(profiled_run, rounds=1, iterations=1)
    stats = env.kernel_stats()
    # Each ticker contributes per_process timeouts, one Initialize and
    # one terminal Process event.
    assert stats.events_dispatched == N_PROCESSES * (per_process + 2)
    assert stats.event_type_counts["Timeout"] == N_PROCESSES * per_process
    assert stats.event_type_counts["Initialize"] == N_PROCESSES
    assert stats.heap_peak >= N_PROCESSES
    assert stats.heap_length == 0
    if stats.events_per_second:
        benchmark.extra_info["profiled_events_per_second"] = round(
            stats.events_per_second
        )
    benchmark.extra_info["heap_peak"] = stats.heap_peak
    benchmark.extra_info["event_type_counts"] = dict(stats.event_type_counts)
