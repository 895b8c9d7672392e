"""One evaluator contract, checked against every backend, plus regressions.

A hypothesis ``RuleBasedStateMachine`` drives ``SimulatedEvaluator``,
``ThreadedEvaluator`` and ``ProcessPoolEvaluator`` through random
interleavings of submit and gather, with run functions that raise or
return NaN under a penalize or retry policy (the simulated backend also
times attempts out, kills workers and is checkpointed into a fresh
evaluator mid-run).  After every step:

- ``num_in_flight`` equals submitted minus delivered,
- every job is delivered exactly once, ``DONE`` or ``FAILED``, with a result,
- ``0 <= utilization() <= 1``,
- on the simulated backend, workers are conserved (free + busy + dead ==
  num_workers), jobs start in submission order absent faults, and one
  worker runs them back to back in submission order.

The fixed-seed ``random.Random`` schedules that predate the machine stay
as cheap deterministic checks of the same invariants.  Plus targeted
regressions: the ``on_error="raise"`` repair on every backend, the
process backend's crash and timeout handling, and the threaded backend's
buffered delivery, per-attempt busy time and dispatch-time deadlines.
"""

from __future__ import annotations

import collections
import json
import os
import random
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.workflow import (
    EvaluationCache,
    EvaluationResult,
    FaultPolicy,
    JobState,
    ProcessPoolEvaluator,
    SimulatedEvaluator,
    ThreadedEvaluator,
)

SCHEDULE_SEEDS = [11, 23, 37, 59]
BACKENDS = ["simulated", "threaded", "process"]


# --------------------------------------------------------------------- #
# Module-level run functions: the process backend requires picklable ones.
# --------------------------------------------------------------------- #
def hashed_run(config):
    h = (int(config) * 2654435761) % 997
    return EvaluationResult(objective=(h % 100) / 100.0, duration=1.0 + (h % 7))


def flaky_every_fourth(config):
    if int(config) % 4 == 0:
        raise RuntimeError("injected")
    return hashed_run(config)


def crash_on_negative(config):
    if int(config) < 0:
        os._exit(17)  # abnormal worker death, not a catchable exception
    return hashed_run(config)


def hang_on_negative(config):
    if int(config) < 0:
        time.sleep(300)
    return hashed_run(config)


def raise_on_zero(config):
    if int(config) == 0:
        raise RuntimeError("boom")
    return hashed_run(config)


# Contract configs are ints ``100 * kind + value``: a small value range
# makes duplicates (cache hits), and the kind picks the attempt's outcome.
OK, RAISES, NAN, SLOW = range(4)


def contract_run(config):
    kind, value = divmod(int(config), 100)
    if kind == RAISES:
        raise RuntimeError(f"injected failure for {config}")
    result = hashed_run(value)
    if kind == NAN:
        return EvaluationResult(objective=float("nan"), duration=result.duration)
    if kind == SLOW:  # past the simulated backend's policy timeout
        return EvaluationResult(objective=result.objective, duration=12.0)
    return result


def make_evaluator(backend, run_function, num_workers, policy, cache=None):
    if backend == "simulated":
        return SimulatedEvaluator(run_function, num_workers, fault_policy=policy, cache=cache)
    cls = ThreadedEvaluator if backend == "threaded" else ProcessPoolEvaluator
    return cls(run_function, num_workers, fault_policy=policy, cache=cache)


def close(ev):
    if not isinstance(ev, SimulatedEvaluator):
        ev.shutdown()


def drain(ev, wall_limit_s=60.0):
    """Gather until nothing is in flight (bounded by a wall-clock guard)."""
    finished = []
    deadline = time.monotonic() + wall_limit_s
    while ev.num_in_flight:
        assert time.monotonic() < deadline, "evaluator failed to drain in time"
        finished.extend(ev.gather())
    return finished


def seeded_run(seed: int):
    """Deterministic per-config durations/objectives from a hash."""

    def run(config):
        h = (int(config) * 2654435761 + seed) % 997
        return EvaluationResult(
            objective=(h % 100) / 100.0, duration=1.0 + (h % 7)
        )

    return run


def random_schedule(ev, rng, num_jobs, max_batch=5):
    """Drive a random submit/gather interleaving; return finished jobs in
    gather order.  Invariant-checks ``num_in_flight`` at every step."""
    submitted = 0
    finished = []
    while submitted < num_jobs or ev.num_in_flight > 0:
        if submitted < num_jobs and (ev.num_in_flight == 0 or rng.random() < 0.5):
            batch = min(rng.randint(1, max_batch), num_jobs - submitted)
            ev.submit(list(range(submitted, submitted + batch)))
            submitted += batch
        else:
            finished.extend(ev.gather())
        assert ev.num_in_flight == submitted - len(finished)
        assert ev.num_in_flight >= 0
    return finished


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS)
def test_sim_fifo_start_order(seed):
    """With no faults, jobs grab workers in submission (job_id) order."""
    rng = random.Random(seed)
    ev = SimulatedEvaluator(seeded_run(seed), num_workers=rng.randint(1, 6))
    finished = random_schedule(ev, rng, num_jobs=30)
    assert len(finished) == 30
    by_id = sorted(finished, key=lambda j: j.job_id)
    starts = [j.start_time for j in by_id]
    assert starts == sorted(starts)
    assert all(j.state is JobState.DONE for j in finished)


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS)
def test_sim_worker_conservation_and_utilization(seed):
    rng = random.Random(seed)
    num_workers = rng.randint(2, 6)
    ev = SimulatedEvaluator(seeded_run(seed), num_workers=num_workers)
    submitted = 0
    finished = 0
    while submitted < 25 or ev.num_in_flight > 0:
        if submitted < 25 and (ev.num_in_flight == 0 or rng.random() < 0.5):
            batch = rng.randint(1, 4)
            ev.submit(list(range(submitted, submitted + batch)))
            submitted += batch
        else:
            finished += len(ev.gather())
        free = len(ev._free_workers)
        busy = len(ev._running)
        dead = len(ev._dead_workers)
        assert free + busy + dead == num_workers
        assert 0.0 <= ev.utilization() <= 1.0


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS)
def test_sim_single_worker_serializes_fifo(seed):
    """One worker: completion order == submission order, end-to-end."""
    rng = random.Random(seed)
    ev = SimulatedEvaluator(seeded_run(seed), num_workers=1)
    finished = random_schedule(ev, rng, num_jobs=15)
    assert [j.job_id for j in finished] == sorted(j.job_id for j in finished)
    # Back-to-back on one worker: each job starts when the previous ends.
    for prev, cur in zip(finished, finished[1:]):
        assert cur.start_time >= prev.end_time


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS)
def test_sim_invariants_hold_under_faults(seed):
    """The accounting invariants survive crashes, retries and timeouts."""
    rng = random.Random(seed)

    def flaky(config):
        h = (int(config) * 2654435761 + seed) % 997
        if h % 5 == 0:
            raise RuntimeError("injected")
        return EvaluationResult(objective=(h % 100) / 100.0, duration=1.0 + (h % 9))

    policy = FaultPolicy(
        on_error="retry", max_retries=1, retry_backoff=0.5,
        timeout=8.0, failure_duration=0.5,
    )
    num_workers = rng.randint(2, 5)
    ev = SimulatedEvaluator(flaky, num_workers=num_workers, fault_policy=policy)
    finished = random_schedule(ev, rng, num_jobs=30)
    assert len(finished) == 30
    assert all(j.state in (JobState.DONE, JobState.FAILED) for j in finished)
    free = len(ev._free_workers)
    assert free + len(ev._running) + len(ev._dead_workers) == num_workers
    assert 0.0 <= ev.utilization() <= 1.0


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS[:2])
def test_threaded_schedule_invariants(seed):
    """Same schedule invariants on the real-thread backend (smaller scale)."""
    rng = random.Random(seed)

    def run(config):
        return EvaluationResult(objective=0.5, duration=0.0)

    ev = ThreadedEvaluator(run, num_workers=3)
    try:
        finished = random_schedule(ev, rng, num_jobs=12, max_batch=3)
        assert len(finished) == 12
        assert all(j.state is JobState.DONE for j in finished)
        assert sorted(j.job_id for j in finished) == list(range(12))
        assert 0.0 <= ev.utilization() <= 1.0
        assert ev.num_in_flight == 0
    finally:
        ev.shutdown()


# --------------------------------------------------------------------- #
# ProcessPoolEvaluator: parity with the invariant suite
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SCHEDULE_SEEDS[:2])
def test_process_schedule_invariants(seed):
    """The schedule invariants hold on the real-process backend."""
    rng = random.Random(seed)
    with ProcessPoolEvaluator(hashed_run, num_workers=3) as ev:
        finished = random_schedule(ev, rng, num_jobs=10, max_batch=3)
        assert len(finished) == 10
        assert all(j.state is JobState.DONE for j in finished)
        assert sorted(j.job_id for j in finished) == list(range(10))
        assert 0.0 <= ev.utilization() <= 1.0
        assert ev.num_in_flight == 0


# --------------------------------------------------------------------- #
# The contract, as a state machine over each backend
# --------------------------------------------------------------------- #
MAX_JOBS = 24


def contract_machine(backend):
    simulated = backend == "simulated"

    class EvaluatorContract(RuleBasedStateMachine):
        @initialize(
            num_workers=st.integers(1, 4 if simulated else 2),
            faults=st.booleans(),
            on_error=st.sampled_from(["penalize", "retry"]),
            backoff=st.sampled_from([0.0, 0.5]),
        )
        def build(self, num_workers, faults, on_error, backoff):
            self.num_workers = num_workers
            self.kinds = [OK, OK, RAISES, NAN, SLOW] if faults else [OK]
            # Only the simulated clock gets a timeout and backoff: both are
            # in evaluator minutes.
            self.policy = FaultPolicy(
                on_error=on_error,
                max_retries=1,
                retry_backoff=backoff if simulated else 0.0,
                timeout=8.0 if simulated else None,
                failure_duration=0.5,
            )
            self.ev = make_evaluator(
                backend, contract_run, num_workers, self.policy, EvaluationCache()
            )
            self.submitted = 0
            self.delivered = collections.Counter()
            self.order: list[tuple[int, float, float]] = []  # (id, start, end)
            self.faulty = False

        @precondition(lambda self: self.submitted < MAX_JOBS)
        @rule(data=st.data())
        def submit(self, data):
            batch = data.draw(
                st.lists(
                    st.tuples(st.sampled_from(self.kinds), st.integers(0, 5)),
                    min_size=1,
                    max_size=4,
                )
            )
            configs = [100 * kind + value for kind, value in batch]
            jobs = self.ev.submit(configs)
            assert [j.job_id for j in jobs] == list(
                range(self.submitted, self.submitted + len(configs))
            )
            self.submitted += len(configs)
            self.faulty |= any(kind in (RAISES, NAN, SLOW) for kind, _ in batch)

        @rule()
        def gather(self):
            idle = self.ev.num_in_flight == 0
            finished = self.ev.gather()
            assert bool(finished) != idle
            for job in finished:
                assert job.state in (JobState.DONE, JobState.FAILED)
                assert job.result is not None
                self.delivered[job.job_id] += 1
                assert self.delivered[job.job_id] == 1, f"job {job.job_id} delivered twice"
                self.order.append((job.job_id, job.start_time, job.end_time))

        @precondition(lambda self: simulated and self.num_workers > 1)
        @rule(data=st.data())
        def kill_worker(self, data):
            # Worker 0 never dies, so the cluster cannot deadlock.
            self.ev._on_worker_fail(data.draw(st.integers(1, self.num_workers - 1)))
            self.faulty = True

        @precondition(lambda self: simulated)
        @rule()
        def checkpoint_and_resume(self):
            state = json.loads(json.dumps(self.ev.state_dict()))
            # load_state checks the policy and cache mode rather than
            # assigning them, so the fresh evaluator is built with both.
            self.ev = make_evaluator(
                backend, contract_run, self.num_workers, self.policy, EvaluationCache()
            )
            self.ev.load_state(state)

        @invariant()
        def accounting(self):
            assert self.ev.num_in_flight == self.submitted - sum(self.delivered.values())
            assert 0.0 <= self.ev.utilization() <= 1.0 + 1e-9

        @invariant()
        def simulated_cluster(self):
            if not simulated:
                return
            ev = self.ev
            free, busy, dead = len(ev._free_workers), len(ev._running), len(ev._dead_workers)
            assert free + busy + dead == self.num_workers
            if self.faulty:
                return
            starts = [j.start_time for j in ev.jobs if j.state is not JobState.PENDING]
            assert starts == sorted(starts), "jobs did not start in submission order"
            if self.num_workers == 1:
                ids = [job_id for job_id, _, _ in self.order]
                assert ids == sorted(ids)
                for (_, _, prev_end), (_, start, _) in zip(self.order, self.order[1:]):
                    assert start >= prev_end

        def teardown(self):
            ev = getattr(self, "ev", None)
            if ev is None:
                return
            try:
                while ev.num_in_flight:
                    self.gather()
                assert sorted(self.delivered) == list(range(self.submitted))
            finally:
                close(ev)

    return EvaluatorContract


@pytest.mark.parametrize("backend", BACKENDS)
def test_evaluator_contract(backend):
    # Wall-clock backends build a real pool per example: keep them few.
    examples = 40 if backend == "simulated" else 6
    run_state_machine_as_test(
        contract_machine(backend),
        settings=settings(max_examples=examples, stateful_step_count=15, deadline=None),
    )


# --------------------------------------------------------------------- #
# Regression: on_error="raise" finalizes the failing job, keeps the batch
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_raise_policy_fails_one_job_and_keeps_the_rest(backend):
    """Pre-fix, the simulated backend raised out of ``submit`` leaving job
    0 RUNNING on a worker forever, never created job 1, and the next
    gather reported a deadlock with "all 2 workers are dead"."""
    ev = make_evaluator(backend, raise_on_zero, 2, FaultPolicy(on_error="raise"))
    try:
        raised = 0
        delivered = []
        try:
            ev.submit([0, 1])
        except RuntimeError as exc:
            assert "boom" in str(exc)
            raised += 1
        deadline = time.monotonic() + 60.0
        while ev.num_in_flight:
            assert time.monotonic() < deadline, "evaluator failed to drain in time"
            try:
                delivered.extend(ev.gather())
            except RuntimeError as exc:
                assert "boom" in str(exc), exc
                raised += 1
        assert raised == 1
        assert ev.jobs[0].state is JobState.FAILED
        assert [j.job_id for j in delivered] == [1]
        assert delivered[0].state is JobState.DONE
        assert ev.num_in_flight == 0
        assert ev.gather() == []
    finally:
        close(ev)


# --------------------------------------------------------------------- #
# ProcessPoolEvaluator: results, policy parity, crashes and timeouts
# --------------------------------------------------------------------- #
def test_process_results_match_run_function():
    """Objectives computed in worker processes round-trip exactly."""
    with ProcessPoolEvaluator(hashed_run, num_workers=2) as ev:
        ev.submit(list(range(8)))
        finished = drain(ev)
    by_id = {j.job_id: j for j in finished}
    for i in range(8):
        expected = hashed_run(i)
        assert by_id[i].objective == expected.objective
        assert by_id[i].result.duration == expected.duration


def test_process_retry_policy_parity():
    """Deterministic worker-side exceptions retry then penalize, exactly
    as on the other backends."""
    policy = FaultPolicy(on_error="retry", max_retries=1, failure_objective=-1.0)
    with ProcessPoolEvaluator(flaky_every_fourth, num_workers=2, fault_policy=policy) as ev:
        ev.submit(list(range(8)))
        finished = drain(ev)
    assert len(finished) == 8
    failed = sorted(j.job_id for j in finished if j.state is JobState.FAILED)
    assert failed == [0, 4]  # always-failing configs exhaust their retry
    for job in finished:
        if job.state is JobState.FAILED:
            assert job.objective == -1.0
            assert job.retries == 1
        else:
            assert job.state is JobState.DONE


def test_process_raise_policy_propagates():
    policy = FaultPolicy(on_error="raise")
    with ProcessPoolEvaluator(flaky_every_fourth, num_workers=1, fault_policy=policy) as ev:
        ev.submit([4])
        with pytest.raises(Exception, match="injected"):
            drain(ev)


def test_process_worker_crash_routed_through_policy():
    """An abnormal worker exit (os._exit) becomes a policy failure, the
    pool is rebuilt, and the evaluator keeps working."""
    policy = FaultPolicy(on_error="penalize", failure_objective=-1.0)
    with ProcessPoolEvaluator(crash_on_negative, num_workers=2, fault_policy=policy) as ev:
        ev.submit([-1])
        finished = drain(ev)
        assert len(finished) == 1
        job = finished[0]
        assert job.state is JobState.FAILED
        assert job.objective == -1.0
        assert "crash" in (job.error or "").lower()
        assert ev.num_worker_crashes >= 1
        assert ev.num_pool_rebuilds >= 1
        # The rebuilt pool still evaluates.
        ev.submit([5])
        more = drain(ev)
        assert len(more) == 1 and more[0].state is JobState.DONE
        assert more[0].objective == hashed_run(5).objective


def test_process_timeout_kills_hung_worker_and_reclaims_slot():
    """A hung worker process is genuinely terminated: with one worker, a
    follow-up job can only complete if the slot was reclaimed."""
    policy = FaultPolicy(on_error="penalize", timeout=0.02, failure_objective=-1.0)
    with ProcessPoolEvaluator(hang_on_negative, num_workers=1, fault_policy=policy) as ev:
        ev.submit([-1])
        finished = drain(ev)
        assert len(finished) == 1
        assert finished[0].state is JobState.FAILED
        assert "timeout" in finished[0].error
        assert ev.num_timeouts == 1
        assert ev.num_pool_rebuilds >= 1
        ev.submit([7])
        more = drain(ev)
        assert len(more) == 1 and more[0].state is JobState.DONE


def test_process_rejects_unpicklable_run_function():
    """Pickling happens once at construction — failing fast, not per job."""
    with pytest.raises(TypeError, match="picklable"):
        ProcessPoolEvaluator(lambda config: None, num_workers=1)


# --------------------------------------------------------------------- #
# Regression: gather must return buffered finished jobs immediately
# --------------------------------------------------------------------- #
def test_threaded_gather_returns_buffered_without_blocking():
    """A finished job waiting in the buffer (here a cache hit, finalized at
    submit) is delivered without waiting on an unrelated pending attempt
    (pre-fix: gather blocked in ``wait``)."""
    release = threading.Event()

    def blocked(config):
        release.wait(30)
        return EvaluationResult(objective=0.5, duration=0.0)

    cache = EvaluationCache()
    cache.store(1, EvaluationResult(objective=0.9, duration=0.0))
    ev = ThreadedEvaluator(blocked, num_workers=1, cache=cache)
    try:
        ev.submit([0])  # occupies the only worker, future stays pending
        (hit,) = ev.submit([1])
        out: list = []
        t = threading.Thread(target=lambda: out.extend(ev.gather()))
        t.start()
        t.join(5.0)
        assert not t.is_alive(), (
            "gather blocked on a pending future while holding buffered jobs"
        )
        assert out == [hit] and hit.cache_hit
    finally:
        release.set()
        drain(ev)
        ev.shutdown()


def test_threaded_raise_buffers_siblings_for_next_gather():
    """With on_error='raise', finished siblings of a failing job survive
    the raise and come back from the *next* gather call, immediately."""
    release = threading.Event()

    def run(config):
        config = int(config)
        if config == 0:
            raise RuntimeError("boom")
        if config == 2:
            release.wait(30)  # unrelated straggler
        return EvaluationResult(objective=config / 10.0, duration=0.0)

    ev = ThreadedEvaluator(run, num_workers=3, fault_policy=FaultPolicy(on_error="raise"))
    try:
        ev.submit([0, 1, 2])
        # Wait until the failing job and its fast sibling have both settled
        # so one gather round observes them together.
        deadline = time.monotonic() + 10
        while sum(f.done() for f in list(ev._futures)) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        with pytest.raises(RuntimeError, match="boom"):
            ev.gather()
        out: list[Job] = []
        t = threading.Thread(target=lambda: out.extend(ev.gather()))
        t.start()
        t.join(5.0)
        assert not t.is_alive(), "buffered sibling was not returned immediately"
        assert [j.job_id for j in out] == [1]
        assert out[0].state is JobState.DONE
    finally:
        release.set()
        drain(ev)
        ev.shutdown()


# --------------------------------------------------------------------- #
# Regression: busy time accumulates per attempt, not final-attempt-only
# --------------------------------------------------------------------- #
def test_threaded_retry_busy_time_accumulates_per_attempt():
    attempt_s = 0.05
    state = {"n": 0}

    def flaky(config):
        time.sleep(attempt_s)
        state["n"] += 1
        if state["n"] < 3:
            raise RuntimeError("boom")
        return EvaluationResult(objective=0.5, duration=0.0)

    policy = FaultPolicy(on_error="retry", max_retries=2)
    ev = ThreadedEvaluator(flaky, num_workers=1, fault_policy=policy)
    try:
        ev.submit([0])
        finished = drain(ev)
        assert len(finished) == 1 and finished[0].state is JobState.DONE
        assert finished[0].retries == 2
        # Three attempts ran ~attempt_s each; the pre-fix accounting
        # credited only the final one (~1x attempt_s).
        assert ev._busy_time >= 2.5 * attempt_s / 60.0
    finally:
        ev.shutdown()


# --------------------------------------------------------------------- #
# Regression: a timeout counts from dispatch, so no retry waits forever
# --------------------------------------------------------------------- #
def test_threaded_hung_retry_does_not_deadlock_gather():
    """First attempt fails fast; the retry hangs.  gather must reap the
    hung retry at the policy deadline instead of blocking forever."""
    state = {"n": 0}
    release = threading.Event()

    def fail_then_hang(config):
        state["n"] += 1
        if state["n"] == 1:
            raise RuntimeError("boom")
        release.wait(300)
        return EvaluationResult(objective=0.5, duration=0.0)

    policy = FaultPolicy(
        on_error="retry", max_retries=1, timeout=0.01, failure_objective=-1.0
    )
    ev = ThreadedEvaluator(fail_then_hang, num_workers=1, fault_policy=policy)
    try:
        ev.submit([0])
        finished = drain(ev, wall_limit_s=30.0)
        assert len(finished) == 1
        job = finished[0]
        assert job.state is JobState.FAILED
        assert job.objective == -1.0
        assert ev.num_timeouts == 1
    finally:
        release.set()
        ev.shutdown()


def test_threaded_retry_behind_abandoned_attempt_is_reaped():
    """The first attempt hangs past its deadline and is abandoned, but its
    thread keeps the only worker.  The retry queues behind it and must be
    reaped at its own deadline (dispatch + timeout); pre-fix it was never
    RUNNING, so gather waited out the whole hang."""
    blocking_s = 6.0
    release = threading.Event()
    calls = {"n": 0}

    def first_attempt_blocks(config):
        calls["n"] += 1
        if calls["n"] == 1:
            release.wait(blocking_s)
        return EvaluationResult(objective=0.5, duration=0.0)

    policy = FaultPolicy(on_error="retry", max_retries=1, timeout=0.5 / 60.0)
    ev = ThreadedEvaluator(first_attempt_blocks, num_workers=1, fault_policy=policy)
    try:
        ev.submit([0])
        t0 = time.perf_counter()
        (job,) = drain(ev, wall_limit_s=30.0)
        elapsed = time.perf_counter() - t0
        assert job.state is JobState.FAILED
        assert ev.num_timeouts == 2
        assert elapsed < blocking_s / 3
        # The abandoned attempt is credited busy time up to its reap only.
        assert ev._busy_time * 60.0 < blocking_s / 3
    finally:
        release.set()
        ev.shutdown()
