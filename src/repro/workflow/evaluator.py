"""Evaluator backends implementing the submit/gather interface.

Algorithm 1 interacts with the cluster only through two calls —
``submit_evaluation`` (non-blocking) and ``get_finished_evaluations`` —
mirroring DeepHyper/Balsam.  Every backend exposes exactly that, over one
**job table** kept on the :class:`Evaluator` base: job creation, the cache
short-circuit, the routing of each attempt's outcome through the
:class:`~repro.workflow.faults.FaultPolicy` (raise, retry or penalize, and
the failure/retry/timeout counters), and a single finished-jobs buffer
that ``gather`` drains.  A backend supplies only how an attempt starts and
how the next completions arrive:

- :class:`SimulatedEvaluator` advances a simulated clock to the next job
  completion; the *results* are computed by genuinely running the
  evaluation function when an attempt starts, while the *completion time*
  comes from the ``duration`` the function reports (the training-cost
  model).
- :class:`ThreadedEvaluator` runs evaluation functions concurrently on a
  thread pool; ``gather`` blocks until at least one finishes.
- :class:`ProcessPoolEvaluator` runs evaluation functions on a process
  pool — true multi-core parallelism for GIL-bound (numpy-heavy) run
  functions, with worker-crash detection and real timeout cancellation
  (hung worker processes are terminated and the pool rebuilt).

On the wall-clock (thread / process) backends an attempt is ``RUNNING``
from dispatch, so the policy ``timeout`` counts from dispatch and a retry
queued behind an abandoned attempt is reaped at its own deadline.  Under
``on_error="raise"`` a failing job is finalized ``FAILED`` and the error
propagates from the ``submit`` or ``gather`` call that observed it, after
the rest of that call's work is done: the remaining batch is still
submitted, and jobs that finished in the same round come back from the
next ``gather``.

The simulated backend additionally models worker failures — a worker dies
at a scheduled time, its in-flight job is rescheduled on a surviving
worker — and is fully checkpointable via ``state_dict`` / ``load_state``
(cache included) so a killed campaign resumes bit-identically.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import pickle
import time as _time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Callable, Iterable, Sequence

from repro.workflow.cache import EvaluationCache
from repro.workflow.events import EventQueue
from repro.workflow.faults import FaultPolicy
from repro.workflow.jobs import EvaluationResult, Job, JobState, job_from_dict, job_to_dict

__all__ = [
    "check_settings",
    "Evaluator",
    "SimulatedEvaluator",
    "ThreadedEvaluator",
    "ProcessPoolEvaluator",
]

RunFunction = Callable[[Any], EvaluationResult]


def check_settings(stored: dict[str, Any], live: dict[str, Any]) -> None:
    """Raise ``ValueError`` naming the first setting a checkpoint records
    differently from the live object it is being restored into."""
    for name in {**live, **stored}:
        if stored.get(name) != live.get(name):
            raise ValueError(
                f"checkpoint has {name}={stored.get(name)!r}, "
                f"but this run has {live.get(name)!r}"
            )


# --------------------------------------------------------------------- #
# Pool worker plumbing.  Both wall-clock pools run ``_timed_call``.  The
# process pool's run function is pickled once at construction and
# installed into each worker via the pool initializer, so large captured
# state (datasets, cost models) crosses the process boundary once per
# worker instead of once per job.
# --------------------------------------------------------------------- #
_WORKER_RUN_FUNCTION: RunFunction | None = None


def _process_worker_init(payload: bytes) -> None:
    global _WORKER_RUN_FUNCTION
    _WORKER_RUN_FUNCTION = pickle.loads(payload)


def _timed_call(run_function: RunFunction | None, config: Any) -> tuple[Any, float]:
    """Run one attempt on a pool worker: ``(result, elapsed minutes)``.

    An exception the run function raises is returned in place of the
    result, so failed attempts report their elapsed time too.  Process
    workers get ``None`` and call the function their initializer installed.
    """
    fn = _WORKER_RUN_FUNCTION if run_function is None else run_function
    t0 = _time.perf_counter()
    try:
        outcome = fn(config)
    except Exception as exc:
        outcome = exc
    return outcome, (_time.perf_counter() - t0) / 60.0


def _strip_event_bus(fn: Any) -> Any:
    """A shallow copy of a run-function chain with event buses detached.

    Campaign buses hold arbitrary subscribers (open JSONL files, stdout
    reporters) that cannot cross a process boundary; worker-side emissions
    could not reach the manager's bus anyway.  Wrappers exposing a
    ``run_function`` attribute (e.g. FaultInjector) are stripped through.
    """
    clone = fn
    if getattr(fn, "event_bus", None) is not None:
        clone = copy.copy(fn)
        clone.event_bus = None
    inner = getattr(clone, "run_function", None)
    if inner is not None:
        stripped = _strip_event_bus(inner)
        if stripped is not inner:
            if clone is fn:
                clone = copy.copy(fn)
            clone.run_function = stripped
    return clone


class _Overdue(Exception):
    """An attempt that ran past the policy timeout."""


class Evaluator:
    """Manager-worker evaluator: the job table behind ``submit``/``gather``.

    The base owns every job state transition and all accounting; a
    backend implements ``_launch`` (a freshly submitted job), ``_collect``
    (wait for the next completions and settle them), ``now`` and
    ``utilization``.

    ``event_bus`` is an optional campaign event bus (attached by
    :func:`repro.campaign.build_campaign`); the job table emits
    :class:`~repro.campaign.events.JobSubmitted`, ``JobGathered``,
    ``JobRetried``, ``CacheHit`` and ``CacheStore`` through it when set.
    ``cache`` is an optional :class:`~repro.workflow.cache.EvaluationCache`
    consulted before an attempt runs and filled by its successful outcome.
    """

    event_bus = None

    def __init__(
        self,
        run_function: RunFunction,
        num_workers: int,
        fault_policy: FaultPolicy | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.run_function = run_function
        self.num_workers = num_workers
        self.fault_policy = fault_policy or FaultPolicy()
        self.cache = cache
        self.num_failures = 0
        self.num_retries = 0
        self.num_timeouts = 0
        self.jobs: list[Job] = []
        self._next_id = 0
        self._in_flight = 0  # submitted, not yet delivered or raised
        self._busy_time = 0.0
        self._finished: collections.deque[Job] = collections.deque()
        self._error: BaseException | None = None  # first raise-policy failure

    @property
    def now(self) -> float:
        """Current time in minutes (simulated or wall-clock)."""
        raise NotImplementedError

    @property
    def num_in_flight(self) -> int:
        return self._in_flight

    # -- the submit/gather contract ------------------------------------ #
    def submit(self, configs: Sequence[Any]) -> list[Job]:
        """Queue configurations for evaluation; returns the job records."""
        out = []
        for config in configs:
            job = Job(job_id=self._next_id, config=config, submit_time=self.now)
            self._next_id += 1
            self.jobs.append(job)
            self._in_flight += 1
            if self.event_bus is not None:
                from repro.campaign.events import JobSubmitted

                self.event_bus.emit(JobSubmitted(job_id=job.job_id, time=job.submit_time))
            self._launch(job)
            out.append(job)
        self._raise_pending()
        return out

    def gather(self) -> list[Job]:
        """Return at least one finished job (empty only if none in flight).

        Jobs already finished are returned without waiting on unrelated
        attempts.  A round that hits an ``on_error="raise"`` failure
        raises it; the jobs that finished in that round come back from
        the next call.
        """
        while not self._finished and self._in_flight:
            self._collect()
            self._raise_pending()
        finished = list(self._finished)
        self._finished.clear()
        self._in_flight -= len(finished)
        if self.event_bus is not None:
            from repro.campaign.events import JobGathered

            for job in finished:
                self.event_bus.emit(
                    JobGathered(
                        job_id=job.job_id,
                        time=self.now,
                        objective=job.result.objective,
                        duration=job.result.duration,
                        submit_time=job.submit_time,
                        start_time=job.start_time,
                        end_time=job.end_time,
                        worker=job.worker,
                        failed=job.state is JobState.FAILED,
                        retries=job.retries,
                    )
                )
        return finished

    def _launch(self, job: Job) -> None:
        raise NotImplementedError

    def _collect(self) -> None:
        raise NotImplementedError

    # -- the job table --------------------------------------------------- #
    def _serve_from_cache(self, job: Job) -> bool:
        """Give ``job`` its memoized result, if the cache has one."""
        cached = None if self.cache is None else self.cache.lookup(job.config)
        if cached is None:
            return False
        job.cache_hit = True
        job.result = cached
        if self.event_bus is not None:
            from repro.campaign.events import CacheHit

            self.event_bus.emit(
                CacheHit(job_id=job.job_id, key=self.cache.key(job.config), time=self.now)
            )
        return True

    def _settle(self, job: Job, outcome: Any, duration: float) -> str:
        """Route one attempt's outcome through the fault policy.

        ``outcome`` is the run function's result or the exception it
        raised (an :class:`_Overdue` for a timed-out attempt); ``duration``
        is the attempt's length, recorded on a penalized result.  Returns
        ``"done"`` (``job.result`` set, and memoized), ``"failed"``
        (penalized result set), ``"retry"`` (the backend re-runs the job
        via :meth:`_requeue`) or ``"raised"`` (``job`` finalized ``FAILED``
        and out of flight; the backend frees its worker, and the error
        propagates once the current ``submit``/``gather`` call is done).
        """
        policy = self.fault_policy
        if isinstance(outcome, EvaluationResult):
            failure = policy.classify(outcome)
            if failure is None:
                job.result = outcome
                stored = self.cache is not None and self.cache.store(job.config, outcome)
                if stored and self.event_bus is not None:
                    from repro.campaign.events import CacheStore

                    key = self.cache.key(job.config)
                    self.event_bus.emit(CacheStore(job_id=job.job_id, key=key, time=self.now))
                return "done"
            error: BaseException = RuntimeError(f"job {job.job_id}: {failure}")
        elif isinstance(outcome, _Overdue):
            self.num_timeouts += 1
            failure = str(outcome)
            error = TimeoutError(f"job {job.job_id}: {failure}")
        else:
            failure, error = repr(outcome), outcome
        job.error = failure
        if policy.on_error == "raise":
            job.state = JobState.FAILED
            job.end_time = self.now
            self._in_flight -= 1
            self._error = self._error or error
            return "raised"
        self.num_failures += 1
        if policy.should_retry(job.retries):
            return "retry"
        job.result = policy.failure_result(failure, duration)
        return "failed"

    def _requeue(self, job: Job) -> None:
        """A failed attempt released its worker: the job awaits a retry."""
        job.retries += 1
        self.num_retries += 1
        job.state = JobState.RETRYING
        job.worker = -1
        if self.event_bus is not None:
            from repro.campaign.events import JobRetried

            self.event_bus.emit(
                JobRetried(job_id=job.job_id, time=self.now, retries=job.retries, error=job.error)
            )

    def _deliver(self, job: Job, end_time: float) -> None:
        """Finalize a job with a result; the next ``gather`` returns it."""
        job.end_time = end_time
        job.state = JobState.FAILED if job.result.metadata.get("failed") else JobState.DONE
        self._finished.append(job)

    def _raise_pending(self) -> None:
        error, self._error = self._error, None
        if error is not None:
            raise error

    # -- checkpointing (optional per backend) -------------------------- #
    def state_dict(self) -> dict[str, Any]:
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")

    def load_state(self, state: dict[str, Any]) -> None:
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")


class SimulatedEvaluator(Evaluator):
    """Event-driven simulation of a ``num_workers``-node cluster.

    Parameters
    ----------
    run_function:
        Called once per attempt (at start time); must return an
        :class:`EvaluationResult` whose ``duration`` is in simulated
        minutes.
    num_workers:
        W in the paper (128 on Theta; scaled down in the benches).
    fault_policy:
        Uniform failure handling (see :class:`FaultPolicy`); the default
        policy raises.  A result whose duration exceeds the policy
        ``timeout`` is a timed-out attempt that held its worker until
        ``start + timeout``.
    worker_failures:
        Optional ``(time_minutes, worker_id)`` pairs: the worker dies
        permanently at that simulated time; a job running on it is
        rescheduled (front of the queue) on a surviving worker.
    cache:
        Optional :class:`~repro.workflow.cache.EvaluationCache`.  A hit
        skips the run-function call (no re-training) but *replays the
        memoized duration on the simulated clock* — the worker stays
        reserved until ``start + duration`` — so the campaign timeline
        (and the search history) is bit-identical with the cache on or
        off.  Hits are credited zero busy time, keeping ``utilization()``
        honest about compute that never happened.

    Notes
    -----
    Jobs submitted while all workers are busy wait in a FIFO queue and are
    started when a worker frees — their results are computed lazily at
    start so the run function observes correct ordering.  Worker busy time
    is tracked for the node-utilization analysis (§IV-C, ≈94%);
    ``utilization()`` is busy worker-minutes over *alive* worker-minutes,
    so dead workers stop counting against the denominator.
    """

    # The campaign benchmark's tracer patches ``submit`` and ``gather`` by
    # name in this class body, so the inherited contract is bound here.
    submit = Evaluator.submit
    gather = Evaluator.gather

    def __init__(
        self,
        run_function: RunFunction,
        num_workers: int,
        fault_policy: FaultPolicy | None = None,
        worker_failures: Iterable[tuple[float, int]] | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        super().__init__(run_function, num_workers, fault_policy, cache)
        self.num_worker_failures = 0
        self._clock = 0.0
        self._events = EventQueue()  # payload: (kind, ref, attempt)
        self._free_workers = list(range(num_workers - 1, -1, -1))
        self._dead_workers: set[int] = set()
        self._running: dict[int, Job] = {}  # worker -> job
        self._waiting: collections.deque[Job] = collections.deque()
        self._capacity_time = 0.0  # integral of alive workers over time
        for fail_time, worker in worker_failures or ():
            if not 0 <= worker < num_workers:
                raise ValueError(f"worker_failures names unknown worker {worker}")
            self._events.push(float(fail_time), ("worker_fail", worker, 0))

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return self._clock

    @property
    def num_free_workers(self) -> int:
        return len(self._free_workers)

    @property
    def num_alive_workers(self) -> int:
        return self.num_workers - len(self._dead_workers)

    def utilization(self) -> float:
        """Busy worker-minutes over available (alive) worker-minutes so far."""
        if self._capacity_time == 0.0:
            return 0.0
        return self._busy_time / self._capacity_time

    # ------------------------------------------------------------------ #
    def _launch(self, job: Job) -> None:
        if self._free_workers:
            self._start(job)
        else:
            self._waiting.append(job)

    def _start(self, job: Job) -> None:
        """Run one attempt of ``job`` on a free worker; schedule its end."""
        policy = self.fault_policy
        worker = self._free_workers.pop()
        job.worker = worker
        job.state = JobState.RUNNING
        job.start_time = self._clock
        job.attempt += 1
        self._running[worker] = job
        if self._serve_from_cache(job):
            # Memoized duplicate: no run-function call, but the memoized
            # duration is replayed on the simulated clock so the campaign
            # timeline matches a cache-off run exactly.
            route = "done"
        else:
            try:
                outcome = self.run_function(job.config)
            except Exception as exc:
                outcome, duration = exc, policy.failure_duration
            else:
                duration = outcome.duration
                if policy.timeout is not None and duration > policy.timeout:
                    outcome = _Overdue(
                        f"timeout after {policy.timeout} min (duration {duration:.2f})"
                    )
                    duration = policy.timeout
            route = self._settle(job, outcome, duration)
        if route == "raised":
            self._release_worker(worker)
        elif route == "retry":
            # The failed attempt still occupies the worker for its duration.
            self._events.push(self._clock + duration, ("fail", job, job.attempt))
        else:
            job.end_time = self._clock + job.result.duration
            self._events.push(job.end_time, ("finish", job, job.attempt))

    # ------------------------------------------------------------------ #
    def _advance(self, t: float) -> None:
        if t > self._clock:
            self._capacity_time += self.num_alive_workers * (t - self._clock)
            self._clock = t

    def _release_worker(self, worker: int) -> None:
        self._running.pop(worker, None)
        if worker not in self._dead_workers:
            self._free_workers.append(worker)

    def _on_worker_fail(self, worker: int) -> None:
        if worker in self._dead_workers:
            return
        self._dead_workers.add(worker)
        self.num_worker_failures += 1
        if self.event_bus is not None:
            from repro.campaign.events import WorkerDied

            self.event_bus.emit(WorkerDied(worker=worker, time=self._clock))
        if worker in self._free_workers:
            self._free_workers.remove(worker)
        job = self._running.pop(worker, None)
        if job is not None:
            # The in-flight job is rescheduled at the front of the queue;
            # bumping ``attempt`` invalidates its pending completion event.
            if not job.cache_hit:
                self._busy_time += self._clock - job.start_time
            job.attempt += 1
            job.worker = -1
            job.state = JobState.PENDING
            self._waiting.appendleft(job)

    def _collect(self) -> None:
        """Advance the clock to the next event time and process its events."""
        if not self._events:
            raise RuntimeError(
                f"evaluator deadlocked: {self._in_flight} job(s) in flight but all "
                f"{self.num_workers} workers are dead"
            )
        for end_time, (kind, ref, attempt) in self._events.drain_until(self._events.peek_time()):
            self._advance(end_time)
            if kind == "worker_fail":
                self._on_worker_fail(ref)
                continue
            job = ref
            if job.attempt != attempt:
                continue  # stale event from a dead worker's attempt
            if kind == "retry":
                self._waiting.append(job)
                continue
            if not job.cache_hit:
                # Cache hits reserved the worker for the memoized duration
                # but computed nothing: zero busy credit.
                self._busy_time += end_time - job.start_time
            self._release_worker(job.worker)
            if kind == "finish":
                self._deliver(job, job.end_time)
                continue
            self._requeue(job)
            delay = self.fault_policy.backoff_minutes(job.retries)
            if delay > 0:
                self._events.push(self._clock + delay, ("retry", job, job.attempt))
            else:
                self._waiting.append(job)
        # Start queued jobs on the workers that just freed.
        while self._waiting and self._free_workers:
            self._start(self._waiting.popleft())

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of the full cluster state (jobs, queue, clock)."""
        entries = self._events.entries()

        def encode_ref(kind: str, ref: Any) -> Any:
            return ref if kind == "worker_fail" else ref.job_id

        state = {
            "num_workers": self.num_workers,
            "clock": self._clock,
            "busy_time": self._busy_time,
            "capacity_time": self._capacity_time,
            "next_id": self._next_id,
            "in_flight": self._in_flight,
            "num_failures": self.num_failures,
            "num_retries": self.num_retries,
            "num_timeouts": self.num_timeouts,
            "num_worker_failures": self.num_worker_failures,
            "free_workers": list(self._free_workers),
            "dead_workers": sorted(self._dead_workers),
            "running": {str(w): job.job_id for w, job in self._running.items()},
            "waiting": [job.job_id for job in self._waiting],
            "events": [
                [t, c, kind, encode_ref(kind, ref), attempt]
                for t, c, (kind, ref, attempt) in entries
            ],
            "event_counter": max((c for _, c, _ in entries), default=-1) + 1,
            "jobs": [job_to_dict(job) for job in self.jobs],
            "policy": dataclasses.asdict(self.fault_policy),
            "cache": self.cache.state_dict() if self.cache is not None else None,
        }
        if hasattr(self.run_function, "getstate"):
            state["run_function_state"] = self.run_function.getstate()
        return state

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Only the dynamic cluster state is restored: the worker count, the
        fault policy, whether the cache is on and whether the run function
        injects faults must already match the snapshot (``ValueError``
        names the first that does not).
        """
        check_settings(
            {
                "num_workers": state["num_workers"],
                **state["policy"],
                "cache": "off" if state.get("cache") is None else "on",
                "fault injection": "on" if "run_function_state" in state else "off",
            },
            {
                "num_workers": self.num_workers,
                **dataclasses.asdict(self.fault_policy),
                "cache": "off" if self.cache is None else "on",
                "fault injection": "on" if hasattr(self.run_function, "getstate") else "off",
            },
        )
        self._clock = float(state["clock"])
        self._busy_time = float(state["busy_time"])
        self._capacity_time = float(state["capacity_time"])
        self._next_id = int(state["next_id"])
        self._in_flight = int(state["in_flight"])
        self.num_failures = int(state["num_failures"])
        self.num_retries = int(state["num_retries"])
        self.num_timeouts = int(state["num_timeouts"])
        self.num_worker_failures = int(state["num_worker_failures"])
        self._free_workers = [int(w) for w in state["free_workers"]]
        self._dead_workers = {int(w) for w in state["dead_workers"]}
        self.jobs = [job_from_dict(row) for row in state["jobs"]]
        by_id = {job.job_id: job for job in self.jobs}
        self._running = {int(w): by_id[jid] for w, jid in state["running"].items()}
        self._waiting = collections.deque(by_id[jid] for jid in state["waiting"])
        self._events.restore(
            [
                (t, c, (kind, ref if kind == "worker_fail" else by_id[ref], attempt))
                for t, c, kind, ref, attempt in state["events"]
            ],
            int(state["event_counter"]),
        )
        if self.cache is not None:
            self.cache.load_state(state["cache"])
        if "run_function_state" in state:
            self.run_function.setstate(state["run_function_state"])


class _WallClockEvaluator(Evaluator):
    """The wall-clock (thread / process) backends: one pool, one loop.

    Time is wall-clock minutes since construction.  Every attempt runs
    :func:`_timed_call` on the pool and is ``RUNNING`` from dispatch, so its
    deadline is dispatch time plus the policy ``timeout``.  A subclass
    provides ``_make_pool`` and may override ``_reclaim_overdue``.

    The reported job duration is the run function's declared duration
    unless ``measure_wall_time=True``, in which case the measured elapsed
    time (in minutes) replaces it.  Retries are dispatched immediately
    (exponential backoff is a simulated-minutes concept; sleeping real
    minutes would stall the pool).  A cache hit is finalized at submit
    time with the memoized result, zero busy credit and no dispatch.

    Busy time is credited per attempt: an attempt that returns from its
    worker is credited its measured in-worker time; one that never does
    (timed out, or lost in a crashed pool) is credited wall time from
    dispatch to reap.  Worker crashes surface as
    :class:`concurrent.futures.BrokenExecutor`: the pool is rebuilt before
    any failure is routed, the attempts that saw the break are failed
    attempts (``num_worker_crashes``), and the other in-flight jobs are
    re-dispatched without being charged a retry (``num_pool_rebuilds``
    counts the rebuilds).
    """

    # The campaign benchmark's tracer patches ``submit`` by name in this
    # class body, so the inherited contract is bound here.
    submit = Evaluator.submit

    def __init__(
        self,
        run_function: RunFunction,
        num_workers: int,
        measure_wall_time: bool = False,
        fault_policy: FaultPolicy | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        super().__init__(run_function, num_workers, fault_policy, cache)
        self.measure_wall_time = measure_wall_time
        self.num_worker_crashes = 0
        self.num_pool_rebuilds = 0
        self._t0 = _time.perf_counter()
        self._futures: dict[Any, Job] = {}
        self._pool = self._make_pool()

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return (_time.perf_counter() - self._t0) / 60.0

    def utilization(self) -> float:
        """Measured busy worker-minutes over elapsed worker-minutes."""
        elapsed = self.now
        if elapsed == 0.0:
            return 0.0
        return self._busy_time / (self.num_workers * elapsed)

    @property
    def _pool_run_function(self) -> RunFunction | None:
        return self.run_function

    def _make_pool(self) -> Executor:
        raise NotImplementedError

    def _reclaim_overdue(self) -> None:
        """An overdue attempt could not be cancelled: abandon it.  Its
        worker stays busy until the call returns; the result is ignored."""

    # ------------------------------------------------------------------ #
    def _launch(self, job: Job) -> None:
        if self._serve_from_cache(job):
            job.start_time = self.now
            self._deliver(job, job.start_time)
        else:
            self._dispatch(job)

    def _dispatch(self, job: Job) -> None:
        job.state = JobState.RUNNING
        job.start_time = self.now
        job.attempt += 1
        future = self._pool.submit(_timed_call, self._pool_run_function, job.config)
        self._futures[future] = job

    def _rebuild_pool(self) -> None:
        """Terminate the pool's workers and build a fresh pool.

        The jobs still in flight re-run on the new pool without being
        charged a retry — the fault was not theirs; their partial attempts
        are credited wall time since dispatch.
        """
        victims = list(self._futures.values())
        self._futures.clear()
        for proc in list((getattr(self._pool, "_processes", None) or {}).values()):
            proc.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()
        self.num_pool_rebuilds += 1
        now = self.now
        for job in victims:
            self._busy_time += max(0.0, now - job.start_time)
            self._dispatch(job)

    def _collect(self) -> None:
        """Wait for the next completions or deadline; settle what ended.

        Outcomes are collected and overdue attempts reaped *before* any
        failure routing, so retries go to a healthy pool, never to a
        broken one.
        """
        policy = self.fault_policy
        deadline_s = None
        if policy.timeout is not None:
            first = min(job.start_time for job in self._futures.values())
            deadline_s = max(0.0, (first + policy.timeout - self.now) * 60.0) + 1e-3
        done, _ = wait(self._futures, timeout=deadline_s, return_when=FIRST_COMPLETED)
        ended: list[tuple[Job, Any, float]] = []  # (job, outcome, busy minutes)
        broken = stuck = False
        for future in done:
            job = self._futures.pop(future)
            try:
                outcome, minutes = future.result()
            except Exception as exc:  # a crashed pool, or an unpicklable result
                if isinstance(exc, BrokenExecutor):
                    broken = True
                    self.num_worker_crashes += 1
                    exc = RuntimeError(f"job {job.job_id}: worker process crashed ({exc!r})")
                outcome, minutes = exc, max(0.0, self.now - job.start_time)
            if self.measure_wall_time and isinstance(outcome, EvaluationResult):
                outcome = EvaluationResult(outcome.objective, minutes, outcome.metadata)
            ended.append((job, outcome, minutes))
        if policy.timeout is not None:
            now = self.now
            for future, job in list(self._futures.items()):
                if now >= job.start_time + policy.timeout:
                    del self._futures[future]
                    stuck |= not future.cancel()
                    overdue = _Overdue(f"timeout after {policy.timeout} min")
                    ended.append((job, overdue, now - job.start_time))
        if broken:
            self._rebuild_pool()
        elif stuck:
            self._reclaim_overdue()
        for job, outcome, minutes in ended:
            self._busy_time += minutes
            route = self._settle(job, outcome, policy.failure_duration)
            if route == "retry":
                self._requeue(job)
                self._dispatch(job)
            elif route != "raised":
                self._deliver(job, self.now)

    def shutdown(self) -> None:
        """Wait for running attempts; attempts not yet started are cancelled."""
        self._pool.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Alias for :meth:`shutdown` (context-manager parity)."""
        self.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ThreadedEvaluator(_WallClockEvaluator):
    """Real concurrent evaluation on a thread pool.

    Same ``submit``/``gather`` and :class:`FaultPolicy` surface as every
    backend (see :class:`_WallClockEvaluator` for the wall-clock rules).
    Threads cannot be killed: an attempt past its deadline is finalized
    (penalized, retried or raised) so the campaign never blocks on a hung
    evaluation, but its thread keeps its pool slot until the call returns.
    """

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.num_workers)


class ProcessPoolEvaluator(_WallClockEvaluator):
    """True multi-core evaluation on a :class:`ProcessPoolExecutor`.

    The run function must be picklable (a module-level callable or a
    picklable object); it is pickled **once at construction** — failing
    fast with a clear error — and installed into each worker by the pool
    initializer, so heavy captured state crosses the process boundary once
    per worker instead of once per job.  Attached campaign event buses are
    stripped from the pickled copy (worker-side emissions could not reach
    the manager's bus); all lifecycle events are emitted by the manager.

    Timeouts are *real cancellations*: an overdue attempt still queued is
    cancelled in place, and one already running in a worker gets the
    worker processes terminated and the pool rebuilt, reclaiming the slot.
    Innocent in-flight jobs caught in the kill are re-dispatched on the
    fresh pool without being charged a retry.
    """

    # The campaign benchmark's tracer patches ``gather`` by name in this
    # class body, so the inherited contract is bound here.
    gather = Evaluator.gather
    # Workers call the function installed by the pool initializer.
    _pool_run_function = None

    def __init__(
        self,
        run_function: RunFunction,
        num_workers: int,
        measure_wall_time: bool = False,
        fault_policy: FaultPolicy | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        try:
            self._payload = pickle.dumps(_strip_event_bus(run_function))
        except Exception as exc:
            raise TypeError(
                "ProcessPoolEvaluator requires a picklable run function "
                "(module-level callable or picklable object); "
                f"pickling failed with: {exc!r}"
            ) from exc
        super().__init__(
            run_function,
            num_workers,
            measure_wall_time=measure_wall_time,
            fault_policy=fault_policy,
            cache=cache,
        )

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.num_workers,
            initializer=_process_worker_init,
            initargs=(self._payload,),
        )

    def _reclaim_overdue(self) -> None:
        self._rebuild_pool()
