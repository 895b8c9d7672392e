"""Fault policies and deterministic fault injection.

The paper's 3-hour, 129-node campaigns survive stragglers and diverged
trainings because the manager treats evaluation failure as data, not as a
fatal error (§III-C: failed evaluations are penalized with a low objective).
This module makes that behaviour a first-class, testable subsystem:

- :class:`FaultPolicy` — the uniform failure-handling contract honored by
  every evaluator backend: what counts as a failure (exceptions, per-job
  timeouts, non-finite objectives), how often to retry, how long to back
  off between attempts (exponential, in evaluator minutes), and what a
  penalized result looks like.
- :class:`FaultInjector` — a seeded, deterministic wrapper around any run
  function that injects crashes (raised exceptions), hangs/stragglers
  (inflated durations, to be caught by the policy timeout) and corrupted
  results (non-finite objectives).  Used by the fault-injection test
  harness and the CLI's ``--crash-prob``/``--hang-prob`` knobs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.workflow.jobs import EvaluationResult

__all__ = ["FaultPolicy", "FaultInjector", "InjectedCrash", "ON_ERROR_POLICIES"]

ON_ERROR_POLICIES = ("raise", "penalize", "retry")


class InjectedCrash(RuntimeError):
    """Raised by :class:`FaultInjector` to simulate a crashing worker."""


@dataclass(frozen=True)
class FaultPolicy:
    """How an evaluator reacts when a run function misbehaves.

    Parameters
    ----------
    on_error:
        ``"raise"`` propagates the failure to the manager (debugging);
        ``"penalize"`` records a low-objective result and moves on
        (production behaviour — a diverged training must not kill a
        campaign); ``"retry"`` re-runs the job up to ``max_retries`` times
        and penalizes once retries are exhausted.
    max_retries:
        Failed attempts re-run under ``on_error="retry"`` before the job is
        penalized.
    retry_backoff:
        Base backoff in evaluator minutes; attempt ``k`` (1-based) waits
        ``retry_backoff * 2**(k-1)`` minutes before re-entering the queue.
        Zero requeues immediately.
    timeout:
        Per-attempt limit in evaluator minutes; an attempt running longer
        is treated as failed at ``start + timeout`` (catches hangs and
        stragglers).  Wall-clock backends start the clock at dispatch.
    failure_objective, failure_duration:
        The penalized :class:`EvaluationResult` recorded for a job that has
        exhausted the policy.
    reject_invalid:
        Treat non-finite objectives (NaN/inf — corrupted or diverged
        results) as failures.
    """

    on_error: str = "raise"
    max_retries: int = 0
    retry_backoff: float = 0.0
    timeout: float | None = None
    failure_objective: float = 0.0
    failure_duration: float = 1.0
    reject_invalid: bool = True

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValueError(f"unknown on_error policy {self.on_error!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be > 0 when set")
        if self.failure_duration < 0:
            raise ValueError("failure_duration must be >= 0")

    # ------------------------------------------------------------------ #
    def backoff_minutes(self, retries: int) -> float:
        """Delay before retry number ``retries`` (1-based) re-enters the queue."""
        if retries < 1 or self.retry_backoff == 0.0:
            return 0.0
        return self.retry_backoff * 2.0 ** (retries - 1)

    def should_retry(self, retries_so_far: int) -> bool:
        return self.on_error == "retry" and retries_so_far < self.max_retries

    def failure_result(self, error: str, duration: float | None = None) -> EvaluationResult:
        """The penalized result recorded for an exhausted job."""
        return EvaluationResult(
            objective=self.failure_objective,
            duration=self.failure_duration if duration is None else duration,
            metadata={"failed": True, "error": error},
        )

    def classify(self, result: EvaluationResult) -> str | None:
        """Failure description for a returned result, or None if acceptable."""
        if self.reject_invalid and not math.isfinite(result.objective):
            return f"invalid objective {result.objective!r}"
        return None


class FaultInjector:
    """Deterministically inject faults into a run function.

    One uniform draw is made per call and partitioned into crash / hang /
    corrupt / clean bands, so the wrapped run function sees an unmodified
    call sequence and whole campaigns stay reproducible for a given seed.

    Parameters
    ----------
    run_function:
        The wrapped evaluation function.
    crash_prob:
        Probability the call raises :class:`InjectedCrash` (the run
        function is *not* invoked — a worker that died before reporting).
    hang_prob:
        Probability the reported duration is inflated by ``hang_factor``
        (a straggler; rely on :attr:`FaultPolicy.timeout` to reap it).
    corrupt_prob:
        Probability the objective is replaced with NaN (a diverged or
        corrupted result; caught by ``FaultPolicy.reject_invalid``).
    """

    def __init__(
        self,
        run_function: Callable[[Any], EvaluationResult],
        crash_prob: float = 0.0,
        hang_prob: float = 0.0,
        corrupt_prob: float = 0.0,
        hang_factor: float = 20.0,
        seed: int = 0,
    ) -> None:
        for name, p in (
            ("crash_prob", crash_prob),
            ("hang_prob", hang_prob),
            ("corrupt_prob", corrupt_prob),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if crash_prob + hang_prob + corrupt_prob > 1.0:
            raise ValueError("crash_prob + hang_prob + corrupt_prob must be <= 1")
        if hang_factor < 1.0:
            raise ValueError("hang_factor must be >= 1")
        self.run_function = run_function
        self.crash_prob = crash_prob
        self.hang_prob = hang_prob
        self.corrupt_prob = corrupt_prob
        self.hang_factor = hang_factor
        self.seed = seed
        self._rng = random.Random(seed)
        self.num_calls = 0
        self.num_crashes = 0
        self.num_hangs = 0
        self.num_corruptions = 0
        # Optional campaign event bus (attached by repro.campaign.builder).
        self.event_bus = None

    def _emit(self, kind: str) -> None:
        if self.event_bus is not None:
            from repro.campaign.events import FaultInjected

            self.event_bus.emit(FaultInjected(kind=kind, call_index=self.num_calls))

    # ------------------------------------------------------------------ #
    def __call__(self, config: Any) -> EvaluationResult:
        self.num_calls += 1
        draw = self._rng.random()
        if draw < self.crash_prob:
            self.num_crashes += 1
            self._emit("crash")
            raise InjectedCrash(f"injected crash on call {self.num_calls}")
        result = self.run_function(config)
        if draw < self.crash_prob + self.hang_prob:
            self.num_hangs += 1
            self._emit("hang")
            return EvaluationResult(
                objective=result.objective,
                duration=result.duration * self.hang_factor,
                metadata={**result.metadata, "injected_hang": True},
            )
        if draw < self.crash_prob + self.hang_prob + self.corrupt_prob:
            self.num_corruptions += 1
            self._emit("corrupt")
            return EvaluationResult(
                objective=float("nan"),
                duration=result.duration,
                metadata={**result.metadata, "injected_corruption": True},
            )
        return result

    # ------------------------------------------------------------------ #
    # Checkpoint support: evaluators snapshot any run function exposing
    # getstate/setstate so resumed campaigns replay the same fault sequence.
    def getstate(self) -> dict[str, Any]:
        version, internal, gauss = self._rng.getstate()
        return {
            "rng": [version, list(internal), gauss],
            "num_calls": self.num_calls,
            "num_crashes": self.num_crashes,
            "num_hangs": self.num_hangs,
            "num_corruptions": self.num_corruptions,
        }

    def setstate(self, state: dict[str, Any]) -> None:
        version, internal, gauss = state["rng"]
        self._rng.setstate((version, tuple(internal), gauss))
        self.num_calls = int(state["num_calls"])
        self.num_crashes = int(state["num_crashes"])
        self.num_hangs = int(state["num_hangs"])
        self.num_corruptions = int(state["num_corruptions"])
