"""Workflow substrate (paper substitute for the Balsam workflow system).

Provides the non-blocking ``submit`` / ``gather`` manager-worker interface
of Algorithm 1 over one job table (the :class:`Evaluator` base, which
applies the fault policy and delivers finished jobs) with three
interchangeable backends:

- :class:`SimulatedEvaluator` — an event-driven simulation of a W-worker
  cluster with a simulated wall clock in minutes.  Evaluation *results* are
  produced by really running the evaluation function; evaluation
  *durations* are supplied by the function (typically from
  :class:`repro.dataparallel.TrainingCostModel`).
- :class:`ThreadedEvaluator` — real concurrent execution on a thread pool,
  used to validate that the search loops are genuinely asynchronous.
- :class:`ProcessPoolEvaluator` — true multi-core execution on a process
  pool with worker-crash detection and real timeout cancellation.

All backends accept an optional :class:`EvaluationCache` that serves
duplicate configurations from memo instead of re-training them.
"""

from repro.workflow.events import EventQueue
from repro.workflow.jobs import EvaluationResult, Job, JobState
from repro.workflow.faults import FaultInjector, FaultPolicy, InjectedCrash
from repro.workflow.cache import CACHE_MODES, EvaluationCache, canonical_config_key
from repro.workflow.evaluator import (
    Evaluator,
    ProcessPoolEvaluator,
    SimulatedEvaluator,
    ThreadedEvaluator,
)

__all__ = [
    "EventQueue",
    "Job",
    "JobState",
    "EvaluationResult",
    "Evaluator",
    "SimulatedEvaluator",
    "ThreadedEvaluator",
    "ProcessPoolEvaluator",
    "EvaluationCache",
    "canonical_config_key",
    "CACHE_MODES",
    "FaultPolicy",
    "FaultInjector",
    "InjectedCrash",
]
