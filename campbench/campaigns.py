"""Workload definitions and the seeded campaign runs the benchmark measures.

Each workload in ``workloads.json`` pins a complete
:class:`~repro.campaign.CampaignConfig` (as ``CampaignConfig.to_dict()``
writes it).  The benchmark seed only fills in the three seeds of each
campaign it runs — search, training initialisation and fault injection —
so the program receives nothing but a generated ``CampaignConfig``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.utilization import UtilizationSummary, utilization_summary
from repro.campaign import (
    CampaignConfig,
    EventBus,
    JsonlEventLog,
    build_campaign,
    resume_campaign,
)

WORKLOADS_FILE = Path(__file__).with_name("workloads.json")

_clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """One entry of ``workloads.json``; ``config`` is the pinned campaign."""

    name: str
    why: str
    target_accuracy: float
    min_campaigns: int
    kill_and_resume: bool
    event_log: bool
    gated: bool  # listed in BENCHMARK.json, so regression checks run and bound it
    config: dict[str, Any]

    @property
    def simulated(self) -> bool:
        return self.config["evaluator"]["backend"] == "simulated"

    def campaign_config(self, seed: int, index: int, tmpdir: Path) -> CampaignConfig:
        """The config of campaign ``index`` of a run with benchmark ``seed``."""
        data = json.loads(json.dumps(self.config))
        search_seed, base_seed, fault_seed = (
            int(s) for s in np.random.SeedSequence([seed, index]).generate_state(3) >> 1
        )
        data["search"]["seed"] = search_seed
        data["training"]["base_seed"] = base_seed
        data["faults"]["fault_seed"] = fault_seed
        if data["evaluator"]["num_workers"] == "nproc":
            data["evaluator"]["num_workers"] = len(os.sched_getaffinity(0))
        if data["checkpoint"]["path"] is not None:
            data["checkpoint"]["path"] = str(tmpdir / data["checkpoint"]["path"])
        return CampaignConfig.from_dict(data)


def load_workloads() -> dict[str, Workload]:
    rows = json.loads(WORKLOADS_FILE.read_text())
    return {row["name"]: Workload(**row) for row in rows}


# --------------------------------------------------------------------- #
class _TimedCall:
    """Times calls to an evaluator's run function or gather; every other
    attribute (the fault injector's ``getstate``/``setstate``) passes through."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.seconds = 0.0

    def __call__(self, *args):
        start = _clock()
        try:
            return self.fn(*args)
        finally:
            self.seconds += _clock() - start

    def __getattr__(self, name: str):
        return getattr(self.fn, name)


def _counters(campaign) -> dict[str, float]:
    ev = campaign.evaluator
    cache = getattr(ev, "cache", None)
    injector = campaign.fault_injector
    return {
        "retries": ev.num_retries,
        "timeouts": ev.num_timeouts,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_lookups": cache.hits + cache.misses if cache is not None else 0,
        "faults": (
            injector.num_crashes + injector.num_hangs + injector.num_corruptions
            if injector is not None
            else 0
        ),
    }


def history_digest(history) -> str:
    """SHA-256 of the ordered (config, objective, simulated times) records."""
    h = hashlib.sha256()
    for r in history:
        row = (
            r.config.arch.tolist(),
            sorted(r.config.hyperparameters.items()),
            r.objective,
            r.duration,
            r.submit_time,
            r.start_time,
            r.end_time,
            bool(r.metadata.get("failed")),
        )
        h.update(repr(row).encode())
    return h.hexdigest()


@dataclass
class CampaignRun:
    """What one seeded campaign produced and how long each part took."""

    config: CampaignConfig
    history: Any
    setup_s: float
    host_s: float = 0.0  # Campaign.run legs plus the resume, host seconds
    # Host seconds of host_s the manager spent evaluating (simulated backend,
    # inline) or waiting in gather for its workers (wall-clock backends).
    eval_s: float = 0.0
    utilization: UtilizationSummary | None = None  # at the end of the last leg
    counters: dict[str, float] = field(default_factory=dict)
    event_log_bytes: int = 0

    def check(self, simulated: bool) -> list[str]:
        """The correctness gate for one campaign; returns the violations."""
        problems = []
        n, budget = len(self.history), self.config.max_evaluations
        if n != budget:
            problems.append(f"{n} evaluations, budget {budget}")
        for r in self.history:
            if not (math.isfinite(r.objective) and 0.0 <= r.objective <= 1.0):
                problems.append(f"objective {r.objective!r} outside [0, 1]")
                break
        if simulated:
            for r in self.history:
                if not r.submit_time <= r.start_time <= r.end_time:
                    problems.append(
                        f"times out of order: submit {r.submit_time} "
                        f"start {r.start_time} end {r.end_time}"
                    )
                    break
        return problems

    def summary(self, simulated: bool, target: float) -> dict[str, Any]:
        """The JSON-safe record of this campaign that a run aggregates.

        Times on the evaluator's clock (``*_min``) are simulated minutes on
        the simulated backend and wall minutes on the wall-clock ones.
        """
        h, u = self.history, self.utilization
        reached = h.time_to_reach(target)
        return {
            "search_seed": self.config.search.seed,
            "evals": len(h),
            "setup_s": self.setup_s,
            "host_s": self.host_s,
            "eval_s": self.eval_s,
            "manager_s": self.host_s - self.eval_s,
            "best_objective": h.best().objective,
            "penalized": h.num_failures,
            "busy_min": u.busy_worker_minutes,
            "capacity_min": u.num_workers * u.elapsed_minutes,
            "evals_per_hour": 60.0 * len(h) / u.elapsed_minutes,
            # Censored at the elapsed time when the target was never reached.
            "minutes_to_target": u.elapsed_minutes if reached is None else reached,
            "jobs_done": u.num_jobs_done,
            "queue_delay_min": u.mean_queue_delay,
            "job_ms": [6e4 * (r.end_time - r.start_time) for r in h],
            "counters": self.counters,
            "event_log_bytes": self.event_log_bytes,
            "digest": history_digest(h) if simulated else None,
            "problems": self.check(simulated),
        }


def _run_leg(campaign, run: CampaignRun, simulated: bool, **budget) -> Any:
    """One ``Campaign.run`` call, adding its host time, the part of it spent
    on evaluations and its counter deltas to ``run``."""
    ev = campaign.evaluator
    # The simulated backend evaluates inline, in its run function; a
    # wall-clock backend's manager waits for its workers in gather.
    attr = "run_function" if simulated else "gather"
    shadowed = attr in vars(ev)
    timed = _TimedCall(getattr(ev, attr))
    setattr(ev, attr, timed)
    before = _counters(campaign)
    start = _clock()
    try:
        history = campaign.run(**budget)
    finally:
        run.host_s += _clock() - start
        if shadowed:
            setattr(ev, attr, timed.fn)
        else:
            delattr(ev, attr)
    run.eval_s += timed.seconds
    after = _counters(campaign)
    for key, value in after.items():
        run.counters[key] = run.counters.get(key, 0) + value - before[key]
    return history


def _close(campaign) -> None:
    close = getattr(campaign.evaluator, "close", None)
    if close is not None:
        close()


def run_campaign(
    workload: Workload,
    seed: int,
    index: int,
    tmpdir: Path,
    interrupted: bool,
    tracer=None,
) -> CampaignRun:
    """Build and run campaign ``index`` of the run seeded ``seed``.

    An ``interrupted`` campaign stops at half its budget and is dropped; a
    fresh campaign is rebuilt from its last checkpoint by
    ``resume_campaign`` and run to the full budget.  ``tracer``, when
    given, must already be installed; the resume is then recorded as the
    ``core.resume`` span.
    """
    tmpdir.mkdir(parents=True, exist_ok=True)
    config = workload.campaign_config(seed, index, tmpdir)
    simulated = workload.simulated
    bus = EventBus()
    log = None
    if workload.event_log:
        log = JsonlEventLog(tmpdir / "events.jsonl")
        bus.subscribe(log)
    try:
        start = _clock()
        campaign = build_campaign(config, event_bus=bus)
        run = CampaignRun(config=config, history=None, setup_s=_clock() - start)
        if interrupted:
            try:
                _run_leg(campaign, run, simulated,
                         max_evaluations=config.max_evaluations // 2)
            finally:
                _close(campaign)
            start = _clock()
            with tracer.span("core.resume") if tracer else contextlib.nullcontext():
                campaign = resume_campaign(config.checkpoint.path, event_bus=bus)
            run.host_s += _clock() - start
        try:
            run.history = _run_leg(campaign, run, simulated)
            run.utilization = utilization_summary(campaign.evaluator)
        finally:
            _close(campaign)
    finally:
        if log is not None:
            log.close()
    if log is not None:
        run.event_log_bytes = log.path.stat().st_size
    return run
