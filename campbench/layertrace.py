"""Outside-in layer trace: spans around calls into each layer's public API.

The program itself carries no span timer yet, so the traced run wraps the
public functions of each ``repro`` layer from here, while a traced campaign
runs, and restores the originals afterwards.  A span records its name, its
duration and its self time (duration minus the time its child spans
cover); a few wrappers also record counts at the same boundary (samples
trained, computed allreduce bytes, checkpoint bytes).

Everything stays in memory until the traced campaign ends; its process
hands :meth:`Tracer.raw` to the benchmark run, which merges the campaigns'
records and turns them into the per-layer metrics of ``BENCHMARK.json``
with :meth:`Tracer.layer_metrics`.

Evaluations that run inside worker processes (the process-pool backend)
are invisible to this manager-side trace, so the ``nn.*`` and
``dataparallel.*`` metrics read zero on that workload; its per-evaluation
times come from the job timestamps instead.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro.bo.forest import RandomForestRegressor
from repro.bo.optimizer import BayesianOptimizer
from repro.campaign import builder as campaign_builder
from repro.campaign.events import EventBus
from repro.core.evaluation import ModelEvaluation
from repro.core.search import AgingEvolutionBase
from repro.dataparallel.allreduce import ring_transfer_stats
from repro.dataparallel.trainer import DataParallelTrainer
from repro.nn.compiled import CompiledPlan
from repro.nn.graph_network import GraphNetwork
from repro.nn.optimizers import Adam
from repro.workflow.evaluator import (
    ProcessPoolEvaluator,
    SimulatedEvaluator,
    _WallClockEvaluator,
)

_clock = time.perf_counter


class Tracer:
    """In-memory span and counter store for one or more traced campaigns."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.manager_ms: list[float] = []
        self._stack: list[float] = []  # child seconds of each open span
        self._eval_s = 0.0  # running total of evaluation seconds
        self._iteration_s: float | None = None
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str):
        start = _clock()
        self._stack.append(0.0)
        try:
            yield
        finally:
            duration = _clock() - start
            child = self._stack.pop()
            self.durations[name].append(duration)
            self.self_time[name] += duration - child
            if self._stack:
                self._stack[-1] += duration
            if name == "core.eval":
                self._eval_s += duration

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _manager_leg(self, name: str, fn, closes_iteration: bool):
        """Wrap a manager-loop leg (gather or resubmit), accumulating its
        time minus the evaluation calls inside it into the iteration."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            eval_before = tracer._eval_s
            with tracer.span(name):
                out = fn(*args, **kwargs)
            own = tracer.durations[name][-1] - (tracer._eval_s - eval_before)
            tracer.counts[f"{name}.manager_s"] += own
            if closes_iteration:
                if tracer._iteration_s is not None:
                    tracer.manager_ms.append(1e3 * (tracer._iteration_s + own))
                tracer._iteration_s = None
            else:
                tracer._iteration_s = own
            return out

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------ #
    # Counters recorded at the same boundaries as the spans
    def _count_samples(self, args, out) -> None:
        self.counts["samples"] += args[1].shape[0]

    def _count_fit(self, args, out) -> None:
        trainer, model = args[0], args[1]
        itemsize = (trainer.dtype or model.dtype).itemsize
        per_rank = ring_transfer_stats(
            trainer.num_ranks, model.num_parameters() * itemsize
        ).bytes_sent_per_rank
        # Computed, not observed: the default fused reduction ships nothing,
        # so this is the ring traffic the same training would need, counted
        # as MetricsAggregator.ring_comm_bytes counts it (per epoch).
        self.counts["allreduce_bytes"] += (
            per_rank * trainer.num_ranks * len(out.epoch_train_losses)
        )

    def _count_checkpoint(self, args, out) -> None:
        self.counts["checkpoint_bytes"] += os.path.getsize(args[1])

    # ------------------------------------------------------------------ #
    @contextmanager
    def installed(self):
        """Wrap every layer's public functions for the duration of the block."""
        w = self._wrap
        self._patch(BayesianOptimizer, "ask", w("bo.ask", BayesianOptimizer.ask))
        self._patch(BayesianOptimizer, "tell", w("bo.tell", BayesianOptimizer.tell))
        self._patch(RandomForestRegressor, "fit",
                    w("bo.forest_fit", RandomForestRegressor.fit))
        self._patch(RandomForestRegressor, "predict",
                    w("bo.forest_predict", RandomForestRegressor.predict))
        self._patch(Adam, "step", w("nn.adam_step", Adam.step))
        for attr in ("loss_and_grad", "loss_and_grads_ranked"):
            fn = CompiledPlan.__dict__[attr]
            self._patch(CompiledPlan, attr, w("nn.loss_and_grad", fn, self._count_samples))
        self._patch(CompiledPlan, "predict_logits",
                    w("nn.predict_logits", CompiledPlan.predict_logits))
        self._patch(GraphNetwork, "__init__", w("nn.build", GraphNetwork.__init__))
        self._patch(GraphNetwork, "compile", w("nn.build", GraphNetwork.compile))
        self._patch(DataParallelTrainer, "fit",
                    w("dataparallel.fit", DataParallelTrainer.fit, self._count_fit))
        self._patch(campaign_builder, "load_dataset",
                    w("datasets.load", campaign_builder.load_dataset))
        self._patch(ModelEvaluation, "__call__", w("core.eval", ModelEvaluation.__call__))
        self._patch(AgingEvolutionBase, "checkpoint",
                    w("core.checkpoint", AgingEvolutionBase.checkpoint,
                      self._count_checkpoint))
        self._patch(AgingEvolutionBase, "_resubmit",
                    self._manager_leg("core.resubmit", AgingEvolutionBase._resubmit, True))
        for cls in (SimulatedEvaluator, ProcessPoolEvaluator):
            self._patch(cls, "gather",
                        self._manager_leg("workflow.gather", cls.__dict__["gather"], False))
        for cls in (SimulatedEvaluator, _WallClockEvaluator):
            self._patch(cls, "submit", w("workflow.submit", cls.__dict__["submit"]))
        self._patch(EventBus, "emit", w("campaign.emit", EventBus.emit))
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
            self._iteration_s = None

    # ------------------------------------------------------------------ #
    def raw(self) -> dict:
        """Everything recorded, JSON-safe, for :meth:`merge` in another process."""
        return {
            "durations": self.durations,
            "self_time": self.self_time,
            "counts": self.counts,
            "manager_ms": self.manager_ms,
        }

    def merge(self, raw: dict) -> None:
        for name, values in raw["durations"].items():
            self.durations[name].extend(values)
        for name, value in raw["self_time"].items():
            self.self_time[name] += value
        for name, value in raw["counts"].items():
            self.counts[name] += value
        self.manager_ms.extend(raw["manager_ms"])

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def percentile_ms(self, name: str, q: float) -> float:
        values = self.durations.get(name)
        return float(1e3 * np.percentile(values, q)) if values else 0.0

    def layer_metrics(self, campaigns: int) -> dict[str, float]:
        """Per-layer metrics of the traced campaigns.

        Seconds, calls and bytes are per campaign (totals divided by
        ``campaigns``); percentiles pool every call of every campaign.
        """
        per = 1.0 / campaigns
        fit_s = self.total("dataparallel.fit")
        evals = self.calls("core.eval")
        return {
            "bo.ask_s": per * self.total("bo.ask"),
            "bo.ask_calls": per * self.calls("bo.ask"),
            "bo.ask_ms_p90": self.percentile_ms("bo.ask", 90),
            "bo.forest_fit_s": per * self.total("bo.forest_fit"),
            "bo.forest_fit_calls": per * self.calls("bo.forest_fit"),
            "bo.forest_predict_s": per * self.total("bo.forest_predict"),
            "bo.sample_s": per * self.self_time.get("bo.ask", 0.0),
            "bo.tell_s": per * self.total("bo.tell"),
            "nn.adam_step_s": per * self.total("nn.adam_step"),
            "nn.adam_step_calls": per * self.calls("nn.adam_step"),
            "nn.loss_and_grad_s": per * self.total("nn.loss_and_grad"),
            "nn.loss_and_grad_calls": per * self.calls("nn.loss_and_grad"),
            "nn.predict_logits_s": per * self.total("nn.predict_logits"),
            "nn.build_s": per * self.total("nn.build"),
            "dataparallel.fit_s": per * fit_s,
            "dataparallel.samples_per_s": self.counts["samples"] / fit_s if fit_s else 0.0,
            "dataparallel.allreduce_bytes": (
                self.counts["allreduce_bytes"] / evals if evals else 0.0
            ),
            "datasets.load_s": per * self.total("datasets.load"),
            "core.checkpoint_s": per * self.total("core.checkpoint"),
            "core.checkpoint_calls": per * self.calls("core.checkpoint"),
            "core.checkpoint_bytes": per * self.counts["checkpoint_bytes"],
            "core.resume_s": per * self.total("core.resume"),
            "core.manager_ms_p50": (
                float(statistics.median(self.manager_ms)) if self.manager_ms else 0.0
            ),
            "core.manager_ms_p90": (
                float(np.percentile(self.manager_ms, 90)) if self.manager_ms else 0.0
            ),
            "workflow.submit_self_s": per * self.self_time.get("workflow.submit", 0.0),
            # Gather minus the evaluations it runs inline (simulated backend).
            "workflow.gather_s": per * self.counts["workflow.gather.manager_s"],
            "campaign.emit_s": per * self.total("campaign.emit"),
            "campaign.emit_calls": per * self.calls("campaign.emit"),
        }
