"""Search history: the record of every finished evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.core.config import ModelConfig

__all__ = ["EvaluationRecord", "SearchHistory"]


@dataclass
class EvaluationRecord:
    """One finished evaluation with its cluster timing."""

    config: ModelConfig
    objective: float  # validation accuracy (maximized)
    duration: float  # simulated minutes on the worker
    submit_time: float
    start_time: float
    end_time: float
    metadata: dict[str, Any] = field(default_factory=dict)


class SearchHistory:
    """Append-only log of evaluations, ordered by completion time."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.records: list[EvaluationRecord] = []

    def add(self, record: EvaluationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EvaluationRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------ #
    @property
    def num_evaluations(self) -> int:
        return len(self.records)

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def end_times(self) -> np.ndarray:
        return np.array([r.end_time for r in self.records])

    def durations(self) -> np.ndarray:
        return np.array([r.duration for r in self.records])

    def failures(self) -> list[EvaluationRecord]:
        """Records penalized by the fault policy (metadata ``failed``)."""
        return [r for r in self.records if r.metadata.get("failed")]

    @property
    def num_failures(self) -> int:
        return len(self.failures())

    def best(self) -> EvaluationRecord:
        """Highest-objective record."""
        if not self.records:
            raise RuntimeError("empty history")
        return max(self.records, key=lambda r: r.objective)

    def top_k(self, k: int) -> list[EvaluationRecord]:
        """The ``k`` highest-objective records, best first."""
        return sorted(self.records, key=lambda r: -r.objective)[:k]

    def best_so_far(self) -> tuple[np.ndarray, np.ndarray]:
        """(end_times, running max objective) — the Fig. 3/4/6 curves."""
        if not self.records:
            return np.array([]), np.array([])
        order = np.argsort(self.end_times(), kind="stable")
        times = self.end_times()[order]
        objs = np.maximum.accumulate(self.objectives()[order])
        return times, objs

    def time_to_reach(self, threshold: float) -> float | None:
        """Earliest end time at which the objective reached ``threshold``."""
        times, objs = self.best_so_far()
        hit = np.nonzero(objs >= threshold)[0]
        return float(times[hit[0]]) if hit.size else None
