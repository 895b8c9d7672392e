"""Persistence for search campaigns and trained models.

A 3-hour 129-node campaign must be inspectable offline and resumable; this
module serializes :class:`SearchHistory` to JSON (architecture vectors,
hyperparameters, objectives, cluster timings, scalar metadata) and model
weights to ``.npz``.  Loaded histories feed the same analysis tools as live
ones, and their records can warm-start a new search's population and BO.

It also defines the **checkpoint** schema: a JSON snapshot of the complete
search state — AgE population, full history, numpy RNG states, BO
tell-history, and the simulated evaluator's clock/queues/pending events —
written atomically so a killed campaign can resume bit-identically.  A
search restores it with ``load_state``, which checks the recorded settings
against the live search rather than assigning them; the campaign layer's
``resume_campaign`` (CLI ``--resume``) rebuilds the search from the
embedded campaign config and then calls it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import ModelConfig
from repro.core.results import EvaluationRecord, SearchHistory
from repro.nn.graph_network import GraphNetwork

__all__ = [
    "history_to_dict",
    "history_from_dict",
    "record_to_dict",
    "record_from_dict",
    "save_history",
    "load_history",
    "save_checkpoint",
    "load_checkpoint",
    "save_model_weights",
    "load_model_weights",
    "CHECKPOINT_VERSION",
]

_FORMAT_VERSION = 1
CHECKPOINT_VERSION = 1


def _scalar_metadata(metadata: dict[str, Any], lists: bool = False) -> dict[str, Any]:
    out = {}
    for key, value in metadata.items():
        if isinstance(value, (bool, int, float, str)):
            out[key] = value
        elif isinstance(value, (np.integer, np.floating)):
            out[key] = value.item()
        elif lists and isinstance(value, (list, tuple)) and all(
            isinstance(v, (bool, int, float, str, np.integer, np.floating)) for v in value
        ):
            out[key] = [v.item() if isinstance(v, (np.integer, np.floating)) else v for v in value]
    return out


def record_to_dict(record: EvaluationRecord, rich_metadata: bool = False) -> dict[str, Any]:
    """JSON-safe representation of one evaluation record.

    ``rich_metadata=True`` (checkpoints) additionally keeps list-of-scalar
    metadata such as per-epoch accuracy curves; the default matches the
    version-1 history format (scalars only).
    """
    return {
        "arch": record.config.arch.tolist(),
        "hyperparameters": record.config.hyperparameters,
        "objective": record.objective,
        "duration": record.duration,
        "submit_time": record.submit_time,
        "start_time": record.start_time,
        "end_time": record.end_time,
        "metadata": _scalar_metadata(record.metadata, lists=rich_metadata),
    }


def record_from_dict(row: dict[str, Any]) -> EvaluationRecord:
    """Inverse of :func:`record_to_dict`."""
    return EvaluationRecord(
        config=ModelConfig(
            arch=np.asarray(row["arch"], dtype=np.int64),
            hyperparameters=dict(row["hyperparameters"]),
        ),
        objective=float(row["objective"]),
        duration=float(row["duration"]),
        submit_time=float(row["submit_time"]),
        start_time=float(row["start_time"]),
        end_time=float(row["end_time"]),
        metadata=dict(row.get("metadata", {})),
    )


def history_to_dict(history: SearchHistory) -> dict[str, Any]:
    """JSON-safe representation of a history (scalar metadata only)."""
    return {
        "version": _FORMAT_VERSION,
        "label": history.label,
        "records": [record_to_dict(record) for record in history.records],
    }


def history_from_dict(data: dict[str, Any]) -> SearchHistory:
    """Inverse of :func:`history_to_dict`."""
    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported history format version {data.get('version')!r}")
    history = SearchHistory(label=data.get("label", ""))
    for row in data["records"]:
        history.add(record_from_dict(row))
    return history


def save_history(history: SearchHistory, path: str | Path) -> Path:
    """Write a history to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(history_to_dict(history), indent=1))
    return path


def load_history(path: str | Path) -> SearchHistory:
    """Read a history saved by :func:`save_history`."""
    return history_from_dict(json.loads(Path(path).read_text()))


# --------------------------------------------------------------------- #
# Checkpoints: the full, resumable search state
# --------------------------------------------------------------------- #
def save_checkpoint(search: Any, path: str | Path) -> Path:
    """Atomically write the complete state of a search to ``path``.

    ``search`` is any :class:`~repro.core.search.AgingEvolutionBase`
    subclass exposing ``state_dict()``.  The file is written to a ``.tmp``
    sibling and renamed, so a crash mid-checkpoint never corrupts the last
    good checkpoint.  The search's ``checkpoint_metadata`` is stored
    verbatim under ``extra`` (the campaign layer keeps its config there).
    """
    path = Path(path)
    data = {
        "version": CHECKPOINT_VERSION,
        "algorithm": type(search).__name__,
        "search": search.state_dict(),
    }
    if search.checkpoint_metadata:
        data["extra"] = search.checkpoint_metadata
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data))
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and validate a checkpoint written by :func:`save_checkpoint`."""
    data = json.loads(Path(path).read_text())
    if data.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {data.get('version')!r}")
    if "search" not in data:
        raise ValueError(f"{path} is not a search checkpoint")
    return data


def save_model_weights(model: GraphNetwork, path: str | Path) -> Path:
    """Write a network's parameters to ``.npz`` (ordered as parameters())."""
    path = Path(path)
    arrays = {f"param_{i}": w for i, w in enumerate(model.get_weights())}
    np.savez(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_model_weights(model: GraphNetwork, path: str | Path) -> GraphNetwork:
    """Load ``.npz`` weights into a structurally identical network."""
    with np.load(Path(path)) as data:
        weights = [data[f"param_{i}"] for i in range(len(data.files))]
    model.set_weights(weights)
    return model
