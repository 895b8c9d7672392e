"""Classification metrics (plain numpy; never differentiated)."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose arg-max matches the label."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        return 0.0
    return float((logits.argmax(axis=1) == labels).mean())

