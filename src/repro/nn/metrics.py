"""Classification metrics (plain numpy; never differentiated)."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy", "confusion_counts"]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose arg-max matches the label."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        return 0.0
    return float((logits.argmax(axis=1) == labels).mean())


def confusion_counts(logits: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Return the ``(n_classes, n_classes)`` confusion matrix of counts."""
    preds = np.asarray(logits).argmax(axis=1)
    labels = np.asarray(labels)
    mat = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(mat, (labels, preds), 1)
    return mat
