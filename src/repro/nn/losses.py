"""Loss functions used by the training recipe."""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor

__all__ = ["softmax_cross_entropy"]


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under row-wise softmax.

    Parameters
    ----------
    logits:
        ``(batch, classes)`` tensor of unnormalized scores.
    labels:
        ``(batch,)`` integer class indices.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(
            f"labels must be 1-D of length {logits.shape[0]}, got shape {labels.shape}"
        )
    log_probs = logits.log_softmax()
    picked = log_probs.gather_rows(labels.astype(np.intp))
    return -1.0 * picked.mean()
