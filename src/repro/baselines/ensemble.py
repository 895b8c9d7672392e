"""Ensembling used by the AutoML baselines.

:class:`WeightedEnsemble` is greedy ensemble selection with replacement
(Caruana et al., 2004), the procedure AutoGluon uses to weight its base
models on validation data.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaseClassifier

__all__ = ["WeightedEnsemble"]


class WeightedEnsemble(BaseClassifier):
    """Greedy forward selection of base models (with replacement).

    At each of ``n_rounds`` steps, the base model whose addition most
    improves validation accuracy of the averaged probabilities is added;
    final weights are the selection frequencies.
    """

    def __init__(self, n_classes: int, models: list[BaseClassifier], n_rounds: int = 20) -> None:
        super().__init__(n_classes)
        if not models:
            raise ValueError("need at least one base model")
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        self.models = list(models)
        self.n_rounds = n_rounds
        self.weights_: np.ndarray | None = None

    def fit_weights(self, X_valid: np.ndarray, y_valid: np.ndarray) -> "WeightedEnsemble":
        """Learn the mixing weights on held-out validation data."""
        probas = np.stack([m.predict_proba(X_valid) for m in self.models])  # (M, n, C)
        y_valid = np.asarray(y_valid)
        counts = np.zeros(len(self.models), dtype=np.int64)
        mix = np.zeros_like(probas[0])
        total = 0
        for _ in range(self.n_rounds):
            # Try adding each model; keep the best.
            accs = np.array(
                [
                    ((mix + p).argmax(axis=1) == y_valid).mean()
                    for p in probas
                ]
            )
            pick = int(np.argmax(accs))
            counts[pick] += 1
            mix = mix + probas[pick]
            total += 1
        self.weights_ = counts / total
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.weights_ is None:
            raise RuntimeError("ensemble weights are not fitted")
        out = np.zeros((np.asarray(X).shape[0], self.n_classes))
        for w, model in zip(self.weights_, self.models):
            if w > 0:
                out += w * model.predict_proba(X)
        return out

