"""Plain MLP classifier wrapping the nn substrate (baseline NN learner).

It trains through :class:`~repro.dataparallel.DataParallelTrainer` with one
rank, the same loop and recipe as every searched candidate.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaseClassifier, check_Xy
from repro.dataparallel.trainer import DataParallelTrainer
from repro.nn.graph_network import ArchitectureSpec, GraphNetwork, NodeOp

__all__ = ["MLPClassifier"]


class MLPClassifier(BaseClassifier):
    """Fixed-shape MLP (no search) trained with the standard recipe.

    ``hidden`` is a tuple of layer widths; activations are all the same.
    Used as the neural base learner inside the AutoGluon-like ensemble and
    as the Auto-PyTorch-like funnel network builder.
    """

    def __init__(
        self,
        n_classes: int,
        n_features: int,
        hidden: tuple[int, ...] = (64, 64),
        activation: str = "relu",
        epochs: int = 20,
        batch_size: int = 128,
        learning_rate: float = 0.003,
    ) -> None:
        super().__init__(n_classes)
        if not hidden:
            raise ValueError("need at least one hidden layer")
        self.n_features = n_features
        self.hidden = tuple(hidden)
        self.activation = activation
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self._net: GraphNetwork | None = None
        self.val_accuracy_: float | None = None

    def _build(self, rng: np.random.Generator) -> GraphNetwork:
        spec = ArchitectureSpec(
            node_ops=tuple(NodeOp(w, self.activation) for w in self.hidden)
        )
        return GraphNetwork(spec, self.n_features, self.n_classes, rng)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
        X_valid: np.ndarray | None = None,
        y_valid: np.ndarray | None = None,
    ) -> "MLPClassifier":
        X, y = check_Xy(X, y)
        if X_valid is None:
            # Hold out a slice for the plateau callback.
            n_val = max(1, X.shape[0] // 10)
            X_valid, y_valid = X[:n_val], y[:n_val]
            X, y = X[n_val:], y[n_val:]
        self._net = self._build(rng)
        result = DataParallelTrainer(
            num_ranks=1,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            keep_best_weights=True,
        ).fit(self._net, X, y, X_valid, y_valid, rng)
        if result.best_weights is not None:
            self._net.set_weights(result.best_weights)
        self.val_accuracy_ = result.best_val_accuracy
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._net is None:
            raise RuntimeError("model is not fitted")
        logits = self._net.predict_logits(np.asarray(X, dtype=float))
        logits -= logits.max(axis=1, keepdims=True)
        P = np.exp(logits)
        return P / P.sum(axis=1, keepdims=True)
