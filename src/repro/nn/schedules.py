"""Learning-rate schedules from the paper's training recipe.

Two schedules compose per epoch, exactly as in the experiments section:

- :class:`GradualWarmup` ramps the LR linearly from ``lr/warmup_epochs`` to
  the target LR over the first 5 epochs (Goyal et al., "ImageNet in 1 hour"),
  which stabilizes large-effective-batch data-parallel training.
- :class:`ReduceLROnPlateau` multiplies the LR by ``factor`` when the
  monitored validation metric has not improved for ``patience`` epochs.
"""

from __future__ import annotations

from repro.nn.optimizers import Adam

__all__ = ["GradualWarmup", "ReduceLROnPlateau"]


class GradualWarmup:
    """Linear LR warmup over the first ``warmup_epochs`` epochs."""

    def __init__(self, optimizer: Adam, target_lr: float, warmup_epochs: int = 5) -> None:
        if warmup_epochs < 0:
            raise ValueError("warmup_epochs must be non-negative")
        self.optimizer = optimizer
        self.target_lr = float(target_lr)
        self.warmup_epochs = warmup_epochs

    def on_epoch_begin(self, epoch: int) -> float:
        """Set and return the LR for 0-indexed ``epoch``."""
        if self.warmup_epochs > 0 and epoch < self.warmup_epochs:
            lr = self.target_lr * (epoch + 1) / self.warmup_epochs
            self.optimizer.lr = lr
        return self.optimizer.lr


class ReduceLROnPlateau:
    """Multiply LR by ``factor`` after ``patience`` epochs without improvement.

    Mirrors the Keras callback the paper uses (patience 5).  ``min_delta``
    guards against counting float noise as improvement.
    """

    def __init__(
        self,
        optimizer: Adam,
        patience: int = 5,
        factor: float = 0.5,
        min_lr: float = 1e-6,
        min_delta: float = 1e-4,
    ) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        self.optimizer = optimizer
        self.patience = patience
        self.factor = factor
        self.min_lr = min_lr
        self.min_delta = min_delta
        self._best = -float("inf")
        self._since_best = 0

    def on_epoch_end(self, metric: float) -> bool:
        """Report the epoch's validation metric; returns True if LR reduced."""
        if metric > self._best + self.min_delta:
            self._best = metric
            self._since_best = 0
            return False
        self._since_best += 1
        if self._since_best >= self.patience:
            new_lr = max(self.optimizer.lr * self.factor, self.min_lr)
            reduced = new_lr < self.optimizer.lr
            self.optimizer.lr = new_lr
            self._since_best = 0
            return reduced
        return False
