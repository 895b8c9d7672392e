"""Synchronous data-parallel training (the Horovod-equivalent loop).

Each epoch, every simulated rank draws micro-batches of ``batch_size`` from
its own shard; per-rank gradients are averaged by the ring-allreduce and a
single Adam update is applied with the linearly scaled learning rate
``n · lr``.  Because all ranks hold identical weights, this is exactly
synchronous data-parallel SGD — the same algebra Horovod executes across
real processes — so the accuracy behaviour as a function of ``(n, lr, bs)``
(including large-effective-batch degradation) emerges for real rather than
being modelled.

Each step takes one of three routes to that algebra, by mode and shape:

- ``allreduce="fused"`` (and any single-rank run) computes the averaged
  gradient in one forward/backward over the concatenated global batch;
- ``ring``/``mean`` stack the ``n`` micro-batches into one ``(n·bs, d)``
  array, and a single fused forward/backward recovers *per-rank*
  gradients directly into an allreduce-ready ``(n, P)`` flat matrix
  (:meth:`~repro.nn.compiled.CompiledPlan.loss_and_grads_ranked`);
- shards shorter than one micro-batch have no batched kernel, so each
  rank's gradient is copied into a row of the same ``(n, P)`` matrix
  after its own forward/backward.

The ``(n, P)`` matrix then goes through :class:`RingReducer` (``ring``)
or :func:`allreduce_mean_flat` (``mean``) into the network's flat
gradient vector, and Adam updates the flat parameter vector in place.
The per-rank list reference these paths are gated against lives in
``tests/reference/``.

With ``num_ranks=1`` the loop is plain single-process training under the
paper's recipe; the MLP baselines (:mod:`repro.baselines.neural`) train
that way, so every network in the repository goes through this one loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataparallel.allreduce import (
    RingReducer,
    allreduce_mean_flat,
    ring_transfer_stats,
)
from repro.dataparallel.scaling import linear_scaled_lr
from repro.dataparallel.sharding import shard_indices
from repro.nn.graph_network import GraphNetwork
from repro.nn.metrics import accuracy
from repro.nn.optimizers import Adam
from repro.nn.schedules import GradualWarmup, ReduceLROnPlateau

__all__ = ["DataParallelTrainer", "TrainResult"]


@dataclass
class TrainResult:
    """Outcome of one training run."""

    best_val_accuracy: float
    final_val_accuracy: float
    epoch_val_accuracies: list[float] = field(default_factory=list)
    epoch_train_losses: list[float] = field(default_factory=list)
    best_weights: list[np.ndarray] | None = None
    diverged: bool = False  # training aborted on a non-finite loss


class DataParallelTrainer:
    """Train a model with ``num_ranks``-way synchronous data parallelism.

    Parameters
    ----------
    num_ranks:
        Number of simulated data-parallel processes ``n``.
    batch_size, learning_rate:
        *Per-rank* micro-batch size ``bs_1`` and *base* learning rate
        ``lr_1``; the trainer applies the linear scaling rule internally.
    allreduce:
        ``"ring"`` runs the simulated ring (default), ``"mean"`` the
        naive average, ``"fused"`` the concatenated-batch fast path.
    dtype:
        Optional precision override for the training arrays (``None``
        keeps the model's dtype).
    """

    def __init__(
        self,
        num_ranks: int,
        epochs: int = 20,
        batch_size: int = 256,
        learning_rate: float = 0.01,
        warmup_epochs: int = 5,
        plateau_patience: int = 5,
        allreduce: str = "ring",
        apply_linear_scaling: bool = True,
        keep_best_weights: bool = False,
        dtype=None,
    ) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if epochs < 0:
            raise ValueError("epochs must be >= 0")
        if allreduce not in ("ring", "mean", "fused"):
            raise ValueError(f"unknown allreduce mode {allreduce!r}")
        self.num_ranks = num_ranks
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.warmup_epochs = warmup_epochs
        self.plateau_patience = plateau_patience
        self.allreduce = allreduce
        self.apply_linear_scaling = apply_linear_scaling
        self.keep_best_weights = keep_best_weights
        self.dtype = None if dtype is None else np.dtype(dtype)
        # Optional campaign event bus; when set, fit emits one
        # repro.campaign.events.EpochEnd per epoch.
        self.event_bus = None

    def _emit_epoch(
        self,
        epoch: int,
        train_loss: float,
        val_accuracy: float,
        ring_bytes_per_rank: int,
    ) -> None:
        if self.event_bus is not None:
            from repro.campaign.events import EpochEnd

            self.event_bus.emit(
                EpochEnd(
                    epoch=epoch,
                    train_loss=float(train_loss),
                    val_accuracy=float(val_accuracy),
                    num_ranks=self.num_ranks,
                    ring_bytes_per_rank=int(ring_bytes_per_rank),
                )
            )

    # ------------------------------------------------------------------ #
    def fit(
        self,
        model: GraphNetwork,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_valid: np.ndarray,
        y_valid: np.ndarray,
        rng: np.random.Generator,
    ) -> TrainResult:
        """Run the paper's recipe under ``num_ranks``-way data parallelism."""
        n = self.num_ranks
        if X_train.shape[0] < n * self.batch_size:
            # Degenerate micro-batches still work (one short batch per shard),
            # but guard against sharding more ranks than samples.
            if X_train.shape[0] < n:
                raise ValueError(
                    f"cannot run {n} ranks on {X_train.shape[0]} training samples"
                )
        dtype = self.dtype or model.dtype
        X_train = np.ascontiguousarray(X_train, dtype=dtype)
        X_valid = np.ascontiguousarray(X_valid, dtype=dtype)
        plan = model.compile()
        shards = shard_indices(X_train.shape[0], n, rng)
        min_shard = min(len(s) for s in shards)
        steps = max(1, min_shard // self.batch_size)
        # Index hoisting only works when every rank draws full micro-batches;
        # degenerate shards (shorter than batch_size) slice the raw shard
        # orders per step.
        hoistable = min_shard >= self.batch_size

        scaled_lr = (
            linear_scaled_lr(self.learning_rate, n)
            if self.apply_linear_scaling
            else self.learning_rate
        )
        optimizer = Adam(model.params_flat, model.grads_flat, lr=scaled_lr)
        warmup = GradualWarmup(optimizer, scaled_lr, self.warmup_epochs)
        plateau = ReduceLROnPlateau(optimizer, patience=self.plateau_patience)

        # Analytic ring volume of one gradient allreduce, whatever the mode:
        # the fused path computes the same averaged gradient a ring would.
        num_params = model.num_parameters()
        ring_bytes = ring_transfer_stats(n, num_params * dtype.itemsize).bytes_sent_per_rank

        # ring/mean with several ranks reduce an (n, P) per-rank gradient
        # matrix into the model's gradient vector; the fused path (and
        # n = 1) needs no per-rank gradients.
        reduce = None
        if n > 1 and self.allreduce != "fused":
            reduce = (
                RingReducer(n, num_params).reduce
                if self.allreduce == "ring"
                else allreduce_mean_flat
            )
        batched = reduce is not None and hoistable
        if batched:
            # Preallocated stacked micro-batch for the multi-rank pass.
            stacked_rows = n * self.batch_size
            Xb = np.empty((stacked_rows, X_train.shape[1]), dtype=dtype)
            yb = np.empty(stacked_rows, dtype=y_train.dtype)
        elif reduce is not None:
            rank_grads = np.empty((n, num_params), dtype=model.dtype)
            losses = np.empty(n)
        if self.keep_best_weights:
            # The best epoch's parameters: one copy per improvement into a
            # preallocated snapshot, handed out as per-parameter views.
            best_params = np.empty_like(model.params_flat)
            best_weights = model.unflatten(best_params)

        result = TrainResult(best_val_accuracy=-np.inf, final_val_accuracy=0.0)
        best_acc = -np.inf
        for epoch in range(self.epochs):
            warmup.on_epoch_begin(epoch)
            orders = [shard[rng.permutation(len(shard))] for shard in shards]
            # Hoisted per-epoch index matrix: row r is rank r's epoch-long
            # draw, so a step's global batch is one contiguous column slice
            # instead of n per-rank fancy-index gathers.
            epoch_idx = (
                np.stack([order[: steps * self.batch_size] for order in orders])
                if hoistable
                else None
            )
            epoch_loss = 0.0
            for step in range(steps):
                lo = step * self.batch_size
                hi = lo + self.batch_size
                if reduce is None:
                    if epoch_idx is not None:
                        idx = epoch_idx[:, lo:hi].ravel()
                    else:
                        idx = np.concatenate([order[lo:hi] for order in orders])
                    epoch_loss += plan.loss_and_grad(X_train[idx], y_train[idx])
                    optimizer.step()
                    continue
                if batched:
                    flat_idx = epoch_idx[:, lo:hi].ravel()
                    np.take(X_train, flat_idx, axis=0, out=Xb)
                    np.take(y_train, flat_idx, axis=0, out=yb)
                    losses, rank_grads = plan.loss_and_grads_ranked(Xb, yb, n)
                else:
                    for r, order in enumerate(orders):
                        idx = order[lo:hi]
                        losses[r] = plan.loss_and_grad(X_train[idx], y_train[idx])
                        rank_grads[r] = model.grads_flat
                reduce(rank_grads, out=model.grads_flat)
                optimizer.step()
                epoch_loss += float(np.mean(losses))
            mean_loss = epoch_loss / steps
            if not np.isfinite(mean_loss):
                # Divergence guard: a too-hot scaled learning rate must
                # yield a penalized result, not a crashed worker.
                result.diverged = True
                result.epoch_train_losses.append(mean_loss)
                result.epoch_val_accuracies.append(0.0)
                self._emit_epoch(epoch, mean_loss, 0.0, ring_bytes)
                break
            val_acc = accuracy(plan.predict_logits(X_valid), y_valid)
            result.epoch_val_accuracies.append(val_acc)
            result.epoch_train_losses.append(mean_loss)
            self._emit_epoch(epoch, mean_loss, val_acc, ring_bytes)
            if val_acc > best_acc:
                best_acc = val_acc
                if self.keep_best_weights:
                    np.copyto(best_params, model.params_flat)
                    result.best_weights = best_weights
            plateau.on_epoch_end(val_acc)

        result.best_val_accuracy = float(max(best_acc, 0.0))
        # epochs=0 (or an empty history) yields a zeroed result, not a crash.
        result.final_val_accuracy = (
            result.epoch_val_accuracies[-1] if result.epoch_val_accuracies else 0.0
        )
        return result
