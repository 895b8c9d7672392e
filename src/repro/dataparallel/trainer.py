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
- ``ring``/``mean`` on the compiled backend stack the ``n`` micro-batches
  into one ``(n·bs, d)`` array, and a single fused forward/backward
  recovers *per-rank* gradients directly into an allreduce-ready
  ``(n, P)`` flat matrix
  (:meth:`~repro.nn.compiled.CompiledPlan.loss_and_grads_ranked`);
- the eager backend and shards shorter than one micro-batch have no
  batched kernel, so each rank's gradient is written into a row of the
  same ``(n, P)`` matrix by its own forward/backward.

The ``(n, P)`` matrix then goes through :class:`RingReducer` (``ring``)
or :func:`allreduce_mean_flat` (``mean``), and Adam consumes the reduced
mean through per-parameter views.  The per-rank list reference these
paths are gated against lives in ``tests/reference/``.
"""

from __future__ import annotations

import numpy as np

from repro.dataparallel.allreduce import (
    RingReducer,
    allreduce_mean_flat,
    ring_transfer_stats,
)
from repro.dataparallel.scaling import linear_scaled_lr
from repro.dataparallel.sharding import shard_indices
from repro.nn.graph_network import GraphNetwork
from repro.nn.losses import softmax_cross_entropy
from repro.nn.metrics import accuracy
from repro.nn.optimizers import Adam
from repro.nn.schedules import GradualWarmup, ReduceLROnPlateau
from repro.nn.trainer import TrainResult

__all__ = ["DataParallelTrainer"]


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
    backend:
        ``"compiled"`` (default) computes per-rank gradients through the
        model's :class:`~repro.nn.compiled.CompiledPlan`; ``"eager"``
        uses the reference tape.  Both paths agree to float tolerance.
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
        backend: str = "compiled",
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
        if backend not in ("compiled", "eager"):
            raise ValueError(f"backend must be 'compiled' or 'eager', got {backend!r}")
        self.num_ranks = num_ranks
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.warmup_epochs = warmup_epochs
        self.plateau_patience = plateau_patience
        self.allreduce = allreduce
        self.apply_linear_scaling = apply_linear_scaling
        self.keep_best_weights = keep_best_weights
        self.backend = backend
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
    def _gradient(
        self, model: GraphNetwork, X: np.ndarray, y: np.ndarray, plan=None
    ) -> tuple[list[np.ndarray], float]:
        """Gradient of the mean loss on one batch.

        With a compiled ``plan`` the gradients land in the plan's reused
        buffers, so the caller consumes them before the next call.
        """
        if plan is not None:
            loss_value = plan.loss_and_grad(X, y)
            return plan.grad_buffers, loss_value
        params = model.parameters()
        for p in params:
            p.grad = None
        loss = softmax_cross_entropy(model.forward(X), y)
        loss.backward()
        grads = [
            p.grad if p.grad is not None else np.zeros_like(p.data) for p in params
        ]
        return grads, loss.item()

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
        plan = model.compile() if self.backend == "compiled" else None
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
        params = model.parameters()
        optimizer = Adam(params, lr=scaled_lr)
        warmup = GradualWarmup(optimizer, scaled_lr, self.warmup_epochs)
        plateau = ReduceLROnPlateau(optimizer, patience=self.plateau_patience)

        # Analytic ring volume of one gradient allreduce, whatever the mode:
        # the fused path computes the same averaged gradient a ring would.
        num_params = model.num_parameters()
        ring_bytes = ring_transfer_stats(n, num_params * dtype.itemsize).bytes_sent_per_rank

        # ring/mean with several ranks reduce an (n, P) per-rank gradient
        # matrix; the fused path (and n = 1) needs no per-rank gradients.
        reduce = None
        if n > 1 and self.allreduce != "fused":
            reduce = (
                RingReducer(n, num_params).reduce
                if self.allreduce == "ring"
                else allreduce_mean_flat
            )
            if plan is not None:
                mean_flat, mean_views = plan.mean_grad_flat, plan.mean_grad_views
            else:
                mean_flat = np.empty(num_params, dtype=model.dtype)
                bounds = np.cumsum([0] + [p.data.size for p in params])
                mean_views = [
                    mean_flat[lo:hi].reshape(p.data.shape)
                    for lo, hi, p in zip(bounds[:-1], bounds[1:], params)
                ]
        batched = reduce is not None and plan is not None and hoistable
        if batched:
            # Preallocated stacked micro-batch for the multi-rank pass.
            stacked_rows = n * self.batch_size
            Xb = np.empty((stacked_rows, X_train.shape[1]), dtype=dtype)
            yb = np.empty(stacked_rows, dtype=y_train.dtype)
        elif reduce is not None:
            rank_grads = np.empty((n, num_params), dtype=model.dtype)
            losses = np.empty(n)

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
                    grads, loss = self._gradient(model, X_train[idx], y_train[idx], plan)
                    optimizer.apply_gradients(grads)
                    epoch_loss += loss
                    continue
                if batched:
                    flat_idx = epoch_idx[:, lo:hi].ravel()
                    np.take(X_train, flat_idx, axis=0, out=Xb)
                    np.take(y_train, flat_idx, axis=0, out=yb)
                    losses, rank_grads = plan.loss_and_grads_ranked(Xb, yb, n)
                else:
                    for r, order in enumerate(orders):
                        idx = order[lo:hi]
                        grads, losses[r] = self._gradient(
                            model, X_train[idx], y_train[idx], plan
                        )
                        np.concatenate([g.ravel() for g in grads], out=rank_grads[r])
                reduce(rank_grads, out=mean_flat)
                optimizer.apply_gradients(mean_views)
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
            val_logits = (
                plan.predict_logits(X_valid) if plan is not None
                else model.predict_logits(X_valid)
            )
            val_acc = accuracy(val_logits, y_valid)
            result.epoch_val_accuracies.append(val_acc)
            result.epoch_train_losses.append(mean_loss)
            self._emit_epoch(epoch, mean_loss, val_acc, ring_bytes)
            if val_acc > best_acc:
                best_acc = val_acc
                if self.keep_best_weights:
                    result.best_weights = model.get_weights()
            plateau.on_epoch_end(val_acc)

        result.best_val_accuracy = float(max(best_acc, 0.0))
        # epochs=0 (or an empty history) yields a zeroed result, not a crash.
        result.final_val_accuracy = (
            result.epoch_val_accuracies[-1] if result.epoch_val_accuracies else 0.0
        )
        return result
