"""Per-rank loop reference of :meth:`DataParallelTrainer.fit`.

:func:`loop_fit` runs the trainer's recipe the way the data-parallel
algebra reads on paper: in ``ring`` mode every rank runs its own
forward/backward on its own micro-batch, the per-rank gradient lists are
averaged (by the naive mean, as production does, or by any list
reduction passed as ``reduce_fn``, such as the chunked-list ring), and
one Adam update follows.  The ``fused`` mode takes one forward/backward
over the concatenated global batch.  Gradients come from the compiled
plan (``gradients="plan"``) or from the eager tape (``gradients="tape"``),
and the update is the per-parameter reference Adam.  The production
trainer's batched and flat-buffer paths are gated against this loop; it
emits no events.
"""

from __future__ import annotations

import numpy as np

from repro.dataparallel import DataParallelTrainer, TrainResult
from repro.dataparallel.scaling import linear_scaled_lr
from repro.dataparallel.sharding import shard_indices
from repro.nn.metrics import accuracy
from repro.nn.schedules import GradualWarmup, ReduceLROnPlateau

from tests.reference.allreduce import allreduce_mean
from tests.reference.optimizers import Adam
from tests.reference.tape import TapeNetwork, tape_loss_and_grads


def _rank_gradient(model, tape, X, y) -> tuple[list[np.ndarray], float]:
    """Gradient of the mean loss on one micro-batch, as fresh arrays."""
    if tape is not None:
        loss_value, grads = tape_loss_and_grads(tape, X, y)
        return grads, loss_value
    loss_value = model.compile().loss_and_grad(X, y)
    return [g.copy() for g in model.unflatten(model.grads_flat)], loss_value


def loop_fit(
    trainer: DataParallelTrainer,
    model,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_valid: np.ndarray,
    y_valid: np.ndarray,
    rng: np.random.Generator,
    gradients: str = "plan",
    reduce_fn=allreduce_mean,
) -> TrainResult:
    """``trainer.fit(...)`` computed with an explicit loop over ranks."""
    if gradients not in ("plan", "tape"):
        raise ValueError(f"gradients must be 'plan' or 'tape', got {gradients!r}")
    n = trainer.num_ranks
    bs = trainer.batch_size
    if X_train.shape[0] < n:
        raise ValueError(f"cannot run {n} ranks on {X_train.shape[0]} training samples")
    dtype = trainer.dtype or model.dtype
    X_train = np.ascontiguousarray(X_train, dtype=dtype)
    X_valid = np.ascontiguousarray(X_valid, dtype=dtype)
    plan = model.compile()
    tape = TapeNetwork(model)
    grad_tape = tape if gradients == "tape" else None
    shards = shard_indices(X_train.shape[0], n, rng)
    steps = max(1, min(len(s) for s in shards) // bs)

    scaled_lr = (
        linear_scaled_lr(trainer.learning_rate, n)
        if trainer.apply_linear_scaling
        else trainer.learning_rate
    )
    optimizer = Adam(tape.params, lr=scaled_lr)
    warmup = GradualWarmup(optimizer, scaled_lr, trainer.warmup_epochs)
    plateau = ReduceLROnPlateau(optimizer, patience=trainer.plateau_patience)

    result = TrainResult(best_val_accuracy=-np.inf, final_val_accuracy=0.0)
    best_acc = -np.inf
    for epoch in range(trainer.epochs):
        warmup.on_epoch_begin(epoch)
        orders = [shard[rng.permutation(len(shard))] for shard in shards]
        epoch_loss = 0.0
        for step in range(steps):
            lo, hi = step * bs, (step + 1) * bs
            if trainer.allreduce == "fused":
                idx = np.concatenate([order[lo:hi] for order in orders])
                mean_grads, loss = _rank_gradient(model, grad_tape, X_train[idx], y_train[idx])
            else:
                per_rank, losses = [], []
                for order in orders:
                    idx = order[lo:hi]
                    g, loss_r = _rank_gradient(model, grad_tape, X_train[idx], y_train[idx])
                    per_rank.append(g)
                    losses.append(loss_r)
                mean_grads = reduce_fn(per_rank)
                loss = float(np.mean(losses))
            optimizer.apply_gradients(mean_grads)
            epoch_loss += loss
        mean_loss = epoch_loss / steps
        if not np.isfinite(mean_loss):
            result.diverged = True
            result.epoch_train_losses.append(mean_loss)
            result.epoch_val_accuracies.append(0.0)
            break
        val_logits = (
            plan.predict_logits(X_valid) if grad_tape is None
            else grad_tape.predict_logits(X_valid)
        )
        val_acc = accuracy(val_logits, y_valid)
        result.epoch_val_accuracies.append(val_acc)
        result.epoch_train_losses.append(mean_loss)
        if val_acc > best_acc:
            best_acc = val_acc
            if trainer.keep_best_weights:
                result.best_weights = model.get_weights()
        plateau.on_epoch_end(val_acc)

    result.best_val_accuracy = float(max(best_acc, 0.0))
    result.final_val_accuracy = (
        result.epoch_val_accuracies[-1] if result.epoch_val_accuracies else 0.0
    )
    return result
