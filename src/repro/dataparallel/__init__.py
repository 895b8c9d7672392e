"""Data-parallel training substrate (paper substitute for Horovod).

Implements synchronous data-parallel SGD with real semantics: the training
set is split into ``n`` mutually exclusive shards, each simulated rank
computes a gradient on a shard-local micro-batch, gradients are averaged by
a simulated ring-allreduce, and a single optimizer update is applied with
the linearly scaled learning rate.  The accuracy-vs-``(n, lr, bs)``
landscape that Bayesian optimization must learn is therefore reproduced
genuinely; only wall-clock time is replaced by the analytic cost model in
:mod:`repro.dataparallel.costmodel`.
"""

from repro.dataparallel.sharding import shard_indices
from repro.dataparallel.allreduce import (
    RingReducer,
    allreduce_mean_flat,
    ring_transfer_stats,
)
from repro.dataparallel.scaling import linear_scaled_batch_size, linear_scaled_lr
from repro.dataparallel.trainer import DataParallelTrainer
from repro.dataparallel.costmodel import TrainingCostModel
from repro.dataparallel.multinode import MultiNodeCostModel

__all__ = [
    "MultiNodeCostModel",
    "RingReducer",
    "shard_indices",
    "allreduce_mean_flat",
    "ring_transfer_stats",
    "linear_scaled_lr",
    "linear_scaled_batch_size",
    "DataParallelTrainer",
    "TrainingCostModel",
]
