"""Simulated allreduce over an ``(n, P)`` matrix of per-rank gradients.

:func:`allreduce_mean_flat` averages the rows: it is the value a
Baidu/Horovod ring allreduce (reduce-scatter, then allgather over ``n``
chunks) delivers to every rank, up to float associativity.  The ring's
schedule only changes last-ulp round-off, so it is not executed; its cost
is modelled analytically instead.  :func:`ring_transfer_stats` gives the
bytes a ring moves, which feed the communication term of the training
cost model and the per-epoch communication figure of every allreduce
mode.  The chunked-list ring in ``tests/reference/allreduce.py`` is the
oracle the mean is gated against.

The mean accumulates in float64 and casts the result back to the input
dtype, so float32 training never silently upcasts its optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "allreduce_mean_flat",
    "ring_transfer_stats",
    "RingStats",
]


def allreduce_mean_flat(flat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row mean of an ``(n, P)`` flat gradient matrix.

    Accumulates in float64 in ascending rank order, then casts into ``out`` (allocated in
    ``flat``'s dtype when not supplied).
    """
    if flat.ndim != 2:
        raise ValueError(f"expected an (n, P) matrix, got shape {flat.shape}")
    n = flat.shape[0]
    if n < 1:
        raise ValueError("need at least one rank")
    if out is None:
        out = np.empty(flat.shape[1], dtype=flat.dtype)
    if n == 1:
        out[:] = flat[0]
        return out
    acc = flat[0].astype(np.float64, copy=True)
    for r in range(1, n):
        acc += flat[r]
    acc /= n
    out[:] = acc
    return out


@dataclass(frozen=True)
class RingStats:
    """Communication accounting for one ring-allreduce."""

    num_ranks: int
    message_steps: int  # sequential communication rounds
    bytes_sent_per_rank: int  # payload each rank ships over the ring


def ring_transfer_stats(num_ranks: int, total_bytes: int) -> RingStats:
    """Bytes/steps of a ring allreduce of a ``total_bytes`` buffer.

    Each of the ``2(n-1)`` rounds moves one ``total_bytes / n`` chunk per
    rank, for ``2 (n-1)/n · total_bytes`` shipped per rank — the classic
    bandwidth-optimal figure.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    if num_ranks == 1:
        return RingStats(1, 0, 0)
    steps = 2 * (num_ranks - 1)
    per_rank = int(round(2 * (num_ranks - 1) / num_ranks * total_bytes))
    return RingStats(num_ranks, steps, per_rank)
