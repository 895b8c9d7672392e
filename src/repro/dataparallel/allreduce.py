"""Simulated allreduce over an ``(n, P)`` matrix of per-rank gradients.

:class:`RingReducer` reproduces the Baidu/Horovod ring algorithm —
reduce-scatter followed by allgather over ``n`` chunks — and
:func:`allreduce_mean_flat` the naive mean; both agree up to float
associativity.  :func:`ring_transfer_stats` gives the analytic bytes a
ring moves, which feed the communication term of the training cost model
and the per-epoch communication figure of every allreduce mode.

The ring keeps all ``n`` rank gradients in one matrix; each chunk is
padded to a common width so that every reduce-scatter/allgather round
becomes a single fancy-indexed gather + scatter over an ``(n, n, c)`` view
of one preallocated float64 workspace.  Chunk boundaries and the
per-element association order are those of the chunked-list ring in
``tests/reference/allreduce.py``, which it matches bit for bit.

Both reductions accumulate in float64 and cast the result back to the
input dtype, so float32 training never silently upcasts its optimizer
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "allreduce_mean_flat",
    "ring_transfer_stats",
    "RingReducer",
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


class RingReducer:
    """Vectorized flat-buffer ring allreduce for repeated ``(n, P)`` reductions.

    The constructor precomputes everything shape-dependent — the linspace
    chunk bounds of the reference, the scatter map from flat positions into
    the padded ``(n, n·c)`` workspace, and the per-round source/destination
    index vectors — so :meth:`reduce` runs ``2(n-1)`` rounds of pure
    fancy-indexed array arithmetic with zero per-step allocation.

    Padding lanes (chunk positions past a chunk's true length) only ever
    combine with other padding lanes, and are re-zeroed each call, so they
    never contaminate a result.
    """

    def __init__(self, num_ranks: int, num_params: int) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if num_params < 1:
            raise ValueError("num_params must be >= 1")
        self.num_ranks = n = num_ranks
        self.num_params = P = num_params
        if n == 1:
            return
        bounds = np.linspace(0, P, n + 1).astype(np.intp)
        sizes = np.diff(bounds)
        c = int(sizes.max())
        chunk_of = np.repeat(np.arange(n), sizes)
        within = np.arange(P) - bounds[chunk_of]
        # Position of flat element p inside one padded workspace row.
        self._scatter = chunk_of * c + within
        pad = np.ones(n * c, dtype=bool)
        pad[self._scatter] = False
        self._pad_cols = np.flatnonzero(pad)
        # Chunks are contiguous in both the flat vector and the workspace,
        # so pack/unpack run as n slice copies instead of a P-element
        # fancy-indexed scatter/gather.
        self._copy_spans = [
            (slice(bounds[k], bounds[k + 1]), slice(k * c, k * c + int(sizes[k])))
            for k in range(n)
        ]
        self._work = np.zeros((n, n * c))
        self._chunk_width = c
        self._src = np.arange(n)
        self._dst = (self._src + 1) % n

    def reduce(self, flat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Ring-mean over the rank axis of ``flat``; returns a ``(P,)`` vector.

        The result is computed in float64 and cast into ``out`` (allocated
        in ``flat``'s dtype when not supplied).
        """
        n, P = self.num_ranks, self.num_params
        if flat.shape != (n, P):
            raise ValueError(f"expected shape {(n, P)}, got {flat.shape}")
        if out is None:
            out = np.empty(P, dtype=flat.dtype)
        if n == 1:
            out[:] = flat[0]
            return out
        work = self._work
        for flat_span, work_span in self._copy_spans:
            work[:, work_span] = flat[:, flat_span]  # upcasts to float64
        if self._pad_cols.size:
            work[:, self._pad_cols] = 0.0
        rounds = work.reshape(n, n, self._chunk_width)
        src, dst = self._src, self._dst
        # Reduce-scatter: rank r ships chunk (r - step) mod n to rank r+1.
        # The fancy-indexed gather on the right-hand side snapshots the
        # pre-round values, exactly like the reference's explicit sends.
        for step in range(n - 1):
            k = (src - step) % n
            rounds[dst, k] += rounds[src, k]
        # Allgather: circulate each completed chunk around the ring.
        for step in range(n - 1):
            k = (src + 1 - step) % n
            rounds[dst, k] = rounds[src, k]
        work[0] /= n  # divide in float64, then cast into ``out``
        for flat_span, work_span in self._copy_spans:
            out[flat_span] = work[0, work_span]
        return out
