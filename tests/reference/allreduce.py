"""List-based allreduce references.

The per-rank gradient-list reductions the flat-buffer kernels in
:mod:`repro.dataparallel.allreduce` are gated against:

- :func:`ring_allreduce_reference` — the original chunked-list ring: one
  Python loop over ranks per round, one ``.copy()`` per send;
- :func:`ring_allreduce` — packs the lists into an ``(n, P)`` matrix and
  runs :class:`~repro.dataparallel.allreduce.RingReducer`;
- :func:`allreduce_mean` — the naive float64 mean in ascending rank order.

All three accumulate in float64 and cast back to the input dtype.
"""

from __future__ import annotations

import numpy as np

from repro.dataparallel.allreduce import RingReducer

GradientList = list[np.ndarray]

#: One (offset, size, shape) triple per tensor of a flattened gradient list.
Segments = list[tuple[int, int, tuple[int, ...]]]


def gradient_segments(grads: GradientList) -> Segments:
    """The (offset, size, shape) layout of ``grads`` inside a flat buffer."""
    segments: Segments = []
    offset = 0
    for g in grads:
        segments.append((offset, g.size, g.shape))
        offset += g.size
    return segments


def flatten_gradients(
    grads_per_rank: list[GradientList],
    out: np.ndarray | None = None,
    dtype=np.float64,
) -> tuple[np.ndarray, Segments]:
    """Pack aligned per-rank gradient lists into one ``(n, P)`` matrix."""
    _check_alignment(grads_per_rank)
    segments = gradient_segments(grads_per_rank[0])
    total = segments[-1][0] + segments[-1][1] if segments else 0
    n = len(grads_per_rank)
    if out is None:
        out = np.empty((n, total), dtype=dtype)
    elif out.shape != (n, total):
        raise ValueError(f"out has shape {out.shape}, expected {(n, total)}")
    for r, grads in enumerate(grads_per_rank):
        row = out[r]
        for (offset, size, _), g in zip(segments, grads):
            row[offset : offset + size] = g.ravel()
    return out, segments


def _unflatten(flat: np.ndarray, segments: Segments, dtype) -> GradientList:
    return [
        flat[offset : offset + size].reshape(shape).astype(dtype)
        for offset, size, shape in segments
    ]


def allreduce_mean(grads_per_rank: list[GradientList]) -> GradientList:
    """Elementwise mean of aligned gradient lists (the reference reduction).

    Accumulates in float64 in ascending rank order; the result is cast back
    to each input tensor's dtype.
    """
    _check_alignment(grads_per_rank)
    n = len(grads_per_rank)
    if n == 1:
        return [g.copy() for g in grads_per_rank[0]]
    out: GradientList = []
    for tensors in zip(*grads_per_rank):
        acc = tensors[0].astype(np.float64, copy=True)
        for t in tensors[1:]:
            acc += t
        out.append((acc / n).astype(tensors[0].dtype))
    return out


def ring_allreduce(grads_per_rank: list[GradientList]) -> GradientList:
    """Average gradients via the vectorized flat-buffer ring.

    Packs the per-rank lists into one ``(n, P)`` float64 matrix, runs
    :class:`RingReducer`, and unflattens the mean back to the input
    tensors' shapes and dtype.  Bit-identical to
    :func:`ring_allreduce_reference` (same chunk bounds, same per-element
    association order).
    """
    flat, segments = flatten_gradients(grads_per_rank)
    n = len(grads_per_rank)
    dtype = grads_per_rank[0][0].dtype if grads_per_rank[0] else np.float64
    if n == 1:
        return [g.copy() for g in grads_per_rank[0]]
    mean = RingReducer(n, flat.shape[1]).reduce(flat)
    return _unflatten(mean, segments, dtype)


def ring_allreduce_reference(grads_per_rank: list[GradientList]) -> GradientList:
    """Average gradients via an explicit chunked-list simulated ring.

    The per-rank gradient lists are flattened into one buffer per rank and
    the ring proceeds in ``2(n-1)`` rounds: ``n-1`` reduce-scatter rounds in
    which rank ``r`` sends chunk ``(r - step) mod n`` to rank ``r+1``, then
    ``n-1`` allgather rounds circulating the fully reduced chunks.  The
    mean (sum / n) is computed chunk-wise, then unflattened.

    This is the readable reference :func:`ring_allreduce` (and the flat
    :class:`RingReducer` under it) is gated against.
    """
    _check_alignment(grads_per_rank)
    n = len(grads_per_rank)
    if n == 1:
        return [g.copy() for g in grads_per_rank[0]]

    shapes = [g.shape for g in grads_per_rank[0]]
    sizes = [g.size for g in grads_per_rank[0]]
    dtype = grads_per_rank[0][0].dtype
    buffers = [
        np.concatenate([g.ravel().astype(np.float64) for g in grads]) for grads in grads_per_rank
    ]
    total = buffers[0].size
    bounds = np.linspace(0, total, n + 1).astype(np.intp)
    chunks = [slice(bounds[i], bounds[i + 1]) for i in range(n)]

    # Reduce-scatter: after n-1 rounds, rank r holds the full sum of chunk
    # (r + 1) mod n.
    for step in range(n - 1):
        sends = [buffers[r][chunks[(r - step) % n]].copy() for r in range(n)]
        for r in range(n):
            dst = (r + 1) % n
            buffers[dst][chunks[(r - step) % n]] += sends[r]

    # Allgather: circulate each completed chunk around the ring.
    for step in range(n - 1):
        sends = [buffers[r][chunks[(r + 1 - step) % n]].copy() for r in range(n)]
        for r in range(n):
            dst = (r + 1) % n
            buffers[dst][chunks[(r + 1 - step) % n]] = sends[r]

    mean = buffers[0] / n
    out: GradientList = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        out.append(mean[offset : offset + size].reshape(shape).astype(dtype))
        offset += size
    return out


def _check_alignment(grads_per_rank: list[GradientList]) -> None:
    if not grads_per_rank:
        raise ValueError("need at least one rank")
    ref = grads_per_rank[0]
    for r, grads in enumerate(grads_per_rank[1:], start=1):
        if len(grads) != len(ref):
            raise ValueError(f"rank {r} has {len(grads)} tensors, rank 0 has {len(ref)}")
        for i, (a, b) in enumerate(zip(ref, grads)):
            if a.shape != b.shape:
                raise ValueError(f"tensor {i} shape mismatch: {a.shape} vs {b.shape}")
