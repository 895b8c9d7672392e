"""Perf bench: rank-vectorized data-parallel training vs the per-rank loop.

Times the data-parallel hot path at two granularities — a full
``DataParallelTrainer.fit`` step (the per-rank ``loop_fit`` reference vs
the trainer's batched step) at n ∈ {2, 4, 8} ranks, and the gradient
reduction alone (the chunked-list ring reference vs
:func:`allreduce_mean_flat`, which the ``ring`` mode runs) — and writes
the before/after medians to ``BENCH_dataparallel.json`` at the repo root.

Timings are recorded, never asserted.  The only way this bench fails is
the numerical equivalence gate: the trainer must reproduce the loop
reference's losses and final weights to 1e-10, and the flat mean must
match the chunked ring on the benched gradient shapes.  The references
are imported from ``tests/reference/``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.dataparallel import DataParallelTrainer, allreduce_mean_flat
from repro.nn import GraphNetwork
from repro.perf import BenchEntry, median_time, write_bench_json
from repro.searchspace import ArchitectureSpace

from tests.reference import flatten_gradients, loop_fit, ring_allreduce_reference

REPO_ROOT = Path(__file__).resolve().parent.parent
N_FEATURES = 54
N_CLASSES = 7
BATCH = 32
EPOCHS = 2
RANK_COUNTS = (2, 4, 8)


def _make_model(seed: int = 0) -> GraphNetwork:
    space = ArchitectureSpace(num_nodes=5)
    arch = space.random_sample(np.random.default_rng(seed))
    return GraphNetwork(space.decode(arch), N_FEATURES, N_CLASSES,
                        np.random.default_rng(seed))


def _make_data(seed: int = 1, n_train: int = 8192, n_val: int = 512):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_train + n_val, N_FEATURES))
    y = rng.integers(0, N_CLASSES, size=n_train + n_val)
    return X[:n_train], y[:n_train], X[n_train:], y[n_train:]


def _fit(num_ranks: int, path: str, model_seed: int = 3, data=None):
    """Train with the trainer (``path="batched"``) or the ``loop_fit`` reference."""
    X, y, Xv, yv = data
    model = _make_model(model_seed)
    trainer = DataParallelTrainer(
        num_ranks=num_ranks, epochs=EPOCHS, batch_size=BATCH,
        learning_rate=0.005, allreduce="ring",
    )
    rng = np.random.default_rng(7)
    if path == "batched":
        result = trainer.fit(model, X, y, Xv, yv, rng)
    else:
        result = loop_fit(trainer, model, X, y, Xv, yv, rng)
    return model, result


def test_perf_dataparallel_step_and_ring():
    data = _make_data()

    # --- equivalence gates (the only assertions in this bench) --------- #
    model_loop, res_loop = _fit(8, "loop", data=data)
    model_batched, res_batched = _fit(8, "batched", data=data)
    np.testing.assert_allclose(
        res_loop.epoch_train_losses, res_batched.epoch_train_losses, atol=1e-10
    )
    for a, b in zip(model_loop.get_weights(), model_batched.get_weights()):
        np.testing.assert_allclose(a, b, atol=1e-10)

    grads = [p.astype(np.float64) for p in _make_model(5).parameters()]
    per_rank = [[g * (r + 1) for g in grads] for r in range(8)]
    flat, _segments = flatten_gradients(per_rank)
    reduced_flat = allreduce_mean_flat(flat)
    reduced_ref = ring_allreduce_reference(per_rank)
    for (offset, size, shape), ref in zip(_segments, reduced_ref):
        np.testing.assert_allclose(
            reduced_flat[offset : offset + size].reshape(shape), ref, atol=1e-10
        )

    # --- fit step: per-rank loop vs rank-vectorized batched ------------ #
    entries = []
    for n in RANK_COUNTS:
        steps = (data[0].shape[0] // n // BATCH) * EPOCHS
        loop_s = median_time(lambda n=n: _fit(n, "loop", data=data), repeats=3)
        batched_s = median_time(lambda n=n: _fit(n, "batched", data=data), repeats=3)
        entries.append(
            BenchEntry(
                f"fit_step_n{n}",
                loop_s / steps,
                batched_s / steps,
                meta={"num_ranks": n, "batch_size": BATCH, "epochs": EPOCHS,
                      "steps": steps, "allreduce": "ring"},
            )
        )

    # --- gradient reduction alone: chunked-list ring vs flat mean ------ #
    for n in RANK_COUNTS:
        pr = per_rank[:n]
        flat_n, _ = flatten_gradients(pr)
        sink = np.empty(flat_n.shape[1])
        entries.append(
            BenchEntry(
                f"ring_allreduce_n{n}",
                median_time(lambda pr=pr: ring_allreduce_reference(pr), repeats=9),
                median_time(
                    lambda f=flat_n, s=sink: allreduce_mean_flat(f, out=s), repeats=9
                ),
                meta={"num_ranks": n, "num_params": flat_n.shape[1],
                      "optimized": "allreduce_mean_flat"},
            )
        )

    out = write_bench_json(REPO_ROOT / "BENCH_dataparallel.json", "dataparallel", entries)
    for e in entries:
        print(f"{e.name}: ref {e.reference_s * 1e3:.2f} ms -> "
              f"opt {e.optimized_s * 1e3:.2f} ms ({e.speedup:.1f}x)")
    print(f"written: {out}")


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
