"""Perf bench: vectorized forest surrogate vs its reference paths.

Times forest ``fit`` (presorted split-search caches vs per-node argsort),
ensemble ``predict`` (single batched level-walk over all trees ×
candidates vs the per-row recursive reference) and the BO ``ask`` hot
path under fixed seeds, writing before/after medians to
``BENCH_surrogate.json`` at the repo root.

Timings are recorded, never asserted.  The bench fails only on the
equivalence gates: the presorted tree must match the per-node argsort
tree, and the batched predict must match the recursive reference bit for
bit.  The references are imported from ``tests/reference/``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.bo import BayesianOptimizer
from repro.bo import optimizer as optimizer_module
from repro.bo.forest import RandomForestRegressor, RegressionTree
from repro.perf import BenchEntry, median_time, write_bench_json
from repro.searchspace import default_dataparallel_space

from tests.reference import ArgsortForest, ArgsortTree, forest_predict_reference

REPO_ROOT = Path(__file__).resolve().parent.parent
N_TREES = 25
N_CANDIDATES = 1024
N_OBSERVATIONS = 200
N_FEATURES = 3  # the paper's data-parallel hp space: lr, batch size, ranks


def _training_data(seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N_OBSERVATIONS, N_FEATURES))
    y = np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(N_OBSERVATIONS)
    return X, y


def test_perf_forest_and_ask():
    X, y = _training_data()
    Xq = np.random.default_rng(1).standard_normal((N_CANDIDATES, N_FEATURES))

    # --- equivalence gates (the only assertions in this bench) --------- #
    tree_fast = RegressionTree(max_depth=10).fit(X, y, np.random.default_rng(2))
    tree_ref = ArgsortTree(max_depth=10).fit(X, y, np.random.default_rng(2))
    assert np.array_equal(tree_fast.feature_, tree_ref.feature_)
    assert np.array_equal(tree_fast.threshold_, tree_ref.threshold_)
    assert np.array_equal(tree_fast.value_, tree_ref.value_)

    forest = RandomForestRegressor(n_trees=N_TREES, max_depth=10).fit(
        X, y, np.random.default_rng(3)
    )
    mu, sigma = forest.predict(Xq)
    mu_ref, sigma_ref = forest_predict_reference(forest, Xq)
    assert np.array_equal(mu, mu_ref) and np.array_equal(sigma, sigma_ref)

    # --- forest fit: presorted caches vs per-node argsort -------------- #
    def fit_forest(forest_cls):
        forest_cls(n_trees=N_TREES, max_depth=10).fit(X, y, np.random.default_rng(3))

    entries = [
        BenchEntry(
            "forest_fit",
            median_time(lambda: fit_forest(ArgsortForest)),
            median_time(lambda: fit_forest(RandomForestRegressor)),
            meta={"n_trees": N_TREES, "rows": N_OBSERVATIONS},
        )
    ]

    # --- forest predict: recursive reference vs batched level-walk ----- #
    entries.append(
        BenchEntry(
            "forest_predict",
            median_time(lambda: forest_predict_reference(forest, Xq), repeats=3),
            median_time(lambda: forest.predict(Xq)),
            meta={"n_trees": N_TREES, "candidates": N_CANDIDATES},
        )
    )

    # --- BO ask under a fixed seed (refit-per-lie, pool of 500) -------- #
    space = default_dataparallel_space()
    cfg_rng = np.random.default_rng(4)
    configs = [space.sample(cfg_rng) for _ in range(20)]
    values = list(np.random.default_rng(5).random(20))

    def ask_batch(forest_cls):
        # The optimizer refits a fresh RandomForestRegressor on every ask;
        # the reference side swaps in the argsort forest for the call.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer_module, "RandomForestRegressor", forest_cls)
            opt = BayesianOptimizer(
                space, seed=6, forest=forest_cls(n_trees=N_TREES, max_depth=10)
            )
            opt.tell(configs, values)
            opt.ask(4)

    entries.append(
        BenchEntry(
            "bo_ask_batch4",
            median_time(lambda: ask_batch(ArgsortForest), repeats=3),
            median_time(lambda: ask_batch(RandomForestRegressor), repeats=3),
            meta={"observations": 20, "batch": 4, "pool": 500},
        )
    )

    out = write_bench_json(REPO_ROOT / "BENCH_surrogate.json", "surrogate", entries)
    for e in entries:
        print(f"{e.name}: ref {e.reference_s * 1e3:.2f} ms -> "
              f"opt {e.optimized_s * 1e3:.2f} ms ({e.speedup:.1f}x)")
    print(f"written: {out}")


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
