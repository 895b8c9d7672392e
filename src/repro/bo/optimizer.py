"""Ask/tell asynchronous Bayesian optimizer (the AgEBO ``optimizer`` object).

Mirrors the scikit-optimize interface the paper uses:

- :meth:`tell` ingests (hyperparameter config, validation accuracy) pairs;
- :meth:`ask` returns ``k`` configurations chosen by maximizing UCB over a
  random candidate pool, batching via the constant-liar strategy so the
  whole batch can be dispatched without blocking on evaluations.

While fewer than ``n_initial_points`` observations exist, :meth:`ask`
returns random samples (the "random initialization phase" of §IV-D).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.bo.acquisition import upper_confidence_bound
from repro.bo.forest import RandomForestRegressor
from repro.bo.liar import LIE_STRATEGIES, constant_lie
from repro.bo.surrogate import KNNSurrogate
from repro.registry import Registry
from repro.searchspace.hpspace import HyperparameterSpace

__all__ = ["BayesianOptimizer", "SURROGATES"]

# Random candidates scored by UCB per selected configuration.
CANDIDATE_POOL_SIZE = 500
# Shape of the surrogate forest refit on every ask.
FOREST_TREES = 25
FOREST_MAX_DEPTH = 10

#: Surrogate name -> factory of an unfitted model with ``fit(X, y, rng)``
#: returning itself and ``predict(X) -> (mu, sigma)``.  A factory that
#: returns ``None`` means no model: :meth:`BayesianOptimizer.ask` then
#: samples uniformly.  Register custom surrogates here.
SURROGATES = Registry("surrogate")


@SURROGATES.register("forest")
def _forest():
    # Looked up by module-level name on every call, so a benchmark can
    # swap the forest class in.
    return RandomForestRegressor(n_trees=FOREST_TREES, max_depth=FOREST_MAX_DEPTH)


SURROGATES.register("knn", KNNSurrogate)
SURROGATES.register("random", lambda: None)


class BayesianOptimizer:
    """Asynchronous BO over a :class:`HyperparameterSpace`.

    Parameters
    ----------
    space:
        The hyperparameter space (numeric encoding comes from it).
    kappa:
        UCB exploration weight; the paper's AgEBO default is 0.001
        (strong exploitation), with {1.96, 19.6} studied in Fig. 8.
    n_initial_points:
        Observations required before the surrogate is trusted.
    lie_strategy:
        Constant-liar dummy value policy (paper: ``"mean"``), one of
        :data:`~repro.bo.liar.LIE_STRATEGIES`.
    surrogate:
        A :data:`SURROGATES` name: ``"forest"`` (paper), ``"knn"``
        (ablation), ``"random"`` (ablation baseline: :meth:`ask` always
        samples uniformly) or a custom registration.
    """

    def __init__(
        self,
        space: HyperparameterSpace,
        kappa: float = 0.001,
        n_initial_points: int = 10,
        lie_strategy: str = "mean",
        surrogate: str = "forest",
        seed: int | np.random.Generator = 0,
    ) -> None:
        if kappa < 0:
            raise ValueError("kappa must be >= 0")
        if n_initial_points < 1:
            raise ValueError("n_initial_points must be >= 1")
        if lie_strategy not in LIE_STRATEGIES:
            raise ValueError(
                f"unknown lie strategy {lie_strategy!r}; expected one of {LIE_STRATEGIES}"
            )
        SURROGATES.get(surrogate)  # raises naming the registered surrogates
        self.space = space
        self.kappa = kappa
        self.n_initial_points = n_initial_points
        self.lie_strategy = lie_strategy
        self.surrogate = surrogate
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self._X: list[np.ndarray] = []
        self._y: list[float] = []

    # ------------------------------------------------------------------ #
    @property
    def num_observations(self) -> int:
        return len(self._y)

    def tell(self, configs: Sequence[Mapping[str, Any]], values: Sequence[float]) -> None:
        """Record finished evaluations (objective = value, maximized)."""
        if len(configs) != len(values):
            raise ValueError(f"got {len(configs)} configs but {len(values)} values")
        for config, value in zip(configs, values):
            self.space.validate(config)
            self._X.append(self.space.to_array(config))
            self._y.append(float(value))

    def ask(self, k: int = 1) -> list[dict[str, Any]]:
        """Propose ``k`` configurations without blocking."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.space.num_dimensions == 0:
            # Degenerate space (everything fixed): only the defaults exist.
            return [self.space.sample(self._rng) for _ in range(k)]
        # The random initialization phase, which a surrogate without a model
        # ("random") never leaves.
        make_model = SURROGATES.get(self.surrogate)
        model = make_model() if self.num_observations >= self.n_initial_points else None
        if model is None:
            return [self.space.sample(self._rng) for _ in range(k)]

        # Observations + room for k lies in one prefilled matrix: each refit
        # sees a contiguous slice instead of re-stacking a growing list.
        n = self.num_observations
        d = self.space.num_dimensions
        X = np.empty((n + k, d), dtype=float)
        X[:n] = self._X
        y = np.empty(n + k, dtype=float)
        y[:n] = self._y
        lie = constant_lie(y[:n], self.lie_strategy)
        candidates = np.empty((CANDIDATE_POOL_SIZE, d), dtype=float)
        batch: list[dict[str, Any]] = []
        model = model.fit(X[:n], y[:n], self._rng)
        for j in range(k):
            for i in range(CANDIDATE_POOL_SIZE):
                candidates[i] = self.space.sample_array(self._rng)
            mu, sigma = model.predict(candidates)
            scores = upper_confidence_bound(mu, sigma, self.kappa)
            best = candidates[int(np.argmax(scores))].copy()
            batch.append(self.space.from_array(best))
            X[n + j] = best
            y[n + j] = lie
            if len(batch) < k:
                # Refit after every lie (paper behaviour), so the next pick
                # sees the pending configurations.
                model = make_model().fit(X[: n + j + 1], y[: n + j + 1], self._rng)
        return batch

    # ------------------------------------------------------------------ #
    # Checkpointing: the tell-history plus the RNG state is the complete
    # mutable state — the surrogate is refit from scratch on every ask.
    def state_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of observations and RNG state."""
        return {
            "X": [np.asarray(x, dtype=float).tolist() for x in self._X],
            "y": [float(v) for v in self._y],
            "rng_state": self._rng.bit_generator.state,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self._X = [np.asarray(x, dtype=float) for x in state["X"]]
        self._y = [float(v) for v in state["y"]]
        self._rng.bit_generator.state = state["rng_state"]

    # ------------------------------------------------------------------ #
    def best(self) -> tuple[dict[str, Any], float]:
        """Best observed (config, value) so far."""
        if not self._y:
            raise RuntimeError("no observations yet")
        idx = int(np.argmax(self._y))
        return self.space.from_array(self._X[idx]), self._y[idx]
