"""Named registries for pluggable campaign components.

New backends register here and become available to
:func:`repro.campaign.build_campaign` (and therefore the CLI) without
touching either:

- :data:`EVALUATORS` — ``name -> (run_function, EvaluatorConfig,
  FaultPolicy) -> Evaluator``;
- :data:`SEARCH_METHODS` — ``name ->`` :class:`SearchMethod` (a build
  factory; :func:`repro.campaign.resume_campaign` resumes any registered
  method by building it and calling ``search.load_state``);
- :data:`SURROGATES` — ``name -> () -> surrogate`` with a
  ``fit(X, y, rng) -> model`` / ``predict(X) -> (mu, sigma)`` interface.
  The table is :data:`repro.bo.optimizer.SURROGATES`, re-exported here;
  the optimizer validates and fits every surrogate through it.

The built-in evaluators and search methods are registered by
:mod:`repro.campaign.builder` (imported by the package ``__init__``, so
any ``repro.campaign`` import sees them); the built-in surrogates are
registered where the table is defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bo.optimizer import SURROGATES
from repro.registry import Registry

__all__ = ["Registry", "SearchMethod", "EVALUATORS", "SEARCH_METHODS", "SURROGATES"]


@dataclass(frozen=True)
class SearchMethod:
    """One registered search method.

    ``build(config, space, hp_space, evaluator)`` constructs a search (fresh
    or, followed by ``load_state``, resumed).  ``uses_bo`` tells the
    builder whether to construct the variant's hyperparameter space.
    """

    name: str
    build: Callable
    uses_bo: bool = True


EVALUATORS = Registry("evaluator backend")
SEARCH_METHODS = Registry("search method")
