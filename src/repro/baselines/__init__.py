"""Baseline AutoML systems (paper substitutes for AutoGluon / Auto-PyTorch).

Everything is built from scratch on numpy:

- classical learners: CART, random forest, extra trees, gradient boosting,
  k-nearest neighbours, multinomial logistic regression;
- ensembling: greedy weighted ensemble selection (the Caruana-style
  procedure AutoGluon uses);
- :class:`AutoGluonLike` — multi-learner AutoML with a stacked weighted
  ensemble, used for the Table II accuracy/inference-time comparison;
- :class:`AutoPyTorchLike` — a restricted funnel-MLP NAS with successive
  halving, producing the Fig. 6 reference accuracy.
"""

from repro.baselines.base import BaseClassifier
from repro.baselines.trees import ClassificationTree
from repro.baselines.random_forest import ExtraTreesClassifier, RandomForestClassifier
from repro.baselines.gboost import GradientBoostingClassifier
from repro.baselines.knn import KNeighborsClassifier
from repro.baselines.linear import LogisticRegression
from repro.baselines.neural import MLPClassifier
from repro.baselines.ensemble import WeightedEnsemble
from repro.baselines.autogluon_like import AutoGluonLike
from repro.baselines.autopytorch_like import AutoPyTorchLike

__all__ = [
    "BaseClassifier",
    "ClassificationTree",
    "RandomForestClassifier",
    "ExtraTreesClassifier",
    "GradientBoostingClassifier",
    "KNeighborsClassifier",
    "LogisticRegression",
    "MLPClassifier",
    "WeightedEnsemble",
    "AutoGluonLike",
    "AutoPyTorchLike",
]
