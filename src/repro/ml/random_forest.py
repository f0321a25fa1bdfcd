"""Random-forest classifier built on :class:`DecisionTreeClassifier`.

The paper's activity recognizer is a forest of 8 trees with maximum depth
5, small enough for the LSM6DSM accelerometer's embedded ML core.  The
implementation uses standard bagging: each tree is grown on a bootstrap
resample of the training set and examines a random subset of features at
every split; prediction averages the per-tree class probabilities.

``fit`` also lays the trees' node arrays end to end, so ``predict_proba``
walks every row through all trees at once
(:func:`~repro.ml.decision_tree.descend`): ``max_depth`` vector steps per
call, however many trees and rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.decision_tree import DecisionTreeClassifier, descend


@dataclass
class RandomForestClassifier:
    """Bootstrap-aggregated forest of CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees (8 in the paper).
    max_depth:
        Maximum depth of each tree (5 in the paper).
    min_samples_leaf:
        Minimum samples per leaf for each tree.
    max_features:
        Features examined per split; defaults to ``"sqrt"`` as usual for
        random forests.
    criterion:
        Split criterion passed to the trees.
    bootstrap:
        Whether each tree sees a bootstrap resample (``True``) or the full
        training set (``False``).
    random_state:
        Seed controlling bootstrap sampling and per-tree feature
        sub-sampling.
    """

    n_estimators: int = 8
    max_depth: int | None = 5
    min_samples_leaf: int = 1
    max_features: int | str | None = "sqrt"
    criterion: str = "gini"
    bootstrap: bool = True
    random_state: int | None = None

    n_classes_: int = field(init=False, default=0)
    n_features_: int = field(init=False, default=0)
    estimators_: list[DecisionTreeClassifier] = field(init=False, default_factory=list, repr=False)
    # Every tree's node arrays end to end (child indices global), each
    # tree's root index, and the deepest tree's depth; built by ``fit``.
    _feature: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    _threshold: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    _left: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    _right: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    _value: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    _roots: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    _depth: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None) -> "RandomForestClassifier":
        """Fit the forest on features ``X`` and integer labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a forest on an empty dataset")

        self.n_classes_ = int(y.max()) + 1 if n_classes is None else int(n_classes)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        n = X.shape[0]
        for t in range(self.n_estimators):
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                criterion=self.criterion,
                random_state=int(rng.integers(0, 2 ** 31 - 1)),
            )
            tree.fit(X[idx], y[idx], n_classes=self.n_classes_)
            self.estimators_.append(tree)
        trees = self.estimators_
        self._roots = np.cumsum([0] + [tree.node_count() for tree in trees[:-1]])
        self._feature = np.concatenate([tree._feature for tree in trees])
        self._threshold = np.concatenate([tree._threshold for tree in trees])
        self._left = np.concatenate([tree._left + r for tree, r in zip(trees, self._roots)])
        self._right = np.concatenate([tree._right + r for tree, r in zip(trees, self._roots)])
        self._value = np.concatenate([tree._value for tree in trees])
        self._depth = self.max_tree_depth()
        return self

    def _check_fitted(self) -> None:
        if not self.estimators_:
            raise RuntimeError("RandomForestClassifier must be fitted before prediction")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average class-probability matrix over the trees.

        Tree probabilities are summed in tree order, so every row's sum —
        and with it how ``predict``'s argmax breaks ties — is the same
        whatever rows it is batched with.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, the forest was fitted with {self.n_features_}"
            )
        leaves = self._value[
            descend(X, self._feature, self._threshold, self._left, self._right, self._roots, self._depth)
        ]
        probs = np.zeros((X.shape[0], self.n_classes_))
        for t in range(len(self.estimators_)):  # loop-ok: one add per tree, in tree order
            probs += leaves[:, t]
        return probs / len(self.estimators_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class for each sample."""
        return np.argmax(self.predict_proba(X), axis=1)

    # ------------------------------------------------------------ inspection
    def total_nodes(self) -> int:
        """Total node count over all trees (a memory-footprint proxy)."""
        self._check_fitted()
        return int(sum(tree.node_count() for tree in self.estimators_))

    def max_tree_depth(self) -> int:
        """Largest actual depth over the trees."""
        self._check_fitted()
        return int(max(tree.depth() for tree in self.estimators_))
