"""Per-threshold reference split search for the CART tree.

``DecisionTreeClassifier._best_split`` scores every candidate threshold
of a feature in one pass: a ``(thresholds, samples)`` mask, one matmul
for the left class counts and a row-wise impurity.  This module keeps
the loop it replaced, which scores one threshold at a time with scalar
impurity functions, and :func:`oracle_split_search` swaps it in so
a tree or forest fitted under it is the reference the vectorized fit must
equal node array for node array.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.ml.decision_tree import DecisionTreeClassifier


def gini_oracle(counts: np.ndarray) -> float:
    """Gini impurity from one class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p ** 2))


def entropy_oracle(counts: np.ndarray) -> float:
    """Shannon entropy (bits) from one class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


IMPURITY_ORACLES = {"gini": gini_oracle, "entropy": entropy_oracle}


def best_split_oracle(tree: DecisionTreeClassifier, X: np.ndarray, y: np.ndarray):
    """The split search one threshold at a time (strict improvement wins)."""
    impurity_fn = IMPURITY_ORACLES[tree.criterion]
    parent_counts = np.bincount(y, minlength=tree.n_classes_)
    parent_impurity = impurity_fn(parent_counts)
    n = y.size

    features = np.arange(tree.n_features_)
    k = tree._n_split_features()
    if k < tree.n_features_:
        features = tree._rng.choice(features, size=k, replace=False)

    best_gain = 1e-12
    best = None
    for feature in features:
        column = X[:, feature]
        values = np.unique(column)
        if values.size < 2:
            continue
        thresholds = (values[:-1] + values[1:]) / 2.0
        if thresholds.size > tree.max_thresholds:
            idx = np.linspace(0, thresholds.size - 1, tree.max_thresholds).astype(int)
            thresholds = thresholds[idx]
        for threshold in thresholds:
            left_mask = column <= threshold
            n_left = int(left_mask.sum())
            n_right = n - n_left
            if n_left < tree.min_samples_leaf or n_right < tree.min_samples_leaf:
                continue
            left_counts = np.bincount(y[left_mask], minlength=tree.n_classes_)
            right_counts = parent_counts - left_counts
            child_impurity = (
                n_left * impurity_fn(left_counts) + n_right * impurity_fn(right_counts)
            ) / n
            gain = parent_impurity - child_impurity
            if gain > best_gain:
                best_gain = gain
                best = (int(feature), float(threshold), left_mask)
    return best


@contextmanager
def oracle_split_search():
    """Fit every ``DecisionTreeClassifier`` (forest trees too) with the oracle."""
    with mock.patch.object(DecisionTreeClassifier, "_best_split", best_split_oracle):
        yield


NODE_ARRAYS = ("_feature", "_threshold", "_left", "_right", "_value")
"""The node arrays a fitted tree or forest is made of."""


def node_arrays_equal(got, want) -> bool:
    """Whether two fitted trees or forests hold bit-identical node arrays."""
    return all(
        np.array_equal(getattr(got, name), getattr(want, name), equal_nan=name == "_threshold")
        and getattr(got, name).dtype == getattr(want, name).dtype
        for name in NODE_ARRAYS
    )
