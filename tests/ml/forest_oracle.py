"""Linked-tree reference traversal of the array-encoded forest.

``DecisionTreeClassifier`` stores a fitted tree as flat node arrays and
walks all rows level by level.  This module rebuilds the linked
``_Node`` tree the classifier used to hold and walks it one row at a
time, the way ``predict_proba`` used to.  :func:`difficulty_oracle`
composes it with the per-window feature oracle into the whole per-window
difficulty detector that ``ActivityClassifier.predict_difficulty``
replaced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.activities import difficulties_of
from tests.signal.feature_oracle import feature_vector_oracle


@dataclass
class LinkedNode:
    """A leaf (``prediction`` set) or a split with two children."""

    prediction: np.ndarray | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "LinkedNode | None" = None
    right: "LinkedNode | None" = None


def linked_tree(tree) -> LinkedNode:
    """The linked form of a fitted tree's node arrays."""

    def build(index: int) -> LinkedNode:
        if tree._left[index] == index:
            return LinkedNode(prediction=tree._value[index])
        return LinkedNode(
            feature=int(tree._feature[index]),
            threshold=float(tree._threshold[index]),
            left=build(int(tree._left[index])),
            right=build(int(tree._right[index])),
        )

    return build(0)


def _walk(root: LinkedNode, X: np.ndarray, n_classes: int) -> np.ndarray:
    """Walk each row down a linked tree on its own."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty((X.shape[0], n_classes))
    for i, row in enumerate(X):
        node = root
        while node.prediction is None:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.prediction
    return out


def tree_predict_proba_oracle(tree, X: np.ndarray) -> np.ndarray:
    """Per-row linked walk of one fitted tree."""
    return _walk(linked_tree(tree), X, tree.n_classes_)


def _forest_walk(roots: list[LinkedNode], X: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-tree probabilities, summed in tree order, averaged."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    probs = np.zeros((X.shape[0], n_classes))
    for root in roots:
        probs += _walk(root, X, n_classes)
    return probs / len(roots)


def forest_predict_proba_oracle(forest, X: np.ndarray) -> np.ndarray:
    """Per-row linked walk of a fitted forest."""
    return _forest_walk([linked_tree(t) for t in forest.estimators_], X, forest.n_classes_)


def difficulty_oracle(classifier):
    """The per-window difficulty detector of a fitted ``ActivityClassifier``.

    Returns ``predict(accel_windows)``: per-window features, then a
    per-row linked-forest walk.  The linked trees are built once, here,
    as they were at fit time, so timing ``predict`` measures what one
    ``predict_difficulty`` call used to cost.
    """
    roots = [linked_tree(t) for t in classifier._forest.estimators_]
    n_classes = classifier._forest.n_classes_

    def predict(accel_windows: np.ndarray) -> np.ndarray:
        features = feature_vector_oracle(accel_windows, extended=classifier.extended_features)
        normalized = (features - classifier._feature_mean) / classifier._feature_std
        return difficulties_of(np.argmax(_forest_walk(roots, normalized, n_classes), axis=1))

    return predict
