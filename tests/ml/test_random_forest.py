"""Tests for the from-scratch random forest."""

import numpy as np
import pytest

from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.metrics import accuracy_score
from repro.ml.random_forest import RandomForestClassifier
from tests.ml.forest_oracle import forest_predict_proba_oracle, tree_predict_proba_oracle


def noisy_blobs(n_per_class=80, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0, 0], [2, 2, 0], [0, 2, 2]], dtype=float)
    X = np.concatenate([rng.normal(c, 1.0, size=(n_per_class, 3)) for c in centers])
    y = np.concatenate([np.full(n_per_class, i) for i in range(3)])
    return X, y


class TestForest:
    def test_paper_sized_forest_learns(self):
        X, y = noisy_blobs(seed=1)
        forest = RandomForestClassifier(n_estimators=8, max_depth=5, random_state=0).fit(X, y)
        assert accuracy_score(y, forest.predict(X)) > 0.8

    def test_forest_beats_single_tree_on_held_out_data(self):
        X, y = noisy_blobs(seed=2)
        X_test, y_test = noisy_blobs(seed=3)
        single = RandomForestClassifier(n_estimators=1, max_depth=4, random_state=0).fit(X, y)
        forest = RandomForestClassifier(n_estimators=15, max_depth=4, random_state=0).fit(X, y)
        acc_single = accuracy_score(y_test, single.predict(X_test))
        acc_forest = accuracy_score(y_test, forest.predict(X_test))
        assert acc_forest >= acc_single - 0.02

    def test_probabilities_normalized(self):
        X, y = noisy_blobs()
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        proba = forest.predict_proba(X[:7])
        assert proba.shape == (7, 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_deterministic_with_seed(self):
        X, y = noisy_blobs()
        p1 = RandomForestClassifier(n_estimators=4, random_state=7).fit(X, y).predict(X)
        p2 = RandomForestClassifier(n_estimators=4, random_state=7).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_max_tree_depth_respected(self):
        X, y = noisy_blobs()
        forest = RandomForestClassifier(n_estimators=6, max_depth=3, random_state=0).fit(X, y)
        assert forest.max_tree_depth() <= 3

    def test_total_nodes_counts_all_trees(self):
        X, y = noisy_blobs()
        forest = RandomForestClassifier(n_estimators=4, max_depth=2, random_state=0).fit(X, y)
        assert forest.total_nodes() >= 4  # at least one node per tree

    def test_without_bootstrap(self):
        X, y = noisy_blobs()
        forest = RandomForestClassifier(n_estimators=3, bootstrap=False, random_state=0).fit(X, y)
        assert accuracy_score(y, forest.predict(X)) > 0.7


class TestValidation:
    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((2, 2)))

    def test_fit_shape_validation(self):
        forest = RandomForestClassifier()
        with pytest.raises(ValueError):
            forest.fit(np.zeros(5), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            forest.fit(np.zeros((5, 2)), np.zeros(6, dtype=int))
        with pytest.raises(ValueError):
            forest.fit(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestArrayForestMatchesLinkedOracle:
    """The level-synchronous array walk against a per-row linked-tree walk."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_depth", [1, 5, None])
    def test_forest_predict_proba_bitwise(self, seed, max_depth):
        X, y = noisy_blobs(seed=seed)
        forest = RandomForestClassifier(
            n_estimators=8, max_depth=max_depth, random_state=seed
        ).fit(X, y)
        queries = np.concatenate([X, noisy_blobs(seed=seed + 10)[0]])
        assert np.array_equal(
            forest.predict_proba(queries), forest_predict_proba_oracle(forest, queries)
        )

    def test_forest_rows_independent_of_batch(self):
        X, y = noisy_blobs(seed=3)
        forest = RandomForestClassifier(n_estimators=8, max_depth=5, random_state=3).fit(X, y)
        batch = forest.predict_proba(X)
        singles = np.concatenate([forest.predict_proba(row) for row in X])
        assert np.array_equal(batch, singles)
        assert forest.predict_proba(np.empty((0, X.shape[1]))).shape == (0, forest.n_classes_)
        with pytest.raises(ValueError):
            forest.predict_proba(X[:, :-1])

    def test_tree_walk_on_split_thresholds_and_non_finite_rows(self):
        X, y = noisy_blobs(seed=4)
        tree = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y)
        # Rows sitting exactly on split thresholds go left; NaN compares
        # false at every split and goes right, as in the per-row walk.
        splits = np.flatnonzero(tree._feature >= 0)
        on_threshold = np.repeat(X[:1], splits.size, axis=0)
        on_threshold[np.arange(splits.size), tree._feature[splits]] = tree._threshold[splits]
        queries = np.concatenate(
            [on_threshold, [[np.nan, 0.0, 0.0], [np.inf, -np.inf, 1.0]]]
        )
        assert np.array_equal(tree.predict_proba(queries), tree_predict_proba_oracle(tree, queries))

    def test_single_leaf_tree_and_empty_batch(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        tree = DecisionTreeClassifier().fit(X, np.full(10, 1), n_classes=3)
        assert tree.depth() == 0 and tree.node_count() == 1
        assert np.array_equal(tree.predict_proba(X), tree_predict_proba_oracle(tree, X))
        assert tree.predict_proba(np.empty((0, 3))).shape == (0, 3)
