"""The vectorized CART split search equals the per-threshold oracle.

Every fit below is run twice, once as shipped and once under
:func:`~tests.ml.split_oracle.oracle_split_search`, and the node arrays
must be bit-identical (thresholds compared with ``equal_nan``: a leaf's
threshold is NaN).
"""

import itertools
from unittest import mock

import numpy as np
import pytest

from repro.data.synthetic import SyntheticDaliaGenerator, SyntheticDatasetConfig
from repro.ml import decision_tree
from repro.ml.activity_classifier import ActivityClassifier
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.random_forest import RandomForestClassifier
from tests.ml.split_oracle import IMPURITY_ORACLES, node_arrays_equal, oracle_split_search

#: The benchmark pipeline's classifier corpus: 2 subjects x 60 s bouts.
PIPELINE_CORPUS = SyntheticDatasetConfig(n_subjects=2, activity_duration_s=60.0, seed=20230417)


def edge_case_data(seed: int, n: int = 240, n_labels: int = 4):
    """Features that exercise every branch of the threshold search.

    Column 0 has far more than ``max_thresholds`` unique values (threshold
    sub-sampling), column 1 is constant (skipped), column 2 is an
    integer feature with heavy ties and column 3 a coarse 0.5 grid.
    Labels use only ``n_labels`` of the 9 classes the fits declare.
    """
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_labels, size=n)
    X = np.column_stack(
        [
            rng.normal(y, 1.0),
            np.full(n, 2.5),
            rng.integers(0, 4, size=n) + (y == 1),
            np.round(rng.normal(0.5 * y, 1.0) * 2.0) / 2.0,
        ]
    )
    return X, y


def _fit_both(make, X, y, n_classes=9):
    got = make().fit(X, y, n_classes=n_classes)
    with oracle_split_search():
        want = make().fit(X, y, n_classes=n_classes)
    return got, want


@pytest.mark.parametrize("criterion", sorted(IMPURITY_ORACLES))
@pytest.mark.parametrize("n_classes", [2, 7, 8, 9, 17])
def test_row_impurity_matches_scalar_oracle(criterion, n_classes):
    """Each row's bits equal the one-vector impurity, empty classes included."""
    rng = np.random.default_rng(n_classes)
    counts = rng.integers(0, 40, size=(300, n_classes)) * (rng.random((300, n_classes)) < 0.7)
    counts = counts[counts.sum(axis=1) > 0]
    got = decision_tree._CRITERIA[criterion](counts, counts.sum(axis=1))
    want = np.array([IMPURITY_ORACLES[criterion](row) for row in counts])
    assert np.array_equal(got, want)


MATRIX = list(
    itertools.product(["gini", "entropy"], [None, "sqrt", 2], [1, 30], [5, None])
)


@pytest.mark.parametrize("criterion,max_features,min_samples_leaf,max_depth", MATRIX)
@pytest.mark.parametrize("seed", [0, 1])
def test_tree_fit_matches_oracle(seed, criterion, max_features, min_samples_leaf, max_depth):
    X, y = edge_case_data(seed)
    got, want = _fit_both(
        lambda: DecisionTreeClassifier(
            criterion=criterion,
            max_features=max_features,
            min_samples_leaf=min_samples_leaf,
            max_depth=max_depth,
            random_state=seed,
        ),
        X,
        y,
    )
    assert node_arrays_equal(got, want)
    assert got.node_count() > 1


@pytest.mark.parametrize("criterion,max_features,min_samples_leaf,max_depth", MATRIX)
def test_forest_fit_matches_oracle(criterion, max_features, min_samples_leaf, max_depth):
    X, y = edge_case_data(7)
    got, want = _fit_both(
        lambda: RandomForestClassifier(
            n_estimators=4,
            criterion=criterion,
            max_features=max_features,
            min_samples_leaf=min_samples_leaf,
            max_depth=max_depth,
            random_state=3,
        ),
        X,
        y,
    )
    assert node_arrays_equal(got, want)
    assert np.array_equal(got._roots, want._roots)


@pytest.mark.parametrize("seed", range(6))
def test_tiny_and_tied_inputs_match_oracle(seed):
    """Few samples, two-valued features and equal-gain splits."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 12))
    X = rng.integers(0, 2, size=(n, 3)).astype(float)
    y = rng.integers(0, 3, size=n)
    for criterion in ("gini", "entropy"):
        got, want = _fit_both(
            lambda: DecisionTreeClassifier(criterion=criterion, max_depth=None), X, y, n_classes=3
        )
        assert node_arrays_equal(got, want)


def test_pipeline_forest_matches_oracle():
    """The paper's 8-tree, depth-5 forest on the benchmark pipeline corpus."""
    train = SyntheticDaliaGenerator(PIPELINE_CORPUS).generate_windowed().concatenated()
    got = ActivityClassifier(random_state=0).fit(train.accel_windows, train.activity)
    with oracle_split_search():
        want = ActivityClassifier(random_state=0).fit(train.accel_windows, train.activity)
    assert node_arrays_equal(got._forest, want._forest)
    assert len(got._forest.estimators_) == 8
    assert all(node_arrays_equal(a, b) for a, b in zip(got._forest.estimators_, want._forest.estimators_))


def test_impurity_is_scored_per_feature_not_per_threshold():
    """One parent impurity call, then two calls per searched feature."""
    X, y = edge_case_data(0)
    calls = []

    def counting_gini(counts, totals):
        calls.append(counts.shape[0])
        return decision_tree._gini(counts, totals)

    with mock.patch.dict(decision_tree._CRITERIA, gini=counting_gini):
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
    assert tree.node_count() == 3
    # The root search: the parent, then left and right rows for each of
    # the three non-constant features, every call scoring several rows.
    assert len(calls) == 1 + 2 * 3
    assert max(calls) > 1
