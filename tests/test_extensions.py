"""Tests for the repro.extensions subpackage (QROCK and theta sweep)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.neighbors import compute_neighbors
from repro.core.rock import RockClustering
from repro.errors import ConfigurationError, NotFittedError
from repro.evaluation.metrics import clustering_error
from repro.extensions.auto_theta import ThetaSweepEntry, best_theta, sweep_theta
from repro.extensions.qrock import QRock, connected_component_clusters


class TestConnectedComponentClusters:
    def test_two_components(self, two_group_transactions):
        graph = compute_neighbors(two_group_transactions, theta=0.4)
        labels, clusters = connected_component_clusters(graph)
        assert len(clusters) == 2
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_isolated_points_are_singleton_components(self):
        graph = compute_neighbors([{1, 2}, {1, 2, 3}, {99}], theta=0.5)
        labels, clusters = connected_component_clusters(graph)
        assert len(clusters) == 2
        assert sorted(len(c) for c in clusters) == [1, 2]

    def test_labels_numbered_by_decreasing_size(self):
        graph = compute_neighbors([{1, 2}, {1, 2, 3}, {1, 3}, {9, 10}, {9, 10, 11}], theta=0.4)
        labels, clusters = connected_component_clusters(graph)
        assert len(clusters[0]) >= len(clusters[1])
        assert labels[0] == 0


class TestQRock:
    def test_matches_rock_when_unconstrained(self, two_group_transactions):
        # With no cluster-count constraint ROCK merges while links remain,
        # which ends exactly at the connected components.
        qrock_labels = QRock(theta=0.4).fit_predict(two_group_transactions)
        rock = RockClustering(n_clusters=1, theta=0.4).fit(two_group_transactions)
        assert rock.result_.stopped_early
        assert clustering_error(qrock_labels, rock.labels_.tolist()) == 0.0
        assert rock.n_clusters_ == len(set(qrock_labels.tolist()))

    def test_min_cluster_size_marks_outliers(self):
        transactions = [{1, 2}, {1, 2, 3}, {99, 100}]
        model = QRock(theta=0.5, min_cluster_size=2).fit(transactions)
        assert model.n_clusters_ == 1
        assert model.labels_[2] == -1

    def test_accepts_dataset_inputs(self, small_transaction_dataset):
        model = QRock(theta=0.4).fit(small_transaction_dataset)
        assert model.n_clusters_ == 2

    def test_not_fitted_errors(self):
        model = QRock(theta=0.5)
        with pytest.raises(NotFittedError):
            model.labels_
        with pytest.raises(NotFittedError):
            model.clusters_

    def test_mushroom_groups_recovered(self, mushroom_small):
        dataset, groups = mushroom_small
        model = QRock(theta=0.8, min_cluster_size=2).fit(dataset)
        labels = model.labels_
        kept = labels >= 0
        error = clustering_error(labels[kept], np.asarray(groups)[kept].tolist())
        assert error < 0.1

    @pytest.mark.parametrize("theta", [1.5, -0.1, float("nan")])
    def test_theta_outside_unit_interval_rejected_at_construction(self, theta):
        with pytest.raises(ConfigurationError, match="theta"):
            QRock(theta=theta)


#: SciPy subpackages only QRock's connected components need.
_GRAPH_MODULES = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def _fresh_interpreter(code: str) -> str:
    source_root = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(source_root)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestImportFootprint:
    """QRock loads SciPy's graph stack only when it runs."""

    @pytest.mark.parametrize(
        "module", ["repro", "repro.core.pipeline", "repro.serve", "repro.cli"]
    )
    def test_import_leaves_the_graph_stack_unloaded(self, module):
        loaded = json.loads(
            _fresh_interpreter(
                "import importlib, json, sys\n"
                "importlib.import_module(%r)\n"
                "print(json.dumps([m for m in %r if m in sys.modules]))" % (module, _GRAPH_MODULES)
            )
        )
        assert loaded == []

    def test_qrock_still_fits_after_a_plain_import(self):
        labels = json.loads(
            _fresh_interpreter(
                "import json\n"
                "from repro import QRock\n"
                "model = QRock(theta=0.4).fit([{1, 2, 3}, {1, 2, 4}, {7, 8, 9}, {7, 8, 10}])\n"
                "print(json.dumps(model.labels_.tolist()))"
            )
        )
        assert labels == [0, 0, 1, 1]


class TestThetaSweep:
    def test_sweep_produces_entry_per_theta(self, two_group_transactions, two_group_labels):
        entries = sweep_theta(
            two_group_transactions, n_clusters=2, thetas=[0.2, 0.4, 0.9],
            labels_true=two_group_labels,
        )
        assert len(entries) == 3
        assert all(isinstance(entry, ThetaSweepEntry) for entry in entries)
        assert [entry.theta for entry in entries] == [0.2, 0.4, 0.9]

    def test_good_theta_has_zero_error(self, two_group_transactions, two_group_labels):
        entries = sweep_theta(
            two_group_transactions, n_clusters=2, thetas=[0.4],
            labels_true=two_group_labels,
        )
        assert entries[0].error == 0.0
        assert entries[0].n_clusters == 2

    def test_extreme_theta_stops_early(self, two_group_transactions):
        entries = sweep_theta(two_group_transactions, n_clusters=1, thetas=[0.95])
        assert entries[0].stopped_early
        assert entries[0].n_clusters > 1

    def test_error_none_without_ground_truth(self, two_group_transactions):
        entries = sweep_theta(two_group_transactions, n_clusters=2, thetas=[0.4])
        assert entries[0].error is None

    def test_best_theta_prefers_lowest_error(self, two_group_transactions, two_group_labels):
        entries = sweep_theta(
            two_group_transactions, n_clusters=2, thetas=[0.1, 0.4, 0.95],
            labels_true=two_group_labels,
        )
        assert best_theta(entries) in (0.1, 0.4)

    def test_best_theta_without_ground_truth_uses_criterion(self, two_group_transactions):
        entries = sweep_theta(two_group_transactions, n_clusters=2, thetas=[0.4, 0.95])
        assert best_theta(entries) == 0.4

    def test_invalid_inputs_rejected(self, two_group_transactions):
        with pytest.raises(ConfigurationError):
            sweep_theta(two_group_transactions, n_clusters=2, thetas=[])
        with pytest.raises(ConfigurationError):
            sweep_theta(two_group_transactions, n_clusters=2, thetas=[0.4], labels_true=["a"])
        with pytest.raises(ConfigurationError):
            best_theta([])
