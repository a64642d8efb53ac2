"""Node classification trainer tests: in-memory and cached-disk modes."""

import numpy as np
import pytest

from repro.graph import load_papers100m_mini
from repro.train import (DiskNodeClassificationConfig,
                         DiskNodeClassificationTrainer,
                         NodeClassificationConfig, NodeClassificationTrainer,
                         evaluate_classifier, relabel_for_training_cache)


@pytest.fixture(scope="module")
def nc_data():
    return load_papers100m_mini(num_nodes=2500, num_edges=20000, feat_dim=24,
                                num_classes=6, seed=0)


def fast_config(**overrides):
    defaults = dict(hidden_dim=24, num_layers=2, fanouts=(8, 4), batch_size=128,
                    num_epochs=6, lr=0.01, seed=0)
    defaults.update(overrides)
    return NodeClassificationConfig(**defaults)


class TestConfig:
    def test_fanout_mismatch(self):
        with pytest.raises(ValueError):
            NodeClassificationConfig(num_layers=3, fanouts=(5, 5))


class TestInMemory:
    def test_beats_chance(self, nc_data):
        trainer = NodeClassificationTrainer(nc_data, fast_config())
        result = trainer.train()
        chance = 1.0 / nc_data.num_classes
        assert result.final_accuracy > 2 * chance
        assert result.epochs[-1].loss < result.epochs[0].loss

    def test_requires_features(self, nc_data):
        from repro.graph import Graph
        bare = Graph(num_nodes=10, src=np.array([0]), dst=np.array([1]))
        from repro.graph.datasets import NodeClassificationDataset
        ds = NodeClassificationDataset(graph=bare, train_nodes=np.array([0]),
                                       valid_nodes=np.array([1]),
                                       test_nodes=np.array([2]),
                                       stats=nc_data.stats)
        with pytest.raises(ValueError):
            NodeClassificationTrainer(ds, fast_config())

    def test_eval_every_records_metric(self, nc_data):
        trainer = NodeClassificationTrainer(nc_data,
                                            fast_config(num_epochs=2, eval_every=1))
        result = trainer.train()
        assert all(0.0 <= e.metric <= 1.0 for e in result.epochs)


class TestRelabeling:
    def test_training_nodes_front_loaded(self, nc_data):
        relabeled, old_to_new, train_parts = relabel_for_training_cache(nc_data, 8)
        n_train = len(nc_data.train_nodes)
        # After relabeling, training nodes are exactly ids [0, n_train).
        np.testing.assert_array_equal(np.sort(relabeled.train_nodes),
                                      np.arange(n_train))
        assert train_parts == [0]  # 1% of nodes fit in the first partition

    def test_relabeling_preserves_structure(self, nc_data):
        relabeled, old_to_new, _ = relabel_for_training_cache(nc_data, 8)
        g0, g1 = nc_data.graph, relabeled.graph
        assert g1.num_edges == g0.num_edges
        # Edge (u, v) maps to (old_to_new[u], old_to_new[v]) with features
        # and labels carried along.
        np.testing.assert_array_equal(g1.src, old_to_new[g0.src])
        some = nc_data.train_nodes[:10]
        np.testing.assert_allclose(g1.node_features[old_to_new[some]],
                                   g0.node_features[some])
        np.testing.assert_array_equal(g1.node_labels[old_to_new[some]],
                                      g0.node_labels[some])


class TestDisk:
    def test_disk_training_beats_chance(self, nc_data, tmp_path):
        disk = DiskNodeClassificationConfig(workdir=tmp_path, num_partitions=8,
                                            buffer_capacity=4)
        trainer = DiskNodeClassificationTrainer(nc_data, fast_config(), disk)
        result = trainer.train()
        chance = 1.0 / nc_data.num_classes
        assert result.final_accuracy > 2 * chance

    def test_zero_intra_epoch_swaps(self, nc_data, tmp_path):
        """Section 5.2: IO happens once per epoch (initial fill), never mid-epoch."""
        disk = DiskNodeClassificationConfig(workdir=tmp_path, num_partitions=8,
                                            buffer_capacity=4)
        trainer = DiskNodeClassificationTrainer(nc_data,
                                                fast_config(num_epochs=2), disk)
        result = trainer.train()
        for epoch in result.epochs:
            assert epoch.partition_loads <= disk.buffer_capacity

    def test_disk_accuracy_close_to_memory(self, nc_data, tmp_path):
        """Table 3: disk NC accuracy within a few points of in-memory."""
        mem = NodeClassificationTrainer(nc_data, fast_config()).train()
        disk_cfg = DiskNodeClassificationConfig(workdir=tmp_path,
                                                num_partitions=8,
                                                buffer_capacity=6)
        disk = DiskNodeClassificationTrainer(nc_data, fast_config(), disk_cfg).train()
        assert disk.final_accuracy > mem.final_accuracy - 0.15


def test_evaluate_reuses_index_with_same_draws(nc_data, tmp_path):
    """Trainers evaluate over a pre-built index (the disk trainer caches its
    full-graph one); predictions equal a fresh-index evaluation exactly."""
    disk = DiskNodeClassificationConfig(workdir=tmp_path, num_partitions=8,
                                        buffer_capacity=4)
    for trainer in (NodeClassificationTrainer(nc_data, fast_config(num_epochs=1)),
                    DiskNodeClassificationTrainer(nc_data, fast_config(num_epochs=1),
                                                  disk)):
        trainer.train()
        nodes = trainer.dataset.test_nodes
        fresh = evaluate_classifier(trainer.model, trainer.dataset.graph, nodes,
                                    trainer.config, batch_size=200)
        assert trainer.evaluate(nodes, batch_size=200) == fresh
        assert trainer.evaluate(nodes, batch_size=200) == fresh
