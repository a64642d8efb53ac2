"""Which public calls count as which layer, and the per-layer metrics.

The layers are the program's modules. :func:`instrument` wraps the calls
below from outside (see :mod:`spans`); every span is named
``<layer>.<boundary>``. :func:`layer_metrics` turns the spans of one
traced run, plus counters read from the program's own stats, into the
``per_layer`` metrics named in ``BENCHMARK.json``.

Units: ``*_ms`` is the mean milliseconds per call of that boundary,
``*_s`` the total seconds it took in the run, ``<layer>.self_s`` the
layer's total self time (span time minus the time of its child spans).
A metric whose layer did no work in a workload reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional

LAYERS = ("graph", "core", "nn", "storage", "policies", "train", "serve",
          "fleet", "stream")


def _defining(cls: type, attr: str) -> bool:
    return attr in cls.__dict__


def instrument(tracer) -> None:
    """Wrap the public boundaries of every layer with spans."""
    import repro.api.jobs as jobs
    import repro.graph.datasets as datasets
    import repro.nn.decoders as decoders
    import repro.stream as stream_pkg
    import repro.train.link_prediction as lp
    import repro.train.node_classification as nc
    from repro.core.sampler import DenseSampler
    from repro.fleet.protocol import WorkerClient
    from repro.nn.optim import Adam, RowAdagrad
    from repro.nn.tensor import Tensor
    from repro.policies.beta import BetaPolicy
    from repro.policies.comet import CometPolicy
    from repro.serve.batcher import RequestBatcher
    from repro.serve.engine import ServingEngine
    from repro.storage.buffer import PartitionBuffer
    from repro.storage.edge_store import EdgeBucketStore
    from repro.storage.node_store import NodeStore
    from repro.storage.prefetch import PrefetchingBufferManager
    from repro.stream import Compactor, ContinualTrainer, LiveGraph
    from repro.stream.wal import WriteAheadLog
    from repro.train.checkpoint import SnapshotManager
    from repro.train.negative_sampling import UniformNegativeSampler

    wrap = tracer.wrap
    # graph: dataset generation and the training-split graph.
    for name in ("load_freebase86m_mini", "load_papers100m_mini",
                 "training_graph"):
        wrap(jobs, name, "graph.generate")
    wrap(datasets, "training_graph", "graph.generate")
    # core: DENSE sampling and the incremental re-index on buffer swaps.
    nodes = lambda batch, args: len(batch.node_ids)   # noqa: E731
    wrap(DenseSampler, "sample", "core.sample", count=nodes)
    wrap(DenseSampler, "sample_no_neighbors", "core.sample", count=nodes)
    wrap(DenseSampler, "update_graph", "core.reindex")
    # nn: encoder forward, decoder scoring + loss, autograd, optimizers.
    wrap(lp.LinkPredictionModel, "encode", "nn.forward")
    wrap(nc.NodeClassifier, "forward", "nn.forward")
    for cls in (decoders.DistMult, decoders.DotProduct,
                decoders.ComplExDecoder, decoders.TransE):
        for attr in ("score_edges", "score_against"):
            if _defining(cls, attr):
                wrap(cls, attr, "nn.decode")
    wrap(lp, "link_prediction_loss", "nn.decode")
    wrap(nc, "softmax_cross_entropy", "nn.decode")
    wrap(Tensor, "backward", "nn.backward")
    wrap(Adam, "step", "nn.optimizer")
    wrap(RowAdagrad, "update", "nn.optimizer")
    # storage: swaps, row gather/scatter, bucket reads, write-back.
    wrap(PrefetchingBufferManager, "load_step", "storage.swap")
    wrap(PrefetchingBufferManager, "finish", "storage.swap")
    wrap(PartitionBuffer, "set_partitions", "storage.swap")
    wrap(PartitionBuffer, "gather", "storage.gather")
    wrap(PartitionBuffer, "apply_gradients", "storage.apply")
    wrap(PartitionBuffer, "flush", "storage.writeback")
    wrap(EdgeBucketStore, "read_buckets", "storage.bucket_read")
    wrap(LiveGraph, "bucket_edges", "storage.bucket_read")
    wrap(NodeStore, "read_all", "storage.table_read")
    # policies: the epoch plan.
    loads = lambda plan, args: plan.total_partition_loads   # noqa: E731
    wrap(CometPolicy, "plan_epoch", "policies.plan", count=loads)
    wrap(BetaPolicy, "plan_epoch", "policies.plan", count=loads)
    # train: negatives, evaluation, snapshots.
    wrap(UniformNegativeSampler, "sample", "train.negatives")
    wrap(UniformNegativeSampler, "set_allowed", "train.negatives")
    for cls in (lp.LinkPredictionTrainer, lp.DiskLinkPredictionTrainer,
                nc.NodeClassificationTrainer):
        wrap(cls, "evaluate", "train.eval")
    wrap(SnapshotManager, "save", "train.snapshot")
    # serve: engine calls and the in-process micro-batcher.
    for attr in ("get_embeddings", "score_edges"):
        wrap(ServingEngine, attr, "serve.engine",
             count=lambda out, args: len(args[1]))
        wrap(RequestBatcher, attr, "serve.batcher")
    # fleet: the frame-protocol round trip to a worker.
    wrap(WorkerClient, "request", "fleet.worker_rtt")
    # stream: appends, WAL fsync, compaction, refresh, event synthesis.
    wrap(LiveGraph, "insert_edges", "stream.append")
    wrap(LiveGraph, "delete_edges", "stream.append")
    wrap(LiveGraph, "add_nodes", "stream.append")
    wrap(WriteAheadLog, "sync", "stream.wal_sync")
    wrap(Compactor, "compact", "stream.compact")
    wrap(ContinualTrainer, "refresh", "stream.refresh")
    wrap(stream_pkg, "synth_events", "stream.synth")
    wrap(jobs.StreamJob, "verify", "stream.verify")


#: The per_layer metric names, in BENCHMARK.json order.
PER_LAYER = (
    "graph.generate_s",
    "core.sample_ms", "core.sampled_nodes", "core.reindex_ms", "core.self_s",
    "nn.forward_ms", "nn.decode_ms", "nn.backward_ms", "nn.optimizer_ms",
    "nn.self_s",
    "storage.swap_ms", "storage.gather_ms", "storage.apply_ms",
    "storage.bucket_read_ms", "storage.bytes_read", "storage.bytes_written",
    "storage.partition_loads", "storage.prefetch_hit_ratio",
    "storage.swaps_per_1k", "storage.self_s",
    "policies.plan_ms", "policies.loads_per_epoch", "policies.self_s",
    "train.epoch0_s", "train.epoch_s", "train.eval_s", "train.snapshot_s",
    "train.loop_self_s", "train.batches", "train.self_s",
    "serve.engine_ms", "serve.batcher_ms", "serve.batch_size",
    "serve.self_s",
    "fleet.http_ms", "fleet.http_p99_ms", "fleet.worker_rtt_ms",
    "fleet.gateway_ms", "fleet.route_skew", "fleet.gen_lag_p90_ms",
    "fleet.stop_s", "fleet.self_s",
    "stream.append_ms", "stream.wal_sync_ms", "stream.wal_syncs",
    "stream.compact_s", "stream.refresh_s", "stream.verify_s",
    "stream.self_s",
    "obs.trace_overhead", "obs.unattributed_frac", "obs.spans",
)


def _mean_ms(summary: Dict[str, Dict[str, float]], name: str) -> float:
    entry = summary.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return 1000.0 * entry["total_s"] / entry["count"]


def _total_s(summary: Dict[str, Dict[str, float]], name: str) -> float:
    entry = summary.get(name)
    return entry["total_s"] if entry else 0.0


def layer_metrics(tracer, root_id: Optional[int],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    Span times and counts come from every thread. The layer self times
    (``<layer>.self_s``) are taken below the run's root span when there
    is one, so that they plus the root's own self time (reported as
    ``obs.unattributed_frac`` of it) add up to the root exactly; without
    a root they cover every span. ``extra`` supplies what spans cannot
    see (storage counters, epoch times from the listener hook, fleet
    stats); it overrides computed values with the same name.
    """
    summary = tracer.summary()
    scoped = summary if root_id is None else tracer.summary(
        tracer.descendants(root_id))
    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for layer in LAYERS:
        if f"{layer}.self_s" in out:
            out[f"{layer}.self_s"] = sum(entry["self_s"] for name, entry
                                         in scoped.items()
                                         if name.startswith(layer + "."))
    out["graph.generate_s"] = _total_s(summary, "graph.generate")
    out["core.sample_ms"] = _mean_ms(summary, "core.sample")
    samples = summary.get("core.sample", {}).get("count", 0)
    out["core.sampled_nodes"] = (tracer.counts["core.sample"] / samples
                                 if samples else 0.0)
    out["core.reindex_ms"] = _mean_ms(summary, "core.reindex")
    for name in ("forward", "decode", "backward", "optimizer"):
        out[f"nn.{name}_ms"] = _mean_ms(summary, f"nn.{name}")
    for name in ("swap", "gather", "apply", "bucket_read"):
        out[f"storage.{name}_ms"] = _mean_ms(summary, f"storage.{name}")
    out["policies.plan_ms"] = _mean_ms(summary, "policies.plan")
    plans = summary.get("policies.plan", {}).get("count", 0)
    out["policies.loads_per_epoch"] = (tracer.counts["policies.plan"] / plans
                                       if plans else 0.0)
    out["train.eval_s"] = _total_s(summary, "train.eval")
    out["train.snapshot_s"] = _total_s(summary, "train.snapshot")
    out["train.batches"] = float(summary.get("nn.backward", {})
                                 .get("count", 0))
    out["serve.engine_ms"] = _mean_ms(summary, "serve.engine")
    out["serve.batcher_ms"] = _mean_ms(summary, "serve.batcher")
    out["stream.append_ms"] = _mean_ms(summary, "stream.append")
    out["stream.wal_sync_ms"] = _mean_ms(summary, "stream.wal_sync")
    out["stream.wal_syncs"] = float(summary.get("stream.wal_sync", {})
                                    .get("count", 0))
    out["stream.compact_s"] = _total_s(summary, "stream.compact")
    out["stream.refresh_s"] = _total_s(summary, "stream.refresh")
    out["stream.verify_s"] = _total_s(summary, "stream.verify")
    out["obs.spans"] = float(len(tracer.spans))
    out.update(extra)
    return out


def table_rows(tracer) -> List[str]:
    """The human-readable span table: count, total and self per boundary."""
    rows = [f"  {'span':<22} {'count':>8} {'total_s':>10} {'self_s':>10}"]
    for name, entry in sorted(tracer.summary().items()):
        rows.append(f"  {name:<22} {entry['count']:>8} "
                    f"{entry['total_s']:>10.4f} {entry['self_s']:>10.4f}")
    return rows
