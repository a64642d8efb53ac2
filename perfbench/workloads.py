"""The benchmark's workloads; each invocation is one fresh process.

``run.py`` calls this file once per role, so that peak RSS and the first
epoch of every measurement start clean::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds T \\
        --role ROLE --work DIR --out FILE.json

Roles:

* ``prepare`` -- build inputs that are not part of any timed region
  (the serving snapshot);
* ``setup``   -- time one set-up (build until ready) and exit;
* ``measure`` -- set up, run the workload untraced, check its outputs;
* ``baseline``/``traced`` -- the short form a traced run compares:
  the same work without and with spans on every layer boundary.

Inputs come only from ``--seed``; the program sees a job spec and the
generated queries, never the seed's meaning. ``--seconds`` sizes the
timed work (epochs, events, load duration), so a run measures about that
long. Jobs are built and run through ``repro.api``; the serving boundary
replays and the output checks call the public classes directly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import loadgen
from layers import instrument, layer_metrics, table_rows
from loadgen import HttpClient, make_queries
from repro.api import (CheckpointSpec, DataSpec, FleetSpec, JobSpec,
                       ModelSpec, ServeSpec, StorageSpec, StreamSpec,
                       TrainSpec, build_job)
from repro.api.jobs import build_serving_engine
from repro.fleet.protocol import WorkerClient
from repro.serve import RequestBatcher
from repro.train import SnapshotManager, restore_for_inference
from spans import Tracer

# Fleet workers are spawned, and spawn re-imports this main module in
# every worker: keep the module level to imports and definitions.
HERE = Path(__file__).resolve().parent


def peak_rss_mb(pid: Any = "self") -> float:
    """The OS high-water mark of resident memory (VmHWM), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Run:
    """What one role reports back to ``run.py``."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.info: Dict[str, Any] = {}
        self.primary_s = 0.0          # the time obs.trace_overhead compares
        self.layers: Dict[str, float] = {}
        self.table: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def to_dict(self) -> Dict[str, Any]:
        return {"metrics": self.metrics, "attempted": self.attempted,
                "failed": self.failed, "problems": self.problems,
                "info": self.info, "primary_s": self.primary_s,
                "layers": self.layers, "table": self.table}


class Context:
    """One role's arguments, work directory and (traced role) tracer."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = int(args.seed)
        self.seconds = int(args.seconds)
        self.work = Path(args.work).resolve()
        self.role = args.role
        self.tag = f"{args.role}-{os.getpid()}"    # this process's subdir
        self.tracer = None
        if self.role == "traced":
            self.tracer = Tracer()
            instrument(self.tracer)

    def dir(self, *parts: str) -> str:
        path = self.work.joinpath(*parts)
        path.mkdir(parents=True, exist_ok=True)
        return str(path)

    def root(self):
        return self.tracer.span("run") if self.tracer else nullcontext()


def build_timed(spec, on_event=None):
    """``repro.api.build_job`` and the seconds it took."""
    t0 = time.perf_counter()
    job = build_job(spec, on_event=on_event)
    return job, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------

class Training:
    """Shared shape of the training workloads: build, train a fixed
    number of epochs, final evaluation, snapshot, load the snapshot back."""

    quality_name = ""

    def epochs(self, seconds: int) -> int:
        return max(2, seconds // 2)

    def spec(self, ctx: Context, tag: str):
        raise NotImplementedError

    def samples_per_epoch(self, job) -> int:
        raise NotImplementedError

    def quality(self, result) -> float:
        raise NotImplementedError

    def restored_matches(self, job, restore) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def setup(self, ctx: Context, on_event=None):
        return build_timed(self.spec(ctx, ctx.tag), on_event)

    def measure(self, ctx: Context, run: Run) -> None:
        epochs: List[Dict[str, Any]] = []

        def on_event(event: str, payload: Dict[str, Any]) -> None:
            if event == "epoch":
                epochs.append(payload)

        job, setup_s = self.setup(ctx, on_event)
        with ctx.root() as root:
            t0 = time.perf_counter()
            result = job.run()
            snapshot = job.snapshot()
            train_s = time.perf_counter() - t0
        seconds = [float(e["seconds"]) for e in epochs]
        run.primary_s = train_s
        run.metrics.update({
            "setup_s": setup_s,
            "throughput_per_s": (self.samples_per_epoch(job) * len(seconds)
                                 / sum(seconds)),
            "p50_ms": 1000.0 * statistics.median(seconds),
            "wall_s": train_s,
            "peak_rss_mb": peak_rss_mb(),
        })
        quality = float(self.quality(result))
        run.info.update({self.quality_name: quality, "epochs": len(seconds),
                         "epoch_s": seconds})
        want = self.epochs(ctx.seconds)
        run.check(len(seconds) == want,
                  f"trained {len(seconds)} epochs, expected {want}")
        for e in epochs:
            run.check(math.isfinite(float(e["loss"])),
                      f"epoch {e['epoch']} loss is not finite: {e['loss']}")
        run.check(math.isfinite(quality) and quality > 0.0,
                  f"final {self.quality_name} {quality} is not positive")
        try:
            restore = restore_for_inference(snapshot)
            ok = (restore.trainer_kind == job.kind
                  and self.restored_matches(job, restore))
        except Exception as exc:     # any load failure is a failed check
            ok = False
            run.problems.append(f"restore_for_inference: {exc!r}")
        run.check(ok, "snapshot does not load back to the trained state")
        if ctx.tracer is not None:
            self.trace_metrics(ctx, run, job, root.id, seconds)

    def trace_metrics(self, ctx: Context, run: Run, job, root_id: int,
                      seconds: List[float]) -> None:
        trainer = job.trainer
        extra = {"train.epoch0_s": seconds[0],
                 "train.epoch_s": statistics.median(seconds[1:]),
                 "train.loop_self_s": _root_self(ctx.tracer, root_id)}
        io = getattr(trainer, "io", None)
        if io is not None:
            stats = io.as_dict()
            extra.update({
                "storage.bytes_read": float(stats["bytes_read"]),
                "storage.bytes_written": float(stats["bytes_written"]),
                "storage.partition_loads": float(stats["partition_loads"])})
        manager = getattr(trainer, "buffer_manager", None)
        if manager is not None and manager.hits + manager.misses:
            extra["storage.prefetch_hit_ratio"] = (
                manager.hits / (manager.hits + manager.misses))
        run.layers = _finish_layers(ctx, root_id, extra, run)


class TrainLpDisk(Training):
    """Disk-based link prediction: GraphSAGE + DistMult over a 25%
    resident partition buffer with the COMET policy."""

    quality_name = "mrr"

    def spec(self, ctx: Context, tag: str):
        return JobSpec(
            kind="lp-disk",
            data=DataSpec(dataset="freebase86m-mini", scale=1.0,
                          seed=ctx.seed),
            model=ModelSpec(dim=32, encoder="graphsage", fanouts=(10,),
                            decoder="distmult"),
            train=TrainSpec(batch_size=1000, negatives=100,
                            epochs=self.epochs(ctx.seconds), eval_every=0,
                            seed=ctx.seed),
            storage=StorageSpec(workdir=ctx.dir(tag, "store"), partitions=16,
                                logical=8, buffer=4, policy="comet"),
            checkpoint=CheckpointSpec(dir=ctx.dir(tag, "ckpt")))

    def samples_per_epoch(self, job) -> int:
        return len(job.dataset.split.train)

    def quality(self, result) -> float:
        return result.final_mrr

    def restored_matches(self, job, restore) -> bool:
        return bool(np.array_equal(restore.node_table,
                                   job.trainer.node_store.read_all()))


class TrainNcDeep(Training):
    """In-memory node classification with a 3-layer GraphSAGE
    (fanouts 15, 10, 5): DENSE sampling and the nn layer dominate."""

    quality_name = "accuracy"

    def spec(self, ctx: Context, tag: str):
        return JobSpec(
            kind="nc-mem",
            data=DataSpec(dataset="papers100m-mini", nodes=300_000,
                          seed=ctx.seed),
            model=ModelSpec(dim=32, encoder="graphsage", fanouts=(15, 10, 5)),
            train=TrainSpec(batch_size=256, epochs=self.epochs(ctx.seconds),
                            eval_every=0, seed=ctx.seed))

    def setup(self, ctx: Context, on_event=None):
        job, setup_s = super().setup(ctx, on_event)
        # nc-mem has no storage section; its snapshots go under the run's
        # own work directory instead of a system temp dir.
        job.trainer.snapshots = SnapshotManager(Path(ctx.dir(ctx.tag, "ckpt")))
        return job, setup_s

    def samples_per_epoch(self, job) -> int:
        return len(job.dataset.train_nodes)

    def quality(self, result) -> float:
        return result.final_accuracy

    def restored_matches(self, job, restore) -> bool:
        state = job.trainer.model.state_dict()
        return (set(state) == set(restore.model_state)
                and all(np.array_equal(state[k], restore.model_state[k])
                        for k in state))


# ---------------------------------------------------------------------------
# Streaming workload
# ---------------------------------------------------------------------------

class StreamIngest:
    """Durable streaming ingest with inline compaction and refresh."""

    def events(self, seconds: int) -> int:
        return 10_000 * seconds

    def spec(self, ctx: Context, tag: str):
        return JobSpec(
            kind="lp-stream",
            data=DataSpec(dataset="freebase86m-mini", scale=0.2,
                          seed=ctx.seed),
            model=ModelSpec(dim=32),
            train=TrainSpec(seed=ctx.seed),
            storage=StorageSpec(workdir=ctx.dir(tag, "stream"),
                                partitions=16, buffer=4),
            stream=StreamSpec(events=self.events(ctx.seconds),
                              delete_fraction=0.1, compact_every=20_000,
                              refresh=True, verify=False, wal=True,
                              fsync_every=8))

    def setup(self, ctx: Context, on_event=None):
        return build_timed(self.spec(ctx, ctx.tag), on_event)

    def measure(self, ctx: Context, run: Run) -> None:
        refreshes: List[Dict[str, Any]] = []

        def on_event(event: str, payload: Dict[str, Any]) -> None:
            if event == "refresh":
                refreshes.append(payload)

        job, setup_s = self.setup(ctx, on_event)
        with ctx.root() as root:
            t0 = time.perf_counter()
            stats = job.run()
            wall = time.perf_counter() - t0
        events = int(stats["driver"]["events"])
        run.primary_s = wall
        run.metrics.update({
            "setup_s": setup_s,
            "throughput_per_s": events / wall,
            "p50_ms": 1000.0 * statistics.median(
                float(r["seconds"]) for r in refreshes) if refreshes else 0.0,
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb(),
        })
        run.info.update({"events": events, "refreshes": len(refreshes),
                         "compactions": stats["compactions"],
                         "ingest_events_per_s":
                             stats["driver"]["events_per_sec"]})
        want = self.events(ctx.seconds)
        run.check(events >= 0.9 * want,
                  f"only {events} of {want} events acknowledged")
        run.check(len(refreshes) > 0, "no refresh ran")
        for r in refreshes:
            run.check(math.isfinite(float(r["loss"])),
                      f"refresh {r['refreshes']} loss is not finite")
        try:
            job.verify(job.workdir, verbose=False)
            ok = True
        except Exception as exc:     # JobError on divergence, or a crash
            ok = False
            run.problems.append(f"verify: {exc!r}")
        run.check(ok, "streamed state differs from an offline rebuild")
        if ctx.tracer is not None:
            run.layers = _finish_layers(ctx, root.id, {}, run)


# ---------------------------------------------------------------------------
# Serving workload
# ---------------------------------------------------------------------------

SATURATION_PER_S = 100       # requests per --seconds in the saturated phase
CONNECTIONS = min(2, os.cpu_count() or 1)


class ServeFleetHttp:
    """Two workers behind the HTTP gateway, open-loop Zipf load."""

    def snapshot_dir(self, ctx: Context) -> Path:
        return ctx.work / "snapshot"

    def prepare(self, ctx: Context) -> None:
        """Train a decoder-only disk model once and snapshot it."""
        spec = JobSpec(
            kind="lp-disk",
            data=DataSpec(dataset="freebase86m-mini", scale=1.0,
                          seed=ctx.seed),
            model=ModelSpec(dim=32, encoder="none", decoder="distmult"),
            train=TrainSpec(batch_size=1000, negatives=100, epochs=1,
                            eval_every=0, seed=ctx.seed),
            storage=StorageSpec(workdir=ctx.dir("prepare", "store"),
                                partitions=16, logical=8, buffer=4),
            checkpoint=CheckpointSpec(dir=str(self.snapshot_dir(ctx))))
        job = build_job(spec)
        job.run()
        job.snapshot()

    def spec(self, ctx: Context, tag: str):
        return JobSpec(
            kind="serve-fleet",
            serve=ServeSpec(snapshot=str(self.snapshot_dir(ctx))),
            storage=StorageSpec(workdir=ctx.dir(tag, "fleet"),
                                partitions=16, buffer=4),
            fleet=FleetSpec(workers=2, affinity="range", max_batch=128,
                            max_wait_ms=2.0))

    def setup(self, ctx: Context):
        """Spawn the fleet; ready once ``/healthz`` answers 200."""
        job = build_job(self.spec(ctx, ctx.tag))
        t0 = time.perf_counter()
        job.fleet.start()
        host, port = job.fleet.gateway.host, job.fleet.gateway.port
        deadline = t0 + 60.0
        while True:
            probe = HttpClient(host, port, timeout=5.0)
            try:
                status, _ = probe.call("GET", "/healthz")
            except OSError:
                status = -1
            finally:
                probe.close()        # no idle keep-alive left behind
            if status == 200:
                break
            if time.perf_counter() > deadline:
                self.stop(job)
                raise RuntimeError("fleet never reported healthy")
            time.sleep(0.01)
        return job, time.perf_counter() - t0

    def stop(self, job, bound_s: float = 20.0):
        """Drain-ordered stop, bounded; on a miss the workers are killed.
        Returns ``(seconds, within_bound)``."""
        pids = [int(info["pid"]) for info in job.fleet.worker_info]
        t0 = time.perf_counter()
        stopper = threading.Thread(target=job.fleet.stop, daemon=True,
                                   name="fleet-stop")
        stopper.start()
        stopper.join(bound_s)
        seconds = time.perf_counter() - t0
        if not stopper.is_alive():
            return seconds, True
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        stopper.join(5.0)
        return seconds, False

    def generate(self, fleet, job: Dict[str, Any]) -> Dict[str, Any]:
        """Run the load generator in a process of its own (see
        ``loadgen.run_load``) against the gateway; returns its result."""
        job = dict(job, host=fleet.gateway.host, port=fleet.gateway.port,
                   connections=CONNECTIONS)
        proc = subprocess.run([sys.executable, str(HERE / "loadgen.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"load generator failed: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout)

    def measure(self, ctx: Context, run: Run) -> None:
        job, setup_s = self.setup(ctx)
        fleet = job.fleet
        num_nodes = int(fleet.worker_info[0]["num_nodes"])
        fixed_n = int(loadgen.FIXED_RATE * 0.4 * ctx.seconds)
        # Capacity and the ladder are end-to-end numbers: untraced only.
        sat_n = SATURATION_PER_S * ctx.seconds if ctx.role == "measure" else 0
        queries = make_queries(ctx.seed, loadgen.query_count(fixed_n, sat_n),
                               num_nodes)
        try:
            if ctx.role == "traced":
                inner = self.replay_boundaries(ctx, run, fleet, queries[:600])
            with ctx.root() as root:
                load = self.generate(fleet, {
                    "seed": ctx.seed, "num_nodes": num_nodes,
                    "fixed_n": fixed_n, "sat_n": sat_n,
                    "ladder": ctx.role == "measure"})
            statz = self.statz(fleet.gateway.host, fleet.gateway.port)
            rss = peak_rss_mb() + sum(peak_rss_mb(info["pid"])
                                      for info in fleet.worker_info)
        finally:
            stop_s, stop_ok = self.stop(job)
        run.check(stop_ok, f"fleet stop missed its bound ({stop_s:.1f}s)")
        fixed = load["fixed"]
        run.attempted += load["sent"]
        run.failed += load["failed"]
        mismatches = self.check_responses(ctx, queries, load["kept"])
        run.attempted += len(load["kept"])
        run.failed += mismatches
        if mismatches:
            run.problems.append(f"{mismatches} sampled responses differ "
                                "from the in-process engine")
        run.primary_s = fixed["p50_ms"] / 1000.0
        run.metrics.update({
            "setup_s": setup_s,
            "throughput_per_s": load["throughput"],
            "p50_ms": fixed["p50_ms"],
            "wall_s": stop_s,
            "peak_rss_mb": rss,
        })
        run.info.update({"fixed_rate": fixed, "p99_ms": fixed["p99_ms"],
                         "p99_samples_beyond": int(fixed["n"] * 0.01),
                         "attempts": load["attempts"]})
        if "qps_max" in load:
            run.info.update({"qps_max": load["qps_max"],
                             "ladder": load["ladder"]})
        if ctx.tracer is not None:
            run.layers = self.serve_layers(ctx, run, root.id, fixed, statz,
                                           stop_s, inner)

    def statz(self, host: str, port: int) -> Dict[str, Any]:
        client = HttpClient(host, port)
        try:
            status, body = client.call("GET", "/statz")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"/statz answered {status}")
        return json.loads(body)

    def oracle(self, ctx: Context):
        """An in-process engine over the same snapshot and layout."""
        spec = self.spec(ctx, "oracle").resolve()
        return build_serving_engine(spec, Path(ctx.dir("oracle", "engine")))[2]

    def check_responses(self, ctx: Context, queries,
                        kept: Dict[str, str]) -> int:
        """Sampled HTTP responses must be bit-identical to the engine."""
        engine = self.oracle(ctx)
        bad = 0
        for key, raw in sorted(kept.items(), key=lambda kv: int(kv[0])):
            path, body = queries[int(key)]
            try:
                reply = json.loads(raw)
                if path == "/v1/embeddings":
                    got = np.asarray(reply["embeddings"], dtype=np.float32)
                    want = engine.get_embeddings(np.asarray(body["ids"]))
                else:
                    got = np.asarray(reply["scores"], dtype=np.float32)
                    want = engine.score_edges(np.asarray(body["pairs"]))
                same = got.shape == want.shape and np.array_equal(got, want)
            except (ValueError, KeyError, TypeError):
                same = False
            bad += not same
        return bad

    def replay_boundaries(self, ctx: Context, run: Run, fleet,
                          queries) -> Dict[str, float]:
        """The same query stream at each inner boundary, from outside:
        engine in-process, batcher in-process, one worker's protocol.
        Returns the per-boundary metrics."""
        engine = self.oracle(ctx)
        arrays = [(path, np.asarray(body.get("ids", body.get("pairs"))))
                  for path, body in queries]
        with ctx.tracer.span("serve.direct") as in_process:
            for path, arr in arrays:
                if path == "/v1/embeddings":
                    engine.get_embeddings(arr)
                else:
                    engine.score_edges(arr)
        with RequestBatcher(engine, max_batch=128,
                            max_wait_ms=2.0) as batcher:
            def client(part) -> None:
                for path, arr in part:
                    if path == "/v1/embeddings":
                        batcher.get_embeddings(arr)
                    else:
                        batcher.score_edges(arr)
            threads = [threading.Thread(target=client,
                                        args=(arrays[k::CONNECTIONS],))
                       for k in range(CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            batch_size = batcher.stats()["mean_batch"]
        info = fleet.worker_info[0]
        with WorkerClient(fleet.host, info["port"]) as worker:
            with ctx.tracer.span("fleet.direct") as direct:
                for path, body in queries:
                    op = "embed" if path == "/v1/embeddings" else "score"
                    reply = worker.request(op, **body)
                    run.check(bool(reply.get("ok")),
                              f"worker {op} failed: {reply.get('error')}")
        return {"serve.engine_ms": _mean_ms_below(ctx.tracer, in_process.id,
                                                  "serve.engine"),
                "serve.batch_size": float(batch_size),
                "fleet.worker_rtt_ms": _mean_ms_below(ctx.tracer, direct.id,
                                                      "fleet.worker_rtt")}

    def serve_layers(self, ctx: Context, run: Run, root_id: int,
                     fixed: Dict[str, float], statz: Dict[str, Any],
                     stop_s: float,
                     inner: Dict[str, float]) -> Dict[str, float]:
        tracer = ctx.tracer
        root = next(s for s in tracer.spans if s[0] == root_id)

        # The gateway threads' worker round trips during the HTTP phase;
        # the HTTP time itself is the generator's send-to-response mean.
        gateway_rtt = [s[5] - s[4] for s in tracer.spans
                       if s[2] == "fleet.worker_rtt"
                       and s[4] >= root[4] and s[5] <= root[5]]
        http_ms = fixed["service_mean_ms"]
        workers = statz["workers"]
        lookups = sum(w["serve"]["lookups"] for w in workers)
        swaps = sum(w["serve"]["swaps"] for w in workers)
        routed = [v for k, v in statz["gateway"].items()
                  if k.startswith("routed.")]
        extra = dict(inner)
        extra.update({
            "fleet.http_ms": http_ms,
            "fleet.http_p99_ms": fixed["p99_ms"],
            "fleet.gen_lag_p90_ms": fixed["gen_lag_p90_ms"],
            "fleet.gateway_ms": http_ms - 1000.0 * float(np.mean(gateway_rtt))
            if gateway_rtt else 0.0,
            "fleet.route_skew": (max(routed) * len(routed) / sum(routed)
                                 if routed else 0.0),
            "fleet.stop_s": stop_s,
            "storage.swaps_per_1k": 1000.0 * swaps / max(1, lookups),
            "storage.bytes_read": float(sum(
                w["storage"]["bytes_read"] for w in workers)),
            "storage.partition_loads": float(sum(
                w["storage"]["partition_loads"] for w in workers)),
        })
        return _finish_layers(ctx, None, extra, run)


# ---------------------------------------------------------------------------

def _root_self(tracer, root_id: int) -> float:
    return next(s[6] for s in tracer.spans if s[0] == root_id)


def _mean_ms_below(tracer, root_id: int, name: str) -> float:
    times = [s[5] - s[4] for s in tracer.descendants(root_id) if s[2] == name]
    return 1000.0 * sum(times) / len(times) if times else 0.0


def _finish_layers(ctx: Context, root_id: Optional[int],
                   extra: Dict[str, float], run: Run) -> Dict[str, float]:
    """Per-layer metrics, the span table, and the unattributed share."""
    tracer = ctx.tracer
    if root_id is not None:
        root = next(s for s in tracer.spans if s[0] == root_id)
        extra.setdefault("obs.unattributed_frac", root[6] / (root[5] - root[4]))
        run.info["root_s"] = root[5] - root[4]
        run.info["unattributed_s"] = root[6]
    tracer.dump(ctx.work / f"spans-{os.getpid()}.jsonl")
    run.table = table_rows(tracer)
    return layer_metrics(tracer, root_id, extra)


WORKLOADS = {
    "train-lp-disk": TrainLpDisk,
    "train-nc-deep": TrainNcDeep,
    "serve-fleet-http": ServeFleetHttp,
    "stream-ingest": StreamIngest,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--role", required=True,
                        choices=("prepare", "setup", "measure", "baseline",
                                 "traced"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    ctx = Context(args)
    workload = WORKLOADS[args.workload]()
    run = Run()
    if args.role == "prepare":
        workload.prepare(ctx)
    elif args.role == "setup":
        job, run.metrics["setup_s"] = workload.setup(ctx)
        if isinstance(workload, ServeFleetHttp):
            stop_s, ok = workload.stop(job)
            run.check(ok, f"fleet stop missed its bound ({stop_s:.1f}s)")
            run.metrics["wall_s"] = stop_s
    else:
        workload.measure(ctx, run)
    Path(args.out).write_text(json.dumps(run.to_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
