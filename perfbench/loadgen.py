"""Seeded serving queries and the open-loop HTTP load generator.

The generator runs in a process of its own, apart from the system under
test (``python3 perfbench/loadgen.py`` reads a JSON job on stdin and
writes a JSON result on stdout), so its timing does not share an
interpreter lock with the gateway.

It is an *open loop*: request ``i`` is due at ``start + i / rate``
whatever happened to earlier requests, and its latency is timed from
that due time, so a stall is charged to every request queued behind it.
It sends over a fixed number of persistent keep-alive connections
(HTTP/1.1, Nagle off), one sender thread per connection, and closes
every connection it opens before it returns.

*Generator lag* is how late a sender that was idle and sleeping toward a
due time actually sent; it measures the generator and the host's timer
wake-ups, not the system. A request picked up after its due time because
both connections were busy is backlog, and is charged to latency instead.
A measurement taken while the generator lagged is not counted as met:
the fixed-rate phase is retried, and the attempt with the least lag is
reported.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

# One query: (HTTP path, JSON body as a dict).
Request = Tuple[str, Dict]

FIXED_RATE = 120.0           # req/s for p50: well below the knee
LAG_VALID_MS = 0.25          # fixed-phase p90 generator lag above this: retry
ATTEMPTS = 3
LADDER_BASE = 150.0          # the qps_max ladder: LADDER_BASE * 1.05**k
RUNG_RATIO = 1.05
RUNG_SECONDS = 1.0
LATENCY_LIMIT_MS = 30.0      # p95 limit for a rung to hold
GEN_LAG_LIMIT_MS = 2.0       # p90 generator lag above this voids a rung
GIVE_UP_MS = 250.0           # a rung whose backlog reaches this has failed


def make_queries(seed: int, count: int, num_nodes: int,
                 score_share: float = 0.2, max_pairs: int = 8,
                 exponent: float = 1.3) -> List[Request]:
    """The serving mix: single-id embedding lookups plus a ``score_share``
    of small ``/v1/score`` batches (2..max_pairs pairs). Node ids are
    Zipf-ranked over a seeded permutation, so the hot set is scattered
    across partitions instead of packed into the first one."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_nodes)

    def zipf(size: int) -> np.ndarray:
        return perm[np.minimum(rng.zipf(exponent, size=size), num_nodes) - 1]

    ids = zipf(count)
    is_score = rng.random(count) < score_share
    sizes = rng.integers(2, max_pairs + 1, size=count)
    out: List[Request] = []
    for i in range(count):
        if is_score[i]:
            src = [int(ids[i])] + zipf(sizes[i] - 1).tolist()
            dst = zipf(sizes[i]).tolist()
            out.append(("/v1/score",
                        {"pairs": [[int(s), int(d)] for s, d in zip(src, dst)]}))
        else:
            out.append(("/v1/embeddings", {"ids": [int(ids[i])]}))
    return out


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class HttpClient:
    """One persistent keep-alive HTTP/1.1 connection with Nagle off."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host, self.port, self.timeout = host, int(port), timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def call(self, method: str, path: str, body: Optional[bytes] = None
             ) -> Tuple[int, bytes]:
        """Send one request; returns ``(status, body)``. A transport
        error closes the connection (the next call reconnects) and
        re-raises."""
        if self._conn is None:
            self._conn = self._connect()
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class OpenLoopResult:
    rate: float
    latency_ms: np.ndarray            # completion - due time, per request
    service_ms: np.ndarray            # completion - send time, per request
    status: np.ndarray                # HTTP status, -1 on transport error
    gen_lag_ms: np.ndarray            # idle-sender lateness (NaN if busy)
    elapsed_s: float
    bodies: Dict[int, str] = field(default_factory=dict)
    unsent: int = 0

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(self.status != 200))

    def summary(self) -> Dict[str, float]:
        lat = self.latency_ms
        lag = self.gen_lag_ms[~np.isnan(self.gen_lag_ms)]
        return {"rate": self.rate, "n": int(lat.size),
                "unsent": self.unsent, "failed": self.failed,
                "p50_ms": percentile(lat, 50), "p90_ms": percentile(lat, 90),
                "p99_ms": percentile(lat, 99), "max_ms": float(lat.max()),
                "service_mean_ms": float(self.service_ms.mean()),
                "gen_lag_p90_ms": percentile(lag, 90) if lag.size else 0.0,
                "achieved_per_s": lat.size / self.elapsed_s}


def open_loop(host: str, port: int, requests: Sequence[Request],
              rate: float, connections: int, keep_every: int = 0,
              give_up_ms: float = 0.0) -> OpenLoopResult:
    """Send ``requests`` at ``rate`` per second (``math.inf``: as fast as
    the connections allow) over ``connections`` keep-alive connections.
    ``keep_every`` > 0 keeps each ``keep_every``-th response body for an
    offline correctness check. ``give_up_ms`` > 0 stops sending once a
    request is picked up that much past its due time -- the backlog is
    already growing -- and leaves the rest unsent (not failed)."""
    n = len(requests)
    bodies = [json.dumps(body).encode() for _, body in requests]
    latency = np.zeros(n)
    service = np.zeros(n)
    status = np.full(n, -2, dtype=np.int64)     # -2: never sent
    lag = np.full(n, np.nan)
    kept: Dict[int, str] = {}
    cursor = iter(range(n))
    cursor_lock = threading.Lock()
    gave_up = threading.Event()
    start = time.perf_counter() + 0.02

    def sender() -> None:
        client = HttpClient(host, port)
        try:
            while True:
                with cursor_lock:
                    i = next(cursor, None)
                if i is None or gave_up.is_set():
                    return
                due = start + i / rate
                now = time.perf_counter()
                if give_up_ms and now - due > give_up_ms / 1000.0:
                    gave_up.set()
                    return
                if now < due:
                    time.sleep(due - now)
                    lag[i] = 1000.0 * (time.perf_counter() - due)
                sent = time.perf_counter()
                try:
                    code, payload = client.call("POST", requests[i][0],
                                                bodies[i])
                except (OSError, http.client.HTTPException):
                    code, payload = -1, b""
                done = time.perf_counter()
                latency[i] = 1000.0 * (done - due)
                service[i] = 1000.0 * (done - sent)
                status[i] = code
                if keep_every and i % keep_every == 0:
                    kept[i] = payload.decode("utf-8", "replace")
        finally:
            client.close()

    threads = [threading.Thread(target=sender, name=f"loadgen-{k}")
               for k in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    sent = status != -2
    return OpenLoopResult(rate=rate, latency_ms=latency[sent],
                          service_ms=service[sent], status=status[sent],
                          gen_lag_ms=lag[sent], elapsed_s=elapsed,
                          bodies=kept, unsent=int(n - np.count_nonzero(sent)))


def ladder(host: str, port: int, queries: Sequence[Request],
           capacity: float, connections: int):
    """qps_max: the highest rung of the fixed ladder that holds -- no
    failures, p95 within the limit, no growing backlog, and a generator
    that kept up. A rate above the saturated ``capacity`` cannot hold and
    half of it nearly always does, so the rungs in between are bisected;
    every probe uses fresh queries. Returns ``(qps_max, rungs, sent,
    failed)``."""
    rungs: List[Dict[str, Any]] = []
    offset = sent = failed = 0

    def holds(k: int) -> bool:
        nonlocal offset, sent, failed
        rate = LADDER_BASE * RUNG_RATIO ** k
        n = int(rate * RUNG_SECONDS)
        result = open_loop(host, port, queries[offset:offset + n], rate,
                           connections, give_up_ms=GIVE_UP_MS)
        offset += n
        lat = result.latency_ms
        sent += lat.size
        failed += result.failed
        if lat.size == 0:
            rungs.append({"rate": round(rate, 1), "holds": False, "sent": 0})
            return False
        quarter = max(1, lat.size // 4)
        ok = (result.unsent == 0 and result.failed == 0
              and result.summary()["gen_lag_p90_ms"] <= GEN_LAG_LIMIT_MS
              and np.percentile(lat, 95) <= LATENCY_LIMIT_MS
              and (np.median(lat[-quarter:])
                   <= 2.0 * np.median(lat[:quarter]) + 5.0))
        rungs.append({"rate": round(rate, 1), "holds": bool(ok),
                      "sent": int(lat.size),
                      "p95_ms": round(float(np.percentile(lat, 95)), 2)})
        return ok

    hi = math.ceil(math.log(capacity / LADDER_BASE, RUNG_RATIO))
    lo = bottom = math.floor(math.log(capacity / 2 / LADDER_BASE, RUNG_RATIO))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    if lo == bottom:
        while not holds(lo) and lo > bottom - 20:
            lo -= 1
    return LADDER_BASE * RUNG_RATIO ** lo, rungs, sent, failed


def query_count(fixed_n: int, sat_n: int) -> int:
    """Queries one :func:`run_load` job draws from (all attempts plus the
    ladder); the caller regenerates the same list to check responses."""
    return ATTEMPTS * (fixed_n + sat_n) + 10_000


def run_load(job: Dict[str, Any]) -> Dict[str, Any]:
    """The generator process's work for one measurement.

    ``job``: ``host``, ``port``, ``seed``, ``num_nodes``, ``fixed_n``
    (requests at the fixed rate), ``sat_n`` (requests with both
    connections kept busy; 0 = skip), ``ladder`` (bool). Each attempt is
    a fixed-rate phase then a saturated phase over fresh queries; the
    first attempt whose generator kept time is kept, else the one with
    the least lag. Kept response bodies are keyed by query index.
    """
    host, port = job["host"], int(job["port"])
    fixed_n, sat_n = int(job["fixed_n"]), int(job["sat_n"])
    connections = int(job["connections"])
    per_attempt = fixed_n + sat_n
    queries = make_queries(int(job["seed"]), query_count(fixed_n, sat_n),
                           int(job["num_nodes"]))
    attempts = []
    sent = failed = 0
    for a in range(ATTEMPTS):
        base = a * per_attempt
        fixed = open_loop(host, port, queries[base:base + fixed_n],
                          FIXED_RATE, connections, keep_every=10)
        entry = {"base": base, "fixed": fixed, "throughput": 0.0}
        sent += fixed.latency_ms.size
        failed += fixed.failed
        if sat_n:
            saturated = open_loop(host, port,
                                  queries[base + fixed_n:base + per_attempt],
                                  math.inf, connections)
            sent += saturated.latency_ms.size
            failed += saturated.failed
            entry["throughput"] = (saturated.latency_ms.size
                                   / saturated.elapsed_s)
        attempts.append(entry)
        if fixed.summary()["gen_lag_p90_ms"] <= LAG_VALID_MS:
            break
    best = min(attempts,
               key=lambda e: e["fixed"].summary()["gen_lag_p90_ms"])
    out: Dict[str, Any] = {
        "fixed": best["fixed"].summary(),
        "throughput": best["throughput"],
        "kept": {str(best["base"] + i): body
                 for i, body in best["fixed"].bodies.items()},
        "attempts": [{"gen_lag_p90_ms": e["fixed"].summary()["gen_lag_p90_ms"],
                      "p50_ms": e["fixed"].summary()["p50_ms"],
                      "throughput": e["throughput"]} for e in attempts],
    }
    if job.get("ladder"):
        qps_max, rungs, ladder_sent, ladder_failed = ladder(
            host, port, queries[ATTEMPTS * per_attempt:],
            best["throughput"], connections)
        out.update({"qps_max": qps_max, "ladder": rungs})
        sent += ladder_sent
        failed += ladder_failed
    out.update({"sent": sent, "failed": failed})
    return out


if __name__ == "__main__":
    json.dump(run_load(json.load(sys.stdin)), sys.stdout)
