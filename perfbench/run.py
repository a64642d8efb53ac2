"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table of a traced run next to an untraced run of the same work. Every
measurement runs in a fresh process (``workloads.py``); set-up is timed
in three of them and reported as the median. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``name -> {value, unit}``). The host, every check that
failed and the raw per-process results are kept under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0                 # every run must end within 180 s
# Set-up-only processes per untraced run, besides the measured one. Set-up
# is short and noisy, so it is sampled several times; the NC set-up
# generates a 300k-node graph (~4 s) and the fleet's needs a snapshot
# and two spawned workers, so those two get fewer.
SETUP_PROCESSES = {"train-nc-deep": 2, "serve-fleet-http": 2}
DEFAULT_SETUP_PROCESSES = 4


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_record() -> Dict[str, Any]:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


class Child:
    """Runs ``workloads.py`` roles in fresh process groups, in order."""

    def __init__(self, args: argparse.Namespace, work: Path,
                 deadline: float) -> None:
        self.args, self.work, self.deadline = args, work, deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # One BLAS thread per process: on a small host, BLAS worker threads
        # spin against the program's own threads (prefetcher, gateway,
        # workers) and add run-to-run noise larger than the bounds.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env["TMPDIR"] = str(tmp)      # keep every write in the checkout

    def run(self, role: str) -> Dict[str, Any]:
        out = self.work / f"{role}-{time.monotonic_ns()}.json"
        cmd = [sys.executable, str(HERE / "workloads.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--role", role,
               "--work", str(self.work), "--out", str(out)]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _kill_group(proc)
        if code is None:
            raise RuntimeError(f"role {role} did not finish within the "
                               f"{BUDGET_S:.0f}s budget")
        if code != 0:
            raise RuntimeError(f"role {role} exited with code {code}")
        return json.loads(out.read_text())


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the child and anything it spawned; wait until all are gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def measure(args: argparse.Namespace, child: Child) -> Dict[str, Any]:
    """Untraced: set-up-only processes, then the measured one. Each
    metric a set-up process also reports (set-up time; for the fleet,
    its stop time) is the median over all of them."""
    if args.workload == "serve-fleet-http":
        child.run("prepare")
    count = SETUP_PROCESSES.get(args.workload, DEFAULT_SETUP_PROCESSES)
    setups = [child.run("setup") for _ in range(count)]
    result = child.run("measure")
    for name in setups[0]["metrics"]:
        samples = [s["metrics"][name] for s in setups]
        samples.append(result["metrics"][name])
        result["metrics"][name] = statistics.median(samples)
        result["info"][f"{name}_samples"] = samples
    for setup in setups:
        result["attempted"] += setup["attempted"]
        result["failed"] += setup["failed"]
        result["problems"] += setup["problems"]
    return result


def traced(args: argparse.Namespace, child: Child) -> Dict[str, Any]:
    """The same work untraced, then traced; the gap is the overhead."""
    if args.workload == "serve-fleet-http":
        child.run("prepare")
    base = child.run("baseline")
    result = child.run("traced")
    result["layers"]["obs.trace_overhead"] = (
        result["primary_s"] / base["primary_s"] - 1.0)
    result["attempted"] += base["attempted"]
    result["failed"] += base["failed"]
    result["problems"] += base["problems"]
    result["info"]["baseline_primary_s"] = base["primary_s"]
    return result


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{names}", file=sys.stderr)
        return 2
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    host = host_record()
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    child = Child(args, work, started + BUDGET_S)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result = (traced if args.trace else measure)(args, child)
        for spans in work.glob("spans-*.jsonl"):
            spans.replace(results / f"{stem}.spans.jsonl")
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = result["layers"] if args.trace else result["metrics"]
    metrics: Dict[str, Dict[str, Any]] = {}
    for spec in wanted:
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            print(f"perfbench: metric {spec['name']} missing or not finite",
                  file=sys.stderr)
            return 1
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    attempted, failed = int(result["attempted"]), int(result["failed"])
    correct = failed == 0 and attempted > 0 and (
        args.trace or all(m["value"] > 0 for m in metrics.values()))

    (results / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "host": host, "result": result}, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"({time.monotonic() - started:.1f}s)")
    print("host " + json.dumps(host))
    for name, value in sorted(result["info"].items()):
        if not isinstance(value, (list, dict)):
            print(f"  info {name} = {value}")
    if args.trace:
        print("\n".join(result["table"]))
    print(f"  {'metric':<26} {'value':>14} unit")
    for name, entry in metrics.items():
        print(f"  {name:<26} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'failed_frac':<26} {failed / max(1, attempted):>14.6g} "
          f"({failed} of {attempted} operations)")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
