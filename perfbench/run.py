#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the library, rn_serve and the
benchmark driver into .bench_build/ (perfbench/CMakeLists.txt pulls the
repository in unchanged), generates every input of the workload from --seed,
runs the workload for about --seconds, checks every output, prints the
metrics by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced pass plus a serial layer replay, and reports the per-layer
metrics. perfbench/NOTES.md explains the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
RN_SERVE = os.path.join(BUILD_DIR, "rn", "rn_serve")
DRIVER_TIMEOUT_S = 170

BATCH = {
    "layered-300k": {
        "topology": "layered:depth=50,width=6000,edge_prob=0.0067",
        "protocols": "decay,gst-known",
        "messages": 1,
        "trials": 2,
    },
    "kmsg-pipeline": {
        "topology": "layered:depth=50,width=100,edge_prob=0.2",
        "protocols": "rlnc-unknown-cd",
        "messages": 8,
        "trials": 8,
    },
    "dist-2rank": {
        "topology": "layered:depth=50,width=2000,edge_prob=0.01",
        "protocols": "decay,gst-known",
        "messages": 1,
        "trials": 4,
        "ranks": 2,
    },
}
SERVE_HIT = {
    "topology": "layered:depth=50,width=2000,edge_prob=0.01",
    "protocols": "decay,gst-known",
    "messages": 1,
    "trials": 4,
}
SERVE_MISS = {
    "topology": "layered:depth=50,width=200,edge_prob=0.1",
    "protocols": "decay,gst-known",
    "messages": 1,
    "trials": 4,
}
SERVE_HITS, SERVE_MISSES, SERVE_REJECTS = 110, 20, 20
SERVE_REJECT_TRIALS = 5000  # above rn_serve's default --max-trials 4096
SERVE_INVALID = [
    ("{not json", "bad-json"),
    ('{"id": 7, "method": "run", "topology": "nosuch:n=5"}', "bad-request"),
    ('{"id": 8, "method": "fly"}', "bad-request"),
    ('{"id": 9, "method": "run", "topology": "path:n=8",'
     ' "protocols": "no-such-protocol"}', "bad-request"),
]
SERVE_CONNECTIONS = 2
SERVE_SETUP_STARTS = 15
WORKLOADS = [*BATCH, "serve-mix"]

# Layer figures printed for the workloads they apply to, outside the JSON.
EXTRA_LAYERS = {
    "baseline.decay_ms": "ms", "core.gst_known_ms": "ms",
    "core.gst_unknown_cd_ms": "ms", "core.rlnc_unknown_cd_ms": "ms",
    "coding.relay_ms": "ms", "radio.shard_busy_ms": "ms",
    "dist.setup_ms": "ms", "dist.merge_ms": "ms",
    "dist.rank_peak_rss_mb": "MB", "sim.coord_peak_rss_mb": "MB",
    "sim.workers": "count", "graph.nodes": "count",
}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg: str) -> None:
    print(msg, flush=True)


# --- build -------------------------------------------------------------------

def build() -> None:
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the repository root: CMakeLists.txt and "
                         "src/ are missing, so there is nothing to build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.log"), "ab") as out:
        steps = [["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_driver", "rn_serve"]]
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", os.path.relpath(HERE), "-B",
                             BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (see "
                                 f"{BUILD_DIR}/build.log)")


def fingerprint(simd_detected: str, simd_active: str) -> dict[str, Any]:
    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        except OSError:
            return "unknown"

    cache: dict[str, str] = {}
    for line in read(os.path.join(BUILD_DIR, "CMakeCache.txt")).splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    mem_kb = next((int(line.split()[1]) for line in
                   read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    return {
        "nproc": os.cpu_count(),
        "simd_detected": simd_detected,
        "simd_active": simd_active,
        "l3": l3_size(read("/sys/devices/system/cpu/cpu0/cache/index3/size")),
        "ram_gb": round(mem_kb / 2**20, 1),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "source": source_id(),
    }


def l3_size(text: str) -> str:
    """sysfs writes cache sizes as e.g. "307200K"."""
    if text.endswith("K") and text[:-1].isdigit():
        return f"{int(text[:-1]) / 1024:g} MiB"
    return text


def source_id() -> str:
    """The commit when run in a git work tree, else a digest of the sources."""
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=False)
        if got.returncode == 0:
            return "commit " + got.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "tools"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "sources sha256:" + h.hexdigest()[:12]


# --- driver ------------------------------------------------------------------

def die_with_parent() -> None:
    """Child-side: get SIGTERM when this runner dies, however it dies, so no
    driver or daemon outlives a run (prctl PR_SET_PDEATHSIG)."""
    ctypes.CDLL(None).prctl(1, signal.SIGTERM)


def run_driver(job: dict[str, Any], name: str) -> dict[str, Any]:
    out_dir = os.path.join(RUN_DIR, name)
    os.makedirs(out_dir, exist_ok=True)
    job = dict(job, out_dir=out_dir)
    job_path = os.path.join(out_dir, "job.json")
    with open(job_path, "w", encoding="utf-8") as f:
        json.dump(job, f)
    with subprocess.Popen([DRIVER, job_path],
                          preexec_fn=die_with_parent) as proc:
        try:
            code = proc.wait(timeout=DRIVER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise BenchError(f"driver exited with {code}")
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as f:
        report: dict[str, Any] = json.load(f)
    report["dir"] = out_dir
    return report


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def request_line(spec: dict[str, Any], rid: int, trials: int | None = None
                 ) -> str:
    return json.dumps({
        "id": rid, "method": "run", "topology": spec["topology"],
        "protocols": spec["protocols"], "messages": spec["messages"],
        "trials": trials if trials is not None else spec["trials"],
        "seed": spec["seed"]})


def results_ok(data: bytes, spec: dict[str, Any]) -> bool:
    """The rn-bench-v2 results contract for one ad-hoc run."""
    try:
        doc = json.loads(data)
        exp = doc[0]
        scen = exp["scenarios"][0]
        metrics = scen["metrics"]
        return (len(doc) == 1 and exp["schema"] == "rn-bench-v2"
                and exp["experiment"] == "adhoc" and exp["seed"] == spec["seed"]
                and exp["trials"] == spec["trials"]
                and scen["topology"] == spec["topology"]
                and set(metrics) == set(spec["protocols"].split(","))
                and all(m["count"] == spec["trials"] and m["min"] > 0
                        for m in metrics.values()))
    except (ValueError, KeyError, IndexError, TypeError):
        return False


def expected_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        table: dict[str, dict[str, str]] = json.load(f)["sha256"]
    return table.get(workload, {}).get(str(seed))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile_label(n: int) -> tuple[str, float] | None:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for label, q in (("p99", 0.99), ("p90", 0.90), ("p50", 0.50)):
        if n * (1 - q) >= 10:
            return label, q
    return None


def percentile(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def layer_metrics(layers: dict[str, Any], svc: dict[str, float]
                  ) -> dict[str, float]:
    out = {k: float(v) for k, v in layers.items()
           if isinstance(v, (int, float))}
    out.update(svc)
    return out


def svc_probe_medians(rows: list[dict[str, Any]]) -> dict[str, float]:
    out = {}
    for key in ("parse_ms", "validate_ms", "cache_get_ms"):
        out["svc." + key] = median([r[key] for r in rows if key in r])
    return out


def print_layers(layers: dict[str, Any]) -> None:
    """Layer figures outside the JSON: those that apply to some workloads
    only, span self times, and the trace's own overhead."""
    for name, unit in EXTRA_LAYERS.items():
        if name in layers:
            log(f"  {name} {float(layers[name]):.6g} {unit}")
    self_ms = layers.get("self_ms", {})
    log("  self time of each span name in the traced pass (ms): " +
        ", ".join(f"{k}={v:.2f}" for k, v in sorted(self_ms.items())))
    wall = (layers["trace.wall_ms"] - layers["trace.untraced_wall_ms"]) / 1e3
    cpu = layers["trace.cpu_s"] - layers["trace.untraced_cpu_s"]
    log(f"  tracing overhead (traced - untraced run, the untraced one first "
        f"in its process): wall {wall:+.4f} s, cpu {cpu:+.4f} s; wall share "
        f"no span covers {layers['trace.uncovered_share']:.6f}")


# --- batch workloads -----------------------------------------------------------

def run_batch(name: str, seed: int, seconds: int, trace: bool,
              rng: random.Random) -> tuple[int, int, dict[str, float], dict]:
    cfg = BATCH[name]
    ranks = cfg.get("ranks", 0)
    spec = {k: cfg[k] for k in ("topology", "protocols", "messages", "trials")}
    spec["seed"] = rng.randrange(1, 2**53)
    job: dict[str, Any] = {
        "dist_ranks": ranks, "setup_samples": 0 if trace else 3, "trace": trace,
        "workload": spec,
        # Untraced: repeat the run for the time budget, at least twice.
        # Traced: one untraced run to compare bytes and overhead against,
        # then the traced run.
        "seconds": 0 if trace else seconds, "min_iterations": 1 if trace else 2,
    }
    if trace:
        job["requests"] = [request_line(spec, 1)]
    if ranks:
        job["extra"] = [spec]  # in-process reference for the fleet's bytes
    log(f"{name}: {spec['topology']} protocols={spec['protocols']} "
        f"messages={spec['messages']} trials={spec['trials']} "
        f"ranks={ranks or 'in-process'} run-seed={spec['seed']}")
    report = run_driver(job, name)
    data = read_bytes(os.path.join(report["dir"], "results.json"))
    digest = hashlib.sha256(data).hexdigest()
    want = expected_digest(name, seed)
    whole_ok = results_ok(data, spec) and (want is None or want == digest)
    if ranks:
        whole_ok &= data == read_bytes(os.path.join(report["dir"],
                                                    "extra_0.json"))
    iters = report["iterations"]
    attempted = len(iters)
    failed = sum(1 for it in iters if not (whole_ok and it["matches_first"]))
    log(f"  results sha256 {digest} ({'pinned' if want else 'not pinned'} "
        f"for seed {seed}; {'ok' if whole_ok else 'MISMATCH'})")
    if ranks:
        log(f"  rank fleet bytes == in-process bytes: "
            f"{'yes' if whole_ok else 'NO'}")
    for i, it in enumerate(iters):
        log(f"  run {i}: wall {it['wall_ms'] / 1e3:.4f} s, cpu "
            f"{it['cpu_s']:.3f} s, peak {it['peak_rss_kb'] / 1024:.1f} MB")
    # Memory: the first run's peak, the one a fresh process (a user's
    # bench_suite or rn_dist run) has; later runs add whatever the allocator
    # kept from earlier ones.
    metrics = {
        "wall_s": median([it["wall_ms"] for it in iters]) / 1e3,
        "cpu_s": median([it["cpu_s"] for it in iters]),
        "setup_s": median(report["setup_cpu_ms"]) / 1e3,
        "peak_rss_mb": iters[0]["peak_rss_kb"] / 1024,
    }
    log(f"  set-up: median {metrics['setup_s'] * 1e3:.3f} ms CPU, "
        f"{median(report['setup_ms']):.3f} ms wall, "
        f"{len(report['setup_ms'])} samples")
    if trace:
        attempted += 1
        failed += 0 if report["traced_identical"] else 1
        log(f"  traced results bytes == untraced: "
            f"{'yes' if report['traced_identical'] else 'NO'}")
        layers = report["layers"]
        metrics = layer_metrics(layers, svc_probe_medians(layers["svc_probe"]))
        print_layers(layers)
    return attempted, failed, metrics, report


# --- serve-mix -----------------------------------------------------------------

class Daemon:
    """One rn_serve process on a Unix socket under RUN_DIR."""

    def __init__(self, index: int) -> None:
        self.path = os.path.join(RUN_DIR, f"serve{index}.sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([RN_SERVE, "--socket", self.path],
                                     stdout=subprocess.DEVNULL,
                                     preexec_fn=die_with_parent)
        try:
            while True:
                try:
                    probe = self.connect()
                    break
                except OSError:
                    if (self.proc.poll() is not None
                            or time.perf_counter() - t0 > 30):
                        raise BenchError("rn_serve did not start") from None
                    time.sleep(0.0005)
            self.setup_s = time.perf_counter() - t0
            # Read before closing the probe: its connection thread exits on
            # EOF, and an exited thread's time leaves the per-thread files.
            self.setup_cpu_s = self.cpu_ns() / 1e9
            probe.close()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def cpu_s(self) -> float:
        """User + system CPU seconds of the daemon so far, exited threads
        (closed connections) included."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="utf-8") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def cpu_ns(self) -> int:
        """CPU nanoseconds of the daemon's live threads (schedstat), at a
        finer grain than cpu_s's clock ticks."""
        total = 0
        for task in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                with open(f"/proc/{self.proc.pid}/task/{task}/schedstat",
                          encoding="utf-8") as f:
                    total += int(f.read().split()[0])
            except FileNotFoundError:
                pass  # a thread that exited after the listing
        return total

    def connect(self) -> socket.socket:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(self.path)
        except OSError:
            s.close()
            raise
        return s

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0


    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.connect() as s:
                    s.sendall(b'{"id": 0, "method": "shutdown"}\n')
                    s.recv(4096)
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        if os.path.exists(self.path):
            os.unlink(self.path)


def serve_script(rng: random.Random, hit: dict[str, Any], first_id: int
                 ) -> tuple[list[tuple[str, str, Any]], list[dict[str, Any]]]:
    """One shuffled pass: (class, line, expectation) triples plus the fresh
    miss specs it introduces."""
    items: list[tuple[str, str, Any]] = []
    misses = []
    for _ in range(SERVE_MISSES):
        spec = dict(SERVE_MISS, seed=rng.randrange(1, 2**53))
        misses.append(spec)
        items.append(("miss", "", spec))
    items += [("hit", "", hit)] * SERVE_HITS
    items += [("reject", "", hit)] * SERVE_REJECTS
    items += [("invalid", line, code) for line, code in SERVE_INVALID]
    rng.shuffle(items)
    out = []
    for i, (cls, line, want) in enumerate(items):
        rid = first_id + i
        if cls in ("hit", "miss"):
            line = request_line(want, rid)
        elif cls == "reject":
            line = request_line(want, rid, SERVE_REJECT_TRIALS)
        out.append((cls, line, want))
    return out, misses


def closed_loop(daemon: Daemon, script: list[tuple[str, str, Any]]
                ) -> tuple[float, list[tuple[str, Any, float, dict]]]:
    """SERVE_CONNECTIONS clients, each sending its next request only after
    the previous response arrived. Returns the pass wall time and, per
    request, (class, expectation, latency ms, response)."""
    lock = threading.Lock()
    queue = list(enumerate(script))
    results: list[Any] = [None] * len(script)
    errors: list[BaseException] = []

    def client() -> None:
        try:
            with daemon.connect() as s, s.makefile("rb") as reader:
                while True:
                    with lock:
                        if not queue:
                            return
                        i, (cls, line, want) = queue.pop(0)
                    t0 = time.perf_counter()
                    s.sendall(line.encode() + b"\n")
                    resp = reader.readline()
                    ms = (time.perf_counter() - t0) * 1e3
                    results[i] = (cls, want, ms, json.loads(resp))
        except (OSError, ValueError) as ex:
            errors.append(ex)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(SERVE_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors or any(r is None for r in results):
        raise BenchError(f"serve-mix client failed: {errors[:1]}")
    return wall, results


def response_ok(cls: str, want: Any, resp: dict[str, Any],
                expected: dict[int, bytes]) -> bool:
    if cls == "invalid":
        return resp.get("status") == "error" and resp.get("code") == want
    if cls == "reject":
        return resp.get("status") == "error" and resp.get("code") == "over-budget"
    return (resp.get("status") == "ok" and resp.get("cache") == cls
            and resp.get("payload", "").encode() == expected[want["seed"]])


def run_serve(seed: int, seconds: int, trace: bool, rng: random.Random
              ) -> tuple[int, int, dict[str, float], dict]:
    hit = dict(SERVE_HIT, seed=rng.randrange(1, 2**53))
    log(f"serve-mix: rn_serve --socket (default 2 workers), "
        f"{SERVE_CONNECTIONS} closed-loop connections; hit key "
        f"{hit['topology']} trials={hit['trials']} run-seed={hit['seed']}; "
        f"misses on {SERVE_MISS['topology']}")
    setups = []
    setups_wall = []
    daemon = None
    try:
        for k in range(SERVE_SETUP_STARTS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(k)
            setups.append(daemon.setup_cpu_s)
            setups_wall.append(daemon.setup_s)
        assert daemon is not None
        # Untimed warm-up: computes the hit key once, so every timed hit is a
        # cache hit.
        warm_wall, warm = closed_loop(daemon, [("miss", request_line(hit, 0),
                                               hit)])
        warm_peak_kb = daemon.peak_rss_kb()
        log(f"  warm-up miss on the hit key: {warm_wall:.3f} s, daemon peak "
            f"{warm_peak_kb / 1024:.1f} MB")
        passes = []
        cpu = []
        results = list(warm)
        misses = []
        budget_start = time.perf_counter()
        next_id = 1
        while True:
            script, fresh = serve_script(rng, hit, next_id)
            next_id += len(script)
            misses += fresh
            cpu0 = daemon.cpu_s()
            wall, got = closed_loop(daemon, script)
            passes.append(wall)
            cpu.append(daemon.cpu_s() - cpu0)
            log(f"  pass {len(passes) - 1}: wall {wall:.4f} s, daemon cpu "
                f"{cpu[-1]:.2f} s")
            results += got
            elapsed = time.perf_counter() - budget_start
            if trace or elapsed + wall > seconds:
                break
        peak_kb = daemon.peak_rss_kb()
    finally:
        if daemon is not None:
            daemon.stop()

    # Reference bytes: the in-process batch run of every key served.
    job: dict[str, Any] = {"dist_ranks": 0, "setup_samples": 0, "trace": trace,
                           "seconds": 0, "min_iterations": 1,
                           "extra": [hit, *misses]}
    if trace:
        probe = [request_line(hit, 1)] * 5
        probe += [request_line(hit, 2, SERVE_REJECT_TRIALS)] * 3
        probe += [request_line(m, 3) for m in misses[:3]]
        probe += [line for line, _ in SERVE_INVALID]
        job.update(workload=hit, requests=probe)
    report = run_driver(job, "serve-mix")
    expected = {s["seed"]: read_bytes(os.path.join(report["dir"],
                                                   f"extra_{i}.json"))
                for i, s in enumerate([hit, *misses])}
    expected_ok = results_ok(expected[hit["seed"]], hit)
    want = expected_digest("serve-mix", seed)
    digest = hashlib.sha256(expected[hit["seed"]]).hexdigest()
    expected_ok &= want is None or want == digest
    log(f"  hit-key batch sha256 {digest} "
        f"({'pinned' if want else 'not pinned'} for seed {seed}; "
        f"{'ok' if expected_ok else 'MISMATCH'})")

    attempted = len(results)
    failed = sum(1 for cls, w, _, r in results
                 if not (expected_ok and response_ok(cls, w, r, expected)))
    by_class: dict[str, list[float]] = {}
    for cls, _, ms, _ in results[len(warm):]:
        by_class.setdefault(cls, []).append(ms)
    for cls in ("hit", "miss", "reject", "invalid"):
        lat = by_class.get(cls, [])
        q = quantile_label(len(lat))
        tail = f", {q[0]} {percentile(lat, q[1]):.3f} ms" if q and q[0] != "p50" else ""
        note = "" if q else " (too few samples for a percentile)"
        log(f"  {cls}_p50_ms {median(lat):.3f} ms{tail} n={len(lat)}{note}")
    log(f"  {len(results) - len(warm)} timed requests in "
        f"{len(passes)} passes")
    log(f"  daemon start-up: median {median(setups) * 1e3:.3f} ms CPU, "
        f"{median(setups_wall) * 1e3:.3f} ms wall, {len(setups)} starts")
    # The daemon's peak through its cold run of the hit key. The peak at the
    # end of the pass is printed but not gated: it swings by about 70 MB
    # from run to run with how the allocator's thread arenas happen to
    # retain memory under 2 connections and 2 workers.
    metrics = {"wall_s": median(passes), "cpu_s": median(cpu),
               "setup_s": median(setups), "peak_rss_mb": warm_peak_kb / 1024}
    if trace:
        attempted += 1
        failed += 0 if report["traced_identical"] else 1
        log(f"  traced results bytes == untraced: "
            f"{'yes' if report['traced_identical'] else 'NO'}")
        layers = report["layers"]
        rows = layers["svc_probe"]
        hit_rows = rows[:5]
        svc = svc_probe_medians(hit_rows)
        metrics = layer_metrics(layers, svc)
        print_layers(layers)
        ok_resp = [(c, ms, r) for c, _, ms, r in results[len(warm):]
                   if r.get("status") == "ok"]
        hits = [(ms, r) for c, ms, r in ok_resp if c == "hit"]
        wait = median([ms - r["wall_ms"] - svc["svc.parse_ms"]
                       - svc["svc.validate_ms"] for ms, r in hits])
        extras = {
            "svc.queue_wait_ms": wait,
            "svc.run_ms": median([r["wall_ms"] for c, _, r in ok_resp
                                  if c == "miss"]),
            "svc.render_ms": float(layers["sim.render_ms"]),
            "svc.hit_ratio": len(hits) / max(1, len(ok_resp)),
            "svc.reject_validate_ms": median(
                [r["validate_ms"] for r in rows[5:8]]),
            "svc.miss_validate_ms": median(
                [r["validate_ms"] for r in rows[8:11]]),
        }
        for name, value in extras.items():
            log(f"  {name} {value:.6g} {'ratio' if 'ratio' in name else 'ms'}")
    log(f"  daemon peak RSS at the end of the pass {peak_kb / 1024:.1f} MB")
    return attempted, failed, metrics, report


# --- main ----------------------------------------------------------------------

def cpu_ticks() -> list[int]:
    with open("/proc/stat", encoding="utf-8") as f:
        return [int(x) for x in f.readline().split()[1:]]


def on_signal(signum: int, _frame: Any) -> None:
    # Unwinds through the finally blocks that stop the driver and rn_serve.
    raise BenchError(f"stopped by signal {signum}")


def main() -> int:
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        if os.path.isdir(RUN_DIR):
            shutil.rmtree(RUN_DIR)
        os.makedirs(RUN_DIR)
        # Every input of the run derives from (workload, seed) alone.
        rng = random.Random(f"{args.workload}/{args.seed}")
        ticks0 = cpu_ticks()
        if args.workload == "serve-mix":
            attempted, failed, metrics, report = run_serve(
                args.seed, args.seconds, bool(args.trace), rng)
        else:
            attempted, failed, metrics, report = run_batch(
                args.workload, args.seed, args.seconds, bool(args.trace), rng)
    except (BenchError, OSError, subprocess.TimeoutExpired) as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 1
    ticks = [b - a for a, b in zip(ticks0, cpu_ticks())]
    fp = fingerprint(report["simd_detected"], report["simd_active"])
    # Field 8 of /proc/stat's cpu line: time the hypervisor ran something
    # else on the host's CPUs. It slows wall time, not CPU time.
    fp["steal_share"] = round(ticks[7] / max(1, sum(ticks)), 4)
    log("host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    layers = report.get("layers", {})
    if "graph.csr_mb" in layers:
        log(f"working set: graph CSR {layers['graph.csr_mb']:.1f} MB per trial "
            f"graph (the radio network holds a second copy) against L3 {fp['l3']}")
    units = declared("per_layer" if args.trace else "end_to_end")
    if not args.trace:
        # Printed, not in the JSON: on a shared virtual machine the
        # hypervisor's steal time swings wall time by 20-35 % between runs
        # of one seed on dist-2rank, whose rounds wait on rank round trips.
        log(f"wall_s {metrics['wall_s']:.6g} s (printed, not gated)")
    for name, unit in units.items():
        log(f"{name} {metrics[name]:.6g} {unit}")
    log(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
        f"operations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
