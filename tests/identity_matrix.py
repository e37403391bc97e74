#!/usr/bin/env python3
"""Results-JSON identity matrix across execution settings, registered with ctest.

The results JSON must not depend on how a run executes. This script runs the
built binaries under each setting that must not matter and byte-compares the
results files (the Python equivalent of `cmp`):

  * trial-pool threads:  e1 -t 8 at -j 1 and -j 8;
                         e2 -t 8 at -j 1, -j 2 and -j 8;
  * fast-forward:        e1 and e3 -t 2 -j 2, e6 and e7 (recruiting and the
                         assignment problem alone), and a small layered ad-hoc
                         gst-unknown-cd run and rlnc-unknown-cd --messages 4
                         run, each with and without --no-fast-forward (e3 is
                         the only experiment that runs rlnc-unknown-cd);
  * distributed backend: the layered n = 10^4 workload through rn_dist at
                         --ranks 1/2/4 x --intra-trial-threads 1/2 against the
                         single-process bench_suite run, plus the rank fields
                         of the rn_dist timing sidecar on a healthy run.

Usage: identity_matrix.py --build-dir DIR    (exit 0 = every comparison holds)
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SMALL_LAYERED = "layered:depth=12,width=10,edge_prob=0.3"
LAYERED = [
    "--topology", "layered:depth=50,width=200,edge_prob=0.1",
    "--protocol", "decay,gst-known", "--trials", "4", "--threads", "2",
]


class Matrix:
    def __init__(self, build: Path, work: Path) -> None:
        self.build = build
        self.work = work
        self.failures: list[str] = []

    def run(self, binary: str, args: list[str], out: str) -> Path:
        """Runs build/BINARY ARGS --json WORK/OUT; returns the JSON path."""
        path = self.work / out
        cmd = [str(self.build / binary), *args, "--json", str(path)]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        return path

    def same(self, what: str, ref: Path, other: Path) -> None:
        if ref.read_bytes() == other.read_bytes():
            print(f"ok    {what}")
        else:
            print(f"FAIL  {what}: {ref.name} and {other.name} differ")
            self.failures.append(what)


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Results-JSON identity matrix across execution settings.")
    ap.add_argument("--build-dir", required=True, type=Path)
    build = ap.parse_args().build_dir.resolve()

    with tempfile.TemporaryDirectory(prefix="rn_identity_") as tmp:
        m = Matrix(build, Path(tmp))

        e1 = m.run("bench_suite", ["-e", "e1", "-t", "8", "-j", "1"], "e1_j1.json")
        m.same("e1 -j 1 vs -j 8", e1,
               m.run("bench_suite", ["-e", "e1", "-t", "8", "-j", "8"], "e1_j8.json"))
        e2 = m.run("bench_suite", ["-e", "e2", "-t", "8", "-j", "1"], "e2_j1.json")
        for j in ("2", "8"):
            m.same(f"e2 -j 1 vs -j {j}", e2,
                   m.run("bench_suite", ["-e", "e2", "-t", "8", "-j", j],
                         f"e2_j{j}.json"))

        fast_forward_cases = [
            (e, ["-e", e, "-t", "2", "-j", "2"]) for e in ("e1", "e3")
        ] + [(e, ["-e", e, "-j", "2"]) for e in ("e6", "e7")] + [
            (name, ["--topology", SMALL_LAYERED, "--protocol", *protocol,
                    "-t", "4", "-j", "2"])
            for name, protocol in (
                ("gst-unknown-cd", ["gst-unknown-cd"]),
                ("rlnc-unknown-cd", ["rlnc-unknown-cd", "--messages", "4"]))
        ]
        for name, args in fast_forward_cases:
            m.same(f"{name} fast-forward vs --no-fast-forward",
                   m.run("bench_suite", args, f"{name}_ff.json"),
                   m.run("bench_suite", [*args, "--no-fast-forward"],
                         f"{name}_naive.json"))

        local = m.run("bench_suite", LAYERED, "dist_local.json")
        for ranks in ("1", "2", "4"):
            for walkers in ("1", "2"):
                name = f"dist_r{ranks}_t{walkers}"
                timing = m.work / f"{name}_timing.json"
                m.same(f"rn_dist --ranks {ranks} --intra-trial-threads {walkers}",
                       local,
                       m.run("rn_dist",
                             ["--ranks", ranks, "--intra-trial-threads", walkers,
                              *LAYERED, "--timing", str(timing)],
                             f"{name}.json"))
        sidecar = json.loads(timing.read_text())
        healthy = (sidecar.get("schema") == "rn-bench-timing-v7"
                   and len(sidecar.get("peak_rss_kb_per_rank", [])) == 4
                   and sidecar.get("dist_rank_restarts") == 0
                   and sidecar.get("dist_reassigned_blocks") == 0)
        print(f"{'ok  ' if healthy else 'FAIL'}  rn_dist v7 sidecar rank fields")
        if not healthy:
            m.failures.append("rn_dist sidecar")

    if m.failures:
        print(f"{len(m.failures)} comparison(s) failed: {', '.join(m.failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
