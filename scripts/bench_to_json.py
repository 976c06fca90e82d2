#!/usr/bin/env python3
"""Convert `go test -bench` output (stdin) to the BENCH_*.json schema.

The schema is one object: environment header fields (goos/goarch/cpu/...)
as emitted by the Go benchmark runner, the benchtime the run used, an
optional peak_rss_kb (the bench process tree's maximum resident set, as
measured by GNU time around the whole run), and a `results` array with
one entry per benchmark line — name, iteration count, ns/op, and any
extra ReportMetric pairs under `metrics`.

On a multi-core host `go test -bench` appends a `-<GOMAXPROCS>` suffix to
every name (`BenchmarkDetect/example/RV-2`). The suffix is stripped so
snapshots from hosts of any core count share benchmark names, and its
value is recorded as `gomaxprocs` in the header.

Usage: bench_to_json.py [benchtime] [--peak-rss-kb KB] < bench.out
"""

import json
import re
import sys


def main() -> None:
    argv = sys.argv[1:]
    peak_rss_kb = None
    if "--peak-rss-kb" in argv:
        i = argv.index("--peak-rss-kb")
        peak_rss_kb = int(argv[i + 1])
        del argv[i:i + 2]
    benchtime = argv[0] if argv else ""
    meta = {}
    if peak_rss_kb is not None:
        meta["peak_rss_kb"] = peak_rss_kb
    results = []
    for line in sys.stdin:
        line = line.strip()
        m = re.match(r"^(goos|goarch|pkg|cpu):\s*(.+)$", line)
        if m:
            meta[m.group(1)] = m.group(2)
            continue
        if not line.startswith("Benchmark"):
            continue
        fields = line.split()
        if len(fields) < 4 or fields[3] != "ns/op":
            continue
        name = fields[0]
        m = re.match(r"^(.*)-(\d+)$", name)
        if m:
            name = m.group(1)
            meta["gomaxprocs"] = int(m.group(2))
        entry = {
            "name": name,
            "iterations": int(fields[1]),
            "ns_per_op": float(fields[2]),
        }
        metrics = {}
        i = 4
        while i + 1 < len(fields):
            try:
                value = float(fields[i])
            except ValueError:
                break
            metrics[fields[i + 1]] = value
            i += 2
        if metrics:
            entry["metrics"] = metrics
        results.append(entry)
    json.dump({"benchtime": benchtime, **meta, "results": results},
              sys.stdout, indent=2)
    sys.stdout.write("\n")


main()
