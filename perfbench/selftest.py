#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload it makes one untraced
and one traced run on toy-size inputs and checks that every metric
declared in BENCHMARK.json is emitted with its unit, that the result line
has exactly the keys the driver reads, that every output check passed,
and that the traced run's span tree holds the span of every layer the
workload exercises. Last, it checks that a directory holding only
BENCHMARK.json and the benchmark refuses to run. Exits 1 on any failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SECONDS = "3"
# The spans each workload's traced run must hold: one per public call
# the per-layer metrics are read from.
SPANS = {
    "serve-large": [
        "setup", "gen.graph_giant", "store.write", "serve.spawn", "store.map",
        "graph.csr_validate", "serve.wire.encode", "serve.wire.decode", "serve.ping",
        "load.request", "load.send_lag", "load.closed", "parallel.batch",
        "search.request", "search.oracle_start", "search.run",
    ],
    "grid": [
        "fabric.prepare", "fabric.run", "fabric.shard", "fabric.task", "fabric.merge",
        "parallel.mapi", "core.task", "core.task_replay", "gen.graph_giant",
        "search.oracle_start", "search.run",
    ],
}
SPANS["serve-small"] = SPANS["serve-large"]
LAYERS = ["search", "gen", "graph", "store", "serve", "load", "parallel", "core", "fabric"]

failures = []


def fail(msg):
    failures.append(msg)
    print("FAIL " + msg, flush=True)


def run(workload, trace, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def check_result(workload, trace, declared, p):
    tag = "%s trace=%d" % (workload, trace)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s: exit %d\n%s" % (tag, p.returncode, p.stderr[-2000:]))
        return []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (tag, sorted(result)))
    if result.get("correct") is not True:
        fail("%s: an output check failed: %s" % (tag, [l for l in lines if "FAILED" in l]))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail("%s: attempted/failed %r/%r" % (tag, result["attempted"], result["failed"]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(declared):
        fail("%s: metrics %s differ from declared %s"
             % (tag, sorted(set(metrics) ^ set(declared)), ""))
    printed = {l.split()[1]: l for l in lines
               if l.split()[0] in ("metric", "traced-metric", "layer")}
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            fail("%s: %s has unit %r, declared %r" % (tag, name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            fail("%s: %s value %r" % (tag, name, m.get("value")))
        if trace == 0 and m["value"] <= 0:
            fail("%s: end-to-end metric %s is %r" % (tag, name, m["value"]))
        line = printed.get(name, "")
        if unit not in line.split() or " n=" not in line:
            fail("%s: %s not printed with unit and sample count: %r" % (tag, name, line))
    return lines


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    seen = set()
    # serve-small is not declared but shares the serve code; test it too
    for w in [x["name"] for x in bench["workloads"]] + ["serve-small"]:
        check_result(w, 0, e2e, run(w, 0))
        lines = check_result(w, 1, layers, run(w, 1))
        names = next((l.split()[1:] for l in lines if l.startswith("span-names")), [])
        missing = [s for s in SPANS[w] if s not in names]
        if missing:
            fail("%s: traced run lacks spans %s" % (w, missing))
        seen.update(n.split(".")[0] for n in names)
        trace_file = os.path.join(".bench_build", "results", "trace-%s-seed7.json" % w)
        try:
            with open(trace_file) as fh:
                if not json.load(fh).get("traceEvents"):
                    fail("%s: empty Perfetto trace" % w)
        except (OSError, ValueError) as e:
            fail("%s: Perfetto trace unreadable: %s" % (w, e))
        print("ok %s" % w, flush=True)
    if [l for l in LAYERS if l not in seen]:
        fail("no traced run covers layers %s" % [l for l in LAYERS if l not in seen])
    # a directory with only the benchmark in it must refuse to run
    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    p = run(bench["workloads"][0]["name"], 0, cwd=bare)
    if p.returncode == 0 or p.stdout.strip():
        fail("bare directory: exit %d, stdout %r" % (p.returncode, p.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)
    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
