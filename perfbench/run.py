#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload serve-large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a checkout. Builds the benchmark and the two
executables it drives (bin/sfserve, bin/sffabric) from source with dune
into .bench_build/, records provenance, runs the workload and prints its
lines; the last line of standard output is the JSON result. Exits
non-zero, without a result line, when the checkout cannot be built, and
non-zero after the result line when an output check failed.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

WORKLOADS = ["serve-large", "serve-small", "grid"]
BUILD = ".bench_build"
RESULTS = os.path.join(BUILD, "results")
TARGETS = ["./perfbench/perfbench.exe", "./bin/sfserve.exe", "./bin/sffabric.exe"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Caller-side settings the spawned server and workers would otherwise
# pick up: a corpus cache, a telemetry socket, a job count.
SCRUB_ENV = ["SCALEFREE_CORPUS", "SCALEFREE_TELEMETRY", "SCALEFREE_JOBS"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for path in ["dune-project", "lib", "bin", "perfbench/dune"]:
        if not os.path.exists(path):
            die("not a scalefree checkout (missing %s); run from its root" % path)


def build():
    os.makedirs(BUILD, exist_ok=True)
    build_dir = os.path.abspath(os.path.join(BUILD, "dune"))
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir] + TARGETS
    # no shared dune cache: the build reads and writes inside the checkout only
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune not found on PATH")
    except subprocess.TimeoutExpired:
        die("build did not finish in %d s" % BUILD_TIMEOUT_S)
    if r.returncode != 0:
        die("build failed (exit %d)" % r.returncode)
    return {t: os.path.join(BUILD, "dune", "default", t[2:]) for t in TARGETS}


def source_digest():
    h = hashlib.sha256()
    files = ["dune-project", "BENCHMARK.json"]
    for top in ["lib", "bin", "perfbench"]:
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")))
            files += [os.path.join(root, n) for n in sorted(names)]
    for f in files:
        if os.path.isfile(f):
            h.update(f.encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:20]


def commit_id():
    """The git commit when this is a git work tree, else a digest of the
    sources; never 'unknown'."""
    if os.path.isdir(".git"):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                  timeout=10).stdout.strip()
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=10).stdout.strip()
            if head:
                return head + ("-dirty" if dirty else "")
        except (OSError, subprocess.SubprocessError):
            pass
    for var in ["SFBENCH_COMMIT", "GITHUB_SHA"]:
        if os.environ.get(var, "").strip():
            return os.environ[var].strip()
    return source_digest()


def cpu_times():
    """(steal, total) jiffies of all CPUs from /proc/stat; zeros off Linux."""
    try:
        with open("/proc/stat") as fh:
            f = [int(x) for x in fh.readline().split()[1:]]
        return f[7] if len(f) > 7 else 0, sum(f)
    except (OSError, ValueError):
        return 0, 0


def provenance(args):
    commit = commit_id()
    if not commit or commit == "unknown":
        die("cannot resolve the commit; refusing to record a result without one")
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": commit,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": platform.node(),
        "nproc": nproc,
        "loadavg_1m_before": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_metric_lines(lines, tag):
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == tag:
            out[parts[1]] = (float(parts[2]), parts[3], parts[4])
    return out


def result_path(args, trace, toy):
    return os.path.join(RESULTS, "%s-seed%d-trace%d%s.json"
                        % (args.workload, args.seed, trace, "-toy" if toy else ""))


def overhead_lines(args, lines, toy):
    """Traced run: the gap to the untraced run at the same seed, when this
    checkout has one."""
    path = result_path(args, 0, toy)
    traced = parse_metric_lines(lines, "traced-metric")
    if not os.path.exists(path):
        return ["# tracing overhead: no untraced run at seed %d in this checkout" % args.seed]
    with open(path) as fh:
        untraced = json.load(fh)["result"]["metrics"]
    out = []
    for name, (v, unit, _) in traced.items():
        if name in untraced and untraced[name]["value"]:
            u = untraced[name]["value"]
            out.append("# tracing overhead: %s traced %.6g %s vs untraced %.6g %s (%+.1f%%)"
                       % (name, v, unit, u, unit, 100.0 * (v - u) / u))
    return out


def run_one(args, exes, toy):
    prov = provenance(args)
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [exes["./perfbench/perfbench.exe"], "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sfserve", exes["./bin/sfserve.exe"], "--sffabric", exes["./bin/sffabric.exe"],
           "--work", os.path.join(BUILD, "work"), "--results", RESULTS, "--toy", "1" if toy else "0"]
    env = {k: v for k, v in os.environ.items() if k not in SCRUB_ENV}
    steal0, total0 = cpu_times()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die("workload %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S), 3)
    steal1, total1 = cpu_times()
    # CPU time taken by the hypervisor from this machine during the run
    prov["cpu_steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    lines = out.splitlines()
    print("provenance " + json.dumps(prov, sort_keys=True))
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        for line in lines:
            print(line)
        die("workload %s failed (exit %d)" % (args.workload, p.returncode), p.returncode or 1)
    result = json.loads(lines[-1])
    body = lines[:-1]
    if args.trace == 1:
        body += overhead_lines(args, body, toy)
    for line in body:
        print(line)
    params = next((json.loads(l[len("params "):]) for l in body if l.startswith("params ")), {})
    record = {"provenance": prov, "params": params, "lines": body, "result": result}
    with open(result_path(args, args.trace, toy), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(lines[-1], flush=True)
    return result, body


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy-size inputs, for the self-test; not a measurement")
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    check_checkout()
    exes = build()
    if args.workload != "all":
        result, _ = run_one(args, exes, args.toy)
        sys.exit(0 if result["correct"] else 1)
    ok = True
    for w in WORKLOADS:
        args.workload = w
        result, body = run_one(args, exes, args.toy)
        ok = ok and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
