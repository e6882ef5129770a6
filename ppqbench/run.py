#!/usr/bin/env python3
"""Build and run the PPQ-trajectory benchmark.

One run (from the root of a checkout):

    python3 ppqbench/run.py --workload porto-1shard --seed 1 --seconds 10 --trace 0

builds ppqbench/ (and with it the repository's libraries, Release) into
.bench_build/ppqbench, runs one workload and passes its output through;
the last line is the JSON result. --trace 1 prints the per-layer metrics
instead of the end-to-end ones.

--seed drives the request lists; the dataset comes from --data-seed
(default 42, the dataset the benchmark is gated on; see README.md "Seeds").

Spread of repeated runs, each on its own seed:

    python3 ppqbench/run.py spread --workload live-durable --runs 5 --seed 100

prints, per metric, the median, the quartile spread as a share of the
median, and the bound BENCHMARK.json gives it.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "ppqbench")
BINARY = os.path.join(BUILD_DIR, "ppq_perfbench")
WORKLOADS = ("porto-1shard", "porto-8shard", "live-durable")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; build output to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        log("configuring: " + " ".join(cmd))
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "ppq_perfbench",
           "-j", "4"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def run_once(workload, seed, seconds, trace, data_seed=None):
    """Run one workload; returns (exit code, stdout text)."""
    scratch = os.path.join(BUILD_ROOT, f"run-{workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", scratch]
    if data_seed is not None:
        cmd += ["--data-seed", str(data_seed)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log(f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s")
        shutil.rmtree(scratch, ignore_errors=True)
        return 1, out
    shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, out


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def spread(args):
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            for m in json.load(f).get("end_to_end", []):
                bounds[m["name"]] = m["bound"]
    values, shares = {}, []
    for i in range(args.runs):
        seed = args.seed + i
        code, out = run_once(args.workload, seed, args.seconds, args.trace,
                             args.data_seed)
        result = last_json(out) if code == 0 else None
        if result is None:
            log(f"seed {seed}: run failed (exit {code})")
            return 1
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"seed {seed}: done")
    if args.verbose:
        for name, v in values.items():
            print(f"{name:28} " + " ".join(f"{x:.4g}" for x in v))
    print(f"{'metric':28} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and share > bound / 3:
            flag = "  > bound/3"
        print(f"{name:28} {med:14.6g} {share:11.4f} "
              f"{bound if bound is not None else '-':>7}{flag}")
    print(f"failed share per run: {sorted(set(shares))}")
    return 0


def main():
    argv = sys.argv[1:]
    spread_mode = bool(argv) and argv[0] == "spread"
    if spread_mode:
        argv = argv[1:]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--data-seed", type=int, default=None,
                   help="datagen seed (default: the gated dataset, 42)")
    p.add_argument("--runs", type=int, default=5, help="spread: run count")
    p.add_argument("--verbose", action="store_true",
                   help="spread: also print every run's value")
    args = p.parse_args(argv)
    if not build():
        log("build failed")
        return 1
    if spread_mode:
        return spread(args)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace,
                         args.data_seed)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
