#!/usr/bin/env python3
"""Benchmark entry point: builds the runtime and harness, then measures.

  python3 perfbench/run.py --workload ccd --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seconds 20
  python3 perfbench/run.py --smoke
  python3 perfbench/run.py --compare A.json B.json

Run from the root of a checkout. The first invocation configures and
builds perfbench/ (which compiles ../src) under .bench_build/perfbench;
later ones only check that the build is current. All output of the build
goes to stderr; the last line of stdout is the result object. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
BINARY = os.path.join(BUILD, "sia_perfbench")
# Keep one invocation under three minutes once built; the harness binary
# enforces its own per-run deadline well inside this.
BINARY_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "sia_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_id():
    """Git revision when available, else a digest of the sources built."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10)
        toplevel, head = top.stdout.split()
        # A checkout that merely sits inside another repository is not
        # that repository's revision.
        if os.path.realpath(toplevel) == os.path.realpath(ROOT):
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], capture_output=True, text=True, timeout=10)
            return "git:" + head + ("+dirty" if dirty.stdout else "")
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def hermetic_env():
    """The caller's environment minus the runtime's SIA_* overrides."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SIA_")}


def run_binary(args, timeout=BINARY_TIMEOUT_S):
    """Runs the harness in its own process group; returns (rc, stdout).

    Whatever the harness leaves behind (spawned ranks of a hung run) is
    killed with the group, and every process is waited for.
    """
    proc = subprocess.Popen(
        [BINARY] + args, stdout=subprocess.PIPE, text=True,
        env=hermetic_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {timeout} s; stopping it")
        out, rc = "", None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if rc is None:
        proc.wait()
    return rc, out


def result_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def measure(opts, workload):
    """One workload; echoes the harness output. Returns (rc, result)."""
    args = ["--workload", workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--work-dir", WORK, "--source-id", source_id()]
    rc, out = run_binary(args)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc is None:
        return 1, None
    return rc, result_of(out) if rc == 0 else None


def measure_all(opts):
    """Every workload in turn, then one table with the error rate."""
    rows, worst = [], 0
    for workload in (w["name"] for w in load_benchmark_json()["workloads"]):
        rc, result = measure(opts, workload)
        worst = worst or rc
        rows.append((workload, result))
    print()
    names = [] if opts.trace else ["run_s", "setup_s", "peak_rss_mb"]
    print(f"{'workload':12s}" + "".join(f"{n:>14s}" for n in names)
          + f"{'error_rate':>14s}")
    for workload, result in rows:
        if result is None:
            print(f"{workload:12s}  failed to produce a result")
            continue
        cells = "".join(f"{result['metrics'][n]['value']:14.6g}"
                        for n in names)
        rate = result["failed"] / result["attempted"]
        print(f"{workload:12s}{cells}{rate:14.6g}")
    return worst


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    """Self-test at tiny sizes; returns the number of failed checks."""
    spec = load_benchmark_json()
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    rc, out = run_binary(["--list"], timeout=30)
    listed = [line.split()[1] for line in out.splitlines()
              if line.startswith("workload ")]
    layers = [line.split()[1] for line in out.splitlines()
              if line.startswith("per_layer ")]
    expect(listed == [w["name"] for w in spec["workloads"]],
           "harness workloads match BENCHMARK.json")
    expect(layers == [m["name"] for m in spec["per_layer"]],
           "harness per-layer metrics match BENCHMARK.json")

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            rc, out = run_binary(
                ["--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--work-dir", WORK, "--smoke"],
                timeout=120)
            result = result_of(out) if rc == 0 else None
            expect(result is not None and result["correct"]
                   and result["failed"] == 0,
                   f"{name} trace={trace}: correct, reference perturbation "
                   "rejected")
            if result is None:
                continue
            printed = result["metrics"]
            expect(list(printed) == [m["name"] for m in declared]
                   and all(printed[m["name"]]["unit"] == m["unit"]
                           for m in declared),
                   f"{name} trace={trace}: metric names and units match "
                   "BENCHMARK.json")
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   f"{name} trace={trace}: result keys")

    # Forced failures must count toward error_rate (failed / attempted).
    for force in ("throw", "wrong", "hang"):
        rc, out = run_binary(
            ["--workload", "storm", "--seed", "7", "--seconds", "1",
             "--trace", "0", "--work-dir", WORK, "--smoke", "--force", force,
             "--deadline-s", "2"], timeout=60)
        result = result_of(out) if rc == 0 else None
        expect(result is not None and not result["correct"]
               and result["failed"] == 1 and result["attempted"] >= 2,
               f"forced {force} counts as one failed attempt")
    print(f"smoke: {len(failures)} failure(s)", flush=True)
    return len(failures)


def compare(path_a, path_b):
    """Diffs two result files, or refuses when their hosts differ."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    host_a = {k: v for k, v in a["host"].items() if k != "source"}
    host_b = {k: v for k, v in b["host"].items() if k != "source"}
    if host_a != host_b:
        print("not comparable: host fingerprints differ")
        for key in sorted(set(host_a) | set(host_b)):
            if host_a.get(key) != host_b.get(key):
                print(f"  {key}: {host_a.get(key)!r} vs {host_b.get(key)!r}")
        return 0
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        print("not comparable: different workload or trace mode")
        return 0
    print(f"{a['workload']}: {a['host']['source']} -> {b['host']['source']}")
    for name, m in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            continue
        va, vb = m["value"], other["value"]
        if va < 0 or vb < 0:
            change = "absent"
        elif va == 0:
            change = "n/a"
        else:
            change = f"{100.0 * (vb - va) / va:+.2f}%"
        print(f"  {name:32s} {va:14.6g} -> {vb:14.6g} {m['unit']:8s} {change}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    opts = parser.parse_args()
    if opts.compare:
        return compare(*opts.compare)
    if not opts.smoke and not opts.workload:
        parser.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if opts.smoke:
        return 1 if smoke() else 0
    if opts.workload == "all":
        return measure_all(opts)
    return measure(opts, opts.workload)[0]


if __name__ == "__main__":
    sys.exit(main())
