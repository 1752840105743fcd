#!/usr/bin/env python3
"""Builds fwdecay's repository benchmark and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest_groupby --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds the fwdecay libraries, the fwdecayd
daemon and the perfbench program (Release) under .bench_build/perfbench;
later runs rebuild incrementally. Build output goes to stderr. Stdout is
the program's: a context record line, then the result object as the last
line, its metrics put in the order and units BENCHMARK.json lists. The
exit code is non-zero when the build fails, the oracle rejects a result,
a listed end-to-end metric is missing, or the run times out.
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
WORK = os.path.join(BUILD, "run")
WORKLOADS = ("ingest_groupby", "ingest_parallel", "ingest_decayed",
             "serve_ingest")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: fwdecay sources not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "fwdecayd", "perfbench_nosync"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed: %s" % err)
            return False
        if done.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def source_id():
    """The commit when run from a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def select_metrics(result_line, trace):
    """Returns the result line with exactly the metrics BENCHMARK.json
    lists for this mode, in its order and units. A missing end-to-end
    metric is an error; a layer the workload does not exercise is 0."""
    with open(SPEC) as f:
        spec = json.load(f)
    result = json.loads(result_line)
    have = result["metrics"]
    if not result["correct"]:
        return json.dumps(result)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = have.get(m["name"])
        if got is None and not trace:
            raise ValueError("missing end-to-end metric " + m["name"])
        if got is not None and got["unit"] != m["unit"]:
            raise ValueError("unit of %s is %s, not %s" %
                             (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"] if got else 0,
                              "unit": m["unit"]}
    for name in sorted(set(have) - set(metrics)):
        log("perfbench: %s is not listed in BENCHMARK.json" % name)
    result["metrics"] = metrics
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    if not os.path.isfile(SPEC) or not build():
        return 1
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fwdecayd", os.path.join(BUILD, "fwdecay", "src", "server",
                                      "fwdecayd"),
           "--nosync-lib", os.path.join(BUILD, "libperfbench_nosync.so"),
           "--work-dir", WORK, "--commit", source_id()]
    # Own process group, so a timeout also stops the daemons it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # The run measures for --seconds; set-up, warm-up and the oracles add
    # at most about as much again.
    timeout = 2 * args.seconds + 120
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run exceeded %d s" % timeout)
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        lines[-1] = select_metrics(lines[-1], args.trace)
    except (ValueError, KeyError) as err:
        log("perfbench: bad result: %s" % err)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
