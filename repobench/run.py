#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 repobench/run.py --workload live-small --seed 1 --seconds 15 --trace 0
    python3 repobench/run.py --workload all --seconds 5

Run from the root of a checkout. The Go benchmark in this directory is
built with every Go cache and temporary directory under .bench_build/
in the checkout, then run with the given arguments; its last line of
output is the JSON result. `--workload all` runs every workload in turn
(untraced, or traced with --trace 1) and prints one table.
"""

import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "repobench")
OUT = os.path.join(BUILD, "out")

BUILD_TIMEOUT_S = 800  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    for var, sub in [("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    env["CGO_ENABLED"] = "0"
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("run.py: no go.mod at %s; run from a full checkout" % ROOT)
    proc = subprocess.run(["go", "build", "-o", EXE, "."], cwd=HERE, env=go_env(),
                          stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("run.py: build failed")


def run_one(args):
    """Runs the benchmark binary, killing it after RUN_TIMEOUT_S; returns
    (exit code, last stdout line)."""
    proc = subprocess.Popen([EXE] + args + ["--out", OUT], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if proc.returncode < 0:
        sys.exit("run.py: benchmark killed (signal %d)" % -proc.returncode)
    return proc.returncode, last


def run_all(rest):
    """Runs every workload with the other arguments; prints one table."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    rows = {}
    code = 0
    for w in workloads:
        rc, last = run_one(["--workload", w] + rest)
        if rc != 0:
            code = rc
            continue
        rows[w] = json.loads(last)
    if not rows:
        return code
    first = next(iter(rows.values()))["metrics"]
    print("\n%-36s" % "metric" + "".join("%16s" % w for w in rows))
    for m in sorted(first):
        cells = "".join("%16.6g" % r["metrics"][m]["value"] for r in rows.values())
        print("%-36s%s %s" % (m, cells, first[m]["unit"]))
    print("%-36s" % "failed/attempted" + "".join(
        "%16s" % ("%d/%d" % (r["failed"], r["attempted"])) for r in rows.values()))
    return code


def main():
    args = sys.argv[1:]
    build()
    if "--workload" in args:
        i = args.index("--workload")
        if args[i + 1:i + 2] == ["all"]:
            return run_all(args[:i] + args[i + 2:])
    rc, _ = run_one(args)
    return rc


if __name__ == "__main__":
    sys.exit(main())
