#!/usr/bin/env python3
"""Build and run the frame-budget benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
repository's libraries and the benchmark in Release mode into
`.bench_build/` (a few minutes); later runs rebuild incrementally. The
benchmark's own output, ending in one JSON result line, goes to standard
output; build logs go to standard error.

Two maintenance modes:

    python3 perfbench/run.py --self-test [workload]
        Runs one workload at the default pool size and again with
        COTERIE_THREADS=1; every simulated metric, count and frame-log
        digest must be identical.

    python3 perfbench/run.py --record-golden
        Re-records perfbench/golden.json: the exact simulated counts and
        digests of every workload at the default seed.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
GOLDEN = HERE / "golden.json"
WORKLOADS = ["fleet_shared", "des_fleet"]
DEFAULT_SEED = 42
# A run must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; exit 2 on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no Coterie sources next to {HERE.name}/ (looked in {ROOT})")
        sys.exit(2)
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_coterie_INCLUDE=" +
                      str(HERE / "perfbench.cmake")])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                tail = logfile.read_text(errors="replace").splitlines()[-30:]
                log("build failed:\n" + "\n".join(tail))
                sys.exit(2)


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def bench_args(workload, seed, seconds, trace, golden=True):
    args = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--commit", commit_id()]
    if golden:
        args += ["--golden", str(GOLDEN)]
    if trace:
        args += ["--trace-out",
                 str(BUILD / f"spans-{workload}-{seed}.json")]
    return args


def run_captured(args, env=None):
    r = subprocess.run(args, capture_output=True, text=True, cwd=ROOT,
                       env=env, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    return r


def tagged_line(stdout, tag):
    """The JSON of the first `<tag> {...}` line of the benchmark's output."""
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(workload):
    """Same simulated outputs at the default pool size and at one thread.

    Uses a non-default seed, whose shuffled, staggered arrivals make the
    lanes of the event engine interleave differently from seed 42's."""
    seed = DEFAULT_SEED + 1
    outputs = {}
    for label, threads in (("default pool", None), ("COTERIE_THREADS=1", "1")):
        env = dict(os.environ)
        env.pop("COTERIE_THREADS", None)
        if threads:
            env["COTERIE_THREADS"] = threads
        r = run_captured(bench_args(workload, seed, 1, 0), env)
        host = next((l for l in r.stdout.splitlines()
                     if l.startswith("host ")), "host ?")
        print(f"{label}: exit {r.returncode}, {host}")
        if r.returncode != 0:
            print(r.stdout)
            return 1
        result = result_line(r.stdout)
        simulated = {k: v["value"] for k, v in result["metrics"].items()
                     if v["unit"] not in ("s", "s/s", "MB")}
        outputs[label] = {"sim": tagged_line(r.stdout, "sim"),
                          "metrics": simulated}
    a, b = outputs.values()
    same = a == b
    print(json.dumps(a, sort_keys=True))
    print(f"self-test {workload}: "
          f"{'identical' if same else 'DIFFERENT'} at 1 thread")
    if not same:
        print(json.dumps(b, sort_keys=True))
    return 0 if same else 1


def record_golden():
    """One traced run per workload at the default seed: its simulated
    summary and its render probe's pixel digest."""
    golden = {"seed": DEFAULT_SEED, "render_probe": {}}
    for w in WORKLOADS:
        r = run_captured(bench_args(w, DEFAULT_SEED, 1, 1, golden=False))
        sim = tagged_line(r.stdout, "sim")
        render = tagged_line(r.stdout, "render")
        if r.returncode != 0 or sim is None or render is None:
            print(r.stdout)
            log(f"{w}: run failed, nothing recorded")
            return 1
        golden[w] = sim
        golden["render_probe"][w] = render["digest"]
        print(f"{w}: {json.dumps(sim)} render {render['digest']}")
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", nargs="?", const="fleet_shared",
                   choices=WORKLOADS, metavar="WORKLOAD")
    p.add_argument("--record-golden", action="store_true")
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be a non-negative integer")

    start = time.monotonic()
    build()
    log(f"build ready in {time.monotonic() - start:.1f} s")
    if a.self_test:
        return self_test(a.self_test)
    if a.record_golden:
        return record_golden()
    if not a.workload:
        p.error("--workload is required")
    try:
        r = subprocess.run(bench_args(a.workload, a.seed, a.seconds, a.trace),
                           cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
