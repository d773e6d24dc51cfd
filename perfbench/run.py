#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout. Builds the STARK library and the
bench_suite harness from source (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload in its own process, and prints as the last
line of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones (the traced run also writes a Chrome-trace
span file next to the full result under <build>/results/). Everything else —
build output, per-gate results, quartiles — goes to standard error. The exit
code is non-zero when the build fails, a metric is missing, or an answer was
wrong.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("e1_selfjoin", "e3_regionjoin", "serve_mixed", "stream_cep")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures (once) and builds bench_suite; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "bench_suite", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("perfbench: build step failed:", " ".join(step))
            return None
    binary = out / "bench_suite"
    return binary if binary.exists() else None


def code_id():
    """The git commit when the checkout is a repository, else a digest of
    the benchmarked sources, so every result names the code it measured."""
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = results / f"{stem}.json"
    result_path.unlink(missing_ok=True)
    tmp = out / "tmp" / f"{stem}-{os.getpid()}"
    cmd = [
        str(binary),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--json={result_path}",
        f"--tmp={tmp}",
        f"--git-sha={code_id()}",
    ]
    if args.trace:
        cmd.append(f"--trace={results / (stem + '.trace.json')}")
    rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    shutil.rmtree(tmp, ignore_errors=True)
    if not result_path.exists():
        log(f"perfbench: {args.workload} produced no result (exit {rc})")
        return rc or 1

    result = json.loads(result_path.read_text())
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"perfbench: metric {m['name']} [{m['unit']}] not reported")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] and rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
