"""m3ab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload exp1-minz --seed 1 --seconds 10 --trace 0

Run from the root of a checkout holding ``src/m3ab``, ``BENCHMARK.json`` and
``bench/``.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` its per-layer
metrics.  The full result, with per-round samples and provenance, is written
to ``bench/out/<workload>-seed<n>-trace<t>.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import measure

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exp1-minz", "exp1-confidence", "exp3-wide", "exp2-sweep",
             "h3-enum")
# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 30


class BenchError(Exception):
    pass


def _setup_s(workload: str) -> float:
    """Wall time of one fresh interpreter doing the workload's set-up."""
    command = [sys.executable, str(BENCH / "measure.py"), "--setup", workload]
    started = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=SETUP_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up took more than {SETUP_TIMEOUT_S}s")
    if done.returncode != 0:
        raise BenchError(f"set-up exited {done.returncode}")
    return time.perf_counter() - started


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """The measured commit when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _tree_sha256(*dirs: Path) -> str:
    """Digest of every .py/.json file under ``dirs`` (identifies the code
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in dirs:
        for path in sorted(top.rglob("*")):
            if path.suffix in (".py", ".json") and "out" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, versions) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
        "commit": _commit(), "src_sha256": _tree_sha256(ROOT / "src"),
        "bench_sha256": _tree_sha256(BENCH),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="m3ab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "m3ab" / "__init__.py").is_file():
        print(f"error: no m3ab sources under {ROOT / 'src'}; run from the "
              "root of an m3ab checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # Measure first: peak_rss_mb must not see the set-up interpreters.
    measured = measure(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    values, setups = dict(measured["metrics"]), []
    try:
        if not args.trace:
            setups = [_setup_s(args.workload) for _ in range(SETUP_RUNS)]
            values["setup_s"] = statistics.median(setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 1

    line = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    result = {
        "provenance": provenance(args, measured["versions"]),
        **line,
        "all_metrics": values,
        "errors": measured["errors"],
        "unit": measured["unit"],
        "rounds": measured["rounds"],
        "setup_runs_s": setups,
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for error in measured["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
