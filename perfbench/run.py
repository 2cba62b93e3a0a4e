"""Compile-and-verify benchmark of mscompile.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. Each run uses fresh processes: with
``--trace 0``, SETUP_RUNS - 1 set-up probes and then the closed loop, which
reports the end-to-end metrics; with ``--trace 1``, one process that serves
each round untraced and then traced, which reports the per-layer metrics.
Every emitted circuit is checked by ``checker.py``. The run prints each
metric by name and unit, writes ``perfbench/results/<workload>-seed<N>-trace<0|1>.json``
and ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
WORKER_TIMEOUT_S = 170


def _worker(args, mode: str, env: dict, extra=()) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        *extra,
    ]  # fmt: skip
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mscompile" / "__init__.py").is_file():
        print(f"error: no mscompile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        declared = spec["per_layer"]
        result = _worker(args, "trace", env, ["--spans", f"{stem}-spans.json"])
    else:
        declared = spec["end_to_end"]
        setups = [_worker(args, "setup", env)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        result = _worker(args, "measure", env)
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups

    measured = result["metrics"]
    if set(measured) != {m["name"] for m in declared}:
        raise SystemExit(f"measured metrics {sorted(measured)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    result.update(workload=args.workload, why=why, seed=args.seed, seconds=args.seconds)
    result.update(trace=args.trace, metrics=metrics)
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  {result['requests']} requests, {result['rounds']} rounds")
    print("outcomes " + "  ".join(f"{k}={v}" for k, v in result["outcomes"].items()))
    if result["errors"]:
        print("errors " + "  ".join(f"{k}={v}" for k, v in result["errors"].items()))
    if "latency" in result:
        lat = result["latency"]
        print(f"wall clock: request_p50_ms = {lat['request_p50_ms']:.6g} ms")
        print(f"wall clock: request_tail_ms = {lat['request_tail_ms']:.6g} ms")
        print(f"cpu probe: median {lat['cpu_probe_ms']:.6g} ms per probe")
        print(f"tail: p{lat['percentile']:.1f} of {lat['samples']} samples, {lat['beyond']} beyond")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not result["correct"]:
        print("error: an emitted circuit contradicts the independent check", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
