"""One benchmark process; ``run.py`` starts it and reads the JSON it prints.

    worker.py --workload NAME --seed N --seconds T --mode setup|measure|trace

``setup`` imports the program and serves one warm-up request. ``measure``
does the same, then serves whole seeded rounds in a closed loop (one client)
until T seconds have passed. ``trace`` serves each round twice, untraced and
then with every layer call wrapped in a span, so that both passes see the
same machine state.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports, then one warm-up request

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PROBE_EVERY_S = 0.25
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import REQUEST, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    OUTCOMES,
    Outcome,
    classify_error,
    judge,
    paper_pulses,
    rounds,
    run_request,
)


def _serve(workload, requests, tracer=None, first_id=0):
    outcomes = []
    for i, request in enumerate(requests, first_id):
        if tracer is not None:
            tracer.request_id = i
        start = time.perf_counter()
        try:
            if tracer is None:
                payload, distance = run_request(request, workload.dense_verify)
            else:
                with tracer.span(REQUEST):
                    payload, distance = run_request(request, workload.dense_verify)
        except Exception as exc:  # every request outcome is classified and counted
            latency_ms = 1e3 * (time.perf_counter() - start)
            outcomes.append(Outcome(classify_error(exc), latency_ms, error=type(exc).__name__))
            continue
        latency_ms = 1e3 * (time.perf_counter() - start)
        outcomes.append(judge(request, payload, distance, latency_ms))
    return outcomes


def _cpu_probe_ms():
    """Fastest of three timings of a fixed pure-Python loop: the current CPU speed."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(30_000):
            x += i * i
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _closed_loop(workload, seed, seconds, tracer=None):
    """Serve whole rounds until ``seconds`` have passed; with a tracer, serve
    each round a second time with the layer calls traced.

    Also returns, per request, the CPU probe time taken at most PROBE_EVERY_S
    before its round, outside any request's timing.
    """
    requests, outcomes, traced, probes = [], [], [], []
    start = time.perf_counter()
    probed_at, probe = -1.0, None
    for batch in rounds(workload, seed):
        now = time.perf_counter()
        if now - start >= seconds:
            break
        if now - probed_at >= PROBE_EVERY_S:
            probe, probed_at = _cpu_probe_ms(), now
        probes += [probe] * len(batch)
        outcomes += _serve(workload, batch)
        if tracer is not None:
            with tracer.patched(workloads.TRACE_POINTS):
                traced += _serve(workload, batch, tracer, first_id=len(requests))
        requests += batch
    return requests, outcomes, traced, probes


def _counts(outcomes):
    counts = dict.fromkeys(OUTCOMES, 0)
    errors = {}
    for o in outcomes:
        counts[o.outcome] += 1
        if o.error:
            errors[o.error] = errors.get(o.error, 0) + 1
    if sum(counts.values()) != len(outcomes):
        raise RuntimeError(f"outcome counts {counts} do not add up to {len(outcomes)} requests")
    return counts, errors


def _p50_and_tail(values):
    """Median, and the highest-ranked value with at least 10 samples beyond it."""
    ranked = sorted(values)
    n = len(ranked)
    tail_index = max(0, n - 11)
    tail = {"percentile": 100.0 * (tail_index + 1) / n, "samples": n, "beyond": n - 1 - tail_index}
    return statistics.median(ranked), ranked[tail_index], tail


def _end_to_end(workload, requests, outcomes, probes):
    """End-to-end metrics, and the wall-clock latencies they are derived from.

    A request that did not end verified is scored at the workload's latency
    limit. The gated latencies are in probes: each request's wall time over
    the CPU probe time of its round. That cancels drift in the host's CPU
    speed and keeps every change in the program's own cost.
    """
    wall = [o.latency_ms if o.outcome == "verified" else workload.latency_limit_ms for o in outcomes]
    p50_ms, tail_ms, tail = _p50_and_tail(wall)
    p50_probes, tail_probes, _ = _p50_and_tail([w / p for w, p in zip(wall, probes)])
    verified = [(r, o) for r, o in zip(requests, outcomes) if o.outcome == "verified"]
    pulse_ratio = (
        statistics.fmean(o.pulses / paper_pulses(r) for r, o in verified) if verified else 0.0
    )
    metrics = {
        "request_p50_probes": p50_probes,
        "request_tail_probes": tail_probes,
        "verified_ratio": len(verified) / len(outcomes),
        "pulse_ratio": pulse_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    probe_ms = statistics.median(probes)
    return metrics, dict(tail, request_p50_ms=p50_ms, request_tail_ms=tail_ms, cpu_probe_ms=probe_ms)


def _class_medians(requests, outcomes):
    by_class = {}
    for r, o in zip(requests, outcomes):
        by_class.setdefault(f"{r['kind']}-{r['n']}", []).append(o.latency_ms)
    return {k: statistics.median(v) for k, v in sorted(by_class.items())}


def _provenance():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    _serve(workload, [workload.warmup])
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = Tracer() if args.mode == "trace" else None
    requests, outcomes, traced, probes = _closed_loop(workload, args.seed, args.seconds, tracer)
    result = {
        "setup_s": setup_s,
        "provenance": _provenance(),
        "requests": len(requests),
        "rounds": len(requests) // len(workload.classes),
        "requests_sha256": workloads.request_digest(requests),
        "latency_limit_ms": workload.latency_limit_ms,
        "class_median_ms": _class_medians(requests, outcomes),
        "predictions": workloads.predictions(workload.name),
    }
    correct = not any(o.disagrees for o in outcomes)
    if args.mode == "measure":
        result["metrics"], result["latency"] = _end_to_end(workload, requests, outcomes, probes)
    else:
        # tracing must not change what the program emits
        correct = correct and [o.digest for o in traced] == [o.digest for o in outcomes]
        correct = correct and not any(o.disagrees for o in traced)
        metrics = layer_metrics(tracer.spans, workloads.LAYERS, workloads.LAYER_EXTRAS)
        metrics["trace.overhead_ratio"] = sum(o.latency_ms for o in traced) / sum(
            o.latency_ms for o in outcomes
        )
        metrics["trace.requests"] = len(traced)
        result["metrics"] = metrics
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans))
        outcomes = outcomes + traced

    counts, errors = _counts(outcomes)
    result.update(
        correct=correct,
        attempted=len(outcomes),
        failed=len(outcomes) - counts["verified"],
        outcomes=counts,
        errors=errors,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
