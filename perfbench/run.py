#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/``; the
run fails when it is missing.  One client sends one request at a time, each
after the previous one returned (a closed loop without think time).  The
seed's request set is sent in whole passes, as long as another pass fits in
``--seconds`` of wall time, and always at least once.  Every result is
checked as soon as it returns, outside the timed span.

Times are CPU time of this process (``time.process_time``), not wall time.
The program is single-threaded and does no I/O while it is timed, so on an
idle machine the two agree.  On a shared virtual machine, wall time also
counts the time the host takes the virtual CPU away: on the 2-vCPU machine
the bounds were set on, that doubled wall times for minutes at a time while
CPU time stayed within 10%.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sends every
request twice, untraced and traced, and reports the per-layer metrics of the
traced requests, with the tracing overhead as ``trace.overhead_ratio``.  The last line
of standard output is the JSON result; the lines before it give the run's
metadata, its work counts and every figure.  A record of the run goes to
``perfbench/out/runs/``, the spans of a traced run to ``perfbench/out/spans/``.

Exit status: 0 when every check passed, 1 when a result was wrong, 2 when
the benchmark could not run: no source tree, a failed set-up probe, work
counts that differ between passes of the same requests, or measured metrics
that differ from those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Set-up samples taken before the first pass and after each pass.
SETUP_SAMPLES = 4
#: What a fresh ``ilpath`` CLI process pays before its first request.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.process_time()
import ilpath, ilpath.cli
ilpath.cli.build_parser()
print(time.process_time() - t0)
"""


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sample_setup(samples: list, count: int = SETUP_SAMPLES):
    """Time, in ``count`` fresh interpreters, importing ``ilpath`` and
    ``ilpath.cli`` and building the parser once (CPU time)."""
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60,
        )
        if out.returncode != 0:
            raise BenchmarkError(f"the set-up probe failed:\n{out.stderr}")
        samples.append(float(out.stdout))


def commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ilpath").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(args) -> dict:
    import ilpath

    return {
        "backend": ilpath.backend_name(),
        "ILPATH_PURE": os.environ.get("ILPATH_PURE"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source": source_digest(),
    }


def timed_request(workload, case, k: int, problems: list, counts: Counter | None) -> float:
    """Send one request and return its CPU time; check the result outside
    the timed span, then drop it, so that held results neither use memory
    nor slow the garbage collector."""
    t0 = time.process_time()
    try:
        result = workload.send(case)
    except Exception as exc:  # a failed request is counted, not fatal
        elapsed = time.process_time() - t0
        traceback.print_exc()
        problems.append(f"request {k}: raised {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.process_time() - t0
    found = workload.check(case, result)
    if found:
        problems.append(f"request {k}: {found[0]}")
    if counts is not None:
        counts.update(workload.tally(result))
    return elapsed


def traced_request(workload, case, k: int, problems: list, tracer) -> float:
    tracer.request += 1
    tracer.install()
    try:
        return timed_request(workload, case, k, problems, None)
    finally:
        tracer.uninstall()


def run_pass(workload, cases, tracer=None) -> dict:
    """Send every case once.  With a tracer, send each case a second time,
    traced, next to the untraced one and alternately before and after it,
    so that the tracing overhead is measured on pairs of identical requests
    made moments apart."""
    latencies, traced, problems, counts = [], [], [], Counter()
    begin = time.perf_counter()
    for k, case in enumerate(cases):
        if tracer is not None and k % 2:
            traced.append(traced_request(workload, case, k, problems, tracer))
        latencies.append(timed_request(workload, case, k, problems, counts))
        if tracer is not None and not k % 2:
            traced.append(traced_request(workload, case, k, problems, tracer))
    return {"latencies": latencies, "traced_latencies": traced, "problems": problems,
            "counts": counts, "busy": sum(latencies), "wall": time.perf_counter() - begin}


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    latencies = [x for p in passes for x in p["latencies"]]
    return {
        "ops_per_s": len(latencies) / sum(p["busy"] for p in passes),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def measure(workload, cases, seconds: float, setup: list, tracer=None) -> list[dict]:
    """Whole passes while another one fits in ``seconds`` of wall time.

    Set-up samples are taken between passes, which spreads them over the
    run, and their time is not counted against ``seconds``.
    """
    passes = []
    measured = 0.0
    sample_setup(setup)
    while True:
        first = tracer.request + 1 if tracer is not None else None
        record = run_pass(workload, cases, tracer)
        if tracer is not None:
            record["spans"] = tracer.spans(first, tracer.request + 1)
        passes.append(record)
        measured += record["wall"]
        sample_setup(setup)
        if measured + measured / len(passes) > seconds:
            return passes


def same_work(passes, key: str) -> dict:
    """The work counts of every pass, which must all be equal."""
    first = passes[0][key]
    for p in passes[1:]:
        if p[key] != first:
            raise BenchmarkError(f"work counts differ between passes: {first} vs {p[key]}")
    return dict(sorted(first.items()))


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units, in order, as ``BENCHMARK.json`` declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def layer_figures(passes) -> dict[str, float]:
    """Per-layer metrics: medians over the passes, plus the tracing overhead
    of the traced requests over their untraced twins."""
    metrics = {k: statistics.median(p["layers"][k] for p in passes) for k in passes[0]["layers"]}
    metrics["trace.overhead_ratio"] = (
        sum(sum(p["traced_latencies"]) for p in passes) / sum(p["busy"] for p in passes) - 1
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ilpath" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ilpath

    if Path(ilpath.__file__).resolve().parent != SRC / "ilpath":
        print(f"error: ilpath was imported from {ilpath.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    units = declared_units(args.trace)
    meta = metadata(args)
    cases = workload.make(args.seed)
    # The request set belongs to the client, not to the program under test:
    # keep the collector from walking it during requests.
    gc.collect()
    gc.freeze()
    tracer = spans.Tracer() if args.trace else None
    try:
        setup = []
        passes = measure(workload, cases, args.seconds, setup, tracer)
        work = same_work(passes, "counts")
        if tracer is not None:
            for p in passes:
                p["layers"] = spans.layer_metrics(tracer, p["spans"])
                p["layer_work"] = {k: p["layers"][k] for k in spans.WORK_COUNTS}
            work.update(same_work(passes, "layer_work"))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = layer_figures(passes) if tracer else end_to_end(passes, statistics.median(setup))
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(metrics)} are not the declared {list(units)}",
              file=sys.stderr)
        return 2
    metrics = {name: metrics[name] for name in units}
    problems = [p for ps in passes for p in ps["problems"]]
    attempted = sum(len(p["latencies"]) + len(p["traced_latencies"]) for p in passes)
    failed = sum(len(p["problems"]) for p in passes)

    print("meta: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"passes: {len(passes)} x {len(cases)} requests, "
          f"{sum(p['busy'] for p in passes):.3f} CPU s in requests, "
          f"{sum(p['wall'] for p in passes):.3f} s wall")
    print("work per pass: " + " ".join(f"{k}={v}" for k, v in work.items()))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for problem in problems[:20]:
        print(f"FAILED {problem}")

    OUT.joinpath("runs").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    record = {"meta": meta, "work": work, "metrics": metrics, "attempted": attempted,
              "failed": failed, "problems": problems[:20], "setup_samples": setup,
              "passes": [{"busy": p["busy"], "traced_busy": sum(p["traced_latencies"]),
                          "wall": p["wall"], "requests": len(p["latencies"])} for p in passes]}
    OUT.joinpath("runs", stem + ".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
        tracer.write_csv(OUT / "spans" / (stem + ".csv"))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
