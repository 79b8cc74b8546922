#!/usr/bin/env python3
"""coldec benchmark: closed-loop workloads checked op by op against the oracle.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client thread sends each op only after the previous one returns. An op
is one `decode` call, or one analysed code in `code-analysis`. Inputs come
from --seed alone, so one seed gives the same inputs on every commit; keep
a seed that was not used while writing a change for checking its claim.
The workloads are in `workloads.py`; each runs in its own process, so peak
memory and process-wide caches (such as `monomial_basis`) never carry over.

--trace 0 (end-to-end) runs fresh inputs for S seconds and reports:
  ops_per_s    ops / time spent inside ops
  op_ms_p90    90th percentile op latency (`p90_beyond` in the detail line
               gives the number of samples above it)
  setup_s      median of 3 to 9 cold set-ups, each in a fresh process:
               import coldec, build the codes, compute their distances where
               the rank criterion is feasible, warm up
  peak_rss_mb  peak resident memory of this process
Every timing is given at a fixed reference speed of the host (see
`calibrate.py`): on a shared host a co-tenant slows the core by up to about
2.5x for stretches of seconds to minutes, and each op's time is scaled by
how much a fixed reference routine of the same kind of work, timed every
10 ms around it, was slowed. The detail line also gives the raw (unscaled)
timings. The failure fraction is `failed / attempted` of the result line.
The median latency `op_ms_p50` is in the detail line only: on gf3-channel
it falls among mid-sized ops that the reference tracks less well than the
long ones, and across ten 55 s runs its spread (interquartile range over
median) was 0.16, against at most 0.05 for every reported timing.

--trace 1 (per layer) runs the first `trace_ops` inputs as a fixed corpus,
in whole passes for S seconds, alternating untraced passes with passes that
have `tracer.Tracer` patched in. It reports, per op, the metrics
`<module>.<function>.<stat>` for the boundaries in `tracer.BOUNDARIES`:
calls, rows_in, cells_in and rank_gained are exact counts that repeat for a
seed; self_ms is span time minus child span time. `trace.overhead_pct` is
the drop of ops per second from the untraced to the traced passes.
Boundaries missing at this commit are listed in `absent` and report 0.
Spans go to perfbench/out/spans-NAME.npz (`spans`: int64 rows of span id,
parent id, op id, boundary index, start ns, end ns; `names`: boundary
names).

Every op's answer is checked against `coldec.oracle` right after the op,
outside its timer; an op that raises or disagrees counts as failed and the
run goes on.
Output: a detail line (environment, seed, statuses, every counter), then
the result line {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Every workload in workloads.py; BENCHMARK.json lists the ones the
# benchmark's own runs use.
WORKLOAD_NAMES = ("small-stream", "gf3-channel", "golay-t2", "code-analysis")
# The reference routine of `calibrate.py` whose kind of work each
# workload's ops resemble. Only the first two were measured against them.
REFERENCE_KIND = {
    "small-stream": "interpreted",
    "gf3-channel": "vectorised",
    "golay-t2": "vectorised",
    "code-analysis": "vectorised",
}
# Cold set-ups per end-to-end run: at least the first number, and up to the
# second while the extra ones fit in SETUP_PROBE_SECONDS, so that a cheap
# set-up gets a steadier median.
SETUP_RUNS = (3, 9)
SETUP_PROBE_SECONDS = 2.0


def load_spec() -> dict:
    """BENCHMARK.json: the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def load_program() -> None:
    """Put this checkout's src/ first on the path, or exit with an error."""
    if not (ROOT / "src" / "coldec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no coldec sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def timed_setup(name: str):
    """Import coldec, build the workload and warm it up.

    Returns (workload, seconds at the reference speed, raw seconds).
    """
    from calibrate import MIN_SAMPLES, Sampler

    with Sampler(REFERENCE_KIND[name]) as sampler:
        # A cheap set-up is over before many timer samples come in.
        sampler.sample(MIN_SAMPLES)
        t0 = time.perf_counter_ns()
        import workloads

        wl = workloads.WORKLOADS[name]()
        wl.setup()
        t1 = time.perf_counter_ns()
        sampler.sample(MIN_SAMPLES)
    return wl, sampler.calibrate([t0], [t1])[0] / 1e9, (t1 - t0) / 1e9


def probe_setup(name: str, seed: int) -> list[float]:
    """One cold set-up in a fresh interpreter: [calibrated, raw] seconds."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", "1"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def environment(seed: int) -> dict:
    import coldec.kernels

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo")
         if line.startswith("model name")),
        platform.processor() or None,
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "backend": coldec.kernels.active_backend(),
        "commit": _git_commit(),
    }


def _read_lines(path) -> list[str]:
    try:
        with open(path) as fh:
            return fh.readlines()
    except OSError:
        return []


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = {line.split()[-1] for line in _read_lines("/proc/self/maps") if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    for line in _read_lines(ROOT / ".git" / "packed-refs"):
        if line.rstrip().endswith(" " + ref):
            return line.split()[0]
    return None


def run_op(wl, x):
    """(summary, error text) of one op; exceptions are caught, not raised."""
    try:
        return wl.run(x), None
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def verdict(wl, x, summary, error) -> str | None:
    return error if error is not None else wl.check(x, summary)


def end_to_end(wl, args, setup_s: float, detail: dict) -> dict:
    from calibrate import Sampler

    # Only op bounds and counts are kept, so that the benchmark's own
    # memory does not grow much with the number of ops.
    starts, ends = array("q"), array("q")
    statuses: dict[str, int] = {}
    failures: list[str] = []
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + args.seconds
    ops = 0
    with Sampler(REFERENCE_KIND[wl.name]) as sampler:
        while not ops or time.perf_counter() < deadline:
            x = wl.make_input(args.seed, ops)
            starts.append(clock())
            summary, error = run_op(wl, x)
            ends.append(clock())
            key = "error" if error is not None else wl.status(summary)
            statuses[key] = statuses.get(key, 0) + 1
            problem = verdict(wl, x, summary, error)
            if problem is not None:
                failures.append(problem)
            ops += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ms = list(sampler.calibrate(starts, ends) / 1e6)
    raw_ms = [(e - s) / 1e6 for s, e in zip(starts, ends)]
    p90 = quantile90(ms)
    metrics = {
        "ops_per_s": ops / (sum(ms) / 1e3),
        "op_ms_p90": p90,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    detail.update(
        ops=ops,
        op_ms_p50=statistics.median(ms),
        p90_beyond=sum(1 for t in ms if t > p90),
        raw_ops_per_s=ops / (sum(raw_ms) / 1e3),
        raw_op_ms_p50=statistics.median(raw_ms),
        raw_op_ms_p90=quantile90(raw_ms),
        speed_samples=len(sampler.lengths),
        reference_ms_median=sampler.median_ns() / 1e6,
        fail_frac=len(failures) / ops,
        statuses=statuses,
        failures=failures[:5],
    )
    return {"attempted": ops, "failed": len(failures), "metrics": metrics}


def quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def per_layer(wl, args, detail: dict) -> dict:
    from tracer import Tracer

    corpus = [wl.make_input(args.seed, i) for i in range(wl.trace_ops)]
    clock = time.perf_counter_ns
    tracer = Tracer()

    def one_pass(results: list, traced: bool) -> int:
        """Run the corpus once; return the nanoseconds spent inside ops."""
        busy = 0
        for x in corpus:
            if traced:
                tracer.begin_op(len(results))
            t0 = clock()
            results.append(run_op(wl, x))
            busy += clock() - t0
            tracer.end_op()
        return busy

    # Untraced and traced passes alternate, so both see the same machine.
    plain, traced, plain_ns, traced_ns = [], [], 0, 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain_ns += one_pass(plain, traced=False)
        tracer.install()
        try:
            traced_ns += one_pass(traced, traced=True)
        finally:
            tracer.uninstall()
    plain_rate = len(plain) / (plain_ns / 1e9)
    traced_rate = len(traced) / (traced_ns / 1e9)

    failures = []
    every_pass = plain + traced
    for j, x in enumerate(corpus):
        want = plain[j]
        problem = verdict(wl, x, *want)
        if problem is not None:
            failures.append(problem)
        failures += [
            f"op {j} pass {k}: {got} differs from its first untraced result {want}"
            for k, got in enumerate(every_pass[j :: len(corpus)])
            if got != want
        ]

    counters = tracer.per_op(len(traced))
    ins = "kernels.Echelon.insert"
    rows = counters[f"{ins}.rows_in"]
    counters[f"{ins}.useful_ratio"] = counters[f"{ins}.rank_gained"] / rows if rows else 0.0
    counters["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / plain_rate)

    spans_path = BENCH / "out" / f"spans-{wl.name}.npz"
    tracer.write(spans_path)
    detail.update(
        corpus_ops=len(corpus),
        untraced_ops=len(plain),
        traced_ops=len(traced),
        untraced_ops_per_s=plain_rate,
        traced_ops_per_s=traced_rate,
        absent=tracer.absent,
        uncounted=sorted(tracer.uncounted),
        spans=len(tracer.spans) // 6,
        spans_file=str(spans_path.relative_to(ROOT)),
        counters=counters,
        failures=failures[:5],
    )
    attempted = len(plain) + len(traced)
    return {"attempted": attempted, "failed": len(failures), "metrics": counters}


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv)
    load_program()
    if args.setup_probe:
        _, setup_s, raw_s = timed_setup(args.workload)
        print(json.dumps({"setup_s": [setup_s, raw_s]}))
        return 0

    setup_samples = []
    if not args.trace:
        spent = time.perf_counter()
        while len(setup_samples) < SETUP_RUNS[0] - 1 or (
            len(setup_samples) < SETUP_RUNS[1] - 1
            and time.perf_counter() - spent < SETUP_PROBE_SECONDS
        ):
            setup_samples.append(probe_setup(args.workload, args.seed))
    wl, *setup_s = timed_setup(args.workload)
    setup_samples.append(setup_s)

    detail = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "setup_samples_s": setup_samples, "env": environment(args.seed)}
    if args.trace:
        result = per_layer(wl, args, detail)
    else:
        result = end_to_end(wl, args, statistics.median(s[0] for s in setup_samples), detail)
    print(json.dumps(detail))
    values = result.pop("metrics")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(json.dumps({"correct": result["failed"] == 0, **result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
