"""Benchmark of the `fuchsian` package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  surface_sweep   in-process boundary group + surface subgroup + verdicts
  hypergeometric  in-process hyp2f1, continuation and connection maps
  cli_mix         one `python -m fuchsian.cli` process per request
  all             the three in turn, metrics prefixed by workload

Each workload is a closed loop with one client in one process: the next
request starts when the previous one has finished and been checked.
Requests come from a pool generated from --seed and are replayed in
order (cycling if the run outlasts the pool) until --seconds of wall
time have passed. Output checks run outside the timed region.

--trace 0 reports the end-to-end metrics, timed without tracing:
  requests_per_s   correct requests / summed request time (1/s), the
                   median over consecutive windows of WINDOW requests,
                   so that a burst of load from elsewhere on the host
                   moves it less than a mean over the run would
  latency_p50_ms   median over every attempted request, failures included
  latency_p90_ms   90th percentile of the same samples
The timings are reported at reference speed: see REFERENCE below.
  setup_s          median of nine set-ups: a fresh interpreter importing
                   the package, input generation and a warm-up; scaled
                   by an interpreter start timed before each set-up
  peak_rss_mb      peak resident memory of this process (in-process
                   workloads) or of the largest child (cli_mix)
--trace 1 reports the per-layer metrics: untraced probes, then an
untraced and a traced pass over the same requests; the traced pass
gives calls and self time per module, and the ratio of the two passes
is trace.overhead_ratio. Last, the workload's fixed known-defect
requests (see workloads.py) run under a second tracer; they give
defects.failed and the per-module failures, and are not counted in
attempted or failed.

Seed 61283 (HOLDOUT_SEED) was never run while the benchmark was built.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. `correct` is false when any request raised, exited
non-zero or gave wrong output. Run metadata, the request-list
hash and failure reasons go to .perfbench_out/ in the checkout, and the
traced run's spans to a gzip file beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import probes
from tracing import ROOT_SPAN, Tracer
from workloads import WORKLOADS, SurfaceSweep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# never run while the benchmark was built: a claimed gain must also hold
# on a seed that was not used to make it
HOLDOUT_SEED = 61283
SETUP_REPS = 9
POOL_SIZE = {"surface_sweep": 2000, "hypergeometric": 2000, "cli_mix": 600}
# --trace 1 runs this many requests untraced and then traced, so that
# its counts repeat exactly for a seed; the shares of --seconds only cap
# the two passes
TRACE_REQUESTS = {"surface_sweep": 400, "hypergeometric": 400, "cli_mix": 36}
UNTRACED_SHARE, TRACED_SHARE = 0.3, 0.6
# requests per requests_per_s window: a few seconds of cli_mix (two
# blocks of its command mix), a fraction of a second in-process
WINDOW = {"surface_sweep": 200, "hypergeometric": 200, "cli_mix": 24}
CLI_PAYLOADS = (
    "cli.run_genus", "cli.run_generators", "cli.run_whittaker",
    "cli.run_tessellation", "cli.render_svg", "cli.run_verify",
)


def python_loop_s() -> float:
    """Time of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    return time.perf_counter() - t0


def interpreter_start_s() -> float:
    """Time of a bare `python -c pass`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


# On a shared host the speed of the machine drifts by a fifth or more
# within seconds and between runs (a fixed pure-Python loop took 0.33 to
# 0.6 ms on a 2-vCPU Xeon guest), far past the metrics' bounds. So each
# loop times a fixed reference task before every `every`-th request, and
# each window's request times are scaled by `nominal` over the median
# reference time in that window: they read as on a host where the task
# takes `nominal` seconds. The task is the cost that dominates the
# workload: a pure-Python loop in-process, a bare interpreter start for
# cli_mix. Measured on that guest, scaling cut the spread of windows
# within a run from 25% to 10% of their median (surface_sweep, windows
# of 100 requests) and from 10% to 5% (cli_mix, windows of 24), where
# the pure-Python loop left cli_mix at 8.5%. Raw times go to the run's
# metadata. Set-up is bound by interpreter start in every workload.
NOMINAL_LOOP_S, NOMINAL_START_S = 0.5e-3, 0.06
# workload -> (reference task, every, nominal)
REFERENCE = {
    "surface_sweep": (python_loop_s, 10, NOMINAL_LOOP_S),
    "hypergeometric": (python_loop_s, 10, NOMINAL_LOOP_S),
    "cli_mix": (interpreter_start_s, 3, NOMINAL_START_S),
}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fuchsian").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_package() -> str | None:
    """Import `fuchsian` from this checkout's src/; the problem, if any."""
    if not (SRC / "fuchsian" / "__init__.py").is_file():
        return f"no fuchsian package under {SRC}"
    sys.path.insert(0, str(SRC))
    import fuchsian

    if Path(fuchsian.__file__).resolve().parent != SRC / "fuchsian":
        return f"imported fuchsian from {fuchsian.__file__}, not {SRC}"
    return None


def run_requests(wl, pool, seconds, tracer=None, limit=None, refs=None):
    """Closed loop over the pool; returns [(seconds, error or None, req)].

    With a list `refs`, appends the time of the workload's reference
    task to it before every `every`-th request (see REFERENCE).
    """
    results = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline and (limit is None or i < limit):
        req = pool[i % len(pool)]
        if refs is not None and i % REFERENCE[wl.name][1] == 0:
            refs.append(REFERENCE[wl.name][0]())
        root = tracer.begin_request(i) if tracer is not None else -1
        t0 = time.perf_counter()
        try:
            out, err = wl.execute(req), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_request(root, err is not None)
            wl.collect(out, tracer, root)
        if err is None:
            try:
                err = wl.check(req, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        results.append((dt, err, req))
        i += 1
    return results


def traced_requests(wl, pool, seconds, tracer, limit):
    """`run_requests` with `tracer`'s wrappers installed."""
    tracer.install()
    wl.tracing = True
    try:
        return run_requests(wl, pool, seconds, tracer, limit=limit)
    finally:
        wl.tracing = False
        tracer.uninstall()


def set_up(wl, seed, env, import_stmt):
    """One set-up: fresh-interpreter import, input generation, warm-up."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", import_stmt], env=env, check=True)
    pool = wl.generate(seed, POOL_SIZE[wl.name])
    for req in pool[: wl.warmup]:
        try:
            wl.check(req, wl.execute(req))
        except Exception:  # warm-up outcomes are measured in the loop
            pass
    return time.perf_counter() - t0, pool


def end_to_end(results, refs, setups, setup_refs, wl_name):
    """The end-to-end metrics, and the unscaled times for the metadata."""
    size = WINDOW[wl_name] if len(results) >= WINDOW[wl_name] else len(results)
    lat, raw, rates = [], [], []
    for i in range(0, len(results), size):
        window = results[i : i + size]
        _, every, nominal = REFERENCE[wl_name]
        scale = nominal / statistics.median(
            refs[i // every : -(-(i + len(window)) // every)])
        times = [dt for dt, _, _ in window]
        raw.extend(times)
        lat.extend(dt * scale for dt in times)
        if len(window) == size:
            ok = sum(1 for _, err, _ in window if err is None)
            rates.append(ok / (scale * sum(times)))
    lat.sort()
    raw.sort()
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if wl_name == "cli_mix" else resource.RUSAGE_SELF
    )

    def p90(samples):
        return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]

    metrics = {
        "requests_per_s": metric(statistics.median(rates), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": metric(p90(lat) * 1e3, "ms"),
        "setup_s": metric(
            statistics.median(setups) * NOMINAL_START_S / statistics.median(setup_refs),
            "s"),
        "peak_rss_mb": metric(usage.ru_maxrss / 1024.0, "MB"),
    }
    unscaled = {
        "samples": len(lat),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_latency_p90_ms": p90(raw) * 1e3,
        "reference_ms_median": statistics.median(refs) * 1e3,
        "raw_setup_s": statistics.median(setups),
        "setup_reference_ms_median": statistics.median(setup_refs) * 1e3,
    }
    return metrics, unscaled


def per_layer(tracer, defects, probes, start_ms, import_ms, overhead):
    """Metrics of the traced pass, plus failures from the defect sweep."""
    table = tracer.summarize()
    defect_table = defects.summarize()

    def total(prefix, key):
        return sum(row[key] for name, row in table.items() if name.startswith(prefix))

    root_ms = table.get(ROOT_SPAN, {}).get("total_ms", 0.0)

    def share(prefix):
        return total(prefix, "self_ms") / root_ms if root_ms else 0.0

    m = {}
    for layer in ("moebius", "disk_geometry", "group_builder"):
        m[f"{layer}.calls"] = metric(total(layer + ".", "calls"), "count")
        m[f"{layer}.self_ms"] = metric(total(layer + ".", "self_ms"), "ms")
        m[f"{layer}.self_share"] = metric(share(layer + "."), "ratio")
    for layer in ("moebius", "group_builder"):
        failures = sum(row["failures"] for name, row in defect_table.items()
                       if name.startswith(layer + "."))
        m[f"{layer}.failures"] = metric(failures, "count")
    for layer in ("curves", "tessellation"):
        m[f"{layer}.calls"] = metric(total(layer + ".", "calls"), "count")
        m[f"{layer}.self_ms"] = metric(total(layer + ".", "self_ms"), "ms")
    hyp = table.get("whittaker.hyp2f1", {})
    gam = table.get("whittaker.gamma_fn", {})
    m["whittaker.hyp2f1.calls"] = metric(hyp.get("calls", 0), "count")
    m["whittaker.hyp2f1.self_ms"] = metric(hyp.get("self_ms", 0.0), "ms")
    failed_hyp = defect_table.get("whittaker.hyp2f1", {})
    m["whittaker.hyp2f1.failures"] = metric(failed_hyp.get("failures", 0), "count")
    m["whittaker.hyp2f1.failed_ms"] = metric(failed_hyp.get("failed_ms", 0.0), "ms")
    m["whittaker.gamma_fn.calls"] = metric(gam.get("calls", 0), "count")
    m["whittaker.gamma_fn.self_ms"] = metric(gam.get("self_ms", 0.0), "ms")
    m["whittaker.self_share"] = metric(share("whittaker."), "ratio")
    payloads = [table[n] for n in CLI_PAYLOADS if n in table]
    m["cli.calls"] = metric(sum(r["calls"] for r in payloads), "count")
    m["cli.self_ms"] = metric(sum(r["self_ms"] for r in payloads), "ms")
    m["cli.to_json.self_ms"] = metric(
        table.get("cli.to_json", {}).get("self_ms", 0.0), "ms")
    m["cli.to_json.bytes"] = metric(tracer.counters.get("cli.to_json.bytes", 0), "B")
    m["process.start_ms"] = metric(start_ms, "ms")
    m["process.import_ms"] = metric(import_ms, "ms")
    m["trace.overhead_ratio"] = metric(overhead, "ratio")
    for name, value in probes.items():
        m[name] = metric(value, "us")
    return m, table


def run_workload(name, seed, seconds, trace, workdir):
    """Run one workload; returns (result line dict, metadata dict)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wl = WORKLOADS[name](ROOT, workdir)
    import_stmt = "import fuchsian.cli" if name == "cli_mix" else "import fuchsian"
    start_ms = probes.process_start_ms(env)
    meta = {
        "workload": name, "seed": seed, "holdout": seed == HOLDOUT_SEED,
        "seconds": seconds, "trace": trace,
    }
    if not trace:
        setups, setup_refs, pool = [], [], None
        for _ in range(SETUP_REPS):
            setup_refs.append(interpreter_start_s())
            dt, pool = set_up(wl, seed, env, import_stmt)
            setups.append(dt)
        refs = []
        results = run_requests(wl, pool, seconds, refs=refs)
        metrics, meta["timing"] = end_to_end(
            results, refs, setups, setup_refs, name)
    else:
        _, pool = set_up(wl, seed, env, import_stmt)
        layer_probes = probes.layer_probes(seed, SurfaceSweep(ROOT, workdir))
        import_ms = probes.process_import_ms(env)
        untraced = run_requests(
            wl, pool, UNTRACED_SHARE * seconds, limit=TRACE_REQUESTS[name])
        tracer, defects = Tracer(), Tracer()
        traced = traced_requests(
            wl, pool, TRACED_SHARE * seconds, tracer, len(untraced))
        overhead = sum(dt for dt, _, _ in traced) / sum(
            dt for dt, _, _ in untraced[: len(traced)])
        defect_reqs = wl.defect_requests()
        swept = traced_requests(wl, defect_reqs, 120.0, defects, len(defect_reqs))
        metrics, table = per_layer(
            tracer, defects, layer_probes, start_ms, import_ms, overhead)
        metrics["defects.failed"] = metric(
            sum(1 for _, err, _ in swept if err is not None), "count")
        results = untraced + traced
        meta["spans"] = len(tracer)
        meta["span_table"] = table
        tracer.write(str(OUT_DIR / f"spans_{name}_seed{seed}.tsv.gz"))
    failures = [(req, err) for _, err, req in results if err is not None]
    meta.update({
        "request_sha256": hashlib.sha256(
            json.dumps(pool, sort_keys=True).encode()).hexdigest(),
        "pool_size": len(pool),
        "process.start_ms": start_ms,
        "failure_reasons": dict(Counter(
            f"{req['kind']}: {err.split(':')[0]}" for req, err in failures)),
        "failures": [
            {"request": req, "error": err} for req, err in failures[:20]],
    })
    line = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }
    return line, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("surface_sweep", "hypergeometric", "cli_mix", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    problem = load_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    names = (
        ["surface_sweep", "hypergeometric", "cli_mix"]
        if args.workload == "all" else [args.workload]
    )
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    host = {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    lines = {}
    try:
        for name in names:
            line, meta = run_workload(name, args.seed, args.seconds, args.trace, workdir)
            meta.update(host)
            tag = f"{name}_seed{args.seed}_trace{args.trace}"
            (OUT_DIR / f"result_{tag}.json").write_text(
                json.dumps({"result": line, "meta": meta}, indent=1) + "\n")
            for key, m in line["metrics"].items():
                print(f"{name:15} {key:32} {m['value']:14.6g} {m['unit']}")
            print(f"{name:15} attempted={line['attempted']} failed={line['failed']} "
                  f"correct={line['correct']} start_ms={meta['process.start_ms']:.1f} "
                  f"requests={meta['request_sha256'][:16]}")
            lines[name] = line
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(lines) == 1:
        result = lines[names[0]]
    else:
        result = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {
                f"{name}.{key}": m
                for name, line in lines.items()
                for key, m in line["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
