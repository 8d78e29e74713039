#!/usr/bin/env python3
"""The serving benchmark: four workloads driven over the wire against
example_spanner_server, with verified outputs, end-to-end metrics, and a
traced per-layer breakdown. See serve_bench/README.md.

    python3 serve_bench/serve_bench.py                   # all workloads, print + write JSON
    python3 serve_bench/serve_bench.py --workload hot-read --seed 7 --seconds 10 --trace 0
    python3 serve_bench/serve_bench.py --trace 1         # per-layer metrics
    python3 serve_bench/serve_bench.py --runs 5 --out A/runs.json
    python3 serve_bench/serve_bench.py --compare A B     # verdict per workload x metric
    python3 serve_bench/serve_bench.py --smoke           # 1 s per workload, checks names

Run from the repository root. The benchmark builds the library, the server
and its own load generator from source into $CARGO_TARGET_DIR (default
.bench_build) and keeps run files under .bench_run and results under
.bench_out. With a single workload and run, the last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["hot-read", "cold-scan", "edit-storm", "topk-extract"]

# Run conditions. The server flags, workload shapes, warm-up and repetition
# counts are fixed in serve_load.cpp and workloads.cpp; every comparison runs
# both sides alike.
DEFAULT_SEED = 1
HOLDOUT_SEED = 9001  # never used while tuning; claims must also hold here
RUN_TIMEOUT_S = 170
REFUSED_ENV = ("SPANNERS_THREADS", "SPANNERS_MM_KERNEL", "SPANNERS_PLAN")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------------

def build(build_dir):
    """Configures (once) and builds the benchmark package; returns the binaries."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                    "serve_load", "example_spanner_server"], check=True, stdout=sys.stderr)
    return build_dir / "serve_load", build_dir / "example_spanner_server"


# --- statistics ---------------------------------------------------------------

def percentile(samples, p):
    """Interpolated p-th percentile and whether >= 10 samples lie beyond it."""
    if not samples:
        return 0.0, False
    xs = sorted(samples)
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)
    return value, len(xs) * (1 - p / 100.0) >= 10


def median(values):
    return statistics.median(values) if values else 0.0


# --- OpenMetrics scrapes ------------------------------------------------------

class Scrape:
    """Counters, gauges and log2-bucket histograms of one METRICS response."""

    def __init__(self, text):
        self.counters, self.gauges, self.hists, self.sums = {}, {}, {}, {}
        types = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                types[name] = kind
                continue
            if not line or line.startswith("#"):
                continue
            key, value = line.rsplit(" ", 1)
            if key.endswith("_total") and types.get(key[:-6]) == "counter":
                self.counters[key[:-6]] = int(value)
            elif "_bucket{le=" in key:
                name = key[:key.index("_bucket{")]
                le = key.split('"')[1]
                bound = math.inf if le == "+Inf" else int(le)
                self.hists.setdefault(name, []).append((bound, int(value)))
            elif key.endswith("_sum") and types.get(key[:-4]) == "histogram":
                self.sums[key[:-4]] = int(value)
            elif types.get(key) == "gauge":
                self.gauges[key] = int(value)

    @staticmethod
    def _name(dotted):
        return "spanners_" + dotted.replace(".", "_")

    def counter(self, name):
        return self.counters.get(self._name(name), 0)

    def gauge(self, name):
        return self.gauges.get(self._name(name), 0)

    def hist_sum(self, name):
        return self.sums.get(self._name(name), 0)

    def cumulative(self, name, bound):
        """Cumulative count at bucket upper bound `bound` (a step function)."""
        count = 0
        for b, c in self.hists.get(self._name(name), []):
            if b <= bound:
                count = c
        return count

    def bounds(self, name):
        return [b for b, _ in self.hists.get(self._name(name), [])]


def hist_quantile(after, before, name, q):
    """q-quantile of a histogram's change between two scrapes (before may be
    None for the cumulative histogram), interpolated inside its log2 bucket."""
    bounds = sorted(set(after.bounds(name)) | (set(before.bounds(name)) if before else set()))
    cum = [(b, after.cumulative(name, b) - (before.cumulative(name, b) if before else 0))
           for b in bounds]
    total = cum[-1][1] if cum else 0
    if total <= 0:
        return 0.0
    target = q * total
    prev = 0
    for b, c in cum:
        if c >= target and c > prev:
            if b == math.inf:
                return float(bounds[-2]) if len(bounds) > 1 else 0.0
            lower = 0.0 if b == 0 else (b + 1) / 2.0
            return lower + (b - lower) * (target - prev) / (c - prev)
        prev = c
    return float(bounds[-1])


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# --- metrics ------------------------------------------------------------------

def end_to_end(raw):
    """The end-to-end metrics of one run (see README for definitions)."""
    q50, q50_ok = percentile(raw["query_us"], 50)
    q99, q99_ok = percentile(raw["query_us"], 99)
    c50, c50_ok = percentile(raw["commit_us"], 50)
    c99, c99_ok = percentile(raw["commit_us"], 99)
    window = raw["window_s"]
    metrics = {
        "setup_s": median(raw["setup_s"]),
        "query_p50_us": q50,
        "commit_p50_us": c50,
        "doc_queries_per_s": raw["doc_queries"] / window,
        "server_rss_mb": raw["server_rss_mb"],
        # The fastest restart, not the median: single restarts fall into a
        # fast and a slow mode, and the share of slow ones changes from run
        # to run, which moves both the median and the mean.
        "recover_s": min(raw["recover_s"]),
    }
    info = {
        "query_p99_us": q99,
        "query_samples": len(raw["query_us"]),
        "commit_samples": len(raw["commit_us"]),
        "unsupported_percentiles": [n for n, ok in (("query_p50_us", q50_ok),
                                                     ("query_p99_us", q99_ok),
                                                     ("commit_p50_us", c50_ok)) if not ok],
        "commit_p99_us": c99 if c99_ok else None,
        "commits_per_s": len(raw["commit_us"]) / window,
    }
    if raw["loop"] == "open":
        lag, _ = percentile(raw["gen_lag_us"], 99)
        info["gen_lag_p99_us"] = lag
        info["gen_lag_valid"] = lag <= 1000.0
    return metrics, info


def per_layer(raw, before, after):
    """The per-layer metrics of a traced run: METRICS deltas over the
    measured window (M), bench-side spans (S), and derived values (D)."""
    d = lambda name: after.counter(name) - before.counter(name)
    hq = lambda name, q: hist_quantile(after, before, name, q)
    replay = raw["replay"]
    stage = lambda name: median(replay["stages"].get(name, {}).get("call_us", []))
    lookups = d("store.cache.hit") + d("store.cache.miss")
    pass_p50, _ = percentile(raw["pass"]["query_us"], 50)
    return {
        # net
        "net.response_bytes": median(replay["response_bytes"]),
        "net.encode_response_us": stage("net.encode"),
        "net.decode_response_us": stage("net.decode"),
        "net.ping_rtt_us": median(raw["ping_us"]),
        # server
        "server.overhead_us": pass_p50 - median(replay["query_stage_sum_us"]),
        "server.shed": d("server.shed"),
        "client.retries": raw["client_retries"],
        # cluster
        "cluster.snapshot_us": stage("cluster.snapshot"),
        "cluster.snapshot_retries_per_snapshot": ratio(d("cluster.snapshot.retries"),
                                                       d("cluster.snapshots")),
        "cluster.commit_us": stage("cluster.commit"),
        # engine
        "engine.compile_us": median(replay["first_compile_us"]),
        "engine.intern_hit_ratio": ratio(d("engine.queries.interning_hits"),
                                         d("engine.queries.interning_hits") +
                                         d("engine.queries.compiled")),
        "query.edva_states_p50": hist_quantile(after, None, "query.edva_states", 0.5),
        # store
        "store.read_us": stage("store.read"),
        "pool.busy_ns_per_query": ratio(d("pool.busy_ns"), d("store.queries")),
        "pool.inline_batch_ratio": ratio(d("pool.inline_batches"), d("pool.batches")),
        "store.query_ns_p50": hq("store.query_ns", 0.5),
        "store.commit_ns_p50": hq("store.commit_ns", 0.5),
        "store.commit_ns_p99": hq("store.commit_ns", 0.99),
        "wal.append_ns_p50": hq("wal.append_ns", 0.5),
        "wal.append_ns_p99": hq("wal.append_ns", 0.99),
        "store.gc.compactions_per_1k_commits": 1000 * ratio(d("store.gc.compactions"),
                                                            d("store.commits")),
        "store.gc.pause_share": (after.hist_sum("store.gc.pause_ns") -
                                 before.hist_sum("store.gc.pause_ns")) / (raw["window_s"] * 1e9),
        # store.cache
        "store.cache.hit_ratio": ratio(d("store.cache.hit"), lookups),
        "store.cache.evictions_per_query": ratio(d("store.cache.evictions"), lookups),
        "store.cache.bytes": after.gauge("store.cache.bytes"),
        "store.cache.splice_ratio": ratio(d("store.cache.spliced"), d("store.cache.miss")),
        "store.cache.refilled_nodes_per_splice": ratio(d("store.cache.refilled_nodes"),
                                                       d("store.cache.spliced")),
        # slp
        "slp.fill.nodes_per_query": ratio(d("slp.fill.nodes"), lookups),
        "slp.fill_ns_p50": hq("slp.fill_ns", 0.5),
        "slp.kernel.sparse_share": ratio(d("slp.kernel.sparse_nodes"),
                                         d("slp.kernel.sparse_nodes") +
                                         d("slp.kernel.blocked_nodes")),
        "slp.enum.tuples_per_query": ratio(d("slp.enum.tuples"), lookups),
        "slp.enum.delay_steps_p99": hq("slp.enum.delay_steps", 0.99),
        "enum.useful_ratio": ratio(raw["tuples_sent"], d("slp.enum.tuples")),
        "cde.op_ns_p50": hq("cde.op_ns", 0.5),
    }


# --- one run ------------------------------------------------------------------

def run_once(binaries, workload, seed, seconds, trace, quick=False):
    serve_load, server = binaries
    work = ROOT / ".bench_run" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "raw.json"
    cmd = [str(serve_load), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--server={server}", f"--work-dir={work}",
           f"--json-out={out}"]
    if quick:
        cmd += ["--warmup=0.5", "--setup-reps=1", "--recover-reps=1", "--pass-seconds=0.5"]
    if trace:
        cmd.append("--trace")
    process = subprocess.Popen(cmd, start_new_session=True, stdout=sys.stderr)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"{workload}: serve_load exited with {code}")
    raw = json.loads(out.read_text())
    raw["inputs_sha256"] = hashlib.sha256((work / "inputs.bin").read_bytes()).hexdigest()
    metrics, info = end_to_end(raw)
    result = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "inputs_sha256": raw["inputs_sha256"], "nproc": raw["nproc"],
              "connections": raw["connections"], "loop": raw["loop"],
              "rate_per_s": raw["rate_per_s"], "warmup_s": raw["warmup_s"],
              "end_to_end": metrics, "info": info,
              "verify": raw["verify"], "errors": raw["errors"],
              "attempted": raw["attempted"],
              "failed": raw["failed"] + raw["verify"]["mismatches"] + raw["audit_violations"],
              "setup_s_runs": raw["setup_s"], "recover_s_runs": raw["recover_s"],
              "phase_s": raw["phase_s"]}
    result["correct"] = result["failed"] == 0 and raw["verify"]["recovered_equal"]
    info["error_frac"] = ratio(result["failed"], result["attempted"])
    if trace:
        before = Scrape((work / "metrics_before.txt").read_text())
        after = Scrape((work / "metrics_after.txt").read_text())
        result["per_layer"] = per_layer(raw, before, after)
        traced_p50, _ = percentile(raw["pass"]["query_us"], 50)
        untraced_p50, _ = percentile(raw["pass"]["query_us_untraced"], 50)
        info["trace_overhead_pct"] = 100 * (traced_p50 / untraced_p50 - 1) if untraced_p50 else 0.0
        result["replay_self_us_per_request"] = {
            name: s["self_us_total"] / max(1, raw["pass"]["requests"])
            for name, s in raw["replay"]["stages"].items()}
        trace_out = ROOT / ".bench_out" / f"trace-{workload}-{seed}.json"
        trace_out.parent.mkdir(exist_ok=True)
        shutil.copyfile(work / "replay_trace.json", trace_out)
        result["chrome_trace"] = str(trace_out.relative_to(ROOT))
    shutil.rmtree(work, ignore_errors=True)
    return result


def print_result(result, spec):
    log_line = (f"{result['workload']} seed={result['seed']} trace={int(result['trace'])} "
                f"inputs_sha256={result['inputs_sha256'][:16]} "
                f"correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']} error_frac={result['info']['error_frac']:.6f}")
    print(log_line)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in result["end_to_end"].items():
        print(f"  {name:<40} {value:>16.6g} {units.get(name, '')}")
    info = result["info"]
    for name in ("query_p99_us", "commit_p99_us", "commits_per_s", "gen_lag_p99_us",
                 "trace_overhead_pct"):
        if info.get(name) is not None:
            print(f"  {name:<40} {info[name]:>16.6g} (info)")
    if info["unsupported_percentiles"]:
        print(f"  fewer than 10 samples beyond: {', '.join(info['unsupported_percentiles'])}")
    if info.get("gen_lag_valid") is False:
        print("  INVALID: generator lag p99 above 1 ms; --compare skips this run")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<40} {value:>16.6g} {units.get(name, '')}")
    for name, value in sorted(result.get("replay_self_us_per_request", {}).items()):
        print(f"  self_us/request {name:<24} {value:>16.6g} us")
    for message in result["errors"] + result["verify"]["messages"]:
        print(f"  ! {message}")


def result_line(result, spec, trace):
    names = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    })


# --- compare ------------------------------------------------------------------

def load_runs(directory):
    """The untraced runs in a directory's result files. A run whose open-loop
    generator fell behind (gen_lag_p99_us above 1 ms) is invalid and skipped."""
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        runs.extend(data["runs"] if isinstance(data, dict) and "runs" in data else [data])
    runs = [r for r in runs if "end_to_end" in r and not r.get("trace")]
    valid = [r for r in runs if r["info"].get("gen_lag_valid", True)]
    if len(valid) < len(runs):
        print(f"{directory}: skipped {len(runs) - len(valid)} run(s) with generator lag "
              "p99 above 1 ms")
    return valid


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(dir_a, dir_b, spec):
    """Per workload x end-to-end metric: medians, quartiles, paired win
    fraction and a verdict against the metric's bound."""
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    print(f"{'workload':<13} {'metric':<18} {'median A':>11} {'median B':>11} "
          f"{'IQR A':>19} {'IQR B':>19} {'win B':>6}  verdict")
    verdicts = []
    for workload in WORKLOADS:
        a = [r for r in runs_a if r["workload"] == workload]
        b = [r for r in runs_b if r["workload"] == workload]
        if not a or not b:
            continue
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            va = [r["end_to_end"][name] for r in a]
            vb = [r["end_to_end"][name] for r in b]
            ma, mb = median(va), median(vb)
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            # Pair by seed where both sides ran it, else by position.
            by_seed = {r["seed"]: r["end_to_end"][name] for r in a}
            pairs = [(by_seed[r["seed"]], r["end_to_end"][name]) for r in b
                     if r["seed"] in by_seed] or list(zip(va, vb))
            wins = sum(better(y, x) for x, y in pairs)
            losses = sum(better(x, y) for x, y in pairs)
            win = wins / max(1, wins + losses)
            qa, qb = quartiles(va), quartiles(vb)
            spread = max((qa[1] - qa[0]) / ma if ma else 0, (qb[1] - qb[0]) / mb if mb else 0)
            worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
            all_better = all(better(y, x) for x in va for y in vb)
            all_worse = all(better(x, y) for x in va for y in vb)
            if worse > bound and (spread <= bound or all_worse):
                verdict = "regressed"
            elif win >= 0.9 and abs(mb - ma) > (qa[1] - qa[0]) and better(mb, ma) and \
                    (spread <= bound or all_better):
                verdict = "improved"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            verdicts.append(verdict)
            print(f"{workload:<13} {name:<18} {ma:>11.5g} {mb:>11.5g} "
                  f"{qa[0]:>9.4g}-{qa[1]:<9.4g} {qb[0]:>9.4g}-{qb[1]:<9.4g} {win:>6.2f}  {verdict}")
    return verdicts


# --- main ---------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", "--duration", type=float, default=None,
                        help="measured window per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed..")
    parser.add_argument("--out", default=".bench_out/serve_bench.json")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    parser.add_argument("--smoke", action="store_true",
                        help="1 s per workload, traced; check every metric is emitted")
    parser.add_argument("--build-dir", default=os.environ.get("CARGO_TARGET_DIR",
                                                              ".bench_build"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        compare(args.compare[0], args.compare[1], spec)
        return 0
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        log(f"serve_bench: refusing to run with {', '.join(refused)} set "
            "(it changes what the server measures)")
        return 2
    workloads = [w for w in args.workload.split(",") if w]
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        log(f"serve_bench: unknown workload(s) {unknown}; choose from {WORKLOADS}")
        return 2
    # Compilers and the load generator keep temporary files inside the checkout.
    tmp = ROOT / ".bench_run" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    binaries = build(ROOT / args.build_dir)

    if args.smoke:
        return smoke(binaries, spec)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results = []
    for workload in workloads:
        for k in range(args.runs):
            result = run_once(binaries, workload, args.seed + k, seconds, bool(args.trace))
            print_result(result, spec)
            results.append(result)
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "default_seed": DEFAULT_SEED, "holdout_seed": HOLDOUT_SEED,
        "runs": results}, indent=1))
    print(f"wrote {out.relative_to(ROOT)}")
    if len(results) == 1:
        # The single-run result line carries correctness itself.
        print(result_line(results[0], spec, bool(args.trace)))
        return 0
    return 0 if all(r["correct"] for r in results) else 1


def smoke(binaries, spec):
    """Every workload for 1 s, traced, with verification: every metric in
    BENCHMARK.json must be emitted and finite and no operation may fail."""
    problems = []
    for workload in WORKLOADS:
        result = run_once(binaries, workload, DEFAULT_SEED, 1.0, True, quick=True)
        print_result(result, spec)
        for section, names in (("end_to_end", spec["end_to_end"]),
                               ("per_layer", spec["per_layer"])):
            for m in names:
                value = result[section].get(m["name"])
                if value is None or not math.isfinite(value):
                    problems.append(f"{workload}: {m['name']} missing or not finite")
        if result["failed"] or not result["correct"]:
            problems.append(f"{workload}: {result['failed']} failed operation(s)")
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError, FileNotFoundError) as error:
        log(f"serve_bench: {error}")
        sys.exit(1)
