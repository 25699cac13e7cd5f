#!/usr/bin/env python3
"""End-to-end benchmark of the shipped ABNN2 serving path.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds the library, tools/abnn2_server and the benchmark driver from the
checkout (into $CARGO_TARGET_DIR or .bench_build), then runs the driver:

  --trace 0  server set-up several times (median = setup_s), then a closed
             loop of secure predictions over TCP loopback for S seconds with
             every logit checked against the plaintext model; prints the
             end-to-end metrics of BENCHMARK.json.
  --trace 1  a short untraced pass against the server, then the same
             requests through the shipped engine in-process, untraced and
             with the library's obs spans collected; prints the per-layer
             metrics, the in-process-vs-server byte gap and the tracing
             overhead.
  --smoke    short runs of every workload in both modes on two seeds: checks
             that every metric named in BENCHMARK.json is present with its
             unit, that the traced byte totals match the untraced run, and
             that the shape-only counts repeat across the two seeds and the
             online bytes across the two runs of each seed.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Provenance (git sha, SIMD dispatch, RO mode, OT backend, pool sizes, nproc,
build type, seed) is printed on the line before it.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Tables 4/5 WAN setting of the paper (net/channel.h kWanQuotient).
WAN_BYTES_PER_S = 24.3e6
WAN_RTT_S = 40e-3

# Warm workload: bundles for the timed window per client, as a multiple of
# the window over the fastest warm-up request (the driver's kBundleHeadroom).
BUNDLE_HEADROOM = 1.5

TRACE_TIMEOUT_S = 170
E2E_SLACK_S = 140


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("repository sources not found next to perfbench/")
    os.makedirs(bdir, exist_ok=True)
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench_driver", "abnn2_server"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return cache


def cache_value(cache, key):
    with open(cache) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def git_provenance():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, check=True,
                               timeout=10).stdout.strip() != ""
        return sha, dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)", None


def run_driver(bdir, mode, workload, seed, seconds, spans=None):
    workdir = os.path.join(bdir, "work-%d-%s" % (os.getpid(), workload))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(bdir, "perfbench_driver"), mode,
           "--workload", workload, "--seed", str(seed),
           "--server", os.path.join(bdir, "abnn2_server"),
           "--workdir", workdir]
    if mode == "e2e":
        cmd += ["--seconds", str(seconds)]
        timeout = seconds + E2E_SLACK_S
    else:
        timeout = TRACE_TIMEOUT_S
    if spans:
        cmd += ["--spans", spans]
    # Own session, so a timeout can kill the driver and its server together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("driver timed out after %d s" % timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed nothing")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with at least ten samples beyond it, never below
    the median. Returns (value, percentile, samples beyond)."""
    v = sorted(values)
    n = len(v)
    k = n - 10  # 1-based rank of the value with exactly ten samples above it
    if 2 * k < n:
        return median(v), 50.0, n // 2
    return v[k - 1], 100.0 * k / n, n - k


# ---- counts that depend on shapes only ---------------------------------------

def data_dependent(name):
    """Byte counts that depend on the inputs: every online byte count except
    the input and reveal messages goes through the optimized ReLU."""
    return name.startswith("core.relu.") and name.endswith(".mb") or \
        name == "core.online_mb"


def shape_counts(samples, layers=None):
    """What must repeat exactly across requests, runs and seeds: offline
    bytes and rounds, online rounds, and every per-layer byte and round
    count that does not depend on the inputs."""
    shape = {(s["off_bytes"], s["off_rounds"], s["on_rounds"]) for s in samples}
    out = {"requests": sorted(shape)}
    for name, value in sorted((layers or {}).items()):
        if name.startswith("core.") and not data_dependent(name) and (
                name.endswith("mb") or name.endswith("rounds")):
            out[name] = value
    return out


def check_counts(samples):
    """Within one run: the shape-only counts are equal for every request, and
    online bytes, which also depend on how many pre-activations are
    non-negative (the optimized ReLU garbles its reshare circuit only for
    those), are equal for requests whose counts agree."""
    problems = []
    shape = shape_counts(samples)["requests"]
    if len(shape) > 1:
        problems.append("shape-only counts differ between requests: %s" % shape)
    by_pos = {}
    for s in samples:
        by_pos.setdefault(tuple(s["positives"]), set()).add(s["on_bytes"])
    for pos, vals in by_pos.items():
        if len(vals) > 1:
            problems.append("online bytes differ for equal positives %s: %s"
                            % (pos, sorted(vals)))
    return problems


def sample_failures(samples):
    problems = []
    for s in samples:
        if s["ok"]:
            continue
        why = ("wrong logits" if s["wrong"] else "BUSY" if s["busy"] else
               "pool miss" if s["pool_miss"] else s["error"] or "failed")
        problems.append("request %d failed: %s" % (s["idx"], why))
    return problems


def drain_problems(drains, warm, attempted):
    """Every serving process drained cleanly and counted nothing that is not
    a plain success; on the warm workload every request was a pool hit."""
    p = []
    for d in drains:
        if not d["found"] or d["exit_code"] != 0:
            p.append("server drain summary missing or nonzero exit (%d)"
                     % d["exit_code"])
        if d["busy"] or d["reaped"] or d["resumed"]:
            p.append("server counted %d busy, %d reaped, %d resumed"
                     % (d["busy"], d["reaped"], d["resumed"]))
        if d["pool_produced"]:
            p.append("server's own factory produced %d bundle(s) during the run"
                     % d["pool_produced"])
    hits = sum(d["pool_hits"] for d in drains)
    misses = sum(d["pool_misses"] for d in drains)
    if warm and (misses or hits != attempted):
        p.append("pool: %d hits, %d misses for %d warm requests"
                 % (hits, misses, attempted))
    return p


# ---- the two modes --------------------------------------------------------------

def e2e_metrics(raw):
    samples = raw["samples"]
    warm = raw["workload"].startswith("warm")
    ok = [s for s in samples if s["ok"]]
    everything = raw["warmup"] + samples
    problems = sample_failures(everything)
    problems += drain_problems(raw["drains"], warm, len(everything))
    problems += check_counts([s for s in everything if s["ok"]])
    if raw["exhausted"]:
        problems.append("warm clients ran out of the %d bundles sized for the "
                        "window" % raw["timed_bundles"])
    lat = [s["lat_ms"] for s in ok]
    tail_v, tail_p, beyond = tail(lat)
    gen = raw["setup_gen_s"]
    wan = [s["lat_ms"] / 1e3
           + (s["off_bytes"] + s["on_bytes"]) / WAN_BYTES_PER_S
           + (s["off_rounds"] + s["on_rounds"]) * WAN_RTT_S for s in ok]
    attempted = len(everything)
    failed = sum(1 for s in everything if not s["ok"])
    metrics = {
        "latency_p50_ms": (median(lat), "ms"),
        "latency_tail_ms": (tail_v, "ms"),
        "throughput_pred_s": (raw["batch"] * len(ok) / raw["window_s"],
                              "pred/s"),
        "comm_mb_per_req": (median([(s["off_bytes"] + s["on_bytes"]) / 1e6
                                    for s in ok]), "MB"),
        "rounds_per_req": (median([s["off_rounds"] + s["on_rounds"]
                                   for s in ok]), "count"),
        "wan_model_s": (median(wan), "s"),
        "cpu_s_per_req": ((raw["cpu_client_s"] + raw["cpu_server_s"])
                          / max(1, len(samples)), "s"),
        "setup_s": (median(gen) + median(raw["ready_s"]), "s"),
    }
    notes = [
        "latency_tail_ms is p%.1f of n=%d completed requests (%d beyond it)"
        % (tail_p, len(lat), beyond),
        "failed_share = %d/%d = %.3f (carried by 'failed'/'attempted'; "
        "%d warm-up request(s) included)"
        % (failed, attempted, failed / max(1, attempted), len(raw["warmup"])),
        "window %.3f s, %d client(s), batch %d; setup_s = median of server "
        "ready after %s s%s"
        % (raw["window_s"], raw["clients"], raw["batch"],
           ["%.4f" % r for r in raw["ready_s"]],
           " + median of generating the %d set-up bundles in %s s" % (
               raw["bundles"], ["%.3f" % g for g in gen]) if warm else ""),
        "rounds_per_req counts the requesting endpoint (the serving process "
        "is not instrumented); the traced run prints both endpoints",
        "server peak RSS %.1f MB (VmHWM; not bounded: it moves 30%% between "
        "runs, see per-layer serve.rss_peak_mb)" % raw["server_rss_mb"],
    ]
    if warm:
        notes.append("window pool: %d bundles (%.1fx the window over the "
                     "fastest warm-up request; warm-up latencies %s ms), "
                     "generated in %.3f s outside setup_s"
                     % (raw["timed_bundles"], BUNDLE_HEADROOM,
                        ["%.0f" % s["lat_ms"] for s in raw["warmup"]],
                        raw["timed_bundle_gen_s"]))
    counts = {"shape": shape_counts(ok),
              "on_bytes": {s["idx"]: s["on_bytes"] for s in ok}}
    return metrics, problems, notes, attempted, failed, counts


def trace_metrics(raw):
    samples = raw["samples"]
    traced, plain = raw["traced"], raw["untraced"]
    warm = raw["workload"].startswith("warm")
    problems = sample_failures(samples)
    problems += drain_problems([raw["drain"]], warm, len(samples))
    problems += check_counts([s for s in samples if s["ok"]])
    by_idx = {s["idx"]: s for s in samples}
    gaps = []
    for r in traced + plain:
        if not r["ok"]:
            problems.append("in-process request %d: wrong logits or no pool "
                            "hit" % r["idx"])
        s = by_idx.get(r["idx"])
        if s is None:
            problems.append("in-process request %d has no twin in the pass "
                            "against the server" % r["idx"])
            continue
        for phase in ("off", "on"):
            for what in ("bytes", "rounds"):
                mine = r["%s_%s" % (phase, what)] if what == "bytes" else \
                    r["%s_rounds_client" % phase]
                theirs = s["%s_%s" % (phase, what)]
                if mine != theirs:
                    gaps.append("%s %s of request %d: in-process %d, through "
                                "the server %d (gap %+d)"
                                % ({"off": "offline", "on": "online"}[phase],
                                   what, r["idx"], mine, theirs, mine - theirs))
    problems += gaps
    for r in traced:
        for phase, key in (("off", "core.offline"), ("on", "core.online")):
            obs_mb = r["layers"][key + "_mb"] * 1e6
            if round(obs_mb) != r[phase + "_bytes"]:
                problems.append("request %d: obs span %s saw %d B, the "
                                "transport %d B" % (r["idx"], key, round(obs_mb),
                                                     r[phase + "_bytes"]))

    med = lambda key: median([r[key] for r in traced])
    m = {name: (median([r["layers"][name] for r in traced]), unit_of(name))
         for name in traced[0]["layers"]} if traced else {}
    for party in ("server", "client"):
        for phase in ("offline", "online"):
            m["net.recv_wait_ms.%s.%s" % (party, phase)] = (
                med("wait_%s_%s_ms" % (party, phase)), "ms")
    m["net.messages"] = (med("messages"), "count")
    m["net.mb_per_s"] = (median([(r["off_bytes"] + r["on_bytes"]) / 1e6
                                 / (r["wall_ms"] / 1e3) for r in traced]),
                         "MB/s")
    d = raw["drain"]
    offers = d["pool_hits"] + d["pool_misses"]
    m["serve.pool_hit_ratio"] = (d["pool_hits"] / offers if offers else 0.0,
                                 "ratio")
    m["serve.busy_rejected"] = (d["busy"], "count")
    m["serve.reaped"] = (d["reaped"], "count")
    m["serve.queue_depth_max"] = (raw["queue_depth_max"], "count")
    m["serve.rss_peak_mb"] = (raw["server_rss_mb"], "MB")
    m["offline.bundle_gen_ms"] = (raw["bundle_gen_ms"], "ms")
    m["offline.pool_load_ms"] = (raw["pool_load_ms"], "ms")
    traced_ms = med("wall_ms")
    untraced_ms = median([r["wall_ms"] for r in plain])
    overhead = 100.0 * (traced_ms / untraced_ms - 1) if untraced_ms else 0.0
    m["trace.overhead_pct"] = (overhead, "%")
    serving = median([by_idx[r["idx"]]["lat_ms"] for r in plain
                      if r["idx"] in by_idx])
    notes = [
        "tracing overhead: traced %.1f ms vs the same requests untraced "
        "%.1f ms, both in-process = %+.1f%%"
        % (traced_ms, untraced_ms, overhead),
        "in-process vs serving path: untraced in-process %.1f ms vs %.1f ms "
        "through abnn2_server for the same requests (%d-thread pool shared "
        "by both parties in-process; %d concurrent client(s) against the "
        "server)" % (untraced_ms, serving, raw["in_process_threads"],
                     max(s["client"] for s in samples) + 1 if samples else 0),
        "in-process vs serving-path byte and round gap: %s"
        % ("none" if not gaps else "; ".join(gaps)),
        "rounds by endpoint (offline/online): " + ", ".join(
            "request %d server %d/%d client %d/%d" % (
                r["idx"], r["off_rounds_server"], r["on_rounds_server"],
                r["off_rounds_client"], r["on_rounds_client"])
            for r in traced),
    ]
    attempted = len(samples) + len(traced) + len(plain)
    failed = (sum(1 for s in samples if not s["ok"])
              + sum(1 for r in traced + plain if not r["ok"]))
    counts = {"shape": shape_counts([s for s in samples if s["ok"]],
                                    {k: v for k, (v, _) in m.items()}),
              "on_bytes": {s["idx"]: s["on_bytes"] for s in samples if s["ok"]}}
    return m, problems, notes, attempted, failed, counts


UNITS = [(".ms", "ms"), ("_ms", "ms"), (".mb", "MB"), ("_mb", "MB"),
         ("rounds", "count"), ("pred_ratio", "ratio"), ("ns_per_ot", "ns"),
         ("and_gates", "count")]


def unit_of(name):
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError("no unit for metric " + name)


def run_once(workload, seed, seconds, trace, bdir, cache):
    spans = None
    if trace:
        tdir = os.path.join(bdir, "traces")
        os.makedirs(tdir, exist_ok=True)
        spans = os.path.join(tdir, "%s-seed%d.json" % (workload, seed))
    raw = run_driver(bdir, "trace" if trace else "e2e", workload, seed,
                     seconds, spans)
    out = trace_metrics(raw) if trace else e2e_metrics(raw)
    sha, dirty = git_provenance()
    provenance = {
        "git_sha": sha, "git_dirty": dirty,
        "simd_dispatch": raw["dispatch"], "ro_mode": raw["ro_mode"],
        "ot_backend": raw["ot_backend"],
        "threads": {"server": raw["server_threads"],
                    "load_generator": raw["client_threads"]},
        "nproc": os.cpu_count(),
        "build_type": cache_value(cache, "CMAKE_BUILD_TYPE"),
        "abnn2_native": cache_value(cache, "ABNN2_NATIVE"),
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
    }
    if spans:
        provenance["spans"] = os.path.relpath(spans, ROOT)
    return out + (provenance,)


def report(metrics, problems, notes, attempted, failed, counts, provenance):
    for name, (value, unit) in metrics.items():
        print("%-40s %16.6f %s" % (name, value, unit))
    for n in notes:
        print("note: " + n)
    for p in problems:
        print("CHECK FAILED: " + p)
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


# ---- smoke test ------------------------------------------------------------------

def smoke(bdir, cache):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for wl in [w["name"] for w in spec["workloads"]]:
        shapes = {}
        for seed in (1, 2):
            on_bytes = {}
            for trace in (0, 1):
                t0 = time.time()
                metrics, problems, notes, _, _, counts, _ = run_once(
                    wl, seed, 1, trace, bdir, cache)
                log("smoke %s seed %d trace %d: %.1f s" % (wl, seed, trace,
                                                            time.time() - t0))
                for n in notes:
                    log("  note: " + n)
                failures += ["%s: %s" % (wl, p) for p in problems]
                for name, unit in want[trace].items():
                    if name not in metrics:
                        failures.append("%s trace %d: metric %s missing"
                                        % (wl, trace, name))
                    elif metrics[name][1] != unit:
                        failures.append("%s: %s has unit %s, want %s"
                                        % (wl, name, metrics[name][1], unit))
                extra = set(metrics) - set(want[trace])
                if extra:
                    failures.append("%s trace %d: metrics not in BENCHMARK.json: %s"
                                    % (wl, trace, sorted(extra)))
                if trace and not any(n.startswith("tracing overhead")
                                     for n in notes):
                    failures.append("%s: tracing overhead not printed" % wl)
                shapes.setdefault(trace, []).append(counts["shape"])
                # The same seed sends the same inputs in both runs.
                for idx, b in counts["on_bytes"].items():
                    if on_bytes.setdefault(idx, b) != b:
                        failures.append("%s seed %d request %d: online bytes "
                                        "%d in one run, %d in the other"
                                        % (wl, seed, idx, b, on_bytes[idx]))
        for trace, per_seed in shapes.items():
            if per_seed[0] != per_seed[1]:
                failures.append("%s trace %d: shape-only counts differ across "
                                "seeds: %s vs %s" % (wl, trace, per_seed[0],
                                                     per_seed[1]))
    for f in failures:
        print("SMOKE FAILED: " + f)
    print("smoke: %s" % ("ok" if not failures else "%d failure(s)" % len(failures)))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        bdir = build_dir()
        cache = build(bdir)
        if args.smoke:
            return smoke(bdir, cache)
        out = run_once(args.workload, args.seed, args.seconds, args.trace,
                       bdir, cache)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    report(*out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
