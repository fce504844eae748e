#!/usr/bin/env python3
"""The rwdom serving benchmark.

Builds `rwdom` and perfbench_tool from source, generates one workload's
graphs and request lines from --seed, starts the real `rwdom serve` as a
child process and drives it for --seconds from one load-generator process
(perfbench_tool load: four TCP connections, closed loop). Every response
is checked byte for byte (modulo "seconds") against a cold in-process
reference.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (an
in-process replay with spans around each layer's calls, plus server_stats
counter deltas). The last stdout line is the result object; the line
before it is a report with the environment stamp, reference hash,
per-command latencies, counters and invariants. See perfbench/README.md
for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") /
             "perfbench")
RWDOM = BUILD_DIR / "rwdom" / "tools" / "rwdom"
TOOL = BUILD_DIR / "perfbench_tool"

THREADS = 4       # serve --threads, and the number of client connections.
BOOTS = 5         # server boots per run; setup_s is their median.
WARM_S = 2.0      # untimed full-traffic warm-up before the timed phase.
STEP_TIMEOUT = 120


class BenchError(Exception):
    pass


def run(cmd, timeout=STEP_TIMEOUT):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr[-4000:])
    return proc.stdout


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no rwdom source tree at {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    with open(log, "w") as out:
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(THREADS),
                      "--target", "rwdom_main", "perfbench_tool"])
        for step in steps:
            if subprocess.run([str(c) for c in step], stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed; see {log}")


# --- Workloads -------------------------------------------------------------

def req(command, flags, graph=None):
    line = {"command": command, "flags": flags}
    if graph is not None:
        line["graph"] = graph
    return json.dumps(line)


def generate(out, n, m, seed, weighted=False):
    cmd = [RWDOM, "generate", "--model=plc", f"--n={n}", f"--m={m}",
           f"--seed={seed}", f"--out={out}"]
    if weighted:
        cmd += ["--weighted=1", "--directed=1"]
    run(cmd)
    return out


class Workload:
    """One traffic mix. `conns` is a list of (window, [(class, line)]);
    class is "heavy.<command>" or "light.<command>"."""

    def __init__(self, tenants, conns, serve_flags=(), warmup=(),
                 cache_dir=None, index_key=None, max_cache_bytes=0,
                 prepare=()):
        self.tenants = tenants          # [(name, path, options)]
        self.conns = conns
        self.serve_flags = list(serve_flags)
        self.warmup = list(warmup)      # Run before the in-process replay.
        self.cache_dir = cache_dir
        self.index_key = index_key      # (L, R, seed) for index.build_ms.
        self.max_cache_bytes = max_cache_bytes
        self.prepare = list(prepare)    # Lines a throw-away server runs first.

    def tenant_specs(self):
        """NAME=PATH[,weighted][,directed] per tenant, default first."""
        return [f"{name}={path}{''.join(',' + o for o in opts)}"
                for name, path, opts in self.tenants]

    def tenant_args(self):
        return [f"--tenant={spec}" for spec in self.tenant_specs()]

    def serve_graph_flags(self):
        # serve takes the default tenant as a bare path.
        return [f"--graph={self.tenants[0][1]}"] + [
            f"--graph={spec}" for spec in self.tenant_specs()[1:]]


def select_warm(seed, work):
    graph = generate(work / "g.txt", 20000, 160000, seed)
    key = {"L": 6, "R": 50, "seed": 1000 + seed}
    selects = [req("select", {"problem": p, "method": "index-celf", "k": k,
                              **key})
               for p in ("F1", "F2") for k in (5, 10, 20)]
    cover = req("cover", {"alpha": 0.2, **key})
    # Untimed preparation: a throw-away server with this cache dir
    # builds the key once and checkpoints it, so every timed boot recovers
    # the index and the timed phase builds nothing.
    cache = work / "cache"
    conns = [(1, [("heavy.select", selects[(2 * c + i) % 6])
                  for i in range(6)]) for c in range(3)]
    conns.append((1, [("light.cover", cover)]))
    return Workload([("default", graph, ())], conns,
                    serve_flags=[f"--cache_dir={cache}"], cache_dir=cache,
                    index_key=(6, 50, key["seed"]),
                    prepare=[req("stats", {"with_index": 1, **key})])


def build_churn(seed, work):
    graph = generate(work / "g.txt", 20000, 160000, seed)
    keys = [{"L": 6, "R": 30, "seed": 2000 + 10 * seed + i} for i in range(8)]
    # Connection c owns keys c and c+4; with about two indexes resident,
    # each key is evicted before its connection comes back to it.
    conns = [(1, [("heavy.cover", req("cover", {"alpha": 0.05, **keys[c]})),
                  ("light.stats", req("stats", {"with_index": 1,
                                                **keys[c + 4]}))])
             for c in range(4)]
    return Workload([("default", graph, ())], conns,
                    serve_flags=[f"--cache_dir={work / 'cache'}"],
                    index_key=(6, 30, keys[0]["seed"]))


def walk_tenants(seed, work):
    rng = random.Random(seed)
    uniform = generate(work / "g.txt", 20000, 160000, seed)
    weighted = generate(work / "wd.txt", 10000, 80000, seed, weighted=True)
    sizes = {"default": 20000, "weighted": 10000}
    evaluates, knns = [], []
    for i in range(16):
        graph = ("default", "weighted")[i % 2]
        seeds = ",".join(map(str, rng.sample(range(sizes[graph]), 10)))
        evaluates.append(req("evaluate", {"seeds": seeds, "L": 6, "R": 100,
                                          "seed": rng.randrange(1 << 30)},
                             graph))
        knns.append(req("knn", {"query": rng.randrange(sizes[graph]), "k": 10,
                                "mode": "sampled", "L": 6, "R": 200,
                                "seed": rng.randrange(1 << 30)}, graph))
    # Each connection alternates between the two tenants.
    conns = [(1, [("light.evaluate", line)
                  for line in evaluates[8 * h:8 * h + 8]]) for h in range(2)]
    conns += [(1, [("heavy.knn", line) for line in knns[8 * h:8 * h + 8]])
              for h in range(2)]
    return Workload([("default", uniform, ()),
                     ("weighted", weighted, ("weighted", "directed"))], conns)


def tiny_mixed(seed, work):
    rng = random.Random(seed)
    graph = generate(work / "g.txt", 1000, 8000, seed)
    cheap = []
    for i in range(60):
        kind = i % 3
        if kind == 0:
            cheap.append(("light.stats", req("stats", {})))
        elif kind == 1:
            cheap.append(("light.knn", req("knn", {
                "query": rng.randrange(1000), "k": 5, "L": 6})))
        else:
            seeds = ",".join(map(str, rng.sample(range(1000), 5)))
            cheap.append(("light.evaluate", req("evaluate", {
                "seeds": seeds, "L": 6, "R": 2,
                "seed": rng.randrange(1 << 30)})))
    select = req("select", {"method": "index-celf", "k": 5, "L": 6, "R": 100,
                            "seed": 3000 + seed})
    conns = [(8, cheap[20 * c:] + cheap[:20 * c]) for c in range(3)]
    conns.append((1, [("heavy.select", select)]))
    return Workload([("default", graph, ())], conns, warmup=[select],
                    index_key=(6, 100, 3000 + seed))


WORKLOADS = {
    "select-warm": select_warm,
    "build-churn": build_churn,
    "walk-tenants": walk_tenants,
    "tiny-mixed": tiny_mixed,
}


# --- Server control --------------------------------------------------------

class Server:
    def __init__(self, workload, work, index):
        self.port_file = work / f"port{index}"
        self.log = open(work / f"serve{index}.log", "w")
        cmd = [RWDOM, "serve", *workload.serve_graph_flags(), "--port=0",
               f"--port_file={self.port_file}", f"--threads={THREADS}",
               *workload.serve_flags]
        if workload.max_cache_bytes:
            cmd.append(f"--max_cache_bytes={workload.max_cache_bytes}")
        start = time.perf_counter()
        self.proc = subprocess.Popen([str(c) for c in cmd], stdout=self.log,
                                     stderr=subprocess.STDOUT)
        while True:
            text = (self.port_file.read_text()
                    if self.port_file.exists() else "")
            if text.endswith("\n"):
                break
            if self.proc.poll() is not None:
                raise BenchError(f"serve exited {self.proc.returncode}; see "
                                 f"{self.log.name}")
            if time.perf_counter() - start > 60:
                self.stop()
                raise BenchError("serve did not come up within 60 s")
            time.sleep(0.001)
        self.setup_s = time.perf_counter() - start
        self.port = int(text)

    def request(self, line):
        with socket.create_connection(("127.0.0.1", self.port), 30) as sock:
            stream = sock.makefile("rw")
            stream.readline()  # Greeting.
            stream.write(line + "\n")
            stream.flush()
            return json.loads(stream.readline())

    def stats(self):
        return self.request(req("server_stats", {}))["server_stats"]

    def vm_hwm_kb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for row in status.split("\n"):
            if row.startswith("VmHWM:"):
                return int(row.split()[1])
        raise BenchError("no VmHWM in /proc status")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# --- Measurement -----------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def write_plan(workload, refs, path, conns=None):
    with open(path, "w") as out:
        for c, (window, lines) in enumerate(conns or workload.conns):
            for cls, line in lines:
                out.write(f"{c}\t{window}\t{cls}\t{line}\t{refs[line]}\n")


def drive(server, workload, refs, work, name, seconds, conns=None):
    plan = work / f"{name}.plan"
    out = work / f"{name}.tsv"
    write_plan(workload, refs, plan, conns)
    cmd = [TOOL, "load", f"--port={server.port}", f"--plan={plan}",
           f"--out={out}", f"--seconds={seconds}"]
    summary = json.loads(run(cmd, timeout=seconds + STEP_TIMEOUT))
    records = []
    for row in out.read_text().splitlines():
        cls, done_s, latency_us, status, reported_s = row.split("\t")
        role, command = cls.split(".")
        records.append((role, command, float(latency_us) / 1e3, status,
                        float(reported_s), float(done_s)))
    return summary, records


def latency_table(records):
    """p50/p80/p90 (and p99 with >= 1000 samples) of OK requests, per role
    ("heavy", "light") and per command."""
    groups = {}
    for role, command, latency_ms, status, *_ in records:
        if status == "o":
            groups.setdefault(role, []).append(latency_ms)
            groups.setdefault(command, []).append(latency_ms)
    table = {}
    for name, values in groups.items():
        table[name] = {"n": len(values), "p50_ms": statistics.median(values),
                       "p80_ms": percentile(values, 0.80),
                       "p90_ms": percentile(values, 0.90)}
        if len(values) >= 1000:
            table[name]["p99_ms"] = percentile(values, 0.99)
    return table


def environment():
    cpu = "unknown"
    try:
        for row in Path("/proc/cpuinfo").read_text().split("\n"):
            if row.startswith("model name"):
                cpu = row.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*"),
                        *(ROOT / "tools").rglob("*"),
                        ROOT / "CMakeLists.txt"]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    env = json.loads(run([TOOL, "env"]))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "compiler": env["compiler"], "build_type": env["build_type"],
            "git_commit": commit or "unavailable (not a git checkout)",
            "source_sha256": digest.hexdigest()}


def run_workload(name, seed, seconds, trace):
    # Only the latest run's files are kept (snapshot caches are large).
    shutil.rmtree(BUILD_DIR / "runs", ignore_errors=True)
    work = BUILD_DIR / "runs" / f"{name}-{seed}-{trace}"
    work.mkdir(parents=True)
    phases = {}
    clock = time.perf_counter()

    def phase_done(phase):
        nonlocal clock
        now = time.perf_counter()
        phases[phase] = now - clock
        clock = now

    workload = WORKLOADS[name](seed, work)
    phase_done("generate")

    # Cold references, one per distinct line, before any server exists.
    distinct = list(dict.fromkeys(
        line for _, lines in workload.conns for _, line in lines))
    (work / "distinct.jsonl").write_text("\n".join(distinct) + "\n")
    run([TOOL, "reference", *workload.tenant_args(),
         f"--lines={work / 'distinct.jsonl'}", f"--out={work / 'refs.jsonl'}"])
    ref_lines = (work / "refs.jsonl").read_text().splitlines()
    refs = dict(zip(distinct, ref_lines))
    ref_hash = hashlib.sha256("\n".join(ref_lines).encode()).hexdigest()
    if name == "build-churn":
        # About 2.5 indexes fit: the budget is sized from the real index
        # bytes the reference stats responses report.
        index_bytes = max(json.loads(r)["memory"]["index"]["bytes"]
                          for line, r in refs.items() if '"stats"' in line)
        workload.max_cache_bytes = int(2.5 * index_bytes)
    phase_done("reference")

    if workload.prepare:
        prep = Server(workload, work, "prep")
        try:
            for line in workload.prepare:
                prep.request(line)
        finally:
            prep.stop()
        phase_done("prepare")

    boot_s = []
    server = None
    try:
        for i in range(BOOTS):
            server = Server(workload, work, i)
            boot_s.append(server.setup_s)
            if i < BOOTS - 1:
                server.stop()
        phase_done("boots")
        _, warm_records = drive(server, workload, refs, work, "warm", WARM_S)
        before = server.stats()
        summary, records = drive(server, workload, refs, work, "timed",
                                 seconds)
        after = server.stats()
        hwm_kb = server.vm_hwm_kb()
        phase_done("timed")
        hol_alone = None
        if trace and name == "tiny-mixed":
            cheap = [c for c in workload.conns
                     if c[1][0][0].startswith("light")]
            _, alone = drive(server, workload, refs, work, "alone",
                             max(1.0, seconds / 4), conns=cheap)
            hol_alone = latency_table(alone)["light"]["p50_ms"]
    finally:
        if server is not None:
            server.stop()

    ok = [r for r in records if r[3] == "o"]
    failed = len(records) - len(ok) + sum(r[3] != "o" for r in warm_records)
    table = latency_table(records)
    counters = {key: after[key] - before[key] for key in (
        "index_builds", "index_hits", "index_evictions", "checkpoints_written",
        "queries_error", "queries_ok")}
    counters["index_recovered"] = after["index_recovered"]
    invariants = {"queries_error == 0": counters["queries_error"] == 0}
    if name == "select-warm":
        invariants["index_recovered == 1"] = counters["index_recovered"] == 1
        invariants["index_builds == 0"] = counters["index_builds"] == 0
    elif name == "walk-tenants":
        invariants["index_hits == 0"] = counters["index_hits"] == 0
        invariants["index_builds == 0"] = counters["index_builds"] == 0
    elif name == "build-churn":
        invariants["index_hits + index_builds == GetIndex calls"] = (
            counters["index_hits"] + counters["index_builds"] == len(ok))
    if summary["failures"]:
        invariants["no connection failures"] = False

    heavy, light = table.get("heavy"), table.get("light")
    if heavy is None or light is None:
        raise BenchError("a request class finished no request in the run")
    end_to_end = {
        "setup_s": (statistics.median(boot_s), "s"),
        # Responses completed inside the timed window (the drain of the
        # requests still in flight at its end is not counted).
        "qps": (sum(r[5] <= seconds for r in ok) / seconds, "1/s"),
        "heavy_p50_ms": (heavy["p50_ms"], "ms"),
        # p80: select-warm finishes only ~50 heavy requests per run, and the
        # tail reported is the highest one with ~10 samples beyond it.
        "heavy_p80_ms": (heavy["p80_ms"], "ms"),
        "light_p50_ms": (light["p50_ms"], "ms"),
        "light_p90_ms": (light["p90_ms"], "ms"),
        "rss_peak_mb": (hwm_kb / 1024.0, "MB"),
    }
    reported = [r[4] * 1e3 for r in ok if r[1] == "select" and r[4] >= 0]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "reference_sha256": ref_hash, "distinct_lines": len(distinct),
        "requests_sent": summary["sent"], "responses_ok": len(ok),
        "error_frac": failed / max(1, len(records)),
        "latency": table, "boot_s": boot_s, "counters": counters,
        "invariants": invariants,
        "select.reported_ms": (statistics.median(reported) if reported
                               else None),
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    if trace:
        metrics = per_layer(workload, refs, work, seconds, counters, table,
                            reported, hol_alone, report)
        phase_done("trace")
    report["phase_s"] = phases
    correct = failed == 0 and all(invariants.values())
    return correct, len(records) + len(warm_records), failed, metrics, report


def per_layer(workload, refs, work, seconds, counters, table, reported,
              hol_alone, report):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # Replay order interleaves the connections so a prefix of the
    # sequence covers every request type.
    queues = [list(lines) for _, lines in workload.conns]
    order = []
    while len(order) < 96 and any(queues):
        for queue in queues:
            if queue:
                order.append(queue.pop(0)[1])
    (work / "replay.jsonl").write_text("\n".join(order) + "\n")
    (work / "replay_refs.jsonl").write_text(
        "\n".join(refs[line] for line in order) + "\n")
    cmd = [TOOL, "trace", *workload.tenant_args(),
           f"--lines={work / 'replay.jsonl'}",
           f"--refs={work / 'replay_refs.jsonl'}",
           f"--spans_out={work / 'spans.jsonl'}",
           f"--budget_s={max(2.0, seconds / 4)}",
           f"--max_cache_bytes={workload.max_cache_bytes}"]
    if workload.cache_dir:
        cmd.append(f"--cache_dir={workload.cache_dir}")
    if workload.index_key:
        cmd.append("--index_key=" + ",".join(map(str, workload.index_key)))
    if workload.warmup:
        (work / "warmup.jsonl").write_text("\n".join(workload.warmup) + "\n")
        cmd.append(f"--warmup={work / 'warmup.jsonl'}")
    layers = json.loads(run(cmd, timeout=seconds * 4 + STEP_TIMEOUT))
    hits, builds = counters["index_hits"], counters["index_builds"]
    layers.update({
        "index_cache.builds": builds,
        "index_cache.hits": hits,
        "index_cache.evictions": counters["index_evictions"],
        "index_cache.hit_ratio": (hits / (hits + builds) if hits + builds
                                  else 0),
        "persist.checkpoints": counters["checkpoints_written"],
        "select.reported_ms": statistics.median(reported) if reported else 0,
        "parallel.hol_ms": (table["light"]["p50_ms"] - hol_alone
                            if hol_alone is not None else 0),
    })
    if "select" in table and "eval.metrics_ms" in layers:
        layers["eval.metrics_share"] = (layers["eval.metrics_ms"] /
                                        table["select"]["p50_ms"])
    report["replay"] = {k: v for k, v in layers.items()
                        if k.startswith("trace.")}
    report["replay"]["spans_file"] = str(work / "spans.jsonl")
    return {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in spec}


def self_check():
    """Runs every workload briefly, untraced and traced, and checks that the
    result names every BENCHMARK.json metric with its unit and that the
    correctness gate passed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload["name"], "--seed", "1", "--seconds", "2",
                 "--trace", str(trace)], capture_output=True, text=True,
                timeout=600)
            label = f"{workload['name']} trace={trace}"
            failed_before = len(failures)
            try:
                result = json.loads(proc.stdout.strip().split("\n")[-1])
            except (ValueError, IndexError):
                failures.append(f"{label}: no result line "
                                f"(exit {proc.returncode}): "
                                f"{proc.stderr[-2000:]}")
                continue
            if (proc.returncode != 0 or not result["correct"] or
                    result["failed"]):
                failures.append(f"{label}: correctness gate failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics {sorted(got.items())} != "
                                f"{sorted(want.items())}")
            print(f"self-check {label}: "
                  f"{'ok' if len(failures) == failed_before else 'FAILED'}",
                  flush=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        correct, attempted, failed, metrics, report = run_workload(
            args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
