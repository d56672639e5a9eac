#!/usr/bin/env python3
"""End-to-end benchmark of flowsynth: what users run, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py compare RESULT_A.json RESULT_B.json

Workloads (perfbench/DESIGN.md says why each exists and what it skips):
  table1_heuristic  the paper's 12 Table-1 rows, heuristic mapper, sweep on
  ilp_exact         pcr@9, invitro@9, protein@12 by the exact mapping ILP
  server_mix        one flowsynthd, open-loop job mix over loopback HTTP

The first run builds perfbench/ (and the repository's sources under it)
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build).  Every
run prints one line per metric, writes a host-stamped result file under
.perfbench_out/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics (tracing off); --trace 1 makes a separate traced run
and reports the per-layer metrics.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # nothing but results lands in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
OUT = os.path.join(ROOT, ".perfbench_out")
PERFBENCH = os.path.join(BUILD, "perfbench")
FLOWSYNTHD = os.path.join(BUILD, "flowsynth_tools", "flowsynthd")

WORKLOADS = ("table1_heuristic", "ilp_exact", "server_mix")
DEFAULT_SEED = 2015  # the CLI's default heuristic seed

# server_mix constants, from capacity measurements on a 4-core host
# (perfbench/DESIGN.md): 2 workers held 32 jobs/s and shed a quarter of the
# jobs at 40.  The nominal rate is well below half of that, because queueing
# magnifies every slowdown of a shared host, and it is the ladder's first
# rung.  The rungs are fixed and far from capacity on both sides: the
# middle rung still holds when the host runs a third slower, and the top
# one fails until capacity grows by half, so the reading moves only when
# capacity does.
SERVER_WORKERS = 2
NOMINAL_RATE = 8.0
LADDER = (NOMINAL_RATE, 16.0, 48.0)
SLO_MS = 1000.0  # half the 2 s interactive route deadline
BATCH_SETUPS = 9  # set-ups per run; setup_s is their median
SERVER_SETUPS = 3
# Processes CPU-bound work may use: the CPUs this process may run on,
# which on a shared host can be far fewer than the machine has.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
# Everything after the build ends within this many seconds or the run fails.
RUN_LIMIT_S = 170
DEADLINE = math.inf

# Metric names and units are defined once, in BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _BENCHMARK = json.load(_f)
E2E = [(m["name"], m["unit"]) for m in _BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _BENCHMARK["per_layer"]]


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    for needed in ("src", "tools"):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            raise BenchError("no %s/ beside perfbench/: nothing to build" % needed)
    os.makedirs(BUILD, exist_ok=True)
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=out, stderr=out, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "flowsynthd",
                    "-j", str(NPROC)], stdout=out, stderr=out, check=True)


def host_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = json.loads(subprocess.run([PERFBENCH, "info"], capture_output=True, text=True,
                                     check=True).stdout)
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "none (not a git checkout)"
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"nproc": NPROC, "cpu": cpu, "compiler": info["compiler"],
            "build_type": info["build_type"], "git_sha": sha,
            "source_sha1": digest.hexdigest()}


# ---------------------------------------------------------------- processes

def start_clock():
    """Starts the run's time limit; the build before it has its own."""
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_LIMIT_S


def remaining_s():
    return DEADLINE - time.monotonic()


def spawn(cmd, log_path):
    with open(log_path, "ab") as log_file:
        proc = subprocess.Popen(cmd, stdout=log_file, stderr=subprocess.STDOUT)
    proc.log_path = log_path
    return proc


def log_tail(path, lines=5):
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:]).rstrip()
    except OSError:
        return ""


def reap(proc, what):
    """Waits for `proc`, returning its peak resident set in MB; kills it
    (and fails the run) if it outlives the run's time limit."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                raise BenchError("%s exited with %d:\n%s" % (what, proc.returncode,
                                                            log_tail(proc.log_path)))
            return usage.ru_maxrss / 1024.0
        if remaining_s() < 0:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise BenchError("%s did not finish within the run's %d s" % (what, RUN_LIMIT_S))
        time.sleep(0.002)


def run_perfbench(args, log_path):
    return reap(spawn([PERFBENCH] + args, log_path), "perfbench " + args[0])


def read_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------- batch

def run_batch(workload, seed, seconds, trace, scratch):
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    raw_path = os.path.join(scratch, "raw.json")
    trace_path = os.path.join(scratch, "trace.json")
    log_path = os.path.join(scratch, "perfbench.log")
    setups = []
    for _ in range(BATCH_SETUPS - 1):
        started = time.monotonic()
        run_perfbench(["batch"] + common + ["--trace", "0", "--setup-only", "1",
                                            "--out", raw_path], log_path)
        setups.append(read_json(raw_path)["ready_mono"] - started)
    started = time.monotonic()
    rss = run_perfbench(["batch"] + common + ["--trace", str(trace), "--out", raw_path,
                                              "--trace-out", trace_path], log_path)
    raw = read_json(raw_path)
    setups.append(raw["ready_mono"] - started)

    untraced = raw["passes"][:raw["untraced_passes"]]
    walls = raw["pass_wall_s"][:raw["untraced_passes"]]
    k = raw["set_size"]
    set_walls = [sum(walls[i:i + k]) for i in range(0, len(walls), k)]
    design_s = [d["seconds"] for p in untraced for d in p]
    # A job is what one CLI command produces: a whole Table-1 pass
    # (`flowsynth table1`), or one exact design (`flowsynth synth --ilp`).
    jobs_s = walls if workload == "table1_heuristic" else design_s
    jobs_per_set = len(jobs_s) // len(set_walls)
    job_tail = stats.tail([s * 1e3 for s in jobs_s])
    # Quality comes from the workload seed's own designs, so the default
    # seed reads exactly what the CLI prints.
    first = raw["passes"][0]
    ok = stats.ratio(raw["attempted"] - raw["failed"], raw["attempted"])
    result = {
        "attempted": raw["attempted"], "failed": raw["failed"], "errors": raw["errors"],
        "metrics": {
            "setup_s": stats.median(setups),
            "wall_s": stats.median(set_walls),
            "design_gmean_s": stats.geomean(design_s),
            "peak_rss_mb": rss,
            "vs1_max_sum": sum(d["vs1_max"] for d in first),
            "vs2_max_sum": sum(d["vs2_max"] for d in first),
            "valves_sum": sum(d["valves"] for d in first),
            "ok_share": ok["value"],
            "job_p50_ms": stats.median(jobs_s) * 1e3,
            "job_tail_ms": job_tail["value"],
            # Batch designs have no latency limit beyond finishing within
            # the run; the share is that of designs produced correctly.
            "slo_met_share": ok["value"],
            "sustained_jobs_per_s": jobs_per_set / stats.median(set_walls),
        },
        "detail": {
            "setups_s": setups, "pass_wall_s": walls, "pass_seeds": raw["pass_seeds"],
            "set_wall_s": set_walls, "designs": first,
            "job_tail": job_tail, "ok_share": ok,
            "quality_at": "first pass, seed %d" % seed,
        },
    }
    if trace:
        # The traced pass repeats the first untraced pass (same seed).
        result["layers"] = batch_layers(raw, read_json(trace_path), walls[0])
    return result


def _seconds(spans):
    return sum(s.dur for s in spans) / 1e6


def synth_layers(spans, m):
    """synth/route/sim/ilp metrics from the program's own spans."""
    attempts = [s for s in spans if s.cat == "synth" and s.name == "attempt"]
    feasible = [a for a in attempts
                if any(d.cat == "sim" and d.name == "verify" for d in a.descendants())]
    infeasible = [a for a in attempts if a not in feasible]
    repeated = 0
    for call in (s for s in spans if s.cat == "synth" and s.name == "synthesize"):
        seen = set()
        for a in sorted((d for d in call.descendants()
                         if d.cat == "synth" and d.name == "attempt"), key=lambda s: s.ts):
            side = a.args.get("side")
            repeated += side in seen
            seen.add(side)
    heuristic = [s for s in spans if s.cat == "synth" and s.name == "map_heuristic"]
    warm = [s for s in heuristic
            if s.parent is not None and s.parent.cat == "synth" and s.parent.name == "map"
            and s.parent.args.get("mapper") == "ilp"]
    routes = [s for s in spans if s.cat == "route" and s.name == "route_all"]
    solves = [s for s in spans if s.cat == "ilp" and s.name == "solve_milp"]
    iterations = sum(s.args.get("lp_iterations", 0) for s in solves)
    m["synth.attempts"] = len(attempts)
    m["synth.attempts_infeasible"] = len(infeasible)
    m["synth.attempt_yield"] = stats.ratio(len(feasible), len(attempts))
    m["synth.attempts_repeated"] = repeated
    m["synth.infeasible_attempt_s"] = _seconds(infeasible)
    m["synth.attempt_self_s"] = sum(a.self_us for a in attempts) / 1e6
    m["synth.map_heuristic_s"] = _seconds(heuristic)
    m["synth.anneal_moves"] = sum(s.args.get("moves_tried", 0) for s in heuristic)
    m["synth.routing_remaps"] = sum(1 for s in spans if s.cat == "synth" and s.name == "map"
                                    and s.args.get("retry", 0) > 0)
    m["route.route_all_s"] = _seconds(routes)
    m["route.calls"] = len(routes)
    m["route.failures"] = sum(1 for s in routes if not s.args.get("success", True))
    m["route.rip_ups"] = sum(s.args.get("rip_ups", 0) for s in routes)
    m["sim.verify_s"] = _seconds(s for s in spans if s.cat == "sim" and s.name == "verify")
    m["ilp.build_model_s"] = _seconds(s for s in spans
                                      if s.cat == "ilp" and s.name == "build_model")
    m["ilp.solve_s"] = _seconds(solves)
    m["ilp.warm_start_s"] = _seconds(warm)
    m["ilp.nodes"] = sum(s.args.get("nodes", 0) for s in solves)
    m["ilp.lp_iterations"] = iterations
    m["ilp.ms_per_1k_iterations"] = stats.ratio(m["ilp.solve_s"] * 1e3, iterations / 1e3)


def empty_layers():
    m = {name: 0 for name, _ in PER_LAYER}
    for name, unit in PER_LAYER:
        if unit == "ratio":
            m[name] = stats.ratio(0, 0)
    return m


def batch_layers(raw, trace, untraced_wall):
    spans = stats.build_spans(trace["traceEvents"])
    passes = [s for s in spans if s.cat == "bench" and s.name == "pass"]
    if len(passes) != 1:
        raise BenchError("expected one traced pass, found %d" % len(passes))
    in_pass = list(passes[0].descendants())
    extras = [d for s in spans if s.cat == "bench" and s.name == "extra"
              for d in s.descendants()]
    traced = raw["passes"][-1]
    m = empty_layers()
    synth_layers(in_pass, m)
    # Each design times greedy construction alone and the full heuristic
    # three times each; the fastest of each kind is the estimate,
    # since annealing at a chosen side is small next to greedy's noise.
    greedy_s = anneal_s = 0.0
    for extra in (s for s in spans if s.cat == "bench" and s.name == "extra"):
        calls = [c for c in extra.children if c.cat == "bench" and c.name == "map_heuristic"]
        greedy = min(c.dur for c in calls if c.args.get("sa_iterations") == 0) / 1e6
        full = min(c.dur for c in calls if c.args.get("sa_iterations", 0) > 0) / 1e6
        greedy_s += greedy
        anneal_s += max(0.0, full - greedy)
    m["synth.greedy_s"] = greedy_s
    m["synth.anneal_s"] = anneal_s
    m["synth.anneal_accept_ratio"] = stats.ratio(
        sum(e["moves_accepted"] for e in raw["extras"]),
        sum(e["moves_tried"] for e in raw["extras"]))
    m["synth.problem_build_s"] = _seconds(s for s in extras if s.cat == "bench"
                                          and s.name == "MappingProblem::build")
    m["sched.schedule_s"] = _seconds(s for s in in_pass if s.cat == "bench" and s.name in
                                     ("make_policy", "schedule_with_policy"))
    m["baseline.build_s"] = _seconds(s for s in in_pass if s.cat == "bench"
                                     and s.name == "build_traditional")
    warm = sum(d["warm_solves"] for d in traced)
    cold = sum(d["cold_solves"] for d in traced)
    m["ilp.warm_solve_ratio"] = stats.ratio(warm, warm + cold)
    verdicts = [e["ilp_status"] for e in raw["extras"] if "ilp_status" in e]
    m["ilp.verdicts"] = len(verdicts)
    m["ilp.proven_share"] = stats.ratio(
        sum(v in ("optimal", "infeasible") for v in verdicts), len(verdicts))
    m["ilp.limit_stops"] = sum(v in ("feasible", "limit") for v in verdicts)
    m["ilp.refinements"] = sum(d["refinements"] for d in traced)
    m["ilp.cuts_retained"] = sum(d["cuts_retained"] for d in traced)
    m["ilp.cut_rounds"] = sum(d["cut_rounds"] for d in traced)
    m["obs.trace_overhead_share"] = stats.ratio(
        raw["pass_wall_s"][-1] - untraced_wall, untraced_wall)
    return m


# ---------------------------------------------------------------- server

class Server:
    """One flowsynthd on an ephemeral loopback port, journal on."""

    def __init__(self, scratch, tag, trace_path=None):
        self.log_path = os.path.join(scratch, "flowsynthd-%s.log" % tag)
        journal = os.path.join(scratch, "journal-%s.jsonl" % tag)
        for path in (self.log_path, journal):
            if os.path.exists(path):
                os.remove(path)
        cmd = [FLOWSYNTHD, "--port", "0", "--workers", str(SERVER_WORKERS),
               "--journal", journal]
        if trace_path:
            cmd += ["--trace", trace_path]
        self.started = time.monotonic()
        self.proc = spawn(cmd, self.log_path)
        self.port = None
        deadline = self.started + min(30, remaining_s())
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise BenchError("flowsynthd did not start:\n" + log_tail(self.log_path))
            with open(self.log_path) as f:
                for line in f:
                    if "listening on" in line:
                        self.port = int(line.split()[3].rsplit(":", 1)[1])
            time.sleep(0.001)
        while self.get("/healthz")[0] != 200:
            if time.monotonic() > deadline:
                self.__exit__()
                raise BenchError("flowsynthd did not answer /healthz")
            time.sleep(0.001)

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            reply = conn.getresponse()
            return reply.status, reply.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def stop(self):
        """Graceful shutdown (writes the trace); returns peak RSS in MB."""
        self.proc.send_signal(signal.SIGTERM)
        return reap(self.proc, "flowsynthd")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:  # an error left it running
            self.proc.kill()
            os.wait4(self.proc.pid, 0)
            self.proc.returncode = -signal.SIGKILL


def warm(server, scratch, seed):
    """Set-up ends when every hot spec has been computed once."""
    run_perfbench(["load", "--warm", "1", "--port", str(server.port), "--seed", str(seed)],
                  os.path.join(scratch, "load.log"))
    return time.monotonic() - server.started


def run_phase(server, scratch, seed, phase, rate, seconds, check, drain):
    out = os.path.join(scratch, "phase-%d.json" % phase)
    run_perfbench(["load", "--port", str(server.port), "--seed", str(seed),
                   "--phase", str(phase), "--rate", str(rate), "--seconds", str(seconds),
                   "--conns", str(max(2, NPROC)), "--check", str(int(check)),
                   "--drain", str(drain), "--out", out],
                  os.path.join(scratch, "load.log"))
    return read_json(out)


def rung_holds(phase):
    """A rung holds when no job failed, the tail meets the limit, and the
    backlog does not grow.  A refused job counts as missing the limit (it
    enters the tail as an infinite latency).  The backlog grows when the
    mean number of jobs in flight over the last third of the arrival
    window exceeds that over the first third by more than one job per
    worker plus a tenth of the rung's jobs."""
    jobs = phase["jobs"]
    if not jobs or any(j["state"] not in ("done", "refused") for j in jobs):
        return False
    latencies = [stats.latency_ms(j) if j["state"] == "done" else math.inf for j in jobs]
    if stats.tail(latencies)["value"] > SLO_MS:
        return False
    done = [j for j in jobs if j["state"] == "done"]
    length = phase["seconds"]

    def mean_backlog(lo, hi):
        ticks = [lo + (hi - lo) * k / 100.0 for k in range(100)]
        return sum(sum(1 for j in done if j["due"] <= t < j["done"]) for t in ticks) / 100.0
    growth = mean_backlog(2 * length / 3, length) - mean_backlog(0, length / 3)
    return growth <= SERVER_WORKERS + 0.1 * len(jobs)


def throughput(phase):
    """Jobs done per second, from the first job's due time to the last
    result in hand."""
    done = [j for j in phase["jobs"] if j["state"] == "done"]
    if not done:
        return 0.0
    return len(done) / (max(j["done"] for j in done) - min(j["due"] for j in phase["jobs"]))


def served_quality(phase):
    """Table-1 columns of the hot set, read from the served documents."""
    seen = {}
    for j in phase["jobs"]:
        if j["class"] == "synth_hot" and "hot" in j:
            seen.setdefault(j["hot"]["index"], j["hot"])
    return seen


def run_server(seed, seconds, trace, scratch):
    nominal_s = 0.55 * seconds  # 110 jobs at 25 s: a p90 tail
    rung_s = 0.12 * seconds
    setups = []
    for k in range(SERVER_SETUPS - 1 if not trace else 0):
        with Server(scratch, "setup%d" % k) as server:
            setups.append(warm(server, scratch, seed))
            server.stop()
    sustained = 0.0
    ladder = []
    with Server(scratch, "main") as server:
        setups.append(warm(server, scratch, seed))
        nominal = run_phase(server, scratch, seed, 0, NOMINAL_RATE, nominal_s, not trace, 30)
        if not trace:
            for k, rate in enumerate(LADDER):
                rung = nominal if k == 0 else run_phase(server, scratch, seed, k, rate,
                                                        rung_s, False, 1)
                holds = rung_holds(rung)
                ladder.append({"rate": rate, "holds": holds, "jobs": len(rung["jobs"]),
                               "jobs_per_s": throughput(rung)})
                if not holds:
                    break
                sustained = ladder[-1]["jobs_per_s"]
        rss = server.stop()

    jobs = nominal["jobs"]
    done = [j for j in jobs if j["state"] == "done"]
    lat = [stats.latency_ms(j) for j in done]
    fresh = [stats.latency_ms(j) / 1e3 for j in done if j["class"] == "synth_fresh"]
    # A refused job misses the latency limit but is not a failure: the
    # server answered it as designed (admission control).
    failed = sum(1 for j in jobs if j["state"] not in ("done", "refused")) + \
        len(nominal["check_errors"])
    ok = stats.ratio(len(jobs) - failed, len(jobs))
    met = stats.ratio(sum(1 for x in lat if x <= SLO_MS), len(jobs))
    job_tail = stats.tail(lat)
    quality = served_quality(nominal)
    result = {
        "attempted": len(jobs), "failed": failed, "errors": nominal["check_errors"],
        "metrics": {
            "setup_s": stats.median(setups),
            "wall_s": max(j["done"] for j in done),
            "design_gmean_s": stats.geomean(fresh),
            "peak_rss_mb": rss,
            "vs1_max_sum": sum(q["vs1_max"] for q in quality.values()),
            "vs2_max_sum": sum(q["vs2_max"] for q in quality.values()),
            "valves_sum": sum(q["valves"] for q in quality.values()),
            "ok_share": ok["value"],
            "job_p50_ms": stats.median(lat),
            "job_tail_ms": job_tail["value"],
            "slo_met_share": met["value"],
            "sustained_jobs_per_s": sustained,
        },
        "detail": {
            "setups_s": setups, "nominal_rate": NOMINAL_RATE, "nominal_s": nominal_s,
            "job_tail": job_tail, "ok_share": ok, "slo_met_share": met, "ladder": ladder,
            "hot_set": sorted(quality.values(), key=lambda q: q["index"]),
            "generator_lag_tail_ms": stats.tail([stats.lag_ms(j) for j in jobs]),
        },
    }
    if trace:
        result["layers"] = server_layers(seed, scratch, nominal_s, nominal)
    return result


def server_layers(seed, scratch, nominal_s, untraced):
    trace_path = os.path.join(scratch, "server-trace.json")
    with Server(scratch, "traced", trace_path) as server:
        warm(server, scratch, seed)
        phase = run_phase(server, scratch, seed, 0, NOMINAL_RATE, nominal_s, False, 30)
        server.stop()
    # Jobs of the nominal phase are named <class>-0-<k>; set-up is over
    # before the first of them is queued, so later spans are the phase's.
    spans = stats.build_spans(read_json(trace_path)["traceEvents"])
    nominal = re.compile(r"(job|queued) [a-z_]+-0-\d+$")
    start = min(s.ts for s in spans if s.cat == "svc" and nominal.match(s.name))
    spans = [s for s in spans if s.ts >= start]
    m = empty_layers()
    synth_layers(spans, m)
    jobs = phase["jobs"]
    submits = [j["submit_ms"] for j in jobs if j["sent"] >= 0]
    m["net.submit_ms_p50"] = stats.median(submits)
    m["net.submit_ms_tail"] = stats.tail(submits)
    m["net.refused"] = sum(1 for j in jobs if j["state"] == "refused")
    # Fleet jobs run their repairs on a private service, whose job spans
    # are left out here: only the server's own queue and cache count.
    jobs_spans = [s for s in spans if s.cat == "svc" and nominal.match(s.name)]
    queued = [s for s in jobs_spans if s.name.startswith("queued ")]
    m["svc.queue_wait_ms_tail"] = stats.tail([s.dur / 1e3 for s in queued])
    m["svc.pool_max_queue_depth"] = stats.max_overlap(queued)
    # Every job but a fleet job looks its synthesis up in the result cache.
    lookups = [s for s in jobs_spans if s.name.startswith("job ")
               and not s.name.startswith("job fleet-")]
    m["svc.cache_lookups"] = len(lookups)
    m["svc.cache_hit_ratio"] = stats.ratio(
        sum(1 for s in lookups if s.args.get("cache_hit")), len(lookups))
    m["svc.synthesis_ms_p50"] = stats.median(
        [s.dur / 1e3 for s in spans if s.cat == "synth" and s.name == "synthesize"] or [0])
    for cls in ("synth_hot", "synth_fresh", "reliability", "fleet"):
        times = [s.dur / 1e3 for s in spans
                 if s.cat == "svc" and s.name.startswith("job %s-0-" % cls)]
        m["svc.job_ms_p50." + cls] = stats.median(times or [0])
    m["rel.monte_carlo_s"] = _seconds(s for s in spans if s.cat == "rel"
                                      and s.name == "monte_carlo")
    m["rel.resynthesize_s"] = _seconds(s for s in spans if s.cat == "rel"
                                       and s.name == "resynthesize")
    m["fleet.run_s"] = _seconds(s for s in spans if s.cat == "fleet" and s.name == "run")
    m["bench.generator_lag_ms_tail"] = stats.tail([stats.lag_ms(j) for j in jobs])

    def p50_latency(p):
        return stats.median([stats.latency_ms(j) for j in p["jobs"] if j["state"] == "done"])
    base = p50_latency(untraced)
    m["obs.trace_overhead_share"] = stats.ratio(p50_latency(phase) - base, base)
    return m


# ---------------------------------------------------------------- report

def scalar(value):
    return value["value"] if isinstance(value, dict) else value


def describe(value):
    if isinstance(value, dict) and "den" in value:
        return stats.format_ratio(value)
    if isinstance(value, dict) and "percentile" in value:
        return "%.6g (p%g of n=%d)" % (value["value"], value["percentile"], value["n"])
    return "%.6g" % value


def run_workload(workload, seed, seconds, trace):
    scratch = os.path.join(OUT, workload)
    os.makedirs(scratch, exist_ok=True)
    for name in os.listdir(scratch):  # the previous run's logs and raw files
        os.remove(os.path.join(scratch, name))
    if workload == "server_mix":
        result = run_server(seed, seconds, trace, scratch)
    else:
        result = run_batch(workload, seed, seconds, trace, scratch)
    names = PER_LAYER if trace else E2E
    source = result["layers"] if trace else result["metrics"]
    metrics = {name: {"value": float(scalar(source[name])), "unit": unit}
               for name, unit in names}
    print("== %s seed=%d seconds=%g trace=%d" % (workload, seed, seconds, trace))
    for name, unit in names:
        print("%-30s %s %s" % (name, describe(source[name]), unit))
    if result["errors"]:
        print("failures: %d" % len(result["errors"]))
        for error in result["errors"][:10]:
            print("  " + error)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "host": host_stamp(), "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics,
              "detail": result["detail"], "errors": result["errors"]}
    if trace:
        record["layers"] = result["layers"]
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("result file: " + os.path.relpath(path, ROOT))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def compare(path_a, path_b):
    """Compares two result files; wall-clock metrics only on matching hosts."""
    a, b = read_json(path_a), read_json(path_b)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("different runs: %s/trace%d vs %s/trace%d" % (
            a["workload"], a["trace"], b["workload"], b["trace"]))
    keys = ("nproc", "cpu", "compiler", "build_type")
    mismatch = [k for k in keys if a["host"].get(k) != b["host"].get(k)]
    if mismatch:
        print("host mismatch on %s: times are not compared" % ", ".join(mismatch))
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            print("%-30s missing in %s" % (name, path_b))
            continue
        if mismatch and ma["unit"] in ("s", "ms", "jobs/s", "MB"):
            print("%-30s %-12s host mismatch" % (name, ma["unit"]))
            continue
        change = (mb["value"] / ma["value"] - 1.0) if ma["value"] else float("nan")
        print("%-30s %-12s %.6g -> %.6g (%+.2f%%)" % (name, ma["unit"], ma["value"],
                                                      mb["value"], 100 * change))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise BenchError("usage: run.py compare RESULT_A.json RESULT_B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**64  # the program takes any unsigned 64-bit seed
    build()
    os.makedirs(OUT, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        start_clock()
        results[w] = run_workload(w, seed, args.seconds, args.trace)
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                                      for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
