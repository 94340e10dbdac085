#!/usr/bin/env python3
"""Benchmark of the mnl verification chain: time to verdict per workload.

    python3 mnlbench/run.py --workload octonion-n2 --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each workload runs in a fresh child process
with PYTHONPATH=src and numeric thread pools pinned to one thread; set-up is
also timed in separate probe processes.  Untraced, times are scaled to a
reference host speed by the sampler in hostspeed.py, which divides out the
swings of a shared host.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (verdict_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones from a traced run.

`--write-spec` rewrites BENCHMARK.json from the tables below.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "exact-algebra": "loops, Mal'tsev, tangent, GLC, envelope and closure for m7 and an r=10 "
                     "block sum; the dense Fraction layers do the work and fock does none",
    "octonion-n2": "Fock stages at two sites, dimension 2^16, for one quaternionic line of the "
                   "octonion generators; GQSparse commutators on large operators dominate",
    "cli-session": "the README's mnl commands through cli.main with JSON reports; GQSparse at "
                   "dimension 256 where per-operation overhead and lemma additions dominate",
}

# workloads whose time goes mostly to sparse products too large for a core's
# cache; their host-speed kernel reads from a large table as well (hostspeed.py)
MEMORY_BOUND = {"octonion-n2"}

END_TO_END = [
    {"name": "verdict_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

RUN_SECONDS = 15
CHILD_TIMEOUT = 160
# set-up probe processes before and after the workload process
PROBES = (2, 2)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def per_layer_spec():
    sys.path.insert(0, ROOT)
    from mnlbench import tracing

    out = [{"name": f"{stem}_s", "unit": "s", "better": "lower"}
           for stem in tracing.TIME_STEMS]
    out += [{"name": f"{stem}_calls", "unit": "count", "better": "lower"}
            for stem in tracing.CALL_STEMS]
    out += [{"name": f"{stem}_self_s", "unit": "s", "better": "lower"}
            for stem in tracing.SELF_TIMED]
    out += [{"name": "fock.op_nnz_max", "unit": "count", "better": "lower"},
            {"name": "fock.entry_bits_max", "unit": "bits", "better": "lower"},
            {"name": "cli.report_bytes", "unit": "bytes", "better": "lower"},
            {"name": "trace.overhead_s", "unit": "s", "better": "lower"}]
    return out


def write_spec():
    spec = {
        "command": ["python3", "mnlbench/run.py"],
        "paths": ["mnlbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer_spec(),
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


# --- child processes -----------------------------------------------------------

def child_env(seed):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["MNL_SEED"] = str(seed)
    return env


def spawn(args, role, workdir):
    """Run this script in another role; returns (start time, last stdout line)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(args.seed), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return start, json.loads(lines[-1])


def workload_process(args):
    """Set up, run whole rounds for --seconds, check, report one JSON line.

    Untraced, the host-speed sampler runs from before the imports to the end
    of the last round, and set-up and rounds are reported both as wall time
    and at the reference speed (see hostspeed.py).  Traced, it stays off, so
    that span times hold only the program's work."""
    import resource

    sys.path.insert(0, ROOT)
    from mnlbench import hostspeed

    sampler, overhead = None, 0.0
    if not args.trace:
        t0 = time.perf_counter()
        sampler = hostspeed.Sampler(memory=args.workload in MEMORY_BOUND)
        overhead = time.perf_counter() - t0
    begin = time.perf_counter()
    with sampler or contextlib.nullcontext():
        from mnlbench import tracing, workloads

        workloads.keep_fock_spaces_alive()
        work = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        ready, ready_pc = time.monotonic(), time.perf_counter()
        setup = {"ready": ready, "setup_ratio": 1.0, "setup_overhead": overhead}
        if sampler:
            scaled, wall = sampler.scaled(begin, ready_pc)
            setup["setup_ratio"] = scaled / wall
            # the sampler's construction and its kernel runs are not set-up
            setup["setup_overhead"] += ready_pc - begin - wall
        if args.role == "probe":
            print(json.dumps(setup))
            return

        tally = workloads.Tally()
        if args.trace:
            t0 = time.perf_counter()
            work.round(tally)
            untraced = time.perf_counter() - t0
            tracer = tracing.Tracer()
            tracer.install()
        rounds, walls, layers, spans, rss_mb = [], [], [], [], None
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            work.round(tally)
            t1 = time.perf_counter()
            scaled, wall = sampler.scaled(t0, t1) if sampler else (t1 - t0, t1 - t0)
            rounds.append(scaled)
            walls.append(wall)
            if rss_mb is None:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if sampler:
                    rss_mb -= sampler.resident_mb
            if args.trace:
                layers.append(tracer.metrics())
                layers[-1]["cli.report_bytes"] = (getattr(work, "report_bytes", 0), "bytes")
                spans.append(list(tracer.records))
                tracer.reset()
            if (time.perf_counter() - start >= args.seconds
                    and len(rounds) >= getattr(work, "min_rounds", 1)):
                break
    if args.trace:
        tracing.write_spans(os.path.join(args.workdir, "spans.jsonl"), spans)
    t0 = time.perf_counter()
    bad_checks = work.check()
    out = {**setup, "rounds": rounds, "walls": walls, "rss_mb": rss_mb,
           "check_s": time.perf_counter() - t0,
           "attempted": tally.attempted, "failed": len(tally.failed),
           "failed_names": sorted(set(tally.failed)), "bad_checks": bad_checks}
    if args.trace:
        # counts are whole numbers: take a middle round's, not a mean of two
        out["layers"] = {
            name: [(statistics.median if unit == "s" else statistics.median_low)(
                r[name][0] for r in layers), unit]
            for name, (_, unit) in layers[0].items()}
        out["layers"]["trace.overhead_s"] = [statistics.median(walls) - untraced, "s"]
    print(json.dumps(out))


def setup_time(start, report):
    """Process start to ready, less the sampler's own time, at the reference speed."""
    return (report["ready"] - start - report["setup_overhead"]) * report["setup_ratio"]


def parent(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "mnl", "__init__.py")):
        sys.exit("error: src/mnl not found; run from a checkout of the repository")
    # on SIGTERM, unwind: subprocess.run kills and waits for its child, and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".mnlbench-", dir=ROOT)
    try:
        # untraced, set-up is timed five times: two probes before the workload
        # process, the workload process itself and two probes after it, so
        # that the median spans the run as verdict_s does; each at the
        # reference speed, by its own sampler's ratio over set-up
        probes = PROBES if not args.trace else (0, 0)
        setups = []
        for _ in range(probes[0]):
            setups.append(setup_time(*spawn(args, "probe", workdir)))
        start, res = spawn(args, "run", workdir)
        setups.append(setup_time(start, res))
        for _ in range(probes[1]):
            setups.append(setup_time(*spawn(args, "probe", workdir)))
        if args.trace:
            trace_dir = os.path.join(ROOT, ".mnlbench-traces")
            os.makedirs(trace_dir, exist_ok=True)
            shutil.copy(os.path.join(workdir, "spans.jsonl"),
                        os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name in res["failed_names"]:
        print(f"failed verdict: {name}", file=sys.stderr)
    for name in res["bad_checks"]:
        print(f"failed check: {name}", file=sys.stderr)
    speed = ("" if args.trace else
             f", at the reference speed {statistics.median(res['rounds']):.2f}s")
    print(f"{args.workload}: {len(res['rounds'])} round(s), "
          f"{res['attempted']} verdicts, {res['failed']} failed, "
          f"checks {res['check_s']:.1f}s; round wall time "
          f"{statistics.median(res['walls']):.2f}s{speed}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "verdict_s": {"value": statistics.median(res["rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not res["bad_checks"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    parser.add_argument("--role", choices=("parent", "probe", "run"), default="parent",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.write_spec:
        write_spec()
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.role == "parent":
        parent(args)
    else:
        workload_process(args)


if __name__ == "__main__":
    main()
