#!/usr/bin/env python3
"""UPEC verification benchmark: time to verdict on three Alg. 1 / Alg. 2 workloads.

    python3 upecbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds upecbench/verify_once (CMake, Release)
into .bench_build/upecbench, then runs one verification per process, back to
back (a closed loop with one client), until the next one would end after S
seconds; at least one verification always runs. Every verdict and frontier
fingerprint is checked against the workload's known answer.

Before the first verification and after each one it times host_ref, a fixed
kernel that uses nothing from the repository, and scales the verification's
times by REF_NOMINAL_S over the mean of the two reference times around it, so
that a shared host's swings in speed cancel (README.md, "Host-speed
normalization").

--trace 0 prints the end-to-end metrics (medians over the run's verifications);
--trace 1 alternates untraced and traced verifications and prints the
per-layer ledger (medians over the traced ones, see fold.py). The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}; the
lines before it print the same metrics for people. The exit code is 0 only
when every verification was correct. README.md lists every metric.
"""

import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import fold  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "upecbench")
BINARY = os.path.join(BUILD, "verify_once")
REF_BINARY = os.path.join(BUILD, "host_ref")
# Normalized times are the wall times the host would give if host_ref took
# this long; it takes about that on a quiet 2.1 GHz x86-64 host.
REF_NOMINAL_S = 0.25
# setup_s is sub-millisecond and varies from process to process, so each run
# pools many set-ups from several processes before it verifies anything.
SETUP_PROCESSES = 10
SETUPS_PER_PROCESS = 30
# Every verify_once process must end this long after the build, so that a
# hung verification still lets the run report within its time limit.
RUN_DEADLINE_S = 170

# name -> (verify_once flags, expected verdict, expected fingerprint). All use
# the 16/8-word SoC of the ROADMAP baseline. The fingerprint covers the removed
# set of every iteration, the persistent hits and the final frontier, which the
# determinism contract pins across threads, portfolio and seeds.
WORKLOADS = {
    "alg1-detect-t4": (["--alg", "1", "--threads", "4"],
                       "vulnerable", "18d7a79950878570"),
    "alg2-secure-t4": (["--alg", "2", "--threads", "4", "--countermeasure"],
                       "secure", "fd852a567cc317c8"),
    "alg1-secure-p4": (["--alg", "1", "--portfolio", "4", "--countermeasure"],
                       "secure", "14c22ad48d342444"),
}


def die(message):
    print(f"upecbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared(section):
    """(name, unit) of each metric in BENCHMARK.json's `section`, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def build():
    """Configure once and build incrementally; serialized by a lock file."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "upec", "engine.h")):
        die(f"no UPEC sources next to {HERE}; run from a full checkout")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD, "-j", "4"]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                die(f"build failed: {' '.join(cmd)} (log: {log_path})")


def drive(workload, seed, deadline, *extra):
    """One verify_once process; its JSON line, or None if it failed."""
    cmd = [BINARY, *WORKLOADS[workload][0], "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"upecbench: {workload} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"upecbench: {workload} exited {proc.returncode}: {proc.stderr.strip()}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_ref(deadline):
    """Seconds host_ref takes right now."""
    try:
        proc = subprocess.run([REF_BINARY], capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("host_ref timed out")
    if proc.returncode != 0:
        die(f"host_ref exited {proc.returncode}")
    return json.loads(proc.stdout)["ref_s"]


def correct(workload, out):
    _, verdict, fingerprint = WORKLOADS[workload]
    return out is not None and out["verdict"] == verdict and out["fingerprint"] == fingerprint


def median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(workload, seed, deadline):
    """Normalized (soc build, context) second pairs from SETUP_PROCESSES
    processes; the phase is short, so one host_ref on each side scales it."""
    samples = []
    ref = host_ref(deadline)
    for _ in range(SETUP_PROCESSES):
        out = drive(workload, seed, deadline,
                    "--setups", str(SETUPS_PER_PROCESS), "--setups-only")
        if out is None:
            die(f"{workload}: set-up failed")
        samples += zip(out["soc_build_s"], out["context_s"])
    scale = REF_NOMINAL_S / ((ref + host_ref(deadline)) / 2)
    return [(s * scale, c * scale) for s, c in samples]


def end_to_end(outs, setups):
    return {
        "verdict_s": median([o["verdict_s"] * o["scale"] for o in outs]),
        "setup_s": median([s + c for s, c in setups]),
        "cpu_s": median([o["cpu_s"] * o["scale"] for o in outs]),
        "peak_rss_mb": median([o["peak_rss_mb"] for o in outs]),
        "conflicts": median([o["metrics"]["sat.solver.total.conflicts"] for o in outs]),
        "propagations": median([o["metrics"]["sat.solver.total.propagations"] for o in outs]),
    }


def counters(out):
    """Per-layer numbers the program reports itself (registry and store)."""
    m = out["metrics"]
    hits, misses = m.get("upec.cache.hits", 0), m.get("upec.cache.misses", 0)
    exported = m.get("sat.channel.exported", 0)
    in_clauses = m.get("sat.simplify.input_clauses", 0)
    total_conflicts = m["sat.solver.total.conflicts"]
    main_conflicts = m.get("sat.solver.main.conflicts", 0)
    return {
        "encode.store_clauses": out["store_clauses"],
        "encode.store_vars": out["store_vars"],
        "simplify.runs": m.get("sat.simplify.runs", 0),
        "simplify.input_clauses": in_clauses,
        "simplify.clause_ratio":
            m.get("sat.simplify.output_clauses", 0) / in_clauses if in_clauses else 0.0,
        "simplify.eliminated_vars": m.get("sat.simplify.eliminated_vars", 0),
        "sat.decisions": m["sat.solver.total.decisions"],
        "sat.restarts": m["sat.solver.total.restarts"],
        "sat.conflicts.main": main_conflicts,
        "sat.conflicts.workers": total_conflicts - main_conflicts,
        "channel.exported": exported,
        "channel.imported": m.get("sat.channel.imported", 0),
        "channel.import_ratio": m.get("sat.channel.imported", 0) / exported if exported else 0.0,
        "cache.hits": hits,
        "cache.queries": hits + misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "upec.iterations": out["iterations"],
        "upec.pruned_candidates": m.get("upec.sweep.pruned_candidates", 0),
    }


def per_layer(untraced, traced, ledgers, setups, refs):
    """Medians over the traced verifications; set-up and report over all."""
    rows = [dict(counters(o), **ledger) for o, ledger in zip(traced, ledgers)]
    m = {name: median([r[name] for r in rows]) for name in rows[0]}
    m["soc.build_s"] = median([s for s, _ in setups])
    m["encode.context_s"] = median([c for _, c in setups])
    m["report.s"] = median([o["report_s"] for o in untraced + traced])
    # untraced[i] and traced[i] ran back to back, so host drift mostly cancels.
    m["trace.overhead_s"] = median([t["verdict_s"] * t["scale"] - u["verdict_s"] * u["scale"]
                                    for u, t in zip(untraced, traced)])
    m["host.ref_s"] = median(refs)
    m["host.verdict_wall_s"] = median([o["verdict_s"] for o in untraced])
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the verify_once process it is waiting on before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or not 0 < args.seconds <= 120:
        die("--seed must be >= 0 and --seconds in (0, 120]")

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = measure_setup(args.workload, args.seed, deadline)
    trace_path = os.path.join(BUILD, f"trace-{os.getpid()}.json")
    untraced, traced, ledgers = [], [], []
    attempted = failed = 0
    cycles = []
    refs = [host_ref(deadline)]
    start = time.monotonic()
    while not failed:
        # One cycle: an untraced verification, plus a traced one under
        # --trace 1 so the overhead compares neighbours.
        t0 = time.monotonic()
        for want_trace in (False, True)[:1 + args.trace]:
            extra = ["--setups", "1"] + (["--trace-out", trace_path] if want_trace else [])
            out = drive(args.workload, args.seed, deadline, *extra)
            attempted += 1
            refs.append(host_ref(deadline))
            if not correct(args.workload, out):
                failed += 1
                if out is not None:
                    print(f"upecbench: {args.workload} gave {out['verdict']} "
                          f"fingerprint {out['fingerprint']}", file=sys.stderr)
                break
            out["scale"] = REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
            if want_trace:
                with open(trace_path) as f:
                    ledgers.append(fold.fold(json.load(f)["traceEvents"]))
                os.remove(trace_path)
                traced.append(out)
            else:
                untraced.append(out)
        cycles.append(time.monotonic() - t0)
        if time.monotonic() - start + median(cycles) > args.seconds:
            break

    ok = failed == 0
    n = len(traced) if args.trace else len(untraced)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {n} verifications "
          f"measured, {failed} of {attempted} failed (failed_share={failed / attempted:g})")
    if untraced:
        print(f"# host_ref median {median(refs):.4g} s; unnormalized medians: verdict_s "
              f"{median([o['verdict_s'] for o in untraced]):.4g} s, cpu_s "
              f"{median([o['cpu_s'] for o in untraced]):.4g} s")
    metrics = {}
    if ok:
        if args.trace:
            values = per_layer(untraced, traced, ledgers, setups, refs)
            values["failed_share"] = failed / attempted
            units = declared("per_layer")
        else:
            values, units = end_to_end(untraced, setups), declared("end_to_end")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
        for name, m in metrics.items():
            print(f"{name:28s} {m['value']:>18.6g} {m['unit']}")
    print(json.dumps({"correct": bool(ok), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
