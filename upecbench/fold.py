"""Fold the Chrome trace of one benchmark verification into the layer ledger.

The trace holds the engine's own spans (util::trace) plus the bench.* spans
that verify_once.cpp records around the public calls. Self time of a span is
its duration minus the part of it that child spans on the *same thread*
cover; spans on other threads never reduce it, so a caller blocked on a
worker barrier keeps that wait as its own self time (scheduler.self_s).

Layers (README.md in this directory has the full metric table):

  encode     encode.*                          self time, calling thread
  simplify   simplify.run                      self time
  hydrate    sync.inproc                       self time, summed over threads
  sweep      solve.inproc, split by its status arg (sat / unsat / unknown,
             the last reported as "cancelled"), summed over threads;
             solve.main outside upec.waveform, unsplit (no result arg)
  ipc        scheduler.*                       self time, calling thread
  upec       alg1.*, alg2.*, upec.sweep_frame  self time, calling thread
  epilogue   upec.waveform and everything nested in it on its thread
  portfolio  portfolio.race                    self time (race bookkeeping)

Everything on the calling thread inside bench.verify that no layer claims
(bench.verify's own self time, spans of unknown names) is reported as
trace.unattributed_s, so the calling thread's ledger always sums to the traced
verdict time.
"""

import bisect
from collections import defaultdict

US = 1e-6

UPEC_SPANS = {"alg1.run", "alg1.iteration", "alg2.run", "alg2.step", "upec.sweep_frame"}
SCHEDULER_SPANS = {"scheduler.sweep", "scheduler.sweep_legacy", "scheduler.round"}
SOLVE_STATUS = {"sat": "sweep.sat", "unsat": "sweep.unsat", "unknown": "sweep.cancelled"}
# Nesting order for spans that start and end in the same microsecond, e.g. a
# portfolio race and the member solve it runs on its own thread.
NESTING_RANK = {
    "bench.verify": 0, "alg1.run": 1, "alg2.run": 1, "alg1.iteration": 2, "alg2.step": 2,
    "upec.sweep_frame": 3, "upec.waveform": 3, "scheduler.sweep": 4,
    "scheduler.sweep_legacy": 4, "scheduler.round": 5, "portfolio.race": 6,
}


def layer_of(event, in_waveform):
    """Ledger layer of one span, given whether a upec.waveform encloses it."""
    name = event["name"]
    if in_waveform or name == "upec.waveform":
        return "epilogue"
    if name in UPEC_SPANS:
        return "upec"
    if name in SCHEDULER_SPANS:
        return "scheduler"
    if name.startswith("encode."):
        return "encode"
    if name == "simplify.run":
        return "simplify"
    if name == "sync.inproc":
        return "hydrate"
    if name == "portfolio.race":
        return "portfolio"
    if name == "solve.main":
        return "sweep.main"
    if name == "solve.inproc":
        return SOLVE_STATUS.get(event.get("args", {}).get("status"), "sweep.cancelled")
    return "unattributed"


def annotate(events):
    """Per complete span: (event, self_us, layer, is_root) with same-thread nesting."""
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_tid[e["tid"]].append(e)
    out = []
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"], NESTING_RANK.get(e["name"], 7)))
        stack = []  # [event, end_us, child_us, in_waveform]
        records = []
        for e in spans:
            end = e["ts"] + e["dur"]
            while stack and not (stack[-1][0]["ts"] <= e["ts"] and end <= stack[-1][1]):
                stack.pop()
            in_waveform = bool(stack) and (stack[-1][3] or stack[-1][0]["name"] == "upec.waveform")
            if stack:
                stack[-1][2] += e["dur"]
            frame = [e, end, 0, in_waveform]
            records.append((frame, not stack))
            stack.append(frame)
        for (e, _end, child_us, in_waveform), is_root in records:
            out.append((e, max(0, e["dur"] - child_us), layer_of(e, in_waveform), is_root))
    return out


def fold(events):
    """Per-layer metrics of the traced verification, in seconds and counts."""
    verify = [e for e in events if e.get("ph") == "X" and e["name"] == "bench.verify"]
    if len(verify) != 1:
        raise ValueError("trace must hold exactly one bench.verify span")
    caller, t0 = verify[0]["tid"], verify[0]["ts"]
    t1 = t0 + verify[0]["dur"]

    caller_self = defaultdict(int)      # layer -> us, calling thread only
    self_us = defaultdict(int)          # layer -> us, all threads
    calls = defaultdict(int)            # layer -> spans, all threads
    scheduler_us = 0
    workers = 0
    races = []
    member_solves = []                  # (ts, dur, layer) of solve.inproc
    worker_tids = set()
    roots = []
    for e, s_us, layer, is_root in annotate(events):
        if not (t0 <= e["ts"] and e["ts"] + e["dur"] <= t1):
            continue
        name = e["name"]
        self_us[layer] += s_us
        calls[layer] += 1
        if e["tid"] == caller:
            caller_self[layer] += s_us
        if name == "scheduler.sweep" and e["tid"] == caller:
            scheduler_us += e["dur"]
            workers = max(workers, e.get("args", {}).get("workers", 0))
        elif name == "portfolio.race":
            races.append((e["ts"], e["ts"] + e["dur"]))
        elif name == "solve.inproc":
            member_solves.append((e["ts"], e["dur"], layer))
        if name == "sync.inproc" and e["tid"] != caller:
            worker_tids.add(e["tid"])
        if is_root and e["tid"] != caller:
            roots.append(e)

    races.sort()
    race_starts = [r[0] for r in races]
    member_us = cancelled_us = 0
    for ts, dur, layer in member_solves:
        i = bisect.bisect_right(race_starts, ts) - 1
        if i >= 0 and ts + dur <= races[i][1]:
            member_us += dur
            if layer == "sweep.cancelled":
                cancelled_us += dur
    busy_us = sum(e["dur"] for e in roots if e["tid"] in worker_tids)

    named = sum(v for k, v in caller_self.items() if k != "unattributed")
    m = {
        "encode.s": self_us["encode"] * US,
        "simplify.s": self_us["simplify"] * US,
        "hydrate.s": self_us["hydrate"] * US,
        "hydrate.calls": calls["hydrate"],
        "sweep.main.s": self_us["sweep.main"] * US,
        "sweep.main.calls": calls["sweep.main"],
        "scheduler.sweep_s": scheduler_us * US,
        "scheduler.self_s": caller_self["scheduler"] * US,
        "scheduler.workers": workers,
        "scheduler.worker_busy_s": busy_us * US,
        "scheduler.worker_util": busy_us / (workers * scheduler_us) if workers * scheduler_us else 0.0,
        "epilogue.s": self_us["epilogue"] * US,
        "upec.sweep_s": caller_self["upec"] * US,
        "portfolio.races": len(races),
        "portfolio.member_s": member_us * US,
        "portfolio.cancelled_share": cancelled_us / member_us if member_us else 0.0,
        "trace.verdict_s": verify[0]["dur"] * US,
        "trace.attributed_s": named * US,
        "trace.unattributed_s": (verify[0]["dur"] - named) * US,
    }
    for kind in ("sat", "unsat", "cancelled"):
        m[f"sweep.{kind}.s"] = self_us[f"sweep.{kind}"] * US
        m[f"sweep.{kind}.calls"] = calls[f"sweep.{kind}"]
    return m
