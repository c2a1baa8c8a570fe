"""Tests for the benchmark's own code.

    python3 -m unittest discover -s upecbench -p 'test_*.py'

The fingerprint test builds verify_once (as run.py does) and runs a small
SoC, so it takes a minute on the first call.
"""

import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import fold  # noqa: E402
import run  # noqa: E402


def span(name, tid, ts, dur, **args):
    e = {"name": name, "ph": "X", "tid": tid, "pid": 1, "ts": ts, "dur": dur}
    if args:
        e["args"] = args
    return e


class FoldTest(unittest.TestCase):
    # Calling thread 1 drives one sweep; worker threads 2 and 3 hydrate and
    # solve while the caller waits at the barrier inside scheduler.sweep;
    # threads 4 and 5 are portfolio racers. Times are microseconds.
    EVENTS = [
        span("bench.context", 1, 0, 50),
        span("encode.touch_probes", 1, 10, 20),          # set-up, outside verify
        span("bench.verify", 1, 100, 10_000),
        span("alg1.run", 1, 110, 9_980),
        span("encode.touch_probes", 1, 120, 30),
        span("alg1.iteration", 1, 200, 9_800),
        span("upec.sweep_frame", 1, 210, 6_000),
        span("scheduler.sweep", 1, 220, 5_900, workers=2),
        span("encode.register_candidates", 1, 230, 70),
        span("simplify.run", 1, 300, 800),
        span("sync.inproc", 2, 1_200, 100),
        span("solve.inproc", 2, 1_300, 2_000, status="unsat"),
        span("sync.inproc", 3, 1_200, 200),
        span("portfolio.race", 3, 1_400, 3_000),
        span("solve.inproc", 3, 1_400, 3_000, status="sat"),
        span("solve.inproc", 4, 1_400, 2_900, status="unknown"),
        span("solve.inproc", 5, 1_401, 2_800, status="unknown"),
        span("solve.main", 1, 6_300, 500),
        span("upec.waveform", 1, 7_000, 2_900),
        span("solve.main", 1, 7_100, 2_000),
        span("encode.touch_probes", 1, 9_200, 100),
        span("bench.report", 1, 10_200, 40),
        {"name": "solver.main.conflicts", "ph": "C", "tid": 1, "pid": 1, "ts": 500},
    ]

    def test_self_time_ignores_other_threads_and_nests(self):
        m = fold.fold(self.EVENTS)
        # Caller-side self times: worker spans never reduce them.
        self.assertAlmostEqual(m["scheduler.self_s"], (5_900 - 70 - 800) * 1e-6)
        self.assertAlmostEqual(m["scheduler.sweep_s"], 5_900e-6)
        self.assertAlmostEqual(m["encode.s"], (30 + 70) * 1e-6)   # set-up span excluded
        self.assertAlmostEqual(m["simplify.s"], 800e-6)
        self.assertAlmostEqual(m["upec.sweep_s"],
                               (9_980 - 30 - 9_800 + 9_800 - 6_000 - 500 - 2_900
                                + 6_000 - 5_900) * 1e-6)
        # Everything inside upec.waveform is epilogue, solve.main and encode too.
        self.assertAlmostEqual(m["epilogue.s"], 2_900e-6)
        self.assertEqual(m["sweep.main.calls"], 1)
        self.assertAlmostEqual(m["sweep.main.s"], 500e-6)
        # Worker-thread time is summed per status.
        self.assertEqual((m["sweep.unsat.calls"], m["sweep.sat.calls"],
                          m["sweep.cancelled.calls"]), (1, 1, 2))
        self.assertAlmostEqual(m["sweep.unsat.s"], 2_000e-6)
        self.assertAlmostEqual(m["sweep.sat.s"], 3_000e-6)
        self.assertAlmostEqual(m["sweep.cancelled.s"], 5_700e-6)
        self.assertAlmostEqual(m["hydrate.s"], 300e-6)
        self.assertEqual(m["hydrate.calls"], 2)
        # Portfolio: races and the members inside them (thread 2's solve is not one).
        self.assertEqual(m["portfolio.races"], 1)
        self.assertAlmostEqual(m["portfolio.member_s"], 8_700e-6)
        self.assertAlmostEqual(m["portfolio.cancelled_share"], 5_700 / 8_700)
        # Worker busy time counts only threads that hydrate (scheduler workers).
        self.assertEqual(m["scheduler.workers"], 2)
        self.assertAlmostEqual(m["scheduler.worker_busy_s"], (100 + 2_000 + 200 + 3_000) * 1e-6)
        self.assertAlmostEqual(m["scheduler.worker_util"], 5_300 / (2 * 5_900))

    def test_caller_ledger_sums_to_verdict_time(self):
        m = fold.fold(self.EVENTS)
        self.assertAlmostEqual(m["trace.verdict_s"], 10_000e-6)
        self.assertAlmostEqual(m["trace.unattributed_s"], (10_000 - 9_980) * 1e-6)
        self.assertAlmostEqual(m["trace.attributed_s"] + m["trace.unattributed_s"],
                               m["trace.verdict_s"])

    def test_unknown_caller_span_is_unattributed(self):
        events = [span("bench.verify", 1, 0, 1_000), span("mystery", 1, 100, 300),
                  span("alg1.run", 1, 500, 400)]
        m = fold.fold(events)
        self.assertAlmostEqual(m["upec.sweep_s"], 400e-6)
        self.assertAlmostEqual(m["trace.unattributed_s"], 600e-6)

    def test_requires_one_verify_span(self):
        with self.assertRaises(ValueError):
            fold.fold([span("alg1.run", 1, 0, 10)])


class FingerprintTest(unittest.TestCase):
    """The fingerprint is what run.py checks; it must not depend on threads."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def fingerprint(self, *flags):
        out = subprocess.run([run.BINARY, "--pub-words", "4", "--priv-words", "2",
                              "--setups", "1", *flags],
                             capture_output=True, text=True, check=True)
        line = run.json.loads(out.stdout.splitlines()[-1])
        return line["verdict"], line["fingerprint"]

    def test_alg1_equal_across_threads(self):
        for extra in ([], ["--countermeasure"]):
            with self.subTest(flags=extra):
                t1 = self.fingerprint("--alg", "1", "--threads", "1", *extra)
                t4 = self.fingerprint("--alg", "1", "--threads", "4", *extra)
                self.assertEqual(t1, t4)
                self.assertNotEqual(t1[0], "unknown")

    def test_alg2_equal_across_threads(self):
        t1 = self.fingerprint("--alg", "2", "--threads", "1", "--countermeasure")
        t4 = self.fingerprint("--alg", "2", "--threads", "4", "--countermeasure")
        self.assertEqual(t1, t4)
        self.assertEqual(t1[0], "secure")

    def test_verdicts_differ_in_fingerprint(self):
        detect = self.fingerprint("--alg", "1")
        secure = self.fingerprint("--alg", "1", "--countermeasure")
        self.assertNotEqual(detect[1], secure[1])


class HostRefTest(unittest.TestCase):
    """host_ref's total is what run.py scales every time by."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def test_total_is_sum_of_parts(self):
        out = subprocess.run([run.REF_BINARY], capture_output=True, text=True, check=True)
        line = run.json.loads(out.stdout)
        self.assertEqual(len(line["parts"]), 3)
        self.assertTrue(all(p > 0 for p in line["parts"]))
        self.assertAlmostEqual(line["ref_s"], sum(line["parts"]), places=6)
        self.assertGreater(run.host_ref(run.time.monotonic() + 60), 0)


if __name__ == "__main__":
    unittest.main()
