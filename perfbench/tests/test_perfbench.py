#!/usr/bin/env python3
"""Self-test of the repo benchmark at toy sizes.

    python3 perfbench/tests/test_perfbench.py

Checks that perfbench/run.py prints every metric of BENCHMARK.json with its
unit on every workload, that a different seed changes the trace but not the
set of metrics, that a signature mismatch exits non-zero without a number,
and that the benchmark refuses to run without the library sources.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
CACHE = ROOT / ".bench_build" / "perfbench" / "cache"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY_EVENTS = 4000


def run(workload, seed, trace=0, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--events",
         str(TOY_EVENTS)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, proc


def family(workload):
    return workload.split("-")[0]


def trace_file(workload, seed):
    return CACHE / f"{family(workload)}-{TOY_EVENTS}-{seed}.csv"


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class BenchmarkSelfTest(unittest.TestCase):

    def check_metrics(self, result, section):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, proc = run(workload, seed=3, trace=trace)
                    self.assertEqual(code, 0, proc.stderr)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, section)

    def test_seed_changes_trace_not_metrics(self):
        for workload in ("traffic-serial", "twitter-sharded"):
            with self.subTest(workload=workload):
                code_a, result_a, _ = run(workload, seed=5)
                code_b, result_b, _ = run(workload, seed=6)
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertNotEqual(digest(trace_file(workload, 5)),
                                    digest(trace_file(workload, 6)))
                self.assertEqual(set(result_a["metrics"]),
                                 set(result_b["metrics"]))

    def test_signature_mismatch_exits_nonzero(self):
        code, _, proc = run("traffic-serial", seed=7)
        self.assertEqual(code, 0, proc.stderr)
        refs = list(CACHE.glob(f"traffic-{TOY_EVENTS}-7.*.ref.json"))
        self.assertEqual(len(refs), 1)  # stale ones are replaced
        original = refs[0].read_text()
        forged = json.loads(original)
        forged["signature"] = "0" * 32 + "-0"
        refs[0].write_text(json.dumps(forged))
        try:
            code, result, _ = run("traffic-serial", seed=7)
        finally:
            refs[0].write_text(original)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertEqual(result["metrics"], {})

    def test_refuses_without_library_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            code, result, _ = run("traffic-serial", seed=1, cwd=bare,
                                  script=bare / "perfbench" / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
