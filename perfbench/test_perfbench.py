#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the binaries like the benchmark does and take a few
minutes."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def read(path):
    with open(path, "rb") as f:
        return f.read()


def bench_run(workload, trace, cwd=None, seed=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


class Inputs(unittest.TestCase):
    """The same seed gives byte-identical inputs; another seed gives other
    inputs with the same expected answers."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = tempfile.mkdtemp(dir=run.BUILD)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def dir(self, name):
        path = os.path.join(self.tmp, name)
        os.makedirs(path, exist_ok=True)
        return path

    def test_fleet_inputs(self):
        a, b, c = (os.path.join(self.dir("fleet"), n) for n in "abc")
        run.permuted_fleet(5, a)
        run.permuted_fleet(5, b)
        run.permuted_fleet(6, c)
        self.assertEqual(read(a), read(b))
        self.assertNotEqual(read(a), read(c))

    def test_canonical_inputs(self):
        s1, o1 = run.canonical_inputs(5, self.dir("c1"))
        s2, o2 = run.canonical_inputs(5, self.dir("c2"))
        s3, o3 = run.canonical_inputs(6, self.dir("c3"))
        self.assertEqual(read(s1), read(s2))
        self.assertNotEqual(read(s1), read(s3))
        self.assertEqual(o1, o3)
        self.assertEqual(o1["canonical"]["states"], 80460)
        self.assertEqual(len(o1["canonical"]["requirements"]), 29)

    def test_serve_inputs(self):
        onboard = frozenset()
        first = run.session(5, 0, self.dir("s1"), onboard)
        again = run.session(5, 0, self.dir("s2"), onboard)
        other = run.session(6, 0, self.dir("s3"), onboard)
        strip = [(op, b.replace("/s2/", "/s1/"), e) for op, b, e in again]
        self.assertEqual(first, strip)
        for name in sorted(os.listdir(self.dir("s1"))):
            self.assertEqual(read(os.path.join(self.dir("s1"), name)),
                             read(os.path.join(self.dir("s2"), name)))
        self.assertNotEqual([b for _, b, _ in first], [b for _, b, _ in other])

        # the same mix: the same multiset of ops and expected answer shapes
        def shape(lines):
            return sorted((op,) + tuple(len(x) if isinstance(x, frozenset)
                                        else x for x in e)
                          for op, _, e in lines)
        self.assertEqual(shape(first), shape(other))

    def test_serve_mix_is_neutral(self):
        """Every cell of the mix has the same number of requests, and
        about half of all requests repeat a cacheable one."""
        lines = run.session(5, 0, self.dir("neutral"), frozenset())
        seen, repeats = set(), 0
        for op, body, _ in lines:
            key = body.split(", ", 1)[-1]
            if op not in ("check", "malformed") and key in seen:
                repeats += 1
            seen.add(key)
        self.assertEqual(len(lines), len(run.CELLS) * run.CELL
                         + len(run.MALFORMED) * run.MALFORMED_EACH)
        self.assertAlmostEqual(repeats / len(lines), 0.5, delta=0.05)
        for op in ("requirements", "report", "reach", "check"):
            self.assertEqual(sum(1 for o, _, _ in lines if o == op),
                             run.CELL * sum(1 for c in run.CELLS
                                            if c[0] == op))

    def test_seeds_give_the_same_answers(self):
        """Two seeds' inputs through the CLI give the oracle's answers."""
        for seed in (5, 6):
            specs, expected = run.oneshot_inputs(
                "evita_fleet", seed, self.dir("answers-%d" % seed))
            _, _, ok, verdict = run.cold_run(specs[0], expected)
            self.assertTrue(ok)
            self.assertEqual(verdict, expected)


class ReferenceSpeed(unittest.TestCase):
    """Timed runs are scaled by the probe runs around them."""

    def test_scaling(self):
        ref = run.PROBE_REF_S
        self.assertAlmostEqual(run.at_ref_speed(1.0, ref, ref), 1.0)
        # the host ran at half speed: the probe took twice as long
        self.assertAlmostEqual(run.at_ref_speed(3.0, 2 * ref, 2 * ref), 1.5)
        self.assertAlmostEqual(run.at_ref_speed(3.0, ref, 3 * ref), 1.5)

    def test_probe_runs(self):
        run.build()
        self.assertGreater(run.probe_time(), 0.0)


def span(id_, parent, name, start, end):
    """A span from start to end ms."""
    return {"id": id_, "parent": parent, "request": 1, "name": name,
            "start_ns": start * 10 ** 6, "end_ns": end * 10 ** 6, "minor_words": 0.0,
            "major_words": 0.0}


def spans_of(*spans):
    path = tempfile.mkdtemp()
    try:
        with open(os.path.join(path, "spans.json"), "w") as f:
            json.dump(list(spans), f)
        return run.load_spans(path)
    finally:
        shutil.rmtree(path)


class SelfTimes(unittest.TestCase):
    """Layer self times and the uncovered time add up to the decomposed
    requests' time; the replay of Server.handle_line counts in no layer."""

    def test_add_up(self):
        spans = spans_of(
            span(1, 0, "request", 0, 100),
            span(2, 1, "server.json_parse", 0, 10),
            span(3, 1, "hom.shared_build", 10, 60),
            span(4, 3, "automata.determinise", 20, 40),
            span(5, 1, "server.json_print", 90, 95),
            span(6, 0, "replay.handle_line", 100, 1100))
        layers, uncovered = run.self_times(spans)
        self.assertAlmostEqual(layers["server"], 0.015)
        self.assertAlmostEqual(layers["hom"], 0.030)
        self.assertAlmostEqual(layers["automata"], 0.020)
        self.assertAlmostEqual(uncovered, 0.035)
        self.assertLessEqual(sum(layers.values()), 0.100)

    def test_overlap_is_a_fault(self):
        spans = spans_of(span(1, 0, "request", 0, 10),
                         span(2, 0, "lts.explore", 0, 20))
        with self.assertRaises(run.BenchError):
            run.self_times(spans)


class MetricsOutput(unittest.TestCase):
    """Every metric of BENCHMARK.json is printed with its unit."""

    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.bench = json.load(f)

    def check_output(self, workload, trace):
        proc = bench_run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.bench["per_layer" if trace else "end_to_end"]
        names = {m["name"] for m in wanted}
        if workload in {w["name"] for w in self.bench["workloads"]}:
            self.assertEqual(set(result["metrics"]), names)
        else:
            self.assertLessEqual(names, set(result["metrics"]))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIn("metric %s %r %s" % (m["name"], got["value"],
                                               m["unit"]), lines)
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertLessEqual(set(names), set(run.WORKLOADS))
        for name in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.check_output(name, trace)

    def test_fails_without_sources(self):
        """In a directory with only BENCHMARK.json and perfbench, the
        command fails without printing a result."""
        os.makedirs(run.BUILD, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=run.BUILD)
        try:
            shutil.copy("BENCHMARK.json", tmp)
            shutil.copytree("perfbench", os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench_run("evita_fleet", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
