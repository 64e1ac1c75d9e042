#!/usr/bin/env python3
"""The fsa benchmark: one workload, one seed, checked answers, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

  evita_fleet      cold `fsa requirements` on examples/specs/evita_fleet.fsa,
                   instance and cluster declarations permuted by the seed
  evita_canonical  cold `fsa requirements` on the canonical token-game APA
                   of the EVITA on-board model, generated as .fsa text
  serve_mix        one closed-loop client of `fsa serve` sending a seeded
                   mix of requirements, report, reach and check requests;
                   not in BENCHMARK.json, because on a shared host its
                   latencies follow the host's load by more than the bounds

With --trace 0 the shipped binary is measured with tracing off and every
end-to-end metric is printed (serve_mix adds requests_per_s,
request_p50_ms and request_p99_ms).  verdict_ref_s and setup_s are given
at reference speed: each timed run lies between two runs of the host-speed
probe perfbench/probe, and its time is scaled to a host on which the probe
takes PROBE_REF_S seconds.  With --trace 1 the same inputs are run
once untraced and once through the traced decomposition of
perfbench/tracer, and every per-layer metric is printed.  Each metric is
also printed on its own line as `metric NAME VALUE UNIT` before the final
JSON line.  Every answer is checked against an oracle that does not run
the tool path under test; a wrong answer counts as a failed operation.

The benchmark builds the binaries from source in a dune workspace of its
own, .bench_build/perfbench/ws, and keeps its inputs and traces under
.bench_build/perfbench/work.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench")
WS = os.path.join(BUILD, "ws")
WORK = os.path.join(BUILD, "work")
FSA = os.path.join(WS, "_build", "default", "bin", "fsa_cli.exe")
TRACER = os.path.join(WS, "_build", "default", "tracer", "main.exe")
PROBE = os.path.join(WS, "_build", "default", "probe", "probe.exe")

FLEET_SPEC = os.path.join("examples", "specs", "evita_fleet.fsa")
ONBOARD_SPEC = os.path.join("examples", "specs", "evita_onboard.fsa")
GRID_SPEC = os.path.join("examples", "specs", "smart_grid.fsa")
SOURCES = ["dune-project", os.path.join("bin", "dune"),
           os.path.join("perfbench", "tracer", "dune"),
           os.path.join("perfbench", "probe", "dune"),
           FLEET_SPEC, ONBOARD_SPEC, GRID_SPEC]

WORKLOADS = ("evita_fleet", "evita_canonical", "serve_mix")
SETUP_BLOCKS = 5         # blocks of spawns of the idle binary per one-shot
SETUP_SPAWNS = 8         # run, with a probe run between two blocks
# Declaration orders per one-shot run, all drawn from the seed.  A run
# cycles through them, so its median never rests on a single order.
ORDERS = 8
# The speed of a shared host changes while a run goes on: in slow periods,
# which can outlast a run, a cold run takes up to half again as long.  So
# every timed run lies between two runs of perfbench/probe, a fixed piece
# of hash- and allocation-heavy work that uses nothing of fsa, and its time
# is scaled to a host on which the probe takes PROBE_REF_S seconds.
PROBE_REF_S = 0.2
BUILD_TIMEOUT = 850
STEP_TIMEOUT = 120


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Build and processes
# --------------------------------------------------------------------------

def workspace():
    """The dune workspace the benchmark builds in: the checkout's
    dune-project, links to its lib and bin, and perfbench/tracer and
    perfbench/probe as the directories tracer and probe.  The checkout's
    own dune build never sees them (perfbench/dune declares them data
    only)."""
    os.makedirs(WS, exist_ok=True)
    with open("dune-project", "rb") as f:
        project = f.read()
    path = os.path.join(WS, "dune-project")
    if os.path.isfile(path):
        with open(path, "rb") as f:
            same = f.read() == project
    else:
        same = False
    if not same:
        with open(path, "wb") as f:
            f.write(project)
    for name, target in (("lib", "lib"), ("bin", "bin"),
                         ("tracer", os.path.join("perfbench", "tracer")),
                         ("probe", os.path.join("perfbench", "probe"))):
        link = os.path.join(WS, name)
        target = os.path.abspath(target)
        if os.path.islink(link) and os.readlink(link) == target:
            continue
        if os.path.lexists(link):
            os.remove(link)
        os.symlink(target, link)


def build():
    missing = [p for p in SOURCES if not os.path.isfile(p)]
    if missing:
        raise BenchError("not the root of an fsa checkout; missing "
                         + ", ".join(missing))
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    workspace()
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        cmd + ["build", "--root", ".", "--profile", "release",
               "./bin/fsa_cli.exe", "./tracer/main.exe",
               "./probe/probe.exe"],
        cwd=WS, stdout=sys.stderr, stderr=sys.stderr, env=env,
        timeout=BUILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("build failed")


def watchdog(proc):
    """Kill proc if it is still running after STEP_TIMEOUT seconds."""
    timer = threading.Timer(STEP_TIMEOUT, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def spawn_wait4(argv):
    """Run argv to completion: (seconds from spawn to exit, exit code,
    stdout, peak RSS in MiB).  The peak is the child's high-water RSS, the
    VmHWM of its /proc/<pid>/status at exit, as wait4 reports it."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = watchdog(proc)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    timer.cancel()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out, usage.ru_maxrss / 1024.0


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def probe_time():
    """Seconds from spawn to exit of one run of the host-speed probe."""
    t, code, _, _ = spawn_wait4([PROBE])
    if code != 0:
        raise BenchError("the host-speed probe failed")
    return t


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def at_ref_speed(t, before, after):
    """t seconds, measured between two probe runs of before and after
    seconds, scaled to a host on which the probe takes PROBE_REF_S."""
    return t * PROBE_REF_S * 2.0 / (before + after)


def tail(xs, q=0.99):
    """The highest percentile up to q that has at least ten samples beyond
    it (nearest rank); the median when there are too few samples."""
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return 0.0
    q = min(q, 1.0 - 10.0 / n)
    if q <= 0.5:
        return statistics.median(xs)
    return xs[min(n - 1, max(0, math.ceil(q * n) - 1))]


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

WARNER_RECEIVER = """\
component Warner {
  state esp = { }
  state gps = { }
  state bus = { }
  shared net

  action sense: take esp(_x) -> put bus(_x)
  action pos:   take gps(_p) -> put bus(_p)
  action send:  take bus(sW), take bus(_p) when position(_p)
                -> put net(cam(self, _p))
}

component Receiver {
  state gps = { }
  state bus = { }
  state hmi = { }
  shared net

  action pos:  take gps(_p) -> put bus(_p)
  action rec:  take net(cam(_v, _p)) when _v != self
               -> put bus(warn(_p))
  action show: take bus(warn(_p)), take bus(_q)
               when position(_q) && near(_p, _q)
               -> put hmi(warn)
}
"""


def fleet_pairs(tag, k):
    """Instance names of a generated fleet of k warner/receiver pairs."""
    return [("W%sx%d" % (tag, i), "R%sx%d" % (tag, i)) for i in range(1, k + 1)]


def fleet_source(pairs, rng):
    """A vehicle fleet: one radio cluster per warner/receiver pair, every
    pair out of range of the others, in seeded declaration order."""
    instances = []
    clusters = []
    for i, (w, r) in enumerate(pairs):
        instances.append("instance %s = Warner(%d) { esp = { sW }, gps = { pos1 } }"
                         % (w, 2 * i + 1))
        instances.append("instance %s = Receiver(%d) { gps = { pos2 } }"
                         % (r, 2 * i + 2))
        clusters.append("cluster n_%s = { %s, %s }" % (w, w, r))
    rng.shuffle(instances)
    rng.shuffle(clusters)
    return WARNER_RECEIVER + "\n" + "\n".join(instances + clusters) + "\n"


def fleet_requirements(pairs):
    """The paper's Example 3 pattern per pair: the receiver's display of a
    warning depends on the warner's sensing and position and on the
    receiver's own position.  The CLI's stakeholder for these labels is
    SYS."""
    reqs = set()
    for w, r in pairs:
        show = r + "_show"
        reqs |= {(r + "_pos", show, "SYS"), (w + "_pos", show, "SYS"),
                 (w + "_sense", show, "SYS")}
    return frozenset(reqs)


def permuted_fleet(seed, path):
    """examples/specs/evita_fleet.fsa with its instance and cluster
    declarations in seeded order."""
    with open(FLEET_SPEC) as f:
        lines = f.read().split("\n")
    rng = random.Random("evita_fleet:%d" % seed)
    for prefix in ("instance ", "cluster "):
        idx = [i for i, l in enumerate(lines) if l.startswith(prefix)]
        picked = [lines[i] for i in idx]
        rng.shuffle(picked)
        for i, l in zip(idx, picked):
            lines[i] = l
    with open(path, "w") as f:
        f.write("\n".join(lines))


def canonical_inputs(seed, work):
    spec = os.path.join(work, "evita_canonical-%d.fsa" % seed)
    oracle = os.path.join(work, "oracle-%d.json" % seed)
    proc = subprocess.run([TRACER, "canonical", "--seed", str(seed),
                           "--spec", spec, "--oracle", oracle],
                          stdout=sys.stderr, timeout=STEP_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("canonical generator failed")
    with open(oracle) as f:
        return spec, json.load(f)


def triples(xs):
    return frozenset(tuple(x) for x in xs)


def oneshot_inputs(workload, seed, work):
    """(ORDERS spec paths, expected (states, requirement triples))."""
    seeds = [seed * ORDERS + i for i in range(ORDERS)]
    if workload == "evita_fleet":
        specs = [os.path.join(work, "evita_fleet-%d.fsa" % s) for s in seeds]
        for s, spec in zip(seeds, specs):
            permuted_fleet(s, spec)
        pairs = [("W%d" % i, "R%d" % i) for i in range(1, 5)]
        return specs, (13 ** 4, fleet_requirements(pairs))
    specs, oracles = [], []
    for s in seeds:
        spec, oracle = canonical_inputs(s, work)
        specs.append(spec)
        oracles.append(oracle)
    if any(o != oracles[0] for o in oracles):
        raise BenchError("declaration orders changed the oracle")
    c = oracles[0]["canonical"]
    return specs, (c["states"], triples(c["requirements"]))


# --------------------------------------------------------------------------
# Verdicts
# --------------------------------------------------------------------------

STATES_RE = re.compile(r"^reachability graph: states: (\d+)", re.M)
AUTH_RE = re.compile(r"^- auth\(([^,\s]+), ([^,\s]+), ([^,\s)]+)\)$", re.M)


def cli_verdict(out):
    text = out.decode("utf-8", "replace")
    m = STATES_RE.search(text)
    states = int(m.group(1)) if m else None
    return states, frozenset(AUTH_RE.findall(text))


def req_triples(items):
    return frozenset((x["cause"], x["effect"], x["stakeholder"]) for x in items)


def response_verdict(op, resp):
    """The answer a response line carries, in a form the oracles give."""
    if not resp.get("ok"):
        return ("error", resp.get("error", {}).get("kind"))
    r = resp["result"]
    if op == "requirements":
        return ("requirements", r["summary"]["states"],
                req_triples(r["requirements"]))
    if op == "reach":
        return ("reach", r["states"])
    if op == "report":
        return ("report", req_triples(r["requirements"]))
    return ("check", resp["exit"],
            any(d.get("severity") == "error" for d in r))


def result_bytes(line):
    """The result member of a response line, byte for byte (it is the last
    member the server prints)."""
    i = line.find(b'"result":')
    return line[i:] if i >= 0 else line


# --------------------------------------------------------------------------
# One-shot workloads
# --------------------------------------------------------------------------

def setup_time():
    """Median seconds from spawn to exit of the binary doing no analysis,
    at reference speed: OCaml runs every module initialiser before
    `--version` is handled."""
    xs = []
    before = probe_time()
    for _ in range(SETUP_BLOCKS):
        block = []
        for _ in range(SETUP_SPAWNS):
            t, code, _, _ = spawn_wait4([FSA, "--version"])
            if code != 0:
                raise BenchError("fsa --version failed")
            block.append(t)
        after = probe_time()
        xs += [at_ref_speed(t, before, after) for t in block]
        before = after
    return median(xs)


def cold_run(spec, expected):
    t, code, out, rss = spawn_wait4([FSA, "requirements", spec])
    verdict = cli_verdict(out)
    ok = code == 0 and verdict == expected
    if not ok:
        print("wrong answer: fsa requirements %s: exit %d, %s states, %d "
              "requirements" % (spec, code, verdict[0], len(verdict[1])),
              file=sys.stderr)
    return t, rss, ok, verdict


def oneshot_untraced(workload, seed, seconds, work):
    specs, expected = oneshot_inputs(workload, seed, work)
    setup = setup_time()
    times, ref, rss = [], [], []
    probes = [probe_time()]
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        t, peak, ok, _ = cold_run(specs[attempted % ORDERS], expected)
        probes.append(probe_time())
        attempted += 1
        failed += 0 if ok else 1
        times.append(t)
        ref.append(at_ref_speed(t, probes[-2], probes[-1]))
        rss.append(peak)
    print("%s: %d cold runs, wall median %.4f s, min %.4f s, max %.4f s; "
          "probe median %.4f s; at reference speed median %.4f s, min %.4f "
          "s, max %.4f s"
          % (workload, len(times), median(times), min(times), max(times),
             median(probes), median(ref), min(ref), max(ref)))
    metrics = {
        "verdict_ref_s": (median(ref), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "setup_s": (setup, "s"),
    }
    return attempted, failed, metrics


# --------------------------------------------------------------------------
# serve_mix
# --------------------------------------------------------------------------

# The request mix of one daemon lifetime.  There is no record of real fsa
# serve traffic, so the mix is neutral: every (op, input) cell below gets
# CELL requests.  A cacheable request is sent REPEATS times, so its first
# occurrence misses the store and the others hit it.  check is never
# cached: its CELL requests are all fresh.  evita_onboard.fsa is one file,
# so only the first report on it in a lifetime misses.  With 11 cacheable
# cells out of 15, about half of all requests are store hits.  The seed
# picks the order of the requests and the declaration order of the
# generated fleets; the composition is the same for every seed.  Cells:
# (op, fleet pairs or the named spec, reduce).
CELLS = (
    ("requirements", 1, None),
    ("requirements", 2, None),
    ("requirements", 3, None),
    ("report", 1, None),
    ("report", 2, None),
    ("report", 3, None),
    ("report", "onboard", None),
    ("reach", 1, None),
    ("reach", 2, None),
    ("reach", 3, None),
    ("reach", 3, "sym"),
    ("check", 1, None),
    ("check", 2, None),
    ("check", 3, None),
    ("check", "grid", None),
)
CELL = 12
REPEATS = 3
MALFORMED = (
    ("{not json", "parse_error"),
    (json.dumps({"op": "nonsense", "spec": GRID_SPEC}), "bad_request"),
    (json.dumps({"op": "requirements"}), "bad_request"),
    (json.dumps({"op": "requirements", "source": "component {"}),
     "parse_error"),
    (json.dumps({"op": "reach", "spec": GRID_SPEC, "reduce": "bogus"}),
     "bad_request"),
)
MALFORMED_EACH = 1


def fresh_request(op, size, reduce, tag, work, rng, onboard):
    """(request body without id, expected verdict); writes the input."""
    if size == "grid":
        return json.dumps({"op": op, "spec": GRID_SPEC}), ("check", 0, False)
    if size == "onboard":  # the manual path
        return json.dumps({"op": op, "spec": ONBOARD_SPEC}), ("report", onboard)
    pairs = fleet_pairs(tag, size)
    spec = os.path.join(work, "fleet_%s.fsa" % tag)
    with open(spec, "w") as f:
        f.write(fleet_source(pairs, rng))
    req = {"op": op, "spec": spec}
    if op == "requirements":
        expected = ("requirements", 13 ** size, fleet_requirements(pairs))
    elif op == "reach" and reduce:
        # one representative per multiset of pair-local states
        req["reduce"] = reduce
        expected = ("reach", math.comb(12 + size, size))
    elif op == "reach":
        expected = ("reach", 13 ** size)
    elif op == "check":
        expected = ("check", 0, False)
    else:
        expected = ("report", fleet_requirements(pairs))
    return json.dumps(req), expected


def session(seed, rnd, work, onboard):
    """The seeded requests of one daemon lifetime: a list of
    (op, request line, expected verdict).  Inputs are written to work."""
    rng = random.Random("serve_mix:%d:%d" % (seed, rnd))
    fresh, times = [], []
    for op, size, reduce in CELLS:
        if op == "check":
            n, k = CELL, 1
        elif size == "onboard":
            n, k = 1, CELL
        else:
            n, k = CELL // REPEATS, REPEATS
        for _ in range(n):
            tag = "%dy%d" % (rnd, len(fresh))
            fresh.append((op,) + fresh_request(op, size, reduce, tag, work,
                                               rng, onboard))
            times.append(k)
    # each fresh request as often as its cell says, the malformed ones
    # MALFORMED_EACH times; the first occurrence of a request is its miss
    slots = [i for i, k in enumerate(times) for _ in range(k)]
    slots += [-1 - i for i in range(len(MALFORMED)) for _ in range(MALFORMED_EACH)]
    rng.shuffle(slots)
    lines = []
    for j, i in enumerate(slots):
        if i >= 0:
            op, body, expected = fresh[i]
        else:
            body, kind = MALFORMED[-1 - i]
            op, expected = "malformed", ("error", kind)
        if body.startswith("{\"op\""):
            body = "{\"id\": %d, %s" % (j, body[1:])
        lines.append((op, body, expected))
    return lines


def onboard_oracle(work):
    _, oracle = canonical_inputs(0, work)
    return triples(oracle["onboard"]["requirements"])


class Checker:
    """Counts answers and failures; a store hit must replay its first
    reply byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = {}

    def check(self, op, body, expected, line, label):
        self.attempted += 1
        try:
            resp = json.loads(line)
            got = response_verdict(op, resp)
        except (ValueError, KeyError, TypeError):
            resp, got = {}, None
        ok = got == expected
        key = (label, re.sub(r'^\{"id": \d+, ', "{", body))
        if resp.get("cached"):
            ok = ok and result_bytes(line) == self.first.get(key)
        elif key not in self.first and resp.get("ok"):
            self.first[key] = result_bytes(line)
        if not ok:
            self.failed += 1
            print("wrong answer (%s): %s -> %s" % (label, body, line[:300]),
                  file=sys.stderr)
        return resp, got


def serve_round(lines, work, rnd, checker):
    """One daemon lifetime: spawn with a fresh store, wait for the first
    stats reply, send the session closed-loop.  Returns (setup seconds,
    [(op, seconds, cached, ok)], loop seconds, VmHWM MiB or None when the
    daemon stopped answering, verdicts)."""
    store = os.path.join(work, "store_%d" % rnd)
    shutil.rmtree(store, ignore_errors=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen([FSA, "serve", "--cache-dir", store],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = watchdog(proc)
    try:
        proc.stdin.write(b'{"id": "ready", "op": "stats"}\n')
        proc.stdin.flush()
        if not proc.stdout.readline():
            raise BenchError("fsa serve did not answer stats")
        setup = time.perf_counter() - t0
        samples, verdicts = [], []
        loop0 = time.perf_counter()
        for op, body, expected in lines:
            t = time.perf_counter()
            try:
                proc.stdin.write(body.encode() + b"\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
            except BrokenPipeError:
                line = b""
            dt = time.perf_counter() - t
            if not line:
                # no reply: this request and every later one failed
                lost = len(lines) - len(samples)
                checker.attempted += lost
                checker.failed += lost
                print("fsa serve stopped answering; %d requests lost" % lost,
                      file=sys.stderr)
                break
            resp, got = checker.check(op, body, expected, line, "serve")
            samples.append((op, dt, bool(resp.get("cached")),
                            bool(resp.get("ok"))))
            verdicts.append(got)
        loop = time.perf_counter() - loop0
        answered = len(samples) == len(lines)
        hwm = vm_hwm_mb(proc.pid) if answered else None
        proc.stdin.close()
        proc.wait(timeout=STEP_TIMEOUT)
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if answered and proc.returncode != 0:
        raise BenchError("fsa serve exited with %d" % proc.returncode)
    return setup, samples, loop, hwm, verdicts


def serve_untraced(seed, seconds, work):
    """Daemon lifetimes until the deadline; latencies are pooled over
    them."""
    onboard = onboard_oracle(work)
    checker = Checker()
    setups, hwms, loops, lat, verdict = [], [], [], [], []
    hits = 0
    probes = [probe_time()]
    deadline = time.perf_counter() + seconds
    rnd = 0
    while rnd == 0 or time.perf_counter() < deadline:
        lines = session(seed, rnd, work, onboard)
        setup, s, loop, hwm, _ = serve_round(lines, work, rnd, checker)
        probes.append(probe_time())
        setups.append(at_ref_speed(setup, probes[-2], probes[-1]))
        if hwm is not None:
            hwms.append(hwm)
        loops.append(loop)
        lat += [dt for _, dt, _, _ in s]
        # the cold verdicts of the largest fleets
        verdict += [at_ref_speed(dt, probes[-2], probes[-1])
                    for (_, dt, cached, ok), (_, _, expected)
                    in zip(s, lines)
                    if ok and not cached
                    and expected[:2] == ("requirements", 13 ** 3)]
        hits += sum(1 for _, _, cached, _ in s if cached)
        rnd += 1
    print("serve_mix: %d lifetimes, %d requests, hit share %.3f, %d cold "
          "3-pair requirements" % (rnd, len(lat), hits / max(1, len(lat)),
                                   len(verdict)))
    metrics = {
        "verdict_ref_s": (median(verdict), "s"),
        "requests_per_s": (len(lat) / sum(loops), "1/s"),
        "request_p50_ms": (1000.0 * median(lat), "ms"),
        "request_p99_ms": (1000.0 * tail(lat), "ms"),
        "peak_rss_mb": (median(hwms), "MB"),
        "setup_s": (median(setups), "s"),
    }
    return checker.attempted, checker.failed, metrics


# --------------------------------------------------------------------------
# Traced runs
# --------------------------------------------------------------------------

def load_spans(out):
    with open(os.path.join(out, "spans.json")) as f:
        spans = json.load(f)
    for s in spans:
        s["dur"] = (s["end_ns"] - s["start_ns"]) / 1e9
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for s in spans:
        kids = children.get(s["id"], [])
        s["self"] = s["dur"] - sum(k["dur"] for k in kids)
        s["self_minor"] = s["minor_words"] - sum(k["minor_words"] for k in kids)
        s["self_major"] = s["major_words"] - sum(k["major_words"] for k in kids)
    return spans


LAYERS = ("spec", "lts", "hom", "automata", "model", "requirements",
          "report", "store", "server", "check", "sym", "core")
# Root spans: "request" around each decomposed request, and
# "replay.handle_line" around each call of the production
# Server.handle_line.  Neither name belongs to a layer.
REQUEST = "request"
REPLAY = "replay.handle_line"


def self_times(spans):
    """Self seconds of each layer's spans, and of the decomposed requests'
    root spans (the time no layer span covers).  The layer self times plus
    the uncovered time add up to the decomposed requests' time; a
    decomposition that breaks this is a fault of the benchmark."""
    layers = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".")[0]
        if layer in layers:
            layers[layer] += s["self"]
    roots = [s for s in spans if s["name"] == REQUEST]
    uncovered = sum(s["self"] for s in roots)
    decomposed = sum(s["dur"] for s in roots)
    covered = sum(layers.values())
    if covered > decomposed + 1e-6 or uncovered < -1e-6 or \
            abs(covered + uncovered - decomposed) > 1e-6:
        raise BenchError("layer self times (%.6f s) and the uncovered time "
                         "(%.6f s) do not add up to the decomposed requests "
                         "(%.6f s)" % (covered, uncovered, decomposed))
    return layers, uncovered


def layer_metrics(spans, summary, out):
    def total(name, field="self"):
        return sum(s[field] for s in spans if s["name"] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    def ms_median(spans_):
        return 1000.0 * median([s["dur"] for s in spans_])

    c = summary["counters"]
    layers, uncovered = self_times(spans)
    explore = total("lts.explore")
    lts = [s for s in spans if s["name"].startswith("lts.")]
    handled = [s for s in spans if s["name"] == REPLAY]
    store_dir = os.path.join(out, "store_handle_line")
    entries = [os.path.getsize(os.path.join(store_dir, f))
               for f in os.listdir(store_dir) if f.endswith(".json")]
    quotients = summary["quotient_states"]
    m = {
        "spec.parse_s": (total("spec.parse"), "s"),
        "spec.elaborate_s": (total("spec.elaborate"), "s"),
        "lts.explore_s": (explore, "s"),
        "lts.states_per_s": (ratio(summary["states_explored"], explore), "1/s"),
        "lts.min_max_s": (total("lts.min_max"), "s"),
        "apa.rules_tried_per_state":
            (ratio(c["apa.rules_tried"], c["lts.states_explored"]), "count"),
        "apa.bindings_per_rule_tried":
            (ratio(c["apa.bindings_found"], c["apa.rules_tried"]), "ratio"),
        "apa.terms_allocated_per_state":
            (ratio(c["apa.terms_allocated"], c["lts.states_explored"]), "count"),
        "lts.dedup_hits_per_transition":
            (ratio(c["lts.dedup_hits"], c["lts.transitions"]), "ratio"),
        "lts.minor_words": (sum(s["self_minor"] for s in lts), "words"),
        "lts.major_words": (sum(s["self_major"] for s in lts), "words"),
        "hom.shared_build_s": (total("hom.shared_build"), "s"),
        "hom.compare_s": (total("hom.compare"), "s"),
        "hom.quotient_states":
            (ratio(sum(quotients), len(quotients)), "count"),
        "hom.early_decided": (summary["early_decided"], "count"),
        "automata.determinise_s": (total("automata.determinise"), "s"),
        "automata.minimise_s": (total("automata.minimise"), "s"),
        "automata.hopcroft_splits": (c["automata.hopcroft_splits"], "count"),
        "automata.major_words":
            (total("hom.shared_build", "major_words"), "words"),
        "requirements.manual_derive_s":
            (total("requirements.manual_derive"), "s"),
        "report.build_s": (total("report.build"), "s"),
        "report.render_s": (total("report.render"), "s"),
        "report.bytes": (summary["report_bytes"], "bytes"),
        "store.find_s": (total("store.find"), "s"),
        "store.add_s": (total("store.add"), "s"),
        "store.hit_ratio":
            (ratio(c["store.hits"], c["store.hits"] + c["store.misses"]),
             "ratio"),
        "store.entry_bytes": (ratio(sum(entries), len(entries)), "bytes"),
        "server.handle_hit_ms":
            (ms_median([s for s in handled if s["cached"]]), "ms"),
        "server.handle_miss_ms":
            (ms_median([s for s in handled if not s["cached"]]), "ms"),
        "server.json_parse_s": (total("server.json_parse"), "s"),
        "server.json_print_s": (total("server.json_print"), "s"),
        "server.error_share":
            (ratio(sum(1 for s in handled if not s["ok"]), len(handled)),
             "ratio"),
        "check.spec_s": (total("check.spec"), "s"),
        "sym.plan_s": (total("sym.plan"), "s"),
        "sym.representatives": (summary["representatives"], "count"),
        "core.unattributed_s": (uncovered, "s"),
        "trace.overhead_s": (summary["overhead_s"], "s"),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = (layers[layer], "s")
    return m


def read_lines(path):
    with open(path, "rb") as f:
        return [l for l in f.read().split(b"\n") if l]


def attach_responses(spans, lines, root):
    """Mark each root span of the given name with its response's cached
    and ok flags."""
    roots = sorted((s for s in spans if s["name"] == root),
                   key=lambda s: s["request"])
    for s, line in zip(roots, lines):
        resp = json.loads(line)
        s["cached"] = bool(resp.get("cached"))
        s["ok"] = bool(resp.get("ok"))


def run_tracer(args, out, deadline):
    """Run the tracer, which measures its overhead until the deadline."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    seconds = max(0.0, deadline - time.perf_counter())
    proc = subprocess.run([TRACER] + args + ["--out", out,
                                             "--seconds", "%.3f" % seconds],
                          stdout=sys.stderr, timeout=STEP_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("tracer failed: " + " ".join(args))
    with open(os.path.join(out, "summary.json")) as f:
        summary = json.load(f)
    print("tracing overhead: %d repetitions with recording off and on"
          % summary["overhead_reps"])
    return summary


def oneshot_traced(workload, seed, work, deadline):
    specs, expected = oneshot_inputs(workload, seed, work)
    spec = specs[0]
    _, _, ok, cli = cold_run(spec, expected)
    attempted, failed = 1, 0 if ok else 1
    out = os.path.join(work, "trace")
    model = "evita" if workload == "evita_canonical" else "two_vehicles"
    summary = run_tracer(["oneshot", "--spec", spec, "--manual-model", model],
                         out, deadline)
    decomposed = read_lines(os.path.join(out, "decomposed.ndjson"))
    handled = read_lines(os.path.join(out, "handle_line.ndjson"))
    want = ("requirements",) + expected
    checker = Checker()
    # check, cold requirements, warm replay of the same request
    _, got_check = checker.check("check", "check", ("check", 0, False),
                                 decomposed[0], "decomposed")
    _, got_cold = checker.check("requirements", "req", want, decomposed[1],
                                "decomposed")
    checker.check("requirements", "req", want, decomposed[2], "decomposed")
    for line in handled:
        checker.check("requirements", "req", want, line, "handle_line")
    if got_cold != ("requirements",) + cli:
        checker.failed += 1
        print("traced verdict differs from the untraced CLI run",
              file=sys.stderr)
    spans = load_spans(out)
    attach_responses(spans, handled, REPLAY)
    metrics = layer_metrics(spans, summary, out)
    return attempted + checker.attempted, failed + checker.failed, metrics, out


def serve_traced(seed, work, deadline):
    onboard = onboard_oracle(work)
    lines = session(seed, 0, work, onboard)
    checker = Checker()
    _, _, _, _, untraced = serve_round(lines, work, 0, checker)
    requests = os.path.join(work, "requests.ndjson")
    with open(requests, "w") as f:
        f.write("".join(body + "\n" for _, body, _ in lines))
    out = os.path.join(work, "trace")
    summary = run_tracer(["serve", "--requests", requests], out, deadline)
    for label in ("handle_line", "decomposed"):
        replies = read_lines(os.path.join(out, label + ".ndjson"))
        if len(replies) != len(lines):
            raise BenchError("tracer answered %d of %d requests"
                             % (len(replies), len(lines)))
        for (op, body, expected), line, want in zip(lines, replies, untraced):
            _, got = checker.check(op, body, expected, line, label)
            if got != want:
                checker.failed += 1
                print("%s verdict differs from the untraced daemon: %s"
                      % (label, body), file=sys.stderr)
    spans = load_spans(out)
    attach_responses(spans, read_lines(os.path.join(out, "handle_line.ndjson")),
                     REPLAY)
    per_op = {}
    for s in spans:
        if s["name"] == REPLAY:
            key = (lines[s["request"] - 1][0], "hit" if s["cached"] else "miss")
            per_op.setdefault(key, []).append(s["dur"])
    for (op, kind), durs in sorted(per_op.items()):
        print("server.handle_line %s %s: %d calls, median %.3f ms"
              % (op, kind, len(durs), 1000.0 * median(durs)))
    metrics = layer_metrics(spans, summary, out)
    return checker.attempted, checker.failed, metrics, out


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    try:
        build()
        work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                                os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        if args.trace == 0:
            if args.workload == "serve_mix":
                attempted, failed, metrics = serve_untraced(
                    args.seed, args.seconds, work)
            else:
                attempted, failed, metrics = oneshot_untraced(
                    args.workload, args.seed, args.seconds, work)
            shutil.rmtree(work, ignore_errors=True)
        else:
            deadline = time.perf_counter() + args.seconds
            if args.workload == "serve_mix":
                attempted, failed, metrics, out = serve_traced(
                    args.seed, work, deadline)
            else:
                attempted, failed, metrics, out = oneshot_traced(
                    args.workload, args.seed, work, deadline)
            spans = os.path.join(WORK, "spans-%s-%d.json"
                                 % (args.workload, args.seed))
            shutil.copyfile(os.path.join(out, "spans.json"), spans)
            shutil.rmtree(work, ignore_errors=True)
            print("spans written to %s" % spans)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print("failed_share %.6f (%d of %d operations)"
          % (failed / attempted, failed, attempted))
    for name, (value, unit) in metrics.items():
        print("metric %s %r %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
