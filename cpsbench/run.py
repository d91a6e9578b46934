#!/usr/bin/env python3
"""The cpsflow benchmark: batch throughput and serve latency, layer by layer.

    python3 cpsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cpsflow checkout. It builds `cpsflow` (Release)
and the benchmark's probe under $CARGO_TARGET_DIR (default .bench_build),
generates the workload's inputs from --seed as source text, measures, and
checks every answer against oracles that are not the code under test.
With --trace 0 it drives the program the way users do (`cpsflow batch`,
or a `cpsflow serve` daemon over its unix socket) and reports the
end-to-end metrics; with --trace 1 it times the calls into each layer
(probe.cpp) and reads the daemon's request log, and reports the per-layer
metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See cpsbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("batch-corpus", "batch-wide", "serve-edit")
LEGS = ("direct", "semantic", "syntactic", "dup", "pushdown")
COUNTERS = ("goals", "cacheHits", "stores", "summaryHits")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
THREADS = 2          # batch --threads, serve --serve-workers
SETUPS = 9           # set-ups per run; setup_s is their median
CORPUS_DRAWS = 24    # generator draws added to examples/corpus
WIDE_DRAWS = 3       # random draws added to the batch-wide families
EDITS = 200          # serve-edit edits per sequence, fixed on every commit
SEQUENCE_S = 0.9     # about how long one serve-edit sequence takes


def log(*parts):
    print("cpsbench:", *parts, file=sys.stderr, flush=True)


def die(message):
    log(message)
    sys.exit(2)


# ---------------------------------------------------------------- statistics

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, sample count)."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return v[-1], 100.0, n
    k = n - 11
    return v[k], 100.0 * (k + 1) / n, n


def tenths(values):
    k = max(1, len(values) // 10)
    return values[:k], values[-k:]


# ----------------------------------------------------------- child processes

CHILDREN = []


def stop_children():
    for p in CHILDREN:
        if p.poll() is None:
            p.kill()
        p.wait()
    CHILDREN.clear()


def peak_rss_mb(pid):
    """The peak RSS of a live process, in MiB. Its own record, because the
    rusage of a child counts the memory of the process it was forked
    from."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process %d" % pid)


def sh(cmd):
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build(build_root):
    cpsflow_dir = os.path.join(build_root, "cpsflow")
    probe_dir = os.path.join(build_root, "probe")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(cpsflow_dir, "CMakeCache.txt")):
        sh(["cmake", "-S", ".", "-B", cpsflow_dir,
            "-DCMAKE_BUILD_TYPE=Release"] + generator)
    sh(["cmake", "--build", cpsflow_dir, "--target", "cpsflow_cli",
        "-j", jobs])
    if not os.path.exists(os.path.join(probe_dir, "CMakeCache.txt")):
        sh(["cmake", "-S", BENCH_DIR, "-B", probe_dir,
            "-DCMAKE_BUILD_TYPE=Release",
            "-DCPSFLOW_SOURCE_DIR=" + os.path.abspath("."),
            "-DCPSFLOW_BUILD_DIR=" + os.path.abspath(cpsflow_dir)]
           + generator)
    sh(["cmake", "--build", probe_dir, "-j", jobs])
    return (os.path.join(cpsflow_dir, "tools", "cpsflow"),
            os.path.join(probe_dir, "cpsbench_probe"))


def build_id(*binaries):
    """A digest of the measured binaries: counts saved by one build are
    only ever compared with counts of the same build."""
    h = hashlib.sha256()
    for path in binaries:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------- probe

class Probe:
    def __init__(self, path, work):
        self.path = path
        self.work = work

    def run(self, *args):
        out = subprocess.run([self.path, *args], capture_output=True,
                             text=True, check=True, timeout=120).stdout
        return [json.loads(line) for line in out.splitlines() if line]

    def spawn(self, args, stderr):
        """Runs a command as the probe's child; returns (exit code, wall
        seconds, peak RSS in MiB)."""
        out = subprocess.run([self.path, "spawn", *args],
                             stdout=subprocess.PIPE, stderr=stderr,
                             text=True, check=True, timeout=170).stdout
        us, rss_kib, code = out.split("\t")
        return int(code), float(us) / 1e6, int(rss_kib) / 1024.0

    def gen(self, workload, seed, count):
        return self.run("gen", workload, "--seed", str(seed),
                        "--corpus", "examples/corpus", "--count", str(count))

    def write(self, name, programs):
        path = os.path.join(self.work, name)
        with open(path, "w") as f:
            for p in programs:
                f.write(json.dumps({k: p[k] for k in ("name", "src", "legs")
                                    if k in p}))
                f.write("\n")
        return path

    def load(self, daemon, items, base, connections):
        """Sends analyze requests for (source, leg) items, item i with id
        base + i, from the probe's client: one request outstanding per
        connection. Returns per item (sent, received, response), times in
        seconds from the client's start."""
        path = os.path.join(self.work, "load.jsonl")
        with open(path, "w") as f:
            for i, (src, leg) in enumerate(items):
                f.write(json.dumps({"op": "analyze", "id": base + i,
                                    "program": src, "analyzer": leg}))
                f.write("\n")
        out = subprocess.run(
            [self.path, "load", daemon.sock, path,
             "--connections", str(connections), "--base", str(base)],
            capture_output=True, text=True, check=True, timeout=170).stdout
        recs = []
        for row in out.splitlines():
            sent, got, resp = row.split("\t", 2)
            recs.append((float(sent) / 1e6, float(got) / 1e6,
                         json.loads(resp)))
        return recs

    def oracle(self, programs, name="oracle.jsonl"):
        """Expected answers per program name: {leg: answer}, or a string
        saying why there is no oracle answer."""
        rows = self.run("check", self.write(name, programs))
        return {r["name"]: r["error"] if "error" in r else r["answers"]
                for r in rows}


# --------------------------------------------------------------- bookkeeping

class Tally:
    """Attempted and failed operations, and broken invariants."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}
        self.problems = []

    def op(self, error):
        self.attempted += 1
        if error:
            self.failed += 1
            self.reasons[error] = self.reasons.get(error, 0) + 1

    def problem(self, text):
        self.problems.append(text)
        log("invariant broken:", text)


def expected(oracle, name, leg):
    """The oracle's answer for one leg, or None when it has none."""
    answers = oracle.get(name)
    if not isinstance(answers, dict):
        log("no oracle answer for %s: %s" % (name, answers))
        return None
    return answers.get(leg)


def answer_error(answer, stats, want):
    """Why one leg's answer is a failed operation, or None."""
    if stats.get("budgetExhausted") or stats.get("degradeReason") != "none":
        return "degraded leg"
    if want is None:
        return "no oracle answer"
    if answer != want:
        return "wrong answer"
    return None


def check_repeat(tally, build_root, build, key, counts):
    """Counts at a fixed seed must repeat exactly across runs of one
    build."""
    path = os.path.join(build_root, "counts", build, key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != counts:
            tally.problem("counts differ from an earlier run at this seed "
                          "(%s)" % key)
    else:
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)


def sum_counts(records):
    """Per-leg sums of the deterministic work counters of (leg, stats)."""
    out = {leg: {c: 0 for c in COUNTERS} for leg in LEGS}
    for leg, stats in records:
        for c in COUNTERS:
            out[leg][c] += stats.get(c, 0)
    return out


# ------------------------------------------------------------------- serving

def call(sock, obj):
    """One request on its own connection; returns the parsed response."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as c:
        c.settimeout(60)
        c.connect(sock)
        c.sendall((json.dumps(obj) + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            data = c.recv(1 << 20)
            if not data:
                raise ConnectionError("daemon closed the connection")
            buf += data
    return json.loads(buf.split(b"\n", 1)[0])


class Daemon:
    """A `cpsflow serve` child with default options and a fresh cache,
    started at `start` and healthy once constructed."""

    def __init__(self, binary, work, name, log_requests=False):
        self.dir = os.path.join(work, name)
        os.makedirs(self.dir)
        self.sock = os.path.join(self.dir, "s.sock")
        self.log_path = os.path.join(self.dir, "requests.log")
        args = [binary, "serve", "--socket", self.sock,
                "--serve-workers", str(THREADS),
                "--cache-dir", os.path.join(self.dir, "cache")]
        if log_requests:
            args += ["--log-out", self.log_path]
        start = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        CHILDREN.append(self.proc)
        # The daemon prints this line once its socket accepts. Blocking on
        # it, rather than polling the socket, keeps a poll step out of
        # setup_s.
        for line in self.proc.stderr:
            if line.startswith(b"cpsflow serve: listening on"):
                break
        else:
            raise RuntimeError("daemon exited before listening")
        if call(self.sock, {"op": "health"}).get("status") != "ok":
            raise RuntimeError("daemon is not healthy")
        self.start = start
        self.rss_mb = 0.0
        self.drain = threading.Thread(target=self._drain, daemon=True)
        self.drain.start()

    def _drain(self):
        with open(os.path.join(self.dir, "stderr.log"), "wb") as f:
            shutil.copyfileobj(self.proc.stderr, f)

    def metrics(self):
        return call(self.sock, {"op": "metrics"})

    def stop(self):
        self.rss_mb = peak_rss_mb(self.proc.pid)
        call(self.sock, {"op": "shutdown"})
        code = self.proc.wait(timeout=60)
        CHILDREN.remove(self.proc)
        self.drain.join()
        if code != 0:
            raise RuntimeError("daemon exited with %d" % code)


def serve_error(resp, want):
    if not resp.get("ok"):
        return "serve error: " + resp.get("error", {}).get("kind", "?")
    return answer_error(resp["result"]["answer"], resp["result"]["stats"],
                        want)


def find_number(doc, key):
    """The first number stored under `key` anywhere in a JSON document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k == key and isinstance(v, (int, float)):
                return v
            found = find_number(v, key)
            if found is not None:
                return found
    elif isinstance(doc, list):
        for v in doc:
            found = find_number(v, key)
            if found is not None:
                return found
    return None


def serve_layers(daemon, before, records):
    """serve.* per-layer metrics of one phase: the daemon's request log
    rows of the phase's requests, the change in its metrics op since
    `before`, and client records {client id: (send, receive, resp)}."""
    after = daemon.metrics()

    def delta(key):
        return (find_number(after, key) or 0) - (find_number(before, key)
                                                 or 0)

    rows = []
    with open(daemon.log_path) as f:
        for line in f:
            row = json.loads(line)
            if row.get("id") in records:
                rows.append(row)
    phases = ("queueUs", "parseUs", "cpsUs", "analyzeUs", "totalUs")
    out = {}
    for ph, name in zip(phases, ("queue", "parse", "cps", "analyze",
                                 "total")):
        out["serve.%s_us" % name] = median([r[ph] for r in rows])
    out["serve.unaccounted_us"] = median(
        [r["totalUs"] - sum(r[p] for p in phases[:4]) for r in rows])
    out["serve.transport_us"] = median(
        [(records[r["id"]][1] - records[r["id"]][0]) * 1e6 - r["totalUs"]
         for r in rows])
    hits = delta("serve.cache.hits")
    misses = delta("serve.cache.misses")
    out["serve.cache_hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    out["serve.shed"] = delta("serve.shed")
    out["serve.memo_entries"] = find_number(after, "serve.memo.entries") \
        or 0
    rh = sum(r.get("replayHits", 0) for r in rows)
    rm = sum(r.get("replayMisses", 0) for r in rows)
    out["serve.replay_hit_ratio"] = rh / (rh + rm) if rh + rm else 0.0
    return out


# ------------------------------------------------------------------ workloads

class Bench:
    def __init__(self, args, cpsflow, probe, build_root, build, work):
        self.args = args
        self.build = build
        self.cpsflow = cpsflow
        self.probe = probe
        self.build_root = build_root
        self.work = work
        self.tally = Tally()
        self.notes = []
        self.seed = args.seed
        self.seconds = float(args.seconds)

    def note(self, text):
        self.notes.append(text)

    def repeat_key(self, source):
        return "%s-seed%d-%s" % (self.args.workload, self.seed, source)

    # ---- traced runs: the probe plus one serve phase

    def probe_layers(self, programs, oracle, seconds):
        path = self.probe.write("trace.jsonl", programs)
        trace_dir = os.path.join(self.build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-seed%d.trace.json" % (
            self.args.workload, self.seed))
        [doc] = self.probe.run("trace", path, "--seconds", "%.3f" % seconds,
                               "--trace-out", trace_out)
        self.note("chrome trace: " + trace_out)
        for row in doc["answers"]:
            for leg in LEGS:
                want = expected(oracle, row["name"], leg)
                self.tally.op(None if want == row[leg] else "wrong answer")
        if doc["degraded_legs"]:
            self.tally.problem("a leg degraded in the traced run")
        if not doc["repeats"]:
            self.tally.problem("counts differ between traced passes")
        counts = {leg: {c: doc["legs"][leg][c] for c in COUNTERS}
                  for leg in LEGS}
        counts["treePrograms"] = doc["tree_programs"]
        check_repeat(self.tally, self.build_root, self.build,
                     self.repeat_key("probe"), counts)
        m = {}
        layers = doc["layers_ms"]
        m["syntax.parse_ms"] = layers["syntax.parse"]
        m["anf.normalize_ms"] = layers["anf.normalize"]
        m["cps.transform_ms"] = layers["cps.transform"]
        m["analysis.bind_ms"] = layers["analysis.bind"]
        for leg in LEGS:
            c = doc["legs"][leg]
            ms = layers["analysis." + leg]
            m["analysis.%s_ms" % leg] = ms
            m["analysis.%s_goals" % leg] = c["goals"]
            m["analysis.%s_ns_per_goal" % leg] = \
                ms * 1e6 / c["goals"] if c["goals"] else 0.0
            m["analysis.%s_memo_hit_ratio" % leg] = \
                c["cacheHits"] / c["goals"] if c["goals"] else 0.0
            m["domain.%s_stores" % leg] = c["stores"]
            m["domain.%s_store_bytes" % leg] = c["storeBytes"]
        syn = doc["legs"]["syntactic"]
        probes = syn["summaryHits"] + syn["summaryMisses"]
        m["analysis.syntactic_summary_hit_ratio"] = \
            syn["summaryHits"] / probes if probes else 0.0
        m["analysis.syntactic_tree_engine_programs"] = doc["tree_programs"]
        m["clients.render_ms"] = layers["clients.render"]
        m["trace.coverage"] = doc["coverage"]
        m["trace.overhead"] = doc["overhead"]
        self.note("probe: %d programs, %d spanned passes, %.2f ms a pass" % (
            doc["programs"], doc["passes"], doc["pass_ms"]))
        return m

    def finish_traced(self, m):
        t = self.tally
        m["fail_ratio"] = t.failed / t.attempted if t.attempted else 0.0
        return m

    def serve_closed_phase(self, pairs, oracle):
        """Traced serve phase for the batch workloads: every (program,
        leg) twice, the second time from the result cache, one request
        outstanding per connection."""
        d = Daemon(self.cpsflow, self.work, "traced", log_requests=True)
        before = d.metrics()
        pairs = pairs + pairs
        recs = self.probe.load(d, [(p["src"], leg) for p, leg in pairs], 0,
                               THREADS)
        for (p, leg), rec in zip(pairs, recs):
            self.tally.op(serve_error(rec[2],
                                      expected(oracle, p["name"], leg)))
        layers = serve_layers(d, before, dict(enumerate(recs)))
        d.stop()
        return layers

    # ---- batch-corpus and batch-wide

    def batch(self):
        w = self.args.workload
        count = CORPUS_DRAWS if w == "batch-corpus" else WIDE_DRAWS
        programs = self.probe.gen(w, self.seed, count)
        tree = sum(1 for p in programs if p["tree"])
        if w == "batch-corpus" and tree:
            self.tally.problem("batch-corpus has tree-engine programs")
        if w == "batch-wide" and 2 * tree <= len(programs):
            self.tally.problem("batch-wide: tree-engine programs are not "
                               "more than half")
        self.note("%d programs, %d on the tree engine" % (len(programs),
                                                          tree))
        oracle = self.probe.oracle(programs)
        if self.args.trace:
            m = self.probe_layers(programs, oracle, self.seconds / 2)
            m.update(self.serve_closed_phase(
                [(p, leg) for p in programs for leg in LEGS], oracle))
            return self.finish_traced(m)

        corpus = os.path.join(self.work, "programs")
        os.makedirs(corpus)
        for p in programs:
            with open(os.path.join(corpus, p["name"]), "w") as f:
                f.write(p["src"])
        report_path = os.path.join(self.work, "report.json")
        first_counts = None

        def one_pass():
            nonlocal first_counts
            with open(os.path.join(self.work, "batch.stderr"), "wb") as err:
                code, wall, rss = self.probe.spawn(
                    [self.cpsflow, "batch", corpus, "--threads",
                     str(THREADS), "--out", report_path], err)
            if code != 0:
                raise RuntimeError("cpsflow batch exited with %d" % code)
            with open(report_path) as f:
                report = json.load(f)
            legs = []
            for rec in report["programs"]:
                error = None if rec["ok"] else \
                    "batch failure: " + rec.get("failKind", "?")
                for leg in LEGS if rec["ok"] else ():
                    error = error or answer_error(
                        rec[leg]["answer"], rec[leg],
                        expected(oracle, rec["name"], leg))
                    legs.append((leg, rec[leg]))
                self.tally.op(error)
            counts = sum_counts(legs)
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                self.tally.problem("counts differ between batch passes")
            return wall, rss

        setups = [one_pass()[0] for _ in range(SETUPS)]
        walls, rss = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < self.seconds:
            wall, peak = one_pass()
            walls.append(wall)
            rss.append(peak)
        counts = dict(first_counts, treePrograms=tree)
        check_repeat(self.tally, self.build_root, self.build,
                     self.repeat_key("batch"), counts)
        n = len(programs)
        ms = [x * 1000 for x in walls]
        tail_ms, pct, count = tail(ms)
        # Passes keep no state between them, so on batch the ratio is a
        # control that should read 1. It compares halves, not tenths, so
        # that each side has enough passes for a steady median.
        half = len(ms) // 2
        self.note("lat_tail_ms is p%.2f of %d passes" % (pct, count))
        return {
            "setup_s": median(setups),
            "programs_per_s": n / (median(ms) / 1000),
            "lat_p50_ms": median(ms),
            "lat_tail_ms": tail_ms,
            "late_early_ratio": median(ms[half:]) / median(ms[:half] or ms),
            "peak_rss_mb": median(rss),
        }

    # ---- serve-edit

    def serve_edit(self):
        sources = edit_script(self.seed, EDITS)
        programs = [{"name": "edit-%03d" % i, "src": s, "legs": ["direct"]}
                    for i, s in enumerate(sources)]
        oracle = self.probe.oracle(programs)
        want = [expected(oracle, p["name"], "direct") for p in programs]
        # Each sequence runs on a fresh daemon, so every sequence repeats
        # the same work; their number follows --seconds only.
        sequences = 1 if self.args.trace else \
            max(SETUPS, int(round(self.seconds / SEQUENCE_S)))
        lat_seq, setups, rss, seq_counts = [], [], [], []
        replay = [0, 0]
        layers = None
        for rep in range(sequences):
            d = Daemon(self.cpsflow, self.work, "daemon%d" % rep,
                       log_requests=bool(self.args.trace))
            first = call(d.sock, {"op": "analyze", "id": 0,
                                  "program": sources[0],
                                  "analyzer": "direct"})
            self.tally.op(serve_error(first, want[0]))
            setups.append(time.perf_counter() - d.start)
            before = d.metrics() if self.args.trace else None
            recs = self.probe.load(
                d, [(src, "direct") for src in sources[1:]], 1, 1)
            lat, counts = [], []
            for i, (sent, got, resp) in enumerate(recs, 1):
                lat.append((got - sent) * 1000)
                self.tally.op(serve_error(resp, want[i]))
                if resp.get("ok"):
                    st = resp["result"]["stats"]
                    counts.append([st["goals"], st["cacheHits"],
                                   st["replayHits"], st["replayMisses"]])
                    replay[0] += st["replayHits"]
                    replay[1] += st["replayMisses"]
            if self.args.trace:
                layers = serve_layers(d, before, dict(enumerate(recs, 1)))
            d.stop()
            lat_seq.append(lat)
            rss.append(d.rss_mb)
            seq_counts.append(counts)
        if any(x != seq_counts[0] for x in seq_counts):
            self.tally.problem("counts differ between edit sequences")
        check_repeat(self.tally, self.build_root, self.build,
                     self.repeat_key("edits"), seq_counts[0])
        if self.args.trace:
            # Every fifth edit through all five legs in-process.
            sample = [{"name": p["name"], "src": p["src"]}
                      for p in programs[::5]]
            m = self.probe_layers(sample,
                                  self.probe.oracle(sample, "sample.jsonl"),
                                  self.seconds / 2)
            m.update(layers)
            return self.finish_traced(m)
        # Edit i does the same work in every sequence, so its latency is
        # the best of its repeats: a stall of the machine lands on one
        # repeat and is dropped, while a stall of the program recurs at
        # the same edit and is kept.
        best = [min(col) for col in zip(*lat_seq)]
        tail_ms, pct, count = tail(best)
        early, late = tenths(best)
        self.note("each edit's latency is its best of %d sequences; "
                  "lat_tail_ms is p%.2f of %d edits" % (sequences, pct, count))
        self.note("replay hit ratio %.3f" % (
            replay[0] / max(1, replay[0] + replay[1])))
        return {
            "setup_s": median(setups),
            "programs_per_s": len(best) / (sum(best) / 1000),
            "lat_p50_ms": median(best),
            "lat_tail_ms": tail_ms,
            "late_early_ratio": median(late) / median(early),
            "peak_rss_mb": median(rss),
        }


EDIT_TEMPLATE = """\
(define (plus a b) (if0 a b (add1 (plus (sub1 a) b))))
(define (times a b) (if0 a 0 (plus b (times (sub1 a) b))))
(plus (times 3 4) {})
"""


def edit_script(seed, edits):
    """examples/corpus/arithmetic.scm with its last numeral as the edited
    leaf, starting from a seeded value, and `edits` successive edits of
    it. Each edit bumps that leaf by one, so every edit is a new program,
    while the recursion the numerals 3 and 4 drive, and with it the cold
    analysis cost, stays the same."""
    first = random.Random(seed).randrange(1, 100)
    return [EDIT_TEMPLATE.format(first + i) for i in range(edits + 1)]


# ---------------------------------------------------------------------- main

def read_units():
    """The unit of every metric BENCHMARK.json names, by section."""
    try:
        with open("BENCHMARK.json") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        die("BENCHMARK.json is missing or unreadable")
    return {section: {m["name"]: m["unit"] for m in doc[section]}
            for section in ("end_to_end", "per_layer")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src", "tools/cpsflow.cpp",
                 "tests/reference", "examples/corpus"):
        if not os.path.exists(need):
            die("run from the root of a cpsflow checkout (no %s here)" %
                need)
    units = read_units()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cpsflow, probe_bin = build(build_root)
    digest = build_id(cpsflow, probe_bin)
    version = subprocess.run([cpsflow, "version"], capture_output=True,
                             text=True, check=True).stdout
    for line in version.splitlines():
        print("# build:", line.strip())
    print("# build id:", digest)
    if "fault injection:  unavailable" not in version:
        die("the measured binary must be a Release build without fault "
            "injection")

    work = os.path.join(build_root, "work", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(args, cpsflow, Probe(probe_bin, work), build_root,
                  digest, work)
    # A terminated run still stops its daemons and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload.startswith("batch-"):
            metrics = bench.batch()
        else:
            metrics = bench.serve_edit()
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)

    units = units["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(units):
        die("metrics %s do not match BENCHMARK.json" % sorted(
            set(metrics) ^ set(units)))
    for text in bench.notes:
        print("#", text)
    for name, value in metrics.items():
        print("# %-42s %14.4f %s" % (name, value, units[name]))
    t = bench.tally
    for reason, n in sorted(t.reasons.items()):
        print("# failed: %d x %s" % (n, reason))
    result = {
        "correct": t.failed == 0 and not t.problems,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
