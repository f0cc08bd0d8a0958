#!/usr/bin/env python3
"""End-to-end benchmark of the hopfcyclic command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-cold --seed 0 --seconds 10 --trace 0

Each workload is a fixed sequence of ``hopfcyclic`` jobs; every job is a fresh
process, run one at a time (a closed loop with one client).  Set-up writes the
inputs (``hopfcyclic fixtures``, then the seed's basis permutation) and, for
``audit-warm``, fills the cache with a first audit.  The timed part repeats the
sequence until ``--seconds`` have passed, at least once, and checks every
report against the references recorded from the seed code
(``references.json``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (``wall_s``, ``peak_rss_mb``, ``setup_s``); with
``--trace 1`` every job of the timed sequence runs under ``traced_job.py``
and the metrics are per-layer calls, self times, sizes and counters.  A full
results file with provenance goes to ``.perfbench-results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from traced_job import COUNTERS, SIZES, TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
RESULTS = os.path.join(ROOT, ".perfbench-results")
REFERENCES = os.path.join(HERE, "references.json")
TRACED_JOB = os.path.join(HERE, "traced_job.py")

MAX_DEGREE = "4"
AUDIT_FILES = ("h4.hcy", "kz4_relative.hcy", "kz2.hcy")
CUP_JOBS = (
    ("kz2.hcy", "crossed", 0, 3),
    ("kz4_relative.hcy", "relative", 0, 3),
    ("kz3.hcy", "coalgebra", 0, 2),
    ("kz3.hcy", "coalgebra", 2, 0),
    ("kz2.hcy", "traces", 0, 3),
)
WORKLOADS = ("audit-cold", "audit-warm", "cup-pairings")
SETUP_REPEATS = {"audit-cold": 15, "audit-warm": 3, "cup-pairings": 15}


def audit_job(name):
    return ["audit", name, "--max-degree", MAX_DEGREE]


def workload_jobs(workload):
    """The workload's job sequence, as CLI argument lists."""
    if workload == "cup-pairings":
        return [["cup", f, "--kind", k, "--p", str(p), "--q", str(q)]
                for f, k, p, q in CUP_JOBS]
    return [audit_job(f) for f in AUDIT_FILES]


def job_key(argv):
    return " ".join(argv)


# ---------------------------------------------------------------------------
# inputs

def permute_spec(text, seed, name):
    """Reorder the basis of every ``space`` line, keeping its labels.

    Positional ``character`` and ``trace`` values are reordered to match; all
    other lines refer to basis labels.  Seed 0 returns the text verbatim.
    """
    if seed == 0:
        return text
    rng = random.Random("%d:%s" % (seed, name))
    order = {}
    out = []
    for line in text.splitlines():
        toks = line.split()
        if toks[:1] == ["space"]:
            labels = toks[3:]
            new = labels[:]
            rng.shuffle(new)
            order[toks[1]] = [labels.index(label) for label in new]
            line = "space %s = %s" % (toks[1], " ".join(new))
        elif toks[:1] in (["character"], ["trace"]):
            head, values = line.split("=", 1)
            values = values.split()
            line = "%s= %s" % (head, " ".join(values[i] for i in order[toks[3]]))
        out.append(line)
    return "\n".join(out) + "\n"


def write_inputs(directory, seed, env):
    """``hopfcyclic fixtures`` into DIRECTORY, then the seed's permutation."""
    os.makedirs(directory)
    proc = subprocess.run([sys.executable, "-m", "hopfcyclic.cli", "fixtures", "--out", "."],
                          cwd=directory, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError("hopfcyclic fixtures failed: %s" % proc.stderr.decode()[-500:])
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(permute_spec(text, seed, name))


# ---------------------------------------------------------------------------
# jobs

def job_env():
    """Environment of every job: the checkout's sources.

    Byte-code caching stays on, so that only the first job of a checkout pays
    for compiling the package.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class JobResult:
    argv: list
    wall: float
    rss_kb: int
    code: int
    stdout: bytes
    stderr: bytes
    spans_path: str = None


def run_job(argv, cwd, inputs, env, trace_id=None):
    """Run one CLI job in CWD as a fresh process; waits for it to exit."""
    args = [os.path.join(inputs, argv[1]) if i == 1 else a for i, a in enumerate(argv)]
    spans_path = None
    if trace_id is None:
        cmd = [sys.executable, "-m", "hopfcyclic.cli"] + args
    else:
        spans_path = os.path.join(cwd, "spans-%s.json" % trace_id)
        cmd = [sys.executable, TRACED_JOB, spans_path, trace_id, "--"] + args
    out_path = os.path.join(cwd, "job-stdout.txt")
    err_path = os.path.join(cwd, "job-stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read()
    os.remove(out_path)
    os.remove(err_path)
    return JobResult(argv, wall, usage.ru_maxrss, proc.returncode, stdout, stderr, spans_path)


def invariant_lines(report):
    """The lines of a report that do not depend on the basis order.

    Drops the input digest and the cochain coordinates; keeps section heads,
    dimension tables and every verdict.
    """
    keep = []
    for line in report.decode().splitlines():
        if line.startswith("input ") or line.startswith("  cochain:"):
            continue
        keep.append(line)
    return ("\n".join(keep) + "\n").encode()


def digest(data):
    return hashlib.sha256(data).hexdigest()


def check_job(result, seed, references):
    """None if the job is correct, else the reason it failed."""
    if result.code != 0:
        return "exit code %d" % result.code
    if b"Traceback" in result.stderr:
        return "traceback on stderr"
    ref = references.get(job_key(result.argv))
    if ref is None:
        return "no reference recorded"
    if seed == 0:
        if digest(result.stdout) != ref["stdout_sha256"]:
            return "report differs from the reference"
    elif digest(invariant_lines(result.stdout)) != ref["invariant_sha256"]:
        return "seed-invariant lines differ from the reference"
    return None


def cache_digest(directory):
    """Digest of the names and bytes of the files in a (flat) cache directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            h.update(name.encode() + b"\0" + f.read() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one run

class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.jobs = workload_jobs(workload)
        self.env = job_env()
        self.dir = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
        with open(REFERENCES) as f:
            self.references = json.load(f)["jobs"]
        self.attempted = 0
        self.failures = []
        self.problems = []     # correctness problems outside the job checks
        self.sequences = []    # per sequence: {"traced", "wall_s", "jobs": [...]}
        self.setup_times = []
        self.layers = []       # per traced sequence: aggregated span data

    # -- set-up

    def setup_once(self, index):
        base = os.path.join(self.dir, "setup-%d" % index)
        start = time.perf_counter()
        inputs = os.path.join(base, "inputs")
        write_inputs(inputs, self.seed, self.env)
        cold_reports = {}
        if self.workload == "audit-warm":
            cwd = os.path.join(base, "warm")
            os.makedirs(cwd)
            for argv in self.jobs:
                result = run_job(argv, cwd, inputs, self.env)
                problem = check_job(result, self.seed, self.references)
                if problem:
                    self.problems.append("cache fill %s: %s" % (job_key(argv), problem))
                cold_reports[job_key(argv)] = result.stdout
        self.setup_times.append(time.perf_counter() - start)
        return base, cold_reports

    # -- timed sequences

    def sequence(self, seq_index, base, cold_reports, traced):
        inputs = os.path.join(base, "inputs")
        cwds = []
        for i in range(len(self.jobs)):
            if self.workload == "audit-warm":
                cwds.append(os.path.join(base, "warm"))
            else:
                cwd = os.path.join(base, "seq-%d" % seq_index, "job-%d" % i)
                os.makedirs(cwd)
                cwds.append(cwd)
        results = []
        start = time.perf_counter()
        for i, (argv, cwd) in enumerate(zip(self.jobs, cwds)):
            trace_id = "s%d-j%d" % (seq_index, i) if traced else None
            results.append(run_job(argv, cwd, inputs, self.env, trace_id))
        wall = time.perf_counter() - start
        for result in results:
            self.attempted += 1
            problem = check_job(result, self.seed, self.references)
            if problem is None and self.workload == "audit-warm":
                if result.stdout != cold_reports[job_key(result.argv)]:
                    problem = "warm report differs from the cold report"
            if problem:
                self.failures.append({"job": job_key(result.argv), "sequence": seq_index,
                                      "reason": problem,
                                      "stderr_tail": result.stderr.decode()[-400:]})
        if self.workload == "audit-warm":
            if cache_digest(os.path.join(base, "warm", ".hopfcyclic-cache")) != self.cache_before:
                self.problems.append("sequence %d changed the cache directory" % seq_index)
        if traced:
            self.layers.append(aggregate_spans([r.spans_path for r in results]))
        self.sequences.append({"traced": traced, "wall_s": wall,
                               "jobs": [{"job": job_key(r.argv), "wall_s": r.wall,
                                         "peak_rss_mb": r.rss_kb / 1024.0, "exit": r.code}
                                        for r in results]})

    def execute(self):
        if os.path.exists(self.dir):
            shutil.rmtree(self.dir)
        os.makedirs(self.dir)
        try:
            for index in range(SETUP_REPEATS[self.workload]):
                base, cold_reports = self.setup_once(index)
            if self.workload == "audit-warm":
                self.cache_before = cache_digest(os.path.join(base, "warm", ".hopfcyclic-cache"))
            start = time.perf_counter()
            seq_index = 0
            while True:
                # the traced run alternates plain and traced sequences, so
                # that the tracing overhead is measured on the same inputs
                self.sequence(seq_index, base, cold_reports, self.trace and seq_index % 2 == 1)
                seq_index += 1
                if time.perf_counter() - start >= self.seconds and (
                        not self.trace or seq_index % 2 == 0):
                    break
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- results

    def end_to_end(self):
        plain = [s for s in self.sequences if not s["traced"]]
        return {
            "wall_s": {"value": statistics.median(s["wall_s"] for s in plain), "unit": "s"},
            "peak_rss_mb": {"value": max(j["peak_rss_mb"] for s in plain for j in s["jobs"]),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(self.setup_times), "unit": "s"},
        }

    def per_layer(self):
        metrics = {}
        first = self.layers[0]
        for name in sorted(first["calls"]):
            metrics[name + ".calls"] = {"value": first["calls"][name], "unit": "count"}
            metrics[name + ".self_s"] = {
                "value": statistics.median(layer["self_s"][name] for layer in self.layers),
                "unit": "s"}
        for name, value in first["sizes"].items():
            metrics[name] = {"value": value, "unit": SIZES[name][1]}
        counters = first["counters"]
        hits, misses = counters["cli.cache.hits"], counters["cli.cache.misses"]
        metrics["cli.cache.hits"] = {"value": hits, "unit": "count"}
        metrics["cli.cache.misses"] = {"value": misses, "unit": "count"}
        metrics["cli.cache.hit_ratio"] = {
            "value": hits / (hits + misses) if hits + misses else 0.0, "unit": "ratio"}
        calls = counters["cohomology.connes_B.calls"]
        metrics["cohomology.connes_B.fallback_share"] = {
            "value": counters["cohomology.connes_B.fallbacks"] / calls if calls else 0.0,
            "unit": "ratio"}
        metrics["cup.failures"] = {"value": counters["cup.failures"], "unit": "count"}
        plain = [s["wall_s"] for s in self.sequences if not s["traced"]]
        traced = [s["wall_s"] for s in self.sequences if s["traced"]]
        metrics["bench.trace_overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
        return metrics

    def check_layers(self):
        """Exact cache counts: a silently cold warm run must fail."""
        expected = {"audit-cold": 0.5, "audit-warm": 1.0}.get(self.workload)
        for i, layer in enumerate(self.layers):
            c = layer["counters"]
            for key in ("cli.cache.hits", "cli.cache.misses", "cup.failures"):
                if c[key] != self.layers[0]["counters"][key]:
                    self.problems.append("traced sequence %d: %s changed" % (i, key))
            if expected is not None:
                ratio = c["cli.cache.hits"] / max(1, c["cli.cache.hits"] + c["cli.cache.misses"])
                if ratio != expected:
                    self.problems.append("cache hit ratio %r, expected %r" % (ratio, expected))


def aggregate_spans(paths):
    """Calls and self time per span name, summed over the jobs of one sequence."""
    calls, self_s = {}, {}
    sizes = dict.fromkeys(SIZES, 0)
    counters = dict.fromkeys(COUNTERS, 0)
    for name, _, _ in TARGETS:
        calls[name] = 0
        self_s[name] = 0.0
    for path in paths:
        # a job that died before writing its spans already failed its check
        if not os.path.exists(path):
            continue
        with open(path) as f:
            data = json.load(f)
        spans = data["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent), inner in zip(spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        for key, value in data["sizes"].items():
            sizes[key] += value
        for key, value in data["counters"].items():
            counters[key] += value
    return {"calls": calls, "self_s": self_s, "sizes": sizes, "counters": counters}


# ---------------------------------------------------------------------------
# provenance and entry point

def provenance(seed):
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    version = None
    try:
        with open(os.path.join(SRC, "hopfcyclic", "__init__.py")) as f:
            for line in f:
                if line.startswith("__version__"):
                    version = line.split("=", 1)[1].strip().strip("\"'")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": commit,
            "hopfcyclic_version": version, "seed": seed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    flags = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopfcyclic", "cli.py")):
        sys.stderr.write("perfbench: no hopfcyclic sources under %s\n" % SRC)
        return 2

    run = Run(flags.workload, flags.seed, flags.seconds, bool(flags.trace))
    run.execute()
    if run.trace:
        run.check_layers()
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end()
    failed = len(run.failures)
    correct = failed == 0 and not run.problems
    plain = [s["wall_s"] for s in run.sequences if not s["traced"]]
    summary = {
        "workload": flags.workload, "trace": flags.trace, "seconds": flags.seconds,
        "provenance": provenance(flags.seed),
        "sequences": run.sequences, "setup_s": run.setup_times,
        "wall_s_median": statistics.median(plain), "wall_s_samples": len(plain),
        "fail_rate": failed / run.attempted, "failures": run.failures,
        "problems": run.problems, "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (flags.workload, flags.seed,
                                                            flags.trace))
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)

    for failure in run.failures:
        print("FAILED %(job)s (sequence %(sequence)d): %(reason)s" % failure)
    for problem in run.problems:
        print("PROBLEM %s" % problem)
    print("workload %s seed %d: %d sequences, %d jobs, fail_rate %.4f (ratio), "
          "wall_s median of %d" % (flags.workload, flags.seed, len(run.sequences),
                                   run.attempted, failed / run.attempted, len(plain)))
    for name, m in sorted(metrics.items()):
        print("%s %r %s" % (name, m["value"], m["unit"]))
    print("results file %s" % os.path.relpath(out, ROOT))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
