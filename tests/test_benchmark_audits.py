"""The benchmark's traced check on its own audit inputs.

A traced run of perfbench/run.py is judged by two things beyond each job's
report: its cache counters (hit ratio exactly 0.5 cold and 1.0 warm, equal
across sequences), and every job still running under traced_job.py, which
wraps package names and sizes their arguments.  The smoke test in perfbench/
covers trivial.hcy and kz2.hcy only; this runs the audit workload's own
inputs (h4, kz4_relative and kz2) at degree 2, with references recorded
from the current code, and then as the benchmark runs them: at its shipped
degree, against its shipped references, with two traced sequences whose
counters must agree.
"""

import importlib.util
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_bench():
    sys.path.insert(0, PERFBENCH)
    spec = importlib.util.spec_from_file_location("perfbench_run_audits",
                                                  os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The benchmark at degree 2 on the audit inputs, its references
    recorded at seed 0 from the current code."""
    bench = _load_bench()
    tmp = tmp_path_factory.mktemp("perfbench-audits")
    bench.WORK = str(tmp / "work")
    bench.RESULTS = str(tmp / "results")
    bench.REFERENCES = str(tmp / "references.json")
    bench.MAX_DEGREE = "2"
    bench.AUDIT_FILES = ("h4.hcy", "kz4_relative.hcy", "kz2.hcy")
    bench.SETUP_REPEATS = {w: 1 for w in bench.WORKLOADS}
    env = bench.job_env()
    inputs = str(tmp / "inputs")
    bench.write_inputs(inputs, 0, env)
    jobs = {}
    for i, argv in enumerate(bench.workload_jobs("audit-cold")):
        cwd = tmp / ("record-%d" % i)
        cwd.mkdir()
        result = bench.run_job(argv, str(cwd), inputs, env)
        assert result.code == 0, result.stderr
        jobs[bench.job_key(argv)] = {
            "stdout_sha256": bench.digest(result.stdout),
            "invariant_sha256": bench.digest(bench.invariant_lines(result.stdout))}
    with open(bench.REFERENCES, "w") as f:
        json.dump({"jobs": jobs}, f)
    return bench


@pytest.mark.parametrize("workload,ratio", [("audit-cold", 0.5), ("audit-warm", 1.0)])
def test_traced_audit_of_the_benchmark_inputs_is_correct(bench, capsys, workload, ratio):
    assert bench.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] == 2 * len(bench.AUDIT_FILES)
    assert result["metrics"]["cli.cache.hit_ratio"]["value"] == ratio


def test_traced_cold_audit_at_the_shipped_degree_keeps_its_counts(tmp_path):
    # the shipped MAX_DEGREE and references.json: one audit-cold set-up,
    # then plain, traced, plain and traced sequences, after which
    # check_layers compares the counters of the two traced ones
    bench = _load_bench()
    bench.WORK = str(tmp_path / "work")
    bench.RESULTS = str(tmp_path / "results")
    run = bench.Run("audit-cold", 0, 0, True)
    base, cold_reports = run.setup_once(0)
    for seq_index in range(4):
        run.sequence(seq_index, base, cold_reports, seq_index % 2 == 1)
    run.check_layers()
    assert run.failures == [] and run.problems == []
    assert run.attempted == 4 * len(bench.AUDIT_FILES)
    assert len(run.layers) == 2
