"""Smoke test of the benchmark on small inputs (trivial.hcy and kz2.hcy).

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the cache counts come out exact, and that the reference check trips on
an altered report.  Run with ``python3 -m pytest perfbench``.
"""

import importlib.util
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_bench():
    sys.path.insert(0, HERE)
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def _record_references(base):
    """Write bench.REFERENCES from the current code at seed 0, for the shrunk jobs."""
    env = bench.job_env()
    inputs = str(base / "inputs")
    bench.write_inputs(inputs, 0, env)
    jobs = {}
    argvs = bench.workload_jobs("audit-cold") + bench.workload_jobs("cup-pairings")
    for i, argv in enumerate(argvs):
        cwd = base / ("job-%d" % i)
        cwd.mkdir()
        result = bench.run_job(argv, str(cwd), inputs, env)
        assert result.code == 0, result.stderr
        jobs[bench.job_key(argv)] = {
            "stdout_sha256": bench.digest(result.stdout),
            "invariant_sha256": bench.digest(bench.invariant_lines(result.stdout))}
    with open(bench.REFERENCES, "w") as f:
        json.dump({"jobs": jobs}, f)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """The benchmark shrunk to cheap jobs, with references recorded for them."""
    tmp = tmp_path_factory.mktemp("perfbench")
    saved = {k: getattr(bench, k) for k in ("WORK", "RESULTS", "REFERENCES", "MAX_DEGREE",
                                           "AUDIT_FILES", "CUP_JOBS", "SETUP_REPEATS")}
    bench.WORK = str(tmp / "work")
    bench.RESULTS = str(tmp / "results")
    bench.REFERENCES = str(tmp / "references.json")
    bench.MAX_DEGREE = "2"
    bench.AUDIT_FILES = ("trivial.hcy", "kz2.hcy")
    bench.CUP_JOBS = (("kz2.hcy", "traces", 0, 3),)
    bench.SETUP_REPEATS = {w: 1 for w in bench.WORKLOADS}
    _record_references(tmp / "record")
    yield bench
    for k, v in saved.items():
        setattr(bench, k, v)


def _result(capsys, *args):
    assert bench.main(list(args)) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["audit-cold", "audit-warm", "cup-pairings"])
def test_end_to_end_metrics_printed_with_units(small, capsys, workload):
    lines, result = _result(capsys, "--workload", workload, "--seed", "0",
                            "--seconds", "0", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in BENCHMARK["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert "%s %r %s" % (m["name"], got["value"], m["unit"]) in lines
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert any("fail_rate 0.0000 (ratio)" in line for line in lines)


@pytest.mark.parametrize("workload,ratio", [("audit-cold", 0.5), ("audit-warm", 1.0)])
def test_traced_run_per_layer_metrics_and_cache_counts(small, capsys, workload, ratio):
    _, result = _result(capsys, "--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", "1")
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["cli.cache.hit_ratio"]["value"] == ratio
    assert metrics["complexes.complex_from_text.calls"]["value"] > 0
    assert metrics["cohomology.connes_B.fallback_share"]["value"] == 0.0


def test_reference_check_trips_on_altered_report(small, tmp_path):
    inputs = str(tmp_path / "inputs")
    bench.write_inputs(inputs, 0, dict(os.environ, PYTHONPATH=bench.SRC))
    with open(bench.REFERENCES) as f:
        references = json.load(f)["jobs"]
    argv = bench.audit_job("kz2.hcy")
    result = bench.run_job(argv, str(tmp_path), inputs, dict(os.environ, PYTHONPATH=bench.SRC))
    assert bench.check_job(result, 0, references) is None
    assert bench.check_job(result, 5, references) is None
    result.stdout = result.stdout.replace(b"HC 0 1", b"HC 0 2", 1)
    assert bench.check_job(result, 0, references) == "report differs from the reference"
    assert bench.check_job(result, 5, references) is not None
    result.stdout = result.stdout.replace(b"HC 0 2", b"HC 0 1", 1) + b" "
    assert bench.check_job(result, 0, references) is not None
    result.code = 1
    assert bench.check_job(result, 0, references) == "exit code 1"


def test_altered_reference_marks_run_incorrect(small, capsys):
    with open(bench.REFERENCES) as f:
        data = json.load(f)
    original = json.dumps(data)
    key = bench.job_key(bench.audit_job("kz2.hcy"))
    data["jobs"][key]["stdout_sha256"] = "0" * 64
    with open(bench.REFERENCES, "w") as f:
        json.dump(data, f)
    try:
        lines, result = _result(capsys, "--workload", "audit-cold", "--seconds", "0")
    finally:
        with open(bench.REFERENCES, "w") as f:
            f.write(original)
    assert not result["correct"] and result["failed"] == 1
    assert any(line.startswith("FAILED " + key) for line in lines)


def test_permutation_keeps_labels_and_moves_values():
    text = "space H = a b c\ncharacter eps on H = 1 2 3\ntrace t on H = 4 5 6\n"
    assert bench.permute_spec(text, 0, "x.hcy") == text
    out = bench.permute_spec(text, 7, "x.hcy").splitlines()
    labels = out[0].split()[3:]
    assert sorted(labels) == ["a", "b", "c"]
    value = {"a": "1", "b": "2", "c": "3"}
    assert out[1].split()[5:] == [value[label] for label in labels]
    assert bench.permute_spec(text, 7, "x.hcy") == "\n".join(out) + "\n"


def test_refuses_without_sources(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bench, "SRC", str(tmp_path))
    assert bench.main(["--workload", "audit-cold"]) == 2
    assert capsys.readouterr().out == ""
