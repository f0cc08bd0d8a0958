"""The life of a job process: cli.entry, behind ``python -m hopfcyclic.cli``
and the ``hopfcyclic`` script, runs main() with the cyclic collector off
and leaves by os._exit once stdout and stderr are flushed.  Running
without the collector cannot grow memory only while a job leaves no
cyclic garbage beyond argparse's parser, and leaving by os._exit must
print and exit exactly as main() does in its own process."""

import gc
import os
import re
import subprocess
import sys

import pytest

import hopfcyclic.cli as cli
from hopfcyclic.cli import main
from hopfcyclic.fixtures import fixture_file_texts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@pytest.fixture
def fixtures(tmp_path, monkeypatch):
    """The shipped fixture files in tmp_path, the working directory, plus
    bad.hcy, kz2 with an antipode that fails validation."""
    for name, text in fixture_file_texts().items():
        (tmp_path / name).write_text(text)
    text = fixture_file_texts()["kz2.hcy"]
    assert "antipode g = 1*g" in text
    (tmp_path / "bad.hcy").write_text(text.replace("antipode g = 1*g", "antipode g = 1*e"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


# -- no cyclic garbage ---------------------------------------------------------------------

def unreachable_after(argv, capsys):
    """The number of unreachable objects that main(argv) leaves, run with
    the collector off as cli.entry runs it."""
    gc.collect()
    gc.disable()
    try:
        main(argv)
        capsys.readouterr()
    finally:
        found = gc.collect()
        gc.enable()
    return found


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("argv", [
    ["audit", "h4.hcy", "--max-degree", "2"],
    ["audit", "h4.hcy", "--max-degree", "3"],
    ["cup", "kz4_relative.hcy", "--kind", "relative", "--p", "0", "--q", "3"],
    ["cup", "kz2.hcy", "--kind", "traces", "--p", "0", "--q", "3"],
], ids=["audit-h4-2", "audit-h4-3", "cup-kz4_relative-relative", "cup-kz2-traces"])
def test_a_job_leaves_no_more_cyclic_garbage_than_validate(fixtures, monkeypatch, capsys,
                                                           argv, cpus):
    # an audit runs cold and then warm; on one CPU its closing sections run
    # here, on two in the forked worker
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    parser_only = unreachable_after(["validate", "kz2.hcy"], capsys)
    assert parser_only > 0          # argparse's parser is a cycle
    runs = 2 if argv[0] == "audit" else 1
    for _ in range(runs):
        assert unreachable_after(argv, capsys) == parser_only, argv
    if argv[0] == "audit":          # cup reads no cache and takes no --no-cache
        assert unreachable_after(argv + ["--no-cache"], capsys) == parser_only, argv


# -- the same output and status as main() -------------------------------------------------

def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_process(argv, cwd, stdout=subprocess.PIPE, env=None, code=None):
    """(stdout bytes, stderr text, exit status) of argv in a fresh
    interpreter: ``python -m hopfcyclic.cli``, or the given -c code."""
    head = ["-m", "hopfcyclic.cli"] if code is None else ["-c", code]
    proc = subprocess.run([sys.executable] + head + argv, cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, env=env or subprocess_env())
    return proc.stdout, proc.stderr.decode(), proc.returncode


@pytest.mark.parametrize("argv,status", [
    (["validate", "kz2.hcy"], 0),
    (["audit", "kz2.hcy", "--max-degree", "2", "--no-cache"], 0),
    (["validate", "bad.hcy"], 1),
    (["validate", "missing.hcy"], 2),
    (["validate", "kz2.hcy", "--out", "no-such-directory/report.txt"], 2),
], ids=["exit-0", "exit-0-audit", "exit-1-invalid", "exit-2-unreadable", "exit-2-unwritable-out"])
def test_the_process_prints_and_exits_as_main_does(fixtures, capsys, argv, status):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == status
    assert run_process(argv, fixtures) == (out.encode("utf-8"), err, status)
    if argv[-1].endswith("report.txt"):
        assert out and "cannot write no-such-directory/report.txt" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_stdout_that_fails_to_flush_takes_the_normal_exit(fixtures):
    # with stdout buffered, the report is written to the buffer and the
    # flush fails; the teardown of sys.exit reports it, as with main()
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    argv = ["cohomology", "trivial.hcy", "--max-degree", "2", "--no-cache"]
    with open("/dev/full", "wb") as full:
        entry = run_process(argv, fixtures, stdout=full, env=env)
        plain = run_process(argv, fixtures, stdout=full, env=env, code=(
            "import sys; from hopfcyclic.cli import main; sys.exit(main(sys.argv[1:]))"))
    assert entry == plain
    assert entry[2] not in (0, 1, 2) and "No space left on device" in entry[1]


def test_the_console_script_runs_the_entry():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as f:
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:\n\[|\Z)", f.read(), re.S | re.M)
    assert scripts.group(1).split("\n")[0] == 'hopfcyclic = "hopfcyclic.cli:entry"'
