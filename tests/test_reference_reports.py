"""The quick benchmark jobs, run in-process, print exactly the reports whose
sha256 digests perfbench/references.json recorded from the first version of
the engine.  Each audit runs twice in one directory: the second report is
read from the cache the first one wrote, and must match as well."""

import hashlib
import json
import os

import pytest

from hopfcyclic.cli import main
from hopfcyclic.fixtures import fixture_file_texts

REFERENCES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "references.json")

JOBS = [
    "audit h4.hcy --max-degree 4",
    "audit kz2.hcy --max-degree 4",
    "audit kz4_relative.hcy --max-degree 4",
    "cup kz3.hcy --kind coalgebra --p 0 --q 2",
    "cup kz3.hcy --kind coalgebra --p 2 --q 0",
    "cup kz2.hcy --kind traces --p 0 --q 3",
    "cup kz2.hcy --kind crossed --p 0 --q 3",
    "cup kz4_relative.hcy --kind relative --p 0 --q 3",
]


@pytest.mark.parametrize("job", JOBS)
def test_report_matches_reference(job, tmp_path, monkeypatch, capsys):
    with open(REFERENCES) as f:
        expected = json.load(f)["jobs"][job]["stdout_sha256"]
    for name, text in fixture_file_texts().items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(job.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected
    if job.startswith("audit"):
        cache = tmp_path / ".hopfcyclic-cache"
        written = {p.name: p.read_bytes() for p in cache.iterdir()}
        assert written
        assert main(job.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == expected
        assert {p.name: p.read_bytes() for p in cache.iterdir()} == written
