"""The quick benchmark jobs, run in-process, print exactly the reports whose
sha256 digests perfbench/references.json recorded from the first version of
the engine.  Each audit runs on one usable CPU and on two, where a forked
worker takes a share of it, and on each twice in a directory of its own:
the second report is read from the cache the first one wrote, and must
match as well, as must the cache of the two CPU counts."""

import hashlib
import json
import os

import pytest

import hopfcyclic.cli as cli
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


def report_digest(job, capsys):
    assert main(job.split()) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def cache_bytes(directory):
    return {p.name: p.read_bytes() for p in (directory / cli.CACHE_DIR).iterdir()}


@pytest.mark.parametrize("job", JOBS)
def test_report_matches_reference(job, tmp_path, monkeypatch, capsys):
    with open(REFERENCES) as f:
        expected = json.load(f)["jobs"][job]["stdout_sha256"]
    caches = []
    for cpus in (1, 2) if job.startswith("audit") else (None,):
        directory = tmp_path / ("cpus-%s" % cpus)
        directory.mkdir()
        for name, text in fixture_file_texts().items():
            (directory / name).write_text(text)
        monkeypatch.chdir(directory)
        if cpus:
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert report_digest(job, capsys) == expected
        if cpus:
            written = cache_bytes(directory)
            assert written
            assert report_digest(job, capsys) == expected
            assert cache_bytes(directory) == written
            caches.append(written)
    assert all(cache == caches[0] for cache in caches)
