"""The report lines that the command line prints when something is wrong,
each pinned with its exit code.  A line that a broken input reaches is run
on one; a line that no valid input can reach (every context validates its
components, so its complexes are complexes) is reached by a monkeypatch of
the name the command line calls, which a forked worker inherits.  Every
audit runs on one CPU and on two, cold and warm: on two, its closing
sections come from the worker."""

import os

import pytest

import hopfcyclic.cli as cli
import hopfcyclic.cup as cup
from hopfcyclic.cli import main
from hopfcyclic.cohomology import NotAComplex
from hopfcyclic.complexes import CocyclicViolation, ProductComplex
from hopfcyclic.cup import ChainMapFailure, CupResult, MismatchWithAW, NotACocycle
from hopfcyclic.fixtures import fixture_file_texts


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """run(text, *argv): (exit code, report lines) of the command on text.
    An audit runs four times, each in a directory of its own: on one usable
    CPU and on two, where a worker is forked, each cold and then warm.  All
    four must print the same."""
    def once(directory, text, argv):
        monkeypatch.chdir(directory)
        (directory / "in.hcy").write_text(text)
        code = main([argv[0], "in.hcy"] + list(argv[1:]))
        out, err = capsys.readouterr()
        assert err == ""
        return code, out.splitlines()

    def run(text, *argv):
        if argv[0] != "audit":
            return once(tmp_path, text, argv)
        results, real_fork = [], cli._fork_worker
        for cpus in (1, 2):
            directory = tmp_path / ("cpus-%d" % cpus)
            directory.mkdir()
            forks = []

            def fork(work):
                forks.append(work)
                return real_fork(work)
            with monkeypatch.context() as m:
                m.setattr(cli, "_usable_cpus", lambda: cpus)
                m.setattr(cli, "_fork_worker", fork)
                results += [once(directory, text, argv) for _ in ("cold", "warm")]
            assert len(forks) == 2 * (cpus - 1)
        assert all(result == results[0] for result in results)
        return results[0]
    return run


KZ2 = fixture_file_texts()["kz2.hcy"]
TRIVIAL = fixture_file_texts()["trivial.hcy"]


def section(lines, title):
    """The lines of the report section titled title."""
    start = lines.index("== " + title) + 1
    end = next((k for k in range(start, len(lines)) if lines[k].startswith("== ")), len(lines))
    return lines[start:end]


def test_a_file_that_cannot_be_read_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "missing.hcy"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("input error: cannot read missing.hcy: "
                   "[Errno 2] No such file or directory: 'missing.hcy'\n")


@pytest.mark.parametrize("data,line", [
    (b"\xff\xfe", "line 1: not UTF-8: byte 0xff (invalid start byte)"),
    (b"space H = a b\n# caf\xe9\n", "line 2: not UTF-8: byte 0xe9 (invalid continuation byte)"),
    (TRIVIAL.encode() + b"# \xc3", "line %d: not UTF-8: byte 0xc3 (unexpected end of data)"
     % (TRIVIAL.count("\n") + 1)),
], ids=["byte-order-mark", "latin-1-comment", "cut-after-a-valid-file"])
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, monkeypatch, capsys, data, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.hcy").write_bytes(data)
    assert main(["validate", "in.hcy"]) == 2
    assert capsys.readouterr() == ("", "input error: %s\n" % line)


# -- cup ---------------------------------------------------------------------------

def test_cup_without_a_context_of_the_kind(run):
    code, lines = run(KZ2, "cup", "--kind", "relative", "--p", "0", "--q", "0")
    assert code == 0
    assert lines[2:] == ["== cup", "no matching context declared"]


def test_cup_without_a_cocycle_pair(run):
    code, lines = run(KZ2, "cup", "--kind", "coalgebra", "--p", "1", "--q", "0")
    assert code == 0
    assert section(lines, "cup cup_coalg kind=coalgebra p=1 q=0") == \
        ["no cyclic cocycle pair at (p,q)=(1,0); counts 0,1"]


def test_cup_whose_cocycle_search_fails(run, monkeypatch):
    def broken(cx, n):
        raise NotAComplex("b.b != 0 at degree 1", 1)
    monkeypatch.setattr(cli, "cyclic_cocycles", broken)
    code, lines = run(KZ2, "cup", "--kind", "coalgebra", "--p", "0", "--q", "0")
    assert code == 1
    assert section(lines, "cup cup_coalg kind=coalgebra p=0 q=0") == \
        ["cocycle search failed: b.b != 0 at degree 1"]


@pytest.mark.parametrize("error", [NotACocycle("phi is not b-closed"),
                                   ChainMapFailure("pairing fails at degree 0", 0)],
                         ids=["not-a-cocycle", "chain-map"])
def test_cup_of_a_pair_that_fails(run, monkeypatch, error):
    def failing(*args):
        raise error
    monkeypatch.setattr(cli, "aw_cup", failing)
    code, lines = run(KZ2, "cup", "--kind", "coalgebra", "--p", "0", "--q", "0")
    assert code == 1
    assert section(lines, "cup cup_coalg kind=coalgebra p=0 q=0") == \
        ["pair (0,0) failed: %s" % error]


def test_cup_of_a_pair_that_is_not_closed(run, monkeypatch):
    monkeypatch.setattr(cli, "aw_cup", lambda ctx, phi, p, x, q: CupResult({0: 1}, p + q, False, True))
    monkeypatch.setattr(cli, "cup_explicit_coalgebra", lambda *args: None)
    code, lines = run(KZ2, "cup", "--kind", "coalgebra", "--p", "0", "--q", "0")
    assert code == 1
    assert section(lines, "cup cup_coalg kind=coalgebra p=0 q=0") == [
        "pair (0,0): b-closed=False cyclic=True class=b-nontrivial explicit-match=True",
        "  cochain: 1*0"]


def test_cup_whose_explicit_formula_differs(run, monkeypatch):
    def mismatch(*args):
        raise MismatchWithAW("explicit cup differs", {0: 1})
    monkeypatch.setattr(cli, "cup_explicit_coalgebra", mismatch)
    code, lines = run(KZ2, "cup", "--kind", "coalgebra", "--p", "0", "--q", "0")
    assert code == 1
    assert section(lines, "cup cup_coalg kind=coalgebra p=0 q=0")[0] == \
        "pair (0,0): b-closed=True cyclic=True class=b-nontrivial explicit-match=False"


# -- audit -------------------------------------------------------------------------

AUDIT = ("audit", "--max-degree", "2")


def test_audit_of_a_pairing_that_fails_its_certificate(run, monkeypatch):
    def failing(self):
        raise ChainMapFailure("pairing fails at degree 1", 1)
    monkeypatch.setattr(cup._CupContext, "pairing", failing)
    code, lines = run(TRIVIAL, *AUDIT)
    assert code == 1
    assert section(lines, "audit context cup_coalg (coalgebra)") == \
        ["chain-map certificate FAILED: pairing fails at degree 1"]


def test_audit_of_a_diagonal_that_violates_an_identity(run, monkeypatch):
    real = cli.check_cocyclic

    def on_diagonal(cx):
        if isinstance(cx, ProductComplex):
            return [CocyclicViolation("face-face", 1, (0, 1), 0, {0: 1})]
        return real(cx)
    monkeypatch.setattr(cli, "check_cocyclic", on_diagonal)
    code, lines = run(TRIVIAL, *AUDIT)
    assert code == 1
    assert section(lines, "audit context cup_coalg (coalgebra)")[:2] == \
        ["chain-map certificate: ok", "diagonal violated face-face at degree 1 (0, 1)"]


def test_audit_of_a_cup_that_is_not_closed(run, monkeypatch):
    monkeypatch.setattr(cli, "aw_cup", lambda ctx, phi, p, x, q: CupResult({}, p + q, False, True))
    code, lines = run(TRIVIAL, *AUDIT)
    assert code == 1
    assert "cup p=0 q=0 pair(0,0): NOT CLOSED cyclic=True" in \
        section(lines, "audit context cup_coalg (coalgebra)")


def test_audit_of_a_characteristic_map_that_fails_its_certificate(run, monkeypatch):
    def failing(*args, **kwargs):
        raise ChainMapFailure("characteristic map fails at degree 2", 2)
    monkeypatch.setattr(cli, "char_map", failing)
    code, lines = run(TRIVIAL, *AUDIT)
    assert code == 1
    assert section(lines, "audit characteristic map tr against triv") == \
        ["cocyclic-map certificate FAILED: characteristic map fails at degree 2"]


def test_audit_of_an_expansion_that_differs_from_its_oracle(run, monkeypatch):
    real = cli.dg_expand_oracle
    monkeypatch.setattr(cli, "dg_expand_oracle",
                        lambda p, q: (False, {"w": 1}) if (p, q) == (1, 1) else real(p, q))
    code, lines = run(TRIVIAL, *AUDIT)
    assert code == 1
    oracle = section(lines, "audit expansion oracle")
    assert oracle[4:6] == ["(p,q)=(1,0): match", "(p,q)=(1,1): MISMATCH {'w': 1}"]


def test_audit_skips_a_trace_on_no_module_algebra(run):
    code, lines = run(KZ2 + "trace trb on B = 1 1\n", *AUDIT)
    assert code == 0
    assert section(lines, "validate trace trb") == ["no module algebra on B; skipped"]
    assert "== audit characteristic map tr against triv" in lines
    assert not [line for line in lines if line.startswith("== audit characteristic map trb")]


def test_audit_of_a_kernel_self_check_that_fails(run, monkeypatch):
    real = cli.image_rank
    monkeypatch.setattr(cli, "image_rank", lambda m: real(m) + 1)
    code, lines = run(TRIVIAL, *AUDIT)
    assert code == 1
    assert section(lines, "audit exact kernel self-check seed=0") == \
        ["trial %d: rank+nullity == cols: False" % t for t in range(5)]


def test_a_certificate_failure_that_escapes_a_command_is_fatal(run, monkeypatch):
    def broken(cx, n):
        raise NotAComplex("B.B != 0 at degree 2", 2)
    monkeypatch.setattr(cli, "cyclic_cocycles", broken)
    code, lines = run(TRIVIAL, *AUDIT)
    assert code == 1
    assert lines[-1] == "fatal certificate failure: B.B != 0 at degree 2"
    assert lines[-2] == "diagonal cocyclic identities: ok"


# -- validate ----------------------------------------------------------------------

def test_validate_skips_a_trace_with_no_pair_on_its_symmetry(run):
    # the trivial fixture without its coefficients and what uses them
    text = "".join(line for line in TRIVIAL.splitlines(True)
                   if not line.startswith(("coefficients", "complex", "context")))
    code, lines = run(text, "validate")
    assert code == 0
    assert section(lines, "validate trace tr") == \
        ["no coefficient pair on the same symmetry; skipped"]


def test_validate_skips_a_trace_on_no_module_algebra(run):
    code, lines = run(KZ2 + "trace trB on B = 1 1\n", "validate")
    assert code == 0
    assert section(lines, "validate trace trB") == ["no module algebra on B; skipped"]


# -- the command line ------------------------------------------------------------------

@pytest.mark.parametrize("argv,flag", [
    (["cup", "kz2.hcy", "--kind", "coalgebra", "--p", "0", "--q", "-2"], "--q"),
    (["identities", "trivial.hcy", "--max-degree", "-3", "--no-cache"], "--max-degree"),
    (["audit", "kz2.hcy", "--max-degree", "-1", "--no-cache"], "--max-degree"),
    (["cup", "kz2.hcy", "--kind", "coalgebra", "--p", "-1", "--q", "0"], "--p"),
], ids=["cup-q", "identities-max-degree", "audit-max-degree", "cup-p"])
def test_a_negative_degree_is_refused(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / argv[1]).write_text(fixture_file_texts()[argv[1]])
    value = argv[argv.index(flag) + 1]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == ("hopfcyclic %s: error: argument %s: invalid "
                                    "nonnegative_int value: '%s'" % (argv[0], flag, value))


def test_a_report_path_that_cannot_be_written_exits_two_after_the_report(tmp_path, monkeypatch,
                                                                          capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.hcy").write_text(KZ2)
    assert main(["validate", "in.hcy"]) == 0
    report, _ = capsys.readouterr()
    assert main(["validate", "in.hcy", "--out", "missing/report.txt"]) == 2
    out, err = capsys.readouterr()
    assert out == report
    assert err == ("input error: cannot write missing/report.txt: "
                   "[Errno 2] No such file or directory: 'missing/report.txt'\n")


def test_a_fixtures_directory_that_cannot_be_written_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    assert main(["fixtures", "--out", "taken"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: cannot write taken: [Errno 17] File exists: 'taken'\n"


# -- the cache writer ----------------------------------------------------------------

def cohomology_in(directory, monkeypatch, capsys, cpus, *flags):
    """(exit code, stdout, stderr) of cohomology of KZ2 at N=2 run in
    directory on cpus usable CPUs; on two, a worker must be forked."""
    directory.mkdir(exist_ok=True)
    monkeypatch.chdir(directory)
    (directory / "in.hcy").write_text(KZ2)
    forks, real_fork = [], cli._fork_worker

    def fork(work):
        forks.append(work)
        return real_fork(work)
    with monkeypatch.context() as m:
        m.setattr(cli, "_usable_cpus", lambda: cpus)
        m.setattr(cli, "_fork_worker", fork)
        code = main(["cohomology", "in.hcy", "--max-degree", "2"] + list(flags))
    assert len(forks) == cpus - 1
    return (code,) + capsys.readouterr()


def test_a_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    # every entry's rename fails: each is a miss that the built complex
    # serves, and the report is that of a run without the cache
    def failing(src, dst):
        raise OSError(28, "No space left on device")
    for cpus in (1, 2):
        expected = cohomology_in(tmp_path / ("plain-%d" % cpus), monkeypatch, capsys, cpus,
                                 "--no-cache")
        assert expected[0] == 0 and expected[2] == ""
        with monkeypatch.context() as m:
            m.setattr(os, "replace", failing)
            got = cohomology_in(tmp_path / ("cpus-%d" % cpus), monkeypatch, capsys, cpus)
        assert got == expected
        assert list((tmp_path / ("cpus-%d" % cpus) / cli.CACHE_DIR).iterdir()) == []


def test_a_cache_directory_that_is_a_file_is_a_miss(tmp_path, monkeypatch, capsys):
    for cpus in (1, 2):
        expected = cohomology_in(tmp_path / ("plain-%d" % cpus), monkeypatch, capsys, cpus,
                                 "--no-cache")
        directory = tmp_path / ("cpus-%d" % cpus)
        directory.mkdir()
        (directory / cli.CACHE_DIR).write_text("not a directory\n")
        assert cohomology_in(directory, monkeypatch, capsys, cpus) == expected
        assert (directory / cli.CACHE_DIR).read_text() == "not a directory\n"
