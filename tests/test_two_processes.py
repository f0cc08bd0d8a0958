"""The declared complexes, and audit's closing sections (its tail), on two
processes: the groups, the deal, when a worker is forked, and a report,
exit code and cache that are those of the run on one process (the same
groups with no worker), warm or cold, also when the worker fails or either
side raises.  The path is chosen by patching the usable CPU count
in-process; no option selects it."""

import marshal
import os
import signal
import time

import pytest

import hopfcyclic.cli as cli
import hopfcyclic.complexes as complexes
from hopfcyclic.cli import main
from hopfcyclic.fixtures import fixture_file_texts
from hopfcyclic.specfile import parse_spec

H4_COMPLEXES = ("complex hopf_taft = hopf(H, taft)\ncomplex coalg_taft = coalgebra(H, taft)\n"
                "complex alg_taft = algebra(H, taft)\ncomplex comod_taft = comodule(B, taft)\n")


@pytest.fixture(autouse=True)
def deadline():
    """Every wait of these tests ends within a minute: a worker that hangs
    fails its test instead of the suite."""
    def expire(signum, frame):
        raise TimeoutError("no answer within 60 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def h4_text(order=None):
    """The h4 fixture, with its complexes declared in order when given."""
    text = fixture_file_texts()["h4.hcy"]
    assert H4_COMPLEXES in text
    if order is None:
        return text
    lines = H4_COMPLEXES.splitlines()
    by_name = {line.split()[1]: line for line in lines}
    return text.replace(H4_COMPLEXES, "".join(by_name[name] + "\n" for name in order))


def cache_bytes(directory):
    cache = directory / cli.CACHE_DIR
    return {p.name: p.read_bytes() for p in cache.iterdir()} if cache.exists() else None


class Side:
    """One working directory holding the input, run on one path: cpus=1 runs
    every group here, cpus=2 lets the worker take its share."""

    def __init__(self, tmp_path, name, text, cpus, monkeypatch):
        self.dir = tmp_path / name
        self.dir.mkdir()
        (self.dir / "in.hcy").write_text(text)
        self.cpus = cpus
        self.monkeypatch = monkeypatch
        self.workers = 0
        real = cli._fork_worker

        def counted(work):
            self.workers += 1
            return real(work)
        self.fork = counted

    def run(self, capsys, *argv):
        with self.monkeypatch.context() as m:
            m.chdir(self.dir)
            m.setattr(cli, "_usable_cpus", lambda: self.cpus)
            m.setattr(cli, "_fork_worker", self.fork)
            code = main([argv[0], "in.hcy"] + list(argv[1:]))
        out, err = capsys.readouterr()
        return code, out, err, cache_bytes(self.dir)


# -- groups, sizes and the deal ------------------------------------------------------

def test_top_ambient_is_read_from_the_declarations():
    spec = parse_spec(h4_text())
    # H, C = H and A all have dimension 4 and the coefficients dimension 1
    assert [spec.top_ambient(name, 3) for name in spec.complexes] == [4 ** 5] * 4
    kz2 = parse_spec(fixture_file_texts()["kz2.hcy"])
    assert max(kz2.top_ambient(name, 4) for name in kz2.complexes) <= 128


KZ2 = fixture_file_texts()["kz2.hcy"]
KZ2_REORDERED = KZ2.replace("complex coalg_triv = coalgebra(H, triv)\n", "").replace(
    "complex coalg_twist = coalgebra(H, twist)\n",
    "complex coalg_triv = coalgebra(H, triv)\ncomplex coalg_twist = coalgebra(H, twist)\n")


@pytest.mark.parametrize("text,groups", [
    (h4_text(), [["hopf_taft", "coalg_taft"], ["alg_taft"], ["comod_taft"]]),
    (KZ2, [["hopf_triv", "coalg_triv"], ["alg_triv"], ["comod_triv"],
           ["hopf_twist", "coalg_twist"]]),
    # hopf_twist replaces hopf_triv's quotient before coalg_triv comes
    (KZ2_REORDERED, [["hopf_triv"], ["alg_triv"], ["comod_triv"],
                     ["hopf_twist", "coalg_twist"], ["coalg_triv"]]),
], ids=["h4", "kz2", "kz2-quotient-replaced"])
def test_a_coalgebra_complex_stays_with_the_hopf_complex_that_feeds_it(text, groups):
    assert cli._groups(parse_spec(text)) == groups


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("text,builds", [(KZ2, 2), (KZ2_REORDERED, 3)],
                         ids=["kz2", "kz2-quotient-replaced"])
def test_a_coalgebra_complex_in_a_hopf_group_takes_its_quotient(
        tmp_path, monkeypatch, capsys, text, builds, cpus):
    # each build_coalgebra_complex call, also the one inside a hopf build,
    # appends a line to a file, so that the worker's builds are counted too;
    # each hopf complex builds its quotient, and only the coalgebra complex
    # of its group takes it
    log = tmp_path / "builds"
    real = complexes.build_coalgebra_complex

    def counted(*args, **kwargs):
        with open(log, "a") as f:
            f.write("%d\n" % os.getpid())
        return real(*args, **kwargs)
    for mod in (cli, complexes):
        monkeypatch.setattr(mod, "build_coalgebra_complex", counted)
    side = Side(tmp_path, "run", text, cpus, monkeypatch)
    assert side.run(capsys, "cohomology", "--no-cache", "--max-degree", "2")[0] == 0
    pids = log.read_text().split()
    assert len(pids) == builds
    assert side.workers == cpus - 1
    assert len(set(pids)) == cpus


def test_groups_are_dealt_heaviest_first_to_the_less_loaded_side():
    groups = [["a"], ["b"], ["c"], ["d"]]
    mine, theirs = cli._deal(groups, [2, 5, 3, 3])
    # b to this process, c and d to the worker, a back here (5 + 2 against 6)
    assert (mine, theirs) == ([["a"], ["b"]], [["c"], ["d"]])
    # on a tie this process takes the group declared first
    assert cli._deal([["a"], ["b"]], [1, 1]) == ([["a"]], [["b"]])
    # a single group stays here, beside a worker that takes only the tail
    assert cli._deal([["a"]], [1]) == ([["a"]], [])


class Started(Exception):
    pass


KZ4_RELATIVE = fixture_file_texts()["kz4_relative.hcy"]


@pytest.mark.parametrize("text,command,N,warm,started", [
    (h4_text(), "cohomology", 3, False, True),
    (h4_text(), "cohomology", 3, True, True),
    (h4_text(), "cohomology", 2, False, True),
    (KZ2, "cohomology", 4, False, True),
    # one group, and audit's tail beside it
    (KZ4_RELATIVE, "audit", 4, True, True),
    (KZ4_RELATIVE, "cohomology", 4, False, False),
], ids=["h4", "h4-warm", "h4-degree-2", "kz2", "kz4_relative-audit", "kz4_relative-one-group"])
def test_a_worker_is_started_only_where_it_pays(tmp_path, monkeypatch, capsys,
                                                text, command, N, warm, started):
    # a worker is forked for two units of work (groups, and audit's tail) on
    # two CPUs, warm or cold, whatever their size
    assert len(cli._groups(parse_spec(KZ4_RELATIVE))) == 1
    side = Side(tmp_path, "run", text, 1, monkeypatch)
    args = [command, "--max-degree", str(N)]
    if warm:
        assert side.run(capsys, *args)[0] == 0

    def refuse(work):
        raise Started()
    side.fork, side.cpus = refuse, 2
    if started:
        with pytest.raises(Started):
            side.run(capsys, *args)
        # and never on one CPU
        side.cpus = 1
        assert side.run(capsys, *args, "--no-cache")[0] == 0
    else:
        assert side.run(capsys, *args)[0] == 0


# -- the two paths give one report -------------------------------------------------

@pytest.mark.parametrize("command,mode", [
    ("audit", "cold"), ("audit", "warm"), ("audit", "no-cache"),
    ("identities", "cold"), ("cohomology", "no-cache"),
])
def test_two_processes_give_the_serial_report_and_cache(tmp_path, monkeypatch, capsys,
                                                        command, mode):
    text = h4_text()
    serial = Side(tmp_path, "serial", text, 1, monkeypatch)
    split = Side(tmp_path, "split", text, 2, monkeypatch)
    argv = [command, "--max-degree", "3"] + (["--no-cache"] if mode == "no-cache" else [])
    results = []
    for side in (serial, split):
        if mode == "warm":
            side.run(capsys, *argv)
            side.workers = 0
        results.append(side.run(capsys, *argv))
    assert results[0] == results[1]
    code, out, err, cache = results[1]
    assert code == 0 and err == "" and out.count("== ") >= 4
    assert (cache is None) == (mode == "no-cache")
    assert serial.workers == 0
    assert split.workers == 1


def tails_run_in(log, monkeypatch):
    """Patch audit's tail to append the id of the process that runs it to
    log; a forked worker inherits the patch."""
    real = cli._audit_tail

    def tail(*args):
        with open(log, "a") as f:
            f.write("%d\n" % os.getpid())
        return real(*args)
    monkeypatch.setattr(cli, "_audit_tail", tail)


def test_the_merge_keeps_declaration_order_when_the_sides_interleave(
        tmp_path, monkeypatch, capsys):
    # this process takes hopf_taft and coalg_taft, declared last; the worker
    # takes alg_taft and comod_taft, declared first, and the tail
    text = h4_text(["alg_taft", "comod_taft", "hopf_taft", "coalg_taft"])
    spec = parse_spec(text)
    groups = cli._groups(spec)
    mine, theirs = cli._deal(groups, [sum(spec.top_ambient(n, 3) for n in g) for g in groups])
    assert (mine, theirs) == ([["hopf_taft", "coalg_taft"]], [["alg_taft"], ["comod_taft"]])
    serial = Side(tmp_path, "serial", text, 1, monkeypatch)
    split = Side(tmp_path, "split", text, 2, monkeypatch)
    expected = serial.run(capsys, "audit", "--max-degree", "3")
    out = expected[1]
    assert out.index("== identities alg_taft") < out.index("== identities hopf_taft")
    # the tail's sections follow the last complex's
    assert out.index("== cohomology coalg_taft") < out.index("== audit shuffle sets")
    log = tmp_path / "tails"
    tails_run_in(log, monkeypatch)
    assert split.run(capsys, "audit", "--max-degree", "3") == expected
    assert split.workers == 1
    # the worker ran the tail, and this process did not
    ran = log.read_text().split()
    assert len(ran) == 1 and ran != [str(os.getpid())]


# -- failures ----------------------------------------------------------------------

def raising(names, only_in=None):
    """A _complex_part that raises for the named complexes, in the process
    only_in if given (a forked worker inherits the patch)."""
    real = cli._complex_part

    def part(spec, spec_text, name, *rest):
        if name in names and only_in in (None, os.getpid()):
            raise RuntimeError("boom " + name)
        return real(spec, spec_text, name, *rest)
    return part


def raises_in_a_group(*args):
    cli._complex_part = raising({"comod_taft"})      # in the worker only
    return REAL_REPLY(*args)


def raise_tail(spec, flags, rep):
    rep.add("tail started")
    raise RuntimeError("boom tail")


def raises_in_the_tail(*args):
    cli._audit_tail = raise_tail                       # in the worker only
    return REAL_REPLY(*args)


def killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)


def exits(*args):
    raise SystemExit(3)


REAL_REPLY = cli._worker_reply
FAILING_WORKERS = {
    "exits-non-zero": exits,
    "killed": killed,
    "garbage-reply": lambda *args: b"\x00 not marshal data",
    "truncated-reply": lambda *args: REAL_REPLY(*args)[:-20],
    "wrong-shape": lambda *args: marshal.dumps({"alg_taft": [1, 2]}),
    "wrong-tail-shape": lambda *args: marshal.dumps([{}, [1, 2]]),
    "raises-in-a-group": raises_in_a_group,
    "raises-in-the-tail": raises_in_the_tail,
}


def no_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("how", sorted(FAILING_WORKERS) + ["cannot-start"])
def test_a_failing_worker_gives_the_serial_report(tmp_path, monkeypatch, capsys, how):
    text = h4_text()
    serial = Side(tmp_path, "serial", text, 1, monkeypatch)
    split = Side(tmp_path, "split", text, 2, monkeypatch)
    expected = serial.run(capsys, "audit", "--max-degree", "3")
    fds = open_fds()
    with monkeypatch.context() as m:
        if how == "cannot-start":
            m.setattr(os, "fork", no_fork)
        else:
            m.setattr(cli, "_worker_reply", FAILING_WORKERS[how])
        code, out, err, cache = split.run(capsys, "audit", "--max-degree", "3")
    assert (code, out, cache) == expected[:2] + expected[3:]
    assert split.workers == 1
    assert open_fds() == fds
    assert no_child_left()
    if how.startswith("raises-in-"):
        # the group, or the tail, is run again here, and raises nothing here
        assert err == ""
    else:
        assert err.startswith("hopfcyclic: the worker process failed (")
        assert err.endswith("; its complexes and audit's closing sections were computed here\n")
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("fixture,command,rerun", [
    ("h4.hcy", "cohomology", "its complexes"),
    ("h4.hcy", "audit", "its complexes and audit's closing sections"),
    # one group, which stays here: the worker had the tail only
    ("kz4_relative.hcy", "audit", "audit's closing sections")])
def test_the_failure_line_names_what_ran_again(tmp_path, monkeypatch, capsys,
                                                fixture, command, rerun):
    split = Side(tmp_path, "split", fixture_file_texts()[fixture], 2, monkeypatch)
    monkeypatch.setattr(cli, "_worker_reply", exits)
    code, _, err, _ = split.run(capsys, command, "--max-degree", "2")
    assert code == 0 and split.workers == 1
    assert err == ("hopfcyclic: the worker process failed (exit status 1); "
                   "%s were computed here\n" % rerun)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("order,raises,first", [
    (None, {"hopf_taft"}, "hopf_taft"),
    # the worker's alg_taft is declared before this process's hopf_taft; the
    # worker leaves it out of its reply and this process runs it again
    (["alg_taft", "comod_taft", "hopf_taft", "coalg_taft"], {"alg_taft", "hopf_taft"},
     "alg_taft"),
], ids=["this-process", "worker-first"])
def test_an_escaping_exception_is_that_of_the_first_complex(
        tmp_path, monkeypatch, capsys, order, raises, first):
    text = h4_text(order)
    monkeypatch.setattr(cli, "_complex_part", raising(raises))
    log = tmp_path / "tails"
    tails_run_in(log, monkeypatch)
    for cpus in (1, 2):
        side = Side(tmp_path, "cpus-%d" % cpus, text, cpus, monkeypatch)
        with pytest.raises(RuntimeError) as e:
            side.run(capsys, "audit", "--max-degree", "3")
        assert str(e.value) == "boom " + first
        assert side.workers == cpus - 1
        assert no_child_left()
        # it escapes before any tail: this process never ran one, and the
        # worker's is dropped
        assert str(os.getpid()) not in (log.read_text().split() if log.exists() else [])


def test_a_tail_that_raises_raises_here_after_the_complexes(tmp_path, monkeypatch, capsys):
    # the worker's tail raises and is left out of its reply; this process
    # merges the complexes, runs the tail again, and its exception escapes as
    # on one process, after the lines the tail added
    monkeypatch.setattr(cli, "_audit_tail", raise_tail)
    reports = []
    real = cli._complex_sections

    def sections(spec, spec_text, rep, *args, **kwargs):
        reports.append(rep)
        return real(spec, spec_text, rep, *args, **kwargs)
    monkeypatch.setattr(cli, "_complex_sections", sections)
    lines = []
    for cpus in (1, 2):
        side = Side(tmp_path, "cpus-%d" % cpus, h4_text(), cpus, monkeypatch)
        with pytest.raises(RuntimeError) as e:
            side.run(capsys, "audit", "--max-degree", "3")
        assert str(e.value) == "boom tail"
        assert side.workers == cpus - 1
        assert no_child_left()
        lines.append(reports[-1].lines)
    assert lines[0] == lines[1]
    assert lines[1][-1] == "tail started"
    assert [line for line in lines[1] if line.startswith("== ")][-1] == "== cohomology comod_taft"


class Interrupt(BaseException):
    pass


def test_a_parent_that_raises_stops_and_reaps_its_worker(tmp_path, monkeypatch, capsys):
    side = Side(tmp_path, "split", h4_text(), 2, monkeypatch)
    parent, writing = os.getpid(), tmp_path / "writing"
    real_text, real_part, real_waitpid = cli.complex_to_text, cli._complex_part, os.waitpid
    statuses = []

    def slow_text(cx, key):
        if os.getpid() != parent:      # the worker stops inside its first cache write
            writing.touch()
            time.sleep(60)
        return real_text(cx, key)

    def interrupted(*args):
        if os.getpid() != parent:
            return real_part(*args)
        while not writing.exists():
            time.sleep(0.01)
        raise Interrupt()

    def waitpid(pid, options):
        got = real_waitpid(pid, options)
        if got[0]:
            statuses.append(os.waitstatus_to_exitcode(got[1]))
        return got
    monkeypatch.setattr(cli, "complex_to_text", slow_text)
    monkeypatch.setattr(cli, "_complex_part", interrupted)
    monkeypatch.setattr(os, "waitpid", waitpid)
    with pytest.raises(Interrupt):
        side.run(capsys, "audit", "--max-degree", "4")
    assert side.workers == 1
    # SIGTERM stopped it with status 1 (not SIGKILL), and reaped
    assert statuses == [1]
    assert no_child_left()
    # its cache write removed its temporary file on the way out
    assert [p.name for p in (side.dir / cli.CACHE_DIR).iterdir()] == []
