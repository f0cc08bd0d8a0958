"""audit takes each declared complex once: one get (a build, a cache read,
or a build read back from the entry it wrote), one set of certificates and
one b and B, kept on the complex, that the identities and cohomology
sections share.  The failure paths keep the reports the engine printed
before it streamed the complexes; their digests were recorded from that
version."""

import hashlib
import os

import pytest

import hopfcyclic.cli as cli
import hopfcyclic.cohomology as cohomology
import hopfcyclic.complexes as complexes
from hopfcyclic.actions import ModuleCoalgebra
from hopfcyclic.cli import main
from hopfcyclic.fixtures import fixture_file_texts
from hopfcyclic.spaces import StructureTensor
from hopfcyclic.specfile import parse_spec


def write_fixture(tmp_path, name, edit=None):
    text = fixture_file_texts()[name]
    if edit:
        text = edit(text)
    (tmp_path / name).write_text(text)
    return text


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cache_entry(tmp_path, text, name, N):
    spec = parse_spec(text)
    kind, args = spec.complexes[name]
    key = cli._complex_key(spec.to_text(), name, kind, args, N)
    return tmp_path / cli.CACHE_DIR / (key + ".cx")


def on_cpus(tmp_path, monkeypatch, cpus, fixture):
    """A working directory of its own holding the fixture, for runs on cpus
    usable CPUs; on two, a forked worker takes a share."""
    directory = tmp_path / ("cpus-%d" % cpus)
    directory.mkdir()
    monkeypatch.chdir(directory)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    write_fixture(directory, fixture)
    return directory


# -- failure paths ----------------------------------------------------------------

NOT_SAYD_H4 = "2e657322102a04efc04908747b3ef8d31df1d2b75471710654660ed69521c2aa"


@pytest.mark.parametrize("mode", [[], ["--no-cache"]], ids=["cache", "no-cache"])
def test_every_complex_failing_to_build(tmp_path, monkeypatch, capsys, mode):
    # mpi(eps, one) is not a stable anti-Yetter-Drinfeld pair on H4: all four
    # complexes fail to build, each once per section, and nothing is cached
    monkeypatch.chdir(tmp_path)
    write_fixture(tmp_path, "h4.hcy", lambda t: t.replace(
        "coefficients taft = mpi(delta, one)", "coefficients taft = mpi(eps, one)"))
    code, out = run_cli(["audit", "h4.hcy", "--max-degree", "2"] + mode, capsys)
    assert code == 1
    assert sha(out) == NOT_SAYD_H4
    assert not (tmp_path / cli.CACHE_DIR).exists()


TAMPERED_KZ2 = "eedda6631eb4e75bfe1faff3f30684b95d4d3d0a9078c6ef37ac55f64fc5890f"


def test_resigned_tampered_cache_entry_fails_its_certificates(tmp_path, monkeypatch, capsys):
    # a cache entry whose tau_1 is edited and whose digest is re-signed reads
    # as a well-formed complex; the certificates must reject it
    monkeypatch.chdir(tmp_path)
    text = write_fixture(tmp_path, "kz2.hcy")
    args = ["audit", "kz2.hcy", "--max-degree", "2"]
    code, cold = run_cli(args, capsys)
    assert code == 0
    path = cache_entry(tmp_path, text, "hopf_twist", 2)
    head, _, body = path.read_text().partition("\n")
    lines = body.split("\n")
    i = lines.index("tau 1") + 2
    r, c, x = lines[i].split()
    lines[i] = "%s %s %d" % (r, c, 2 * int(x))
    body = "\n".join(lines)
    path.write_text("%s %s\n%s" % (head.rpartition(" ")[0], sha(body), body))
    code, out = run_cli(args, capsys)
    assert code == 1
    assert sha(out) == TAMPERED_KZ2
    identities = out.split("== identities hopf_twist\n")[1].split("==")[0]
    assert "violated " in identities
    assert "coboundary certificates FAILED: B.B != 0 at degree 2" in identities
    assert "== cohomology hopf_twist\nfailed: B.B != 0 at degree 2\n" in out


def test_read_back_catches_a_faulty_cache_writer(tmp_path, monkeypatch, capsys):
    # hopf_triv's entry loses the first stored entry of face 1 0 and is
    # signed as written: it verifies, and the dropped entry leaves b.b = 0
    # and the B certificates intact but changes HH and HC; on one CPU and
    # on two, where the worker writes some of the other entries
    real = cli.complex_to_text
    faulty = cache_entry(tmp_path, fixture_file_texts()["kz2.hcy"], "hopf_triv", 2).stem

    def lossy(cx, key=""):
        if key == faulty:
            maps = dict(cx.maps)
            m = maps["face", 1, 0]
            maps["face", 1, 0] = complexes.SparseMatrix(m.rows, m.cols,
                                                        dict(sorted(m.entries.items())[1:]))
            cx = complexes.CocyclicComplex(cx.N, cx.dims(), maps)
        return real(cx, key)

    monkeypatch.setattr(cli, "complex_to_text", lossy)
    message = "the cache entry written for hopf_triv does not read back as the built complex"
    for cpus in (1, 2):
        on_cpus(tmp_path, monkeypatch, cpus, "kz2.hcy")
        code, out = run_cli(["audit", "kz2.hcy", "--max-degree", "2"], capsys)
        assert code == 1
        assert "== identities hopf_triv\nbuild failed: %s\n== identities coalg_triv\n" % message in out
        assert "== cohomology hopf_triv\nfailed: %s\n== cohomology coalg_triv\n" % message in out
        assert out.count("failed") == 2


# -- one pass per complex ---------------------------------------------------------------

H4_COMPLEXES = 4


class Counts:
    """The gets ("built" or "cached"), connes_B calls and coalgebra builds
    of a run, in this process and in a forked worker: each call appends a
    line with its process id to the file log."""

    def __init__(self, monkeypatch, log):
        self.log = log
        real_get = cli.build_declared_complex
        real_B = cohomology.connes_B
        real_coalg = complexes.build_coalgebra_complex

        def get(*args, **kwargs):
            out = real_get(*args, **kwargs)
            self.note(out[1])
            return out

        def connes_B(*args, **kwargs):
            self.note("connes_B")
            return real_B(*args, **kwargs)

        def build_coalgebra_complex(*args, **kwargs):
            self.note("coalgebra")
            return real_coalg(*args, **kwargs)

        monkeypatch.setattr(cli, "build_declared_complex", get)
        for mod in (cli, cohomology, complexes):
            if hasattr(mod, "connes_B"):
                monkeypatch.setattr(mod, "connes_B", connes_B)
            if hasattr(mod, "build_coalgebra_complex"):
                monkeypatch.setattr(mod, "build_coalgebra_complex", build_coalgebra_complex)

    def note(self, event):
        with open(self.log, "a") as f:
            f.write("%s %d\n" % (event, os.getpid()))

    def events(self):
        return [line.split() for line in self.log.read_text().splitlines()] \
            if self.log.exists() else []

    @property
    def gets(self):
        return [e for e, _ in self.events() if e in ("built", "cached")]

    @property
    def connes_B(self):
        return [e for e, _ in self.events()].count("connes_B")

    @property
    def coalgebra_builds(self):
        return [e for e, _ in self.events()].count("coalgebra")

    @property
    def processes(self):
        return len({pid for _, pid in self.events()})


def test_audit_gets_and_certifies_each_complex_once(tmp_path, monkeypatch, capsys):
    args = ["audit", "h4.hcy", "--max-degree", "2"]
    for cpus in (1, 2):
        directory = on_cpus(tmp_path, monkeypatch, cpus, "h4.hcy")
        counts = Counts(monkeypatch, directory / "cold.log")
        code, cold = run_cli(args, capsys)
        assert code == 0
        # cold: each complex is built, then read back from the entry it wrote
        assert counts.gets.count("built") == counts.gets.count("cached") == H4_COMPLEXES
        assert counts.connes_B == H4_COMPLEXES
        assert counts.processes == cpus
        counts = Counts(monkeypatch, directory / "warm.log")
        code, warm = run_cli(args, capsys)
        assert code == 0 and warm == cold
        assert counts.gets == ["cached"] * H4_COMPLEXES
        assert counts.connes_B == H4_COMPLEXES
        assert counts.coalgebra_builds == 0
        # a warm run shares its complexes with the worker too
        assert counts.processes == cpus


def test_no_cache_audit_builds_each_complex_once(tmp_path, monkeypatch, capsys):
    for cpus in (1, 2):
        directory = on_cpus(tmp_path, monkeypatch, cpus, "h4.hcy")
        counts = Counts(monkeypatch, directory / "no-cache.log")
        code, _ = run_cli(["audit", "h4.hcy", "--max-degree", "2", "--no-cache"], capsys)
        assert code == 0
        assert counts.gets == ["built"] * H4_COMPLEXES
        assert counts.connes_B == H4_COMPLEXES
        # hopf_taft's coinvariant quotient is coalg_taft: built once for both
        assert counts.coalgebra_builds == 1
        assert counts.processes == cpus
        assert not (directory / cli.CACHE_DIR).exists()


def test_quotient_reused_only_for_the_same_structure():
    # the one predicate by which _groups puts a coalgebra complex with the
    # hopf complex whose coinvariant quotient it takes
    spec = parse_spec(fixture_file_texts()["kz2.hcy"])
    mp, mc = spec.modular_pair("triv"), spec.module_coalgebras["H"]
    # twisted coefficients are another structure than mpi(eps, one)
    assert not cli._is_hopf_quotient(mp, mc, spec.coefficients["twist"])
    # so is H acting on its own coalgebra through the counit
    h = mc.hopf
    by_counit = StructureTensor((h.space, h.space), h.space,
                                {(i, j): {j: x} for i, x in h.coalg.counit.items()
                                 for j in range(h.dim)})
    assert not cli._is_hopf_quotient(mp, ModuleCoalgebra(h, h.coalg, by_counit),
                                     spec.coefficients["triv"])
    assert cli._is_hopf_quotient(mp, mc, spec.coefficients["triv"])
    assert cli._is_hopf_quotient(spec.modular_pair("twist"), mc, spec.coefficients["twist"])
