import hashlib
import os
import re

import pytest

from hopfcyclic.specfile import (parse_spec, ParseError, UnresolvedName,
                                 DimensionMismatch)
from hopfcyclic.fixtures import fixture_file_texts
from hopfcyclic.hopf import validate_hopf
from hopfcyclic.cli import main


MINIMAL = """
space H = 1
algebra H
  unit = 1*1
  mul 1 1 = 1*1
coalgebra H
  counit 1 = 1
  comul 1 = 1*1|1
hopf H
  antipode 1 = 1*1
"""


# -- parsing -------------------------------------------------------------------

def test_minimal_file_parses():
    spec = parse_spec(MINIMAL)
    assert "H" in spec.hopfs
    assert validate_hopf(spec.hopfs["H"]).ok

def test_fixture_files_parse_and_validate():
    for name, text in fixture_file_texts().items():
        spec = parse_spec(text)
        for hname, h in spec.hopfs.items():
            assert validate_hopf(h).ok, (name, hname)

def test_round_trip_all_fixtures():
    for name, text in fixture_file_texts().items():
        spec = parse_spec(text)
        canon = spec.to_text()
        again = parse_spec(canon)
        assert again.to_text() == canon, name

def test_unresolved_label_reported_with_line():
    bad = MINIMAL + "space A = a\nalgebra A\n  unit = 1*a\n  mul a a = 1*zz\n"
    with pytest.raises(UnresolvedName) as exc:
        parse_spec(bad)
    assert exc.value.line_no is not None

def test_dimension_mismatch():
    bad = MINIMAL + "character eps on H = 1 1\n"
    with pytest.raises(DimensionMismatch):
        parse_spec(bad)

def test_parse_error_on_garbage():
    with pytest.raises(ParseError):
        parse_spec("frobnicate X = 1\n")

def test_structure_line_outside_block():
    with pytest.raises(ParseError):
        parse_spec("mul a b = 1*c\n")


# -- CLI -----------------------------------------------------------------------

def write_fixtures(tmp_path):
    d = tmp_path / "fx"
    d.mkdir(exist_ok=True)
    for name, text in fixture_file_texts().items():
        (d / name).write_text(text)
    return d

def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out

def test_cli_validate_h4_exit_zero(tmp_path, capsys):
    d = write_fixtures(tmp_path)
    code, out = run_cli(["validate", d / "h4.hcy"], capsys)
    assert code == 0
    assert "VIOLATIONS" not in out

def test_cli_identities_corrupted_data_nonzero(tmp_path, capsys):
    d = write_fixtures(tmp_path)
    text = (d / "kz2.hcy").read_text().replace("antipode g = 1*g", "antipode g = 1*e")
    bad = d / "bad.hcy"
    bad.write_text(text)
    code, out = run_cli(["validate", bad], capsys)
    assert code == 1
    code, out = run_cli(["identities", bad, "--max-degree", "2",
                         "--out", str(d / "r.txt")], capsys)
    assert code == 1

def test_cli_cohomology_kz2_table(tmp_path, capsys):
    d = write_fixtures(tmp_path)
    os.chdir(tmp_path)
    code, out = run_cli(["cohomology", d / "kz2.hcy", "--max-degree", "6"], capsys)
    assert code == 0
    sect = out.split("== cohomology hopf_triv")[1].split("==")[0]
    hc = [l for l in sect.splitlines() if l.startswith("HC") and l.endswith("trusted")
          and not l.endswith("untrusted")]
    assert [l.split()[2] for l in hc] == ["1", "0", "1", "0", "1"]

def test_cli_parse_error_exit_two(tmp_path, capsys):
    p = tmp_path / "garbage.hcy"
    p.write_text("frobnicate\n")
    assert main([ "validate", str(p)]) == 2

@pytest.mark.parametrize("line,scalar", [("comul g = 1/0*g|g", "1/0"),
                                         ("comul g = x*g|g", "x"),
                                         ("counit g = 1/0", "1/0"),
                                         ("mul g g = 1/0*e", "1/0")])
def test_cli_bad_scalar_exit_two_with_line(tmp_path, capsys, line, scalar):
    lines = fixture_file_texts()["kz2.hcy"].splitlines()
    head = line.split("=")[0]
    line_no = next(i for i, l in enumerate(lines, 1) if l.strip().startswith(head))
    lines[line_no - 1] = "  " + line
    p = tmp_path / "bad.hcy"
    p.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == "input error: line %d: bad scalar %r\n" % (line_no, scalar)

@pytest.mark.parametrize("old,new", [("  comul g = 1*g|g", "  comul g"),
                                     ("  counit e = 1", "  counit = 1"),
                                     ("context cup_cross = crossed(A, B, triv)",
                                      "context cup_cross"),
                                     ("coefficients triv = mpi(eps, one)",
                                      "coefficients triv = mpi(eps)"),
                                     ("coefficients triv = mpi(eps, one)",
                                      "coefficients triv = mpi(eps, one, one)")])
def test_cli_malformed_line_exit_two_with_line(tmp_path, capsys, old, new):
    # a structure line or header without its "=" or one of its labels
    lines = fixture_file_texts()["kz2.hcy"].splitlines()
    line_no = lines.index(old) + 1
    lines[line_no - 1] = new
    p = tmp_path / "bad.hcy"
    p.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: line %d: expected '" % line_no)


def _kz3_renamed_k():
    """The kZ3 Hopf algebra of its fixture, renamed K, with its coefficients
    trivK and K acting on itself: a second Hopf algebra for a kz2 file."""
    text = fixture_file_texts()["kz3.hcy"]
    block = text[text.index("space H"):text.index("space A")]
    for old, new in (("H", "K"), ("eps", "epsK"), ("one", "oneK"), ("triv", "trivK")):
        block = re.sub(r"\b%s\b" % old, new, block)
    return block.splitlines()

_SAYD_S = ["space Msp = m", "sayd S over H space Msp", "  ract m e = 1*m", "  ract m g = 1*m",
           "  lcoact m = 1*e|m"]

@pytest.mark.parametrize("extra,line", [
    (_SAYD_S, "complex X = hopf(H, S)"),
    (_kz3_renamed_k(), "complex bad = coalgebra(K, triv)"),
    (_kz3_renamed_k(), "complex bad = hopf(K, triv)"),
    (_kz3_renamed_k(), "context bad = coalgebra(ca, trivK)"),
    (_kz3_renamed_k(), "context bad = crossed(A, B, trivK)"),
    (_kz3_renamed_k(), "action bad : K on A"),
    (_kz3_renamed_k(), "coefficients bad = mpi(eps, oneK)"),
], ids=["hopf-of-sayd", "coalgebra-other-hopf", "hopf-other-hopf", "context-coalgebra",
        "context-crossed", "action", "coefficients"])
def test_cli_mixed_hopf_algebras_exit_two_with_line(tmp_path, capsys, extra, line):
    # every entity a declaration names is over the Hopf algebra of its
    # coefficients, and hopf(H, M) takes mpi(...) coefficients over H
    lines = fixture_file_texts()["kz2.hcy"].splitlines() + extra + [line]
    p = tmp_path / "bad.hcy"
    p.write_text("\n".join(lines) + "\n")
    assert main(["audit", str(p), "--max-degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: line %d: " % len(lines))
    assert "Traceback" not in captured.err

def test_pairs_on_lists_the_coefficient_pairs_of_one_hopf_algebra():
    lines = fixture_file_texts()["kz2.hcy"].splitlines() + _kz3_renamed_k()
    spec = parse_spec("\n".join(lines) + "\n")
    on_h, on_k = spec.pairs_on(spec.hopfs["H"]), spec.pairs_on(spec.hopfs["K"])
    assert [name for name, _ in on_h] == ["triv", "twist"]
    assert [name for name, _ in on_k] == ["trivK"]
    assert all(mp is spec.modular_pair(name) for name, mp in on_h + on_k)

# a coalgebra that is not coassociative, and an antipode that is not one
_BROKEN = {"h4.hcy": ("  comul g = 1*g|g\n", ""),
           "kz2.hcy": ("  antipode g = 1*g\n", "  antipode g = 1*e\n")}

_BUILD = ["--max-degree", "2", "--no-cache"]

@pytest.mark.parametrize("fixture,command,failure", [
    ("h4.hcy", ["validate"], "sayd: VIOLATIONS (2):"),
    ("h4.hcy", ["identities"] + _BUILD, "build failed: iterated coproduct depends on bracketing"),
    ("h4.hcy", ["cohomology"] + _BUILD, "failed: iterated coproduct depends on bracketing"),
    ("h4.hcy", ["audit"] + _BUILD, "build failed: iterated coproduct depends on bracketing"),
    ("kz2.hcy", ["audit"] + _BUILD,
     "context build failed: cup context components failed validation"),
    ("kz2.hcy", ["cup", "--kind", "coalgebra", "--p", "0", "--q", "2"],
     "context build failed: cup context components failed validation"),
    ("kz2.hcy", ["cup", "--kind", "crossed", "--p", "0", "--q", "2"],
     "context build failed: cup context components failed validation"),
], ids=["h4-validate", "h4-identities", "h4-cohomology", "h4-audit", "kz2-audit",
        "kz2-cup-coalgebra", "kz2-cup-crossed"])
def test_invalid_structure_data_ends_in_a_report(tmp_path, capsys, fixture, command, failure):
    old, new = _BROKEN[fixture]
    text = fixture_file_texts()[fixture]
    assert text.count(old) == 1
    p = tmp_path / "broken.hcy"
    p.write_text(text.replace(old, new))
    code = main([command[0], str(p)] + command[1:])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert any(line.startswith(failure) for line in captured.out.splitlines()), captured.out

# (fixture, edited line, its replacement or None to append the lines after
# it, the VIOLATIONS blocks of `validate`): every violating basis tuple of
# every law, with its residual, in (law, tuple) order
_VIOLATIONS = {
    "h4-comul": ("h4.hcy", "  comul x = 1*g|x + 1*x|1", "  comul x = 1*g|x + 1*x|g", [
        "VIOLATIONS (9):\n"
        "  antipode-left at (x): 1*2 + 1*3\n"
        "  antipode-right at (x): -1*2 + -1*3\n"
        "  comul-multiplicative at (g,gx): -1*8 + 1*9\n"
        "  comul-multiplicative at (g,x): -1*12 + 1*13\n"
        "  comul-multiplicative at (gx,g): 1*8 + -1*9\n"
        "  comul-multiplicative at (gx,x): 1*10 + 1*11\n"
        "  comul-multiplicative at (x,g): 1*12 + -1*13\n"
        "  comul-multiplicative at (x,gx): -1*10 + 1*11\n"
        "  comul-multiplicative at (x,x): 2*15",
        "sayd: VIOLATIONS (1):;   anti-yetter-drinfeld at (m,x): 1*2 + 1*3",
        "VIOLATIONS (7):\n"
        "  comul-equivariant at (g,gx): -1*8 + 1*9\n"
        "  comul-equivariant at (g,x): -1*12 + 1*13\n"
        "  comul-equivariant at (gx,g): 1*8 + -1*9\n"
        "  comul-equivariant at (gx,x): 1*10 + 1*11\n"
        "  comul-equivariant at (x,g): 1*12 + -1*13\n"
        "  comul-equivariant at (x,gx): -1*10 + 1*11\n"
        "  comul-equivariant at (x,x): 2*15",
        "VIOLATIONS (1):\n"
        "  coaction-coassociative at (cx): 1*32 + -1*36"]),
    "kz2-act": ("kz2.hcy", "  act g p0 = 1*p1", "  act g p0 = 1*p0 + 1*p1", [
        "VIOLATIONS (5):\n"
        "  action-multiplicative at (g,p0,p1): -1*0\n"
        "  action-multiplicative at (g,p1,p0): -1*0\n"
        "  action-on-unit at (g): 1*0\n"
        "  module-action-associative at (g,g,p0): -1*0 + -1*1\n"
        "  module-action-associative at (g,g,p1): -1*0",
        "VIOLATIONS (2):\n"
        "  h-linearity at (g,e,p0): -1*0\n"
        "  h-linearity at (g,g,p1): -1*0"]),
    "kz2-sayd-stability": ("kz2.hcy", "context cup_cross = crossed(A, B, triv)", None, [
        "VIOLATIONS (1):\n"
        "  stability at (m): -2*0"]),
}
_UNSTABLE_SAYD = ["space Msp = m", "sayd S over H space Msp", "  ract m e = 1*m",
                  "  ract m g = -1*m", "  lcoact m = 1*g|m"]


def violation_blocks(out):
    """Each line of a report that holds VIOLATIONS, joined with the indented
    lines right after it."""
    blocks, block = [], None
    for line in out.splitlines():
        if "VIOLATIONS" in line:
            block = [line]
            blocks.append(block)
        elif block is not None and line.startswith("  "):
            block.append(line)
        else:
            block = None
    return ["\n".join(b) for b in blocks]


@pytest.mark.parametrize("case", sorted(_VIOLATIONS))
def test_validate_lists_every_violation_of_broken_input(tmp_path, capsys, case):
    fixture, old, new, blocks = _VIOLATIONS[case]
    lines = fixture_file_texts()[fixture].splitlines()
    i = lines.index(old)
    if new is None:
        lines[i + 1:i + 1] = _UNSTABLE_SAYD
    else:
        lines[i] = new
    p = tmp_path / "broken.hcy"
    p.write_text("\n".join(lines) + "\n")
    code, out = run_cli(["validate", p], capsys)
    assert code == 1
    assert violation_blocks(out) == blocks

def test_validate_names_the_first_trace_violation(tmp_path, capsys):
    # tr = (1, 2): tr(g.p0) - eps(g) tr(p0) = 2 - 1 under both pairs; the
    # twist by sigma = g also breaks tr(ab) = tr(b (g.a)) on all four pairs
    text = fixture_file_texts()["kz2.hcy"].replace("trace tr on A = 1 1\n",
                                                  "trace tr on A = 1 2\n")
    p = tmp_path / "trace.hcy"
    p.write_text(text)
    code, out = run_cli(["validate", p], capsys)
    assert code == 1
    section = out.split("== validate trace tr\n")[1].split("==")[0]
    assert section == (
        "against triv: not invariant (2 instances), first delta-invariance at (g,p0): 1*0\n"
        "against twist: not invariant (6 instances), first delta-invariance at (g,p0): 1*0\n"
        "trace is invariant for no declared coefficient pair\n")

def test_involution_flags_of_a_pair_without_inverse(tmp_path, capsys):
    # sigma = 0 has no inverse, so neither involution identity can hold
    text = fixture_file_texts()["kz2.hcy"].replace("grouplike one in H = 1*e\n",
                                                  "grouplike one in H = 0\n")
    p = tmp_path / "sigma0.hcy"
    p.write_text(text)
    code, out = run_cli(["validate", p], capsys)
    assert code == 1
    section = out.split("== validate coefficients triv\n")[1].split("==")[0]
    assert "involution identity literal=False squared=False (reported, not enforced)" in section

@pytest.mark.parametrize("old,new", [
    ("grouplike one in H = 1*e", "grouplike one in H = 1*e + 1*g + -1*g"),
    ("  unit = 1*e", "  unit = 1*e + 1*g + -1*g"),
])
def test_cancelled_terms_give_the_same_report(tmp_path, capsys, old, new):
    # terms that cancel must leave no stored zero behind
    d = write_fixtures(tmp_path)
    os.chdir(tmp_path)
    text = (d / "kz2.hcy").read_text()
    assert text.count(old + "\n") == 1
    p = tmp_path / "kz2_cancelled.hcy"
    p.write_text(text.replace(old + "\n", new + "\n"))
    code1, out1 = run_cli(["audit", d / "kz2.hcy", "--max-degree", "2"], capsys)
    code2, out2 = run_cli(["audit", p, "--max-degree", "2"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2

def test_cli_cup_command(tmp_path, capsys):
    d = write_fixtures(tmp_path)
    os.chdir(tmp_path)
    code, out = run_cli(["cup", d / "kz2.hcy", "--kind", "coalgebra", "--p", "0", "--q", "2"], capsys)
    assert code == 0
    assert "b-closed=True" in out
    assert "explicit-match=True" in out
    code, out = run_cli(["cup", d / "kz2.hcy", "--kind", "traces", "--p", "0", "--q", "2"], capsys)
    assert code == 0
    assert "shuffle" in out

@pytest.mark.parametrize("kind,report", [
    ("coalgebra", ["== cup cup_coalg kind=coalgebra p=0 q=0",
                   "pair (0,0): b-closed=True cyclic=True class=b-nontrivial explicit-match=True",
                   "  cochain: 1*0 + 1*1"]),
    ("crossed", ["== cup cup_cross kind=crossed p=0 q=0",
                 "pair (0,0): b-closed=True cyclic=True class=b-nontrivial"
                 " closed-formula-match=True",
                 "  cochain: 1*0 + 1*2"]),
])
def test_cli_cup_in_degree_zero_has_no_coboundaries(tmp_path, capsys, kind, report):
    d = write_fixtures(tmp_path)
    os.chdir(tmp_path)
    code, out = run_cli(["cup", d / "kz2.hcy", "--kind", kind, "--p", "0", "--q", "0"], capsys)
    assert code == 0
    assert out.splitlines()[2:] == report

def test_class_info_of_a_zero_cochain_in_degree_zero():
    from hopfcyclic.cli import _class_info
    assert _class_info(None, {}) == "zero"
    assert _class_info(None, {0: 1}) == "b-nontrivial"

def test_cli_fixtures_command(tmp_path, capsys):
    os.chdir(tmp_path)
    code, out = run_cli(["fixtures", "--out", str(tmp_path / "fx2")], capsys)
    assert code == 0
    assert sorted(os.listdir(tmp_path / "fx2")) == sorted(fixture_file_texts())

def test_cache_round_trip_identical(tmp_path, capsys):
    from hopfcyclic.cli import build_declared_complex
    from hopfcyclic.specfile import parse_spec as ps
    d = write_fixtures(tmp_path)
    os.chdir(tmp_path)
    spec = ps((d / "kz2.hcy").read_text())
    text = spec.to_text()
    fresh, how1 = build_declared_complex(spec, text, "hopf_triv", 3,
                                         cache_dir=str(tmp_path / "cache"))
    cached, how2 = build_declared_complex(spec, text, "hopf_triv", 3,
                                          cache_dir=str(tmp_path / "cache"))
    rebuilt, how3 = build_declared_complex(spec, text, "hopf_triv", 3, no_cache=True,
                                           cache_dir=str(tmp_path / "cache"))
    assert how2 == "cached" and how3 == "built"
    for a, b in ((fresh, cached), (fresh, rebuilt)):
        assert a.dims() == b.dims()
        for n in range(a.N + 1):
            for i in range(n + 2):
                assert a.face(n, i) == b.face(n, i)
        for n in range(a.top + 1):
            assert a.tau(n) == b.tau(n)
        for n in range(1, a.top + 1):
            for j in range(n):
                assert a.degen(n, j) == b.degen(n, j)

@pytest.mark.parametrize("damage", [
    lambda text: text[:200],                                 # cut mid-line
    lambda text: "".join(text.splitlines(True)[:-3]),        # cut at a line boundary
    lambda text: text.replace(" 1\n", " 2\n", 1),            # one entry edited
    lambda text: "",
])
def test_damaged_cache_entry_is_rebuilt(tmp_path, monkeypatch, capsys, damage):
    d = write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    args = ["cohomology", d / "kz2.hcy", "--max-degree", "2"]
    code, cold = run_cli(args, capsys)
    assert code == 0
    entries = sorted((tmp_path / ".hopfcyclic-cache").iterdir())
    assert entries
    for path in entries:
        text = path.read_text()
        assert damage(text) != text
        path.write_text(damage(text))
    code, out = run_cli(args, capsys)
    assert code == 0
    assert out == cold
    # the rebuilt entries are whole again and read back as hits
    assert sorted((tmp_path / ".hopfcyclic-cache").iterdir()) == entries
    from hopfcyclic.cli import build_declared_complex
    spec = parse_spec((d / "kz2.hcy").read_text())
    assert build_declared_complex(spec, spec.to_text(), "hopf_triv", 2)[1] == "cached"

def _drop_block(label):
    def edit(lines):
        i = lines.index(label)
        j = i + 1
        while j < len(lines) and lines[j][:1].isdigit():
            j += 1
        return lines[:i] + lines[j:]
    return edit

def _widen_header(lines):
    i = lines.index("face 0 0") + 1
    rows, cols = map(int, lines[i].split())
    return lines[:i] + ["%d %d" % (rows, cols + 1)] + lines[i + 1:]

@pytest.mark.parametrize("edit", [
    _drop_block("tau 0"),
    _drop_block("face 0 0"),
    _drop_block("degen 1 0"),
    _widen_header,                                              # shape off the dims
    lambda lines: lines[:-1] + ["junk"] + lines[-1:],           # non-triplet in a block
    lambda lines: lines[:-1] + ["0 0"] + lines[-1:],
    lambda lines: lines + lines[-1:],                           # the last entry twice
], ids=["no-tau", "no-face", "no-degen", "header", "junk-line", "short-line", "repeated-entry"])
def test_resigned_malformed_cache_entry_is_rebuilt(tmp_path, monkeypatch, capsys, edit):
    # the digest matches the edited body, so only the layout check can catch it
    d = write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    args = ["cohomology", d / "kz2.hcy", "--max-degree", "2"]
    code, cold = run_cli(args, capsys)
    assert code == 0
    entries = {path: path.read_text() for path in (tmp_path / ".hopfcyclic-cache").iterdir()}
    for path, text in entries.items():
        head, _, body = text.partition("\n")
        body = "\n".join(edit(body.splitlines())) + "\n"
        head = "%s %s" % (head.rpartition(" ")[0], hashlib.sha256(body.encode()).hexdigest())
        path.write_text(head + "\n" + body)
    code, out = run_cli(args, capsys)
    assert code == 0
    assert out == cold
    # each entry was a miss: rebuilt and written again as the cold run wrote it
    assert {path: path.read_text() for path in entries} == entries
    from hopfcyclic.cli import build_declared_complex
    spec = parse_spec((d / "kz2.hcy").read_text())
    assert build_declared_complex(spec, spec.to_text(), "hopf_triv", 2)[1] == "cached"

def test_audit_byte_identical(tmp_path, capsys):
    d = write_fixtures(tmp_path)
    os.chdir(tmp_path)
    code1, out1 = run_cli(["audit", d / "trivial.hcy", "--max-degree", "3"], capsys)
    code2, out2 = run_cli(["audit", d / "trivial.hcy", "--max-degree", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2

PERMUTED_KZ2 = """
space H = g e
algebra H
  unit = 1*e
  mul e e = 1*e
  mul e g = 1*g
  mul g e = 1*g
  mul g g = 1*e
coalgebra H
  counit e = 1
  counit g = 1
  comul e = 1*e|e
  comul g = 1*g|g
hopf H
  antipode e = 1*e
  antipode g = 1*g
character eps on H = 1 1
grouplike one in H = 1*e
coefficients triv = mpi(eps, one)
complex hopf_triv = hopf(H, triv)
"""

def test_basis_permutation_same_dimension_table(tmp_path, capsys):
    d = write_fixtures(tmp_path)
    os.chdir(tmp_path)
    p = tmp_path / "kz2_permuted.hcy"
    p.write_text(PERMUTED_KZ2)
    code1, out1 = run_cli(["cohomology", d / "kz2.hcy", "--max-degree", "4", "--no-cache"], capsys)
    code2, out2 = run_cli(["cohomology", p, "--max-degree", "4", "--no-cache"], capsys)
    assert code1 == code2 == 0
    table1 = [l for l in out1.split("== cohomology hopf_triv")[1].split("==")[0].splitlines() if l]
    table2 = [l for l in out2.split("== cohomology hopf_triv")[1].split("==")[0].splitlines() if l]
    assert table1 == table2
