"""The .hcy grammar: one line table behind the reader, the writer and the
shipped fixture files; every input error the parser can raise, each at its
line; and a fixed-seed mutation fuzz of the fixture texts."""

import hashlib
import random

import pytest

from hopfcyclic.actions import validate_sayd
from hopfcyclic.cli import main
from hopfcyclic.fixtures import fixture_file_texts
from hopfcyclic.specfile import (LINES, _LINE_FORMS, parse_spec, ParseError, UnresolvedName,
                                 DimensionMismatch)


SAYD_LINES = ["space Msp = m", "sayd S over H space Msp", "  ract m e = 1*m",
              "  ract m g = 1*m", "  lcoact m = 1*e|m", "complex coalg_s = coalgebra(H, S)"]


def kz2_with_sayd():
    return fixture_file_texts()["kz2.hcy"] + "\n".join(SAYD_LINES) + "\n"


# -- the line table ------------------------------------------------------------------------

# sha256 of each shipped fixture file: a change to the writer must leave the
# files as they are
FIXTURE_SHA256 = {
    "trivial.hcy": "583759f82643f04a42e91c7b3582e54e17aca0c4927e9e728146b72262b55b18",
    "kz2.hcy": "1123ecf4479dc77981cea24e263f80290394967bafee9b6ee1335059ca65e071",
    "kz3.hcy": "69728b8adac4fe98dfd7db93dcf1fad6baf5d2304e6d0930ad749b8a88f629ee",
    "kz4_relative.hcy": "d51640787b40c1e6bbd15891f5534464920d6024176095a43fb0a6346e14bf99",
    "h4.hcy": "349aeeb8c27b35b7d6fb269a79f7edaaa0223b3a8be6b9b88f277ca57e531580",
}


def test_fixture_files_are_pinned():
    texts = fixture_file_texts()
    assert {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in texts.items()} == FIXTURE_SHA256


def test_fixture_files_are_their_comment_line_and_canonical_text():
    for name, text in fixture_file_texts().items():
        comment, rest = text.split("\n", 1)
        assert comment.startswith("# "), name
        assert parse_spec(text).to_text() == rest, name


def test_line_forms_name_as_many_labels_as_the_table():
    for kind, table in LINES.items():
        for keyword, (labels, _) in table.items():
            form = _LINE_FORMS[keyword].split("=")[0].split()
            assert form[0] == keyword
            assert len(form) - 1 == len(labels), (kind, keyword)


def _blocks_reversed(text):
    """text with the structure lines of every block in reverse order."""
    out, run = [], []
    for line in text.splitlines():
        if line.startswith("  "):
            run.append(line)
        else:
            out += run[::-1] + [line]
            run = []
    return "\n".join(out + run[::-1]) + "\n"


def test_structure_lines_are_written_sorted_by_labels():
    for name, text in fixture_file_texts().items():
        shuffled = _blocks_reversed(text)
        assert shuffled != text, name
        assert parse_spec(shuffled).to_text() == parse_spec(text).to_text(), name


@pytest.mark.parametrize("old,new", [
    ("  mul g g = 1*e", "  mul g g = 1*g"),
    ("  counit g = 1", "  counit g = 0"),
    ("  comul g = 1*g|g", "  comul g = 1*e|g"),
    ("  antipode g = 1*g", "  antipode g = 1*e"),
    ("  act g p0 = 1*p1", "  act g p0 = 1*p0"),
    ("  coact b1 = 1*g|b1", "  coact b1 = 1*e|b1"),
    ("  cact g p1 = 1*p0", "  cact g p1 = 1*p1"),
], ids=["mul", "counit", "comul", "antipode", "act", "coact", "cact"])
def test_a_repeated_structure_line_replaces_the_earlier_one(old, new):
    text = fixture_file_texts()["kz2.hcy"]
    assert text.count(old + "\n") == 1
    repeated = parse_spec(text.replace(old + "\n", old + "\n" + new + "\n"))
    replaced = parse_spec(text.replace(old + "\n", new + "\n"))
    assert repeated.to_text() == replaced.to_text()
    assert new in replaced.to_text().splitlines()


def test_sayd_block_round_trips():
    spec = parse_spec(kz2_with_sayd())
    assert spec.coefficients["S"] is spec.sayds["S"]
    assert validate_sayd(spec.sayds["S"]).ok
    canon = spec.to_text()
    assert canon.endswith("\n".join(SAYD_LINES) + "\n")
    assert parse_spec(canon).to_text() == canon


# -- every input error, at its line ----------------------------------------------------------

# (fixture, line, its replacement, the line reported when not the edited
# one, the message): one case for every raise in specfile, for every
# message of its name lookup, and for a structure line under each header
# kind that takes none.  A replacement may span lines; None deletes the
# line's whole block, its header and its structure lines.
ERRORS = {
    "unexpected-keyword": ("kz2.hcy", "  act e p0 = 1*p0", "  unit = 1*p0", None,
                           "unexpected 'unit' in module_algebra block"),
    "orphaned-lines": ("kz2.hcy", "algebra H", "", "  unit = 1*e",
                       "unexpected 'unit' in space block"),
    "bad-scalar": ("kz2.hcy", "  counit g = 1", "  counit g = x", None, "bad scalar 'x'"),
    "character-values": ("kz2.hcy", "character eps on H = 1 1", "character eps on H = 1 1 1",
                         None, "character needs 2 values"),
    "trace-values": ("kz2.hcy", "trace tr on A = 1 1", "trace tr on A = 1", None,
                     "trace needs 2 values"),
    "vector-term": ("kz2.hcy", "  mul e e = 1*e", "  mul e e = 1 e", None,
                    "expected coef*label, got '1 e'"),
    "pair-term": ("kz2.hcy", "  comul g = 1*g|g", "  comul g = 1*g", None,
                  "expected coef*label|label, got '1*g'"),
    "outside-block": ("kz2.hcy", "# group algebra of Z/2 with its standard Hopf structure",
                      "  unit = 1*e", None, "structure line outside any block"),
    "line-form": ("kz2.hcy", "  coact b0 = 1*e|b0", "  coact = 1*e|b0", None,
                  "expected 'coact L = ...'"),
    "header-form": ("kz2.hcy", "module_algebra A over H", "module_algebra A", None,
                    "expected 'module_algebra NAME over HOPF'"),
    "subhopf-form": ("kz4_relative.hcy", "subhopf K of H = 1*e ; 1*g2", "subhopf K of H", None,
                     "expected 'subhopf NAME of HOPF = ...'"),
    "space-form": ("kz2.hcy", "space A = p0 p1", "space A p0 p1", None,
                   "space NAME = labels..."),
    "duplicate-labels": ("kz2.hcy", "space A = p0 p1", "space A = p0 p0", None,
                         "duplicate basis labels"),
    "coefficients-form": ("kz2.hcy", "coefficients twist = mpi(eps, gg)",
                          "coefficients twist = mpi(eps gg)", None,
                          "expected 'coefficients NAME = mpi(CHARACTER, GROUPLIKE)'"),
    "unknown-declaration": ("kz2.hcy", "trace tr on A = 1 1", "tracer tr on A = 1 1", None,
                            "unknown declaration 'tracer'"),
    "call-form": ("kz2.hcy", "complex alg_triv = algebra(A, triv)",
                  "complex alg_triv = algebra A triv", None, "expected kind(arg, ...)"),
    "unknown-kind": ("kz2.hcy", "complex alg_triv = algebra(A, triv)",
                     "complex alg_triv = algebras(A, triv)", None,
                     "unknown complex kind 'algebras'"),
    "argument-count": ("kz2.hcy", "context cup_cross = crossed(A, B, triv)",
                       "context cup_cross = crossed(A, triv)", None,
                       "crossed(A,triv) takes 3 arguments"),
    "unknown-space": ("kz2.hcy", "algebra A", "algebra Q", None, "unknown space 'Q'"),
    "unknown-hopf": ("kz2.hcy", "module_algebra A over H", "module_algebra A over Q", None,
                     "unknown hopf algebra 'Q'"),
    "unknown-character": ("kz2.hcy", "coefficients triv = mpi(eps, one)",
                          "coefficients triv = mpi(epsilon, one)", None,
                          "unknown character 'epsilon'"),
    "unknown-grouplike": ("kz2.hcy", "coefficients triv = mpi(eps, one)",
                          "coefficients triv = mpi(eps, uno)", None, "unknown grouplike 'uno'"),
    "unknown-module-coalgebra": ("kz2.hcy", "action ca : H on A", "action ca : A on A", None,
                                 "unknown module coalgebra 'A'"),
    "unknown-module-algebra": ("kz2.hcy", "action ca : H on A", "action ca : H on B", None,
                               "unknown module algebra 'B'"),
    "hopf-needs-algebra": ("kz2.hcy", "algebra H", None, "hopf H",
                           "hopf 'H' needs algebra and coalgebra blocks first"),
    "module-algebra-needs-algebra": ("kz2.hcy", "algebra A", None, "module_algebra A over H",
                                     "module_algebra 'A' needs its algebra block"),
    "module-coalgebra-needs-coalgebra": ("kz2.hcy", "module_algebra A over H",
                                         "module_coalgebra A over H", None,
                                         "module_coalgebra 'A' needs its coalgebra block"),
    "comodule-algebra-needs-algebra": ("kz2.hcy", "algebra B", None, "comodule_algebra B over H",
                                       "comodule_algebra 'B' needs its algebra block"),
    "unknown-coefficients": ("kz2.hcy", "complex alg_triv = algebra(A, triv)",
                             "complex alg_triv = algebra(A, trivial)", None,
                             "unknown coefficients 'trivial'"),
    "unknown-entity": ("kz2.hcy", "context cup_cross = crossed(A, B, triv)",
                       "context cup_cross = crossed(A, Q, triv)", None,
                       "unknown comodule algebra 'Q'"),
    "unknown-label": ("kz2.hcy", "  mul p0 p0 = 1*p0", "  mul p0 p0 = 1*p9", None,
                      "unknown basis label 'p9'"),
    "unknown-label-in-header": ("kz4_relative.hcy", "subhopf K of H = 1*e ; 1*g2",
                                "subhopf K of H = 1*e ; 1*g9", None, "unknown basis label 'g9'"),
}


for kind, (fixture, header) in {
        "space": ("kz2.hcy", "space A = p0 p1"),
        "character": ("kz2.hcy", "character eps on H = 1 1"),
        "grouplike": ("kz2.hcy", "grouplike one in H = 1*e"),
        "coefficients": ("kz2.hcy", "coefficients triv = mpi(eps, one)"),
        "subhopf": ("kz4_relative.hcy", "subhopf K of H = 1*e ; 1*g2"),
        "trace": ("kz2.hcy", "trace tr on A = 1 1"),
        "complex": ("kz2.hcy", "complex alg_triv = algebra(A, triv)"),
        "context": ("kz2.hcy", "context cup_cross = crossed(A, B, triv)")}.items():
    assert kind not in LINES
    ERRORS["stray-under-" + kind] = (fixture, header, header + "\n  mul e e = 1*g",
                                     "  mul e e = 1*g", "unexpected 'mul' in %s block" % kind)


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_input_error_exits_two_at_its_line(tmp_path, capsys, case):
    fixture, old, new, at, message = ERRORS[case]
    lines = fixture_file_texts()[fixture].splitlines()
    assert lines.count(old) == 1
    line_no = lines.index(old) + 1
    if new is None:
        end = line_no
        while end < len(lines) and lines[end].startswith("  "):
            end += 1
        del lines[line_no - 1:end]
    else:
        lines[line_no - 1:line_no] = new.split("\n")
    if at is not None:
        line_no = lines.index(at) + 1
    p = tmp_path / "bad.hcy"
    p.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: line %d: %s\n" % (line_no, message)


# -- mutation fuzz ---------------------------------------------------------------------------

_SPECIALS = ("0", "1", "-1", "1/2", "1/0", "x", "=", "*", "|", "+", ";", ":", "zz",
             "1*e", "1*g|g", "mul", "act", "over", "of", "on", "in")


def mutate(text, rng, edits):
    """text after edits random edits: a token deleted, replaced or inserted
    (drawn from the text's own tokens and a few specials), or a line
    deleted, duplicated, swapped with another or re-indented."""
    lines = text.splitlines()
    vocab = sorted(set(text.split())) + list(_SPECIALS)
    for _ in range(edits):
        if not lines:
            break
        i = rng.randrange(len(lines))
        line = lines[i]
        indent = line[:len(line) - len(line.lstrip())]
        toks = line.split()
        op = rng.randrange(7)
        if op < 3 and toks:
            k = rng.randrange(len(toks))
            if op == 0:
                del toks[k]
            elif op == 1:
                toks[k] = rng.choice(vocab)
            else:
                toks.insert(k, rng.choice(vocab))
            lines[i] = indent + " ".join(toks)
        elif op == 3:
            del lines[i]
        elif op == 4:
            lines.insert(rng.randrange(len(lines) + 1), line)
        elif op == 5:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = line.strip() if indent else "  " + line
    return "\n".join(lines) + "\n"


def test_mutants_parse_to_a_fixed_point_or_fail_at_a_line():
    texts = fixture_file_texts()
    bases = [texts[name] for name in sorted(texts)] + [kz2_with_sayd()]
    rng = random.Random(12)
    parsed = 0
    for _ in range(2000):
        text = mutate(rng.choice(bases), rng, rng.randint(1, 3))
        try:
            canon = parse_spec(text).to_text()
        except (ParseError, UnresolvedName, DimensionMismatch) as e:
            assert e.line_no is not None and 1 <= e.line_no <= len(text.splitlines()), (e, text)
            assert str(e).startswith("line %d: " % e.line_no)
            continue
        assert parse_spec(canon).to_text() == canon, text
        parsed += 1
    # both outcomes are exercised
    assert 100 < parsed < 1900
