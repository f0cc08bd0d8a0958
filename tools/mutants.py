"""Mutation check: named source edits that the test suite must catch.

Usage (from anywhere; the repository is this file's parent directory):

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named mutants only

Each mutant is a file (relative to the repository root), the exact old
text, the new text, and the test ids that must fail with the edit in place.
For each mutant the sources, the tests and the benchmark directory are
copied to a temporary directory, the edit is applied to the copy, and only
the named tests run there (``python3 -m pytest``).  The mutant is killed
when every named test fails and survives otherwise.  It is an error when
the old text is missing from the file or found more than once, or when a
named test already fails on an unmutated copy, which runs first.  The
working tree is never written.  Exit status 0 when every mutant is killed,
else 1.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

Mutant = namedtuple("Mutant", "name path old new tests")

LINALG = "src/hopfcyclic/linalg.py"
COMPLEXES = "src/hopfcyclic/complexes.py"
SPECFILE = "src/hopfcyclic/specfile.py"
HOPF = "src/hopfcyclic/hopf.py"
GRAMMAR = "tests/test_specfile_grammar.py::"
PINNED = "tests/test_specfile_cli.py::test_validate_lists_every_violation_of_broken_input"

MUTANTS = [
    Mutant("lead-at-min", LINALG,
           "self.lead = {max(v): k for k, v in enumerate(basis)}",
           "self.lead = {min(v): k for k, v in enumerate(basis)}",
           ["tests/test_linalg.py::test_kernel_coords_read_the_free_entries",
            "tests/test_complexes.py::test_algebra_complex_h4_passes",
            "tests/test_complexes.py::test_ill_defined_raised_for_broken_coaction"]),
    Mutant("residual-check-dropped", LINALG,
           "        return coords, res\n",
           "        return coords, {}\n",
           ["tests/test_linalg.py::test_kernel_coords_read_the_free_entries",
            "tests/test_actions.py::test_not_closed_for_inconsistent_action",
            "tests/test_complexes.py::test_ill_defined_raised_for_broken_module_algebra",
            "tests/test_complexes.py::test_ill_defined_raised_for_broken_coaction"]),
    Mutant("restrict-reads-source-degree", COMPLEXES,
           "_restrict(by_source, bases[n], readers[target], message, n)",
           "_restrict(by_source, bases[n], readers[n], message, n)",
           ["tests/test_complexes.py::test_algebra_complex_h4_passes",
            "tests/test_complexes.py::test_comodule_complex_kz2",
            "tests/test_acceptance.py::test_criterion_8_characteristic_map_agreement"]),
    Mutant("restrict-witness-residual-none", COMPLEXES,
           "raise IllDefined(message, n, k, dict(sorted(residual.items())))",
           "raise IllDefined(message, n, k, None)",
           ["tests/test_complexes.py::test_ill_defined_raised_for_broken_module_algebra",
            "tests/test_complexes.py::test_ill_defined_raised_for_broken_coaction"]),
    Mutant("lift-witness-residual-none", COMPLEXES,
           "n, solver.pivots[k], residual)",
           "n, solver.pivots[k], None)",
           ["tests/test_complexes.py::test_ill_defined_raised_for_broken_action",
            "tests/test_complexes.py::test_ill_defined_at_the_last_relation_row"]),
    Mutant("lift-descent-skips-last-row", COMPLEXES,
           "rows)], len(rows))",
           "rows)], len(rows) - 1)",
           ["tests/test_complexes.py::test_ill_defined_at_the_last_relation_row"]),
    Mutant("residuals-stops-at-first", LINALG,
           "sorted(acc.items())}\n            acc.clear()\n",
           "sorted(acc.items())}\n            return\n",
           ["tests/test_certificates.py::test_residuals_are_every_nonzero_column_of_the_sum",
            PINNED + "[h4-comul]", PINNED + "[kz2-act]"]),
    Mutant("law-drops-sign", HOPF,
           "residuals(matrix_terms(terms), mi.size)",
           "residuals(matrix_terms((1, a, b) for _, a, b in terms), mi.size)",
           ["tests/test_hopf.py::test_group_algebra_kz2_valid",
            "tests/test_hopf.py::test_sweedler_h4_valid",
            PINNED + "[kz2-sayd-stability]"]),
    Mutant("law-skips-identity-term", HOPF,
           "residuals(matrix_terms(terms), mi.size)",
           "residuals(matrix_terms(t for t in terms if t[1:] != (None, None)), mi.size)",
           ["tests/test_hopf.py::test_group_algebra_kz2_valid",
            PINNED + "[kz2-sayd-stability]"]),
    Mutant("product-plan-factors-swapped", COMPLEXES,
           "kron_plan(self.c1.plan(kind, n, i), self.c2.plan(kind, n, i),",
           "kron_plan(self.c2.plan(kind, n, i), self.c1.plan(kind, n, i),",
           ["tests/test_certificates.py::test_product_plans_are_the_plans_of_its_operators",
            "tests/test_complexes.py::test_diagonal_equals_product"]),
    Mutant("product-plan-rows-from-source", COMPLEXES,
           "self.c2.dim(n + _SHIFT[kind]))",
           "self.c2.dim(n))",
           ["tests/test_certificates.py::test_product_plans_are_the_plans_of_its_operators",
            "tests/test_complexes.py::test_diagonal_equals_product"]),
    Mutant("intertwines-src-plan-of-tgt", COMPLEXES,
           "(1, plans[n + _SHIFT[key[0]]], src.plan(*key))",
           "(1, plans[n + _SHIFT[key[0]]], tgt.plan(*key))",
           ["tests/test_cup.py::test_psi_c_and_psi_certificates_kz2",
            "tests/test_cup.py::test_psi_r_certificate_kz4",
            "tests/test_certificates.py::"
            "test_chain_map_failure_on_the_product_view_is_that_of_the_built_product"]),
    Mutant("writer-unsorted", SPECFILE,
           "        for idx in sorted(got):",
           "        for idx in got:",
           [GRAMMAR + "test_structure_lines_are_written_sorted_by_labels"]),
    Mutant("reader-keeps-first", SPECFILE,
           "        got[keyword][idx] = _parse_value(rhs, [roles[r] for r in val], ln)",
           "        got[keyword].setdefault(idx, _parse_value(rhs, [roles[r] for r in val], ln))",
           [GRAMMAR + "test_a_repeated_structure_line_replaces_the_earlier_one[mul]",
            GRAMMAR + "test_a_repeated_structure_line_replaces_the_earlier_one[antipode]",
            GRAMMAR + "test_a_repeated_structure_line_replaces_the_earlier_one[coact]"]),
    Mutant("comul-before-counit", SPECFILE,
           '"coalgebra": {"counit": ("S", ""), "comul": ("S", "SS")},',
           '"coalgebra": {"comul": ("S", "SS"), "counit": ("S", "")},',
           [GRAMMAR + "test_fixture_files_are_pinned",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[audit kz2.hcy --max-degree 4]"]),
    Mutant("lcoact-value-roles-swapped", SPECFILE,
           '"lcoact": ("S", "HS")',
           '"lcoact": ("S", "SH")',
           [GRAMMAR + "test_sayd_block_round_trips",
            "tests/test_specfile_cli.py::test_cli_mixed_hopf_algebras_exit_two_with_line"
            "[hopf-of-sayd]"]),
    Mutant("stray-line-dropped", SPECFILE,
           "        _read_lines(head, lines, {})",
           "        pass",
           [GRAMMAR + "test_input_error_exits_two_at_its_line[stray-under-trace]",
            GRAMMAR + "test_input_error_exits_two_at_its_line[stray-under-space]",
            GRAMMAR + "test_input_error_exits_two_at_its_line[orphaned-lines]"]),
]

# "FAILED <id> - <reason>" / "ERROR <id>" lines of pytest's short summary
# (-rfE); a parametrized id may hold spaces
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, os.path.join(dest, name))


def _failing(tree, tests):
    """The ids among tests that fail when run in tree; None when pytest
    itself fails (an unknown id, a collection error)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"] + list(tests),
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout[-2000:])
        return None
    return set(_FAILED.findall(proc.stdout))


def run_mutant(m, already_failing):
    """(verdict, detail) for one mutant: verdict is killed, survived or error."""
    broken = [t for t in m.tests if t in already_failing]
    if broken:
        return "error", "fails unmutated: " + ", ".join(broken)
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(tmp)
        path = os.path.join(tmp, m.path)
        with open(path) as f:
            text = f.read()
        count = text.count(m.old)
        if count != 1:
            return "error", "old text found %d times in %s" % (count, m.path)
        with open(path, "w") as f:
            f.write(text.replace(m.old, m.new))
        failed = _failing(tmp, m.tests)
    if failed is None:
        return "error", "pytest could not run the named tests"
    passed = [t for t in m.tests if t not in failed]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "killed", "%d/%d named tests failed" % (len(m.tests), len(m.tests))


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print("unknown mutant: %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    chosen = [known[n] for n in names] if names else MUTANTS
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        _copy_tree(tmp)
        already_failing = _failing(tmp, sorted({t for m in chosen for t in m.tests}))
    if already_failing is None:
        print("pytest could not run the named tests on an unmutated copy", file=sys.stderr)
        return 2
    ok = True
    for m in chosen:
        verdict, detail = run_mutant(m, already_failing)
        ok = ok and verdict == "killed"
        print("%-8s %-32s %s" % (verdict, m.name, detail))
    print("%d mutants, %s" % (len(chosen), "all killed" if ok else "NOT all killed"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
