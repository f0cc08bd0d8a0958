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
CUP = "src/hopfcyclic/cup.py"
ORACLE = "tests/test_cup.py::test_algebra_pairing_is_the_pulled_back_convolution_pairing"
NOT_KEPT = "tests/test_cup.py::test_a_failed_pairing_certificate_is_not_kept"
GRAMMAR = "tests/test_specfile_grammar.py::"
PUSH = "tests/test_linalg.py::test_push_slots_contract_match_dense"
COLUMN_FORM = "tests/test_linalg.py::test_column_form_matches_the_dense_oracle"
PER_TUPLE = "tests/test_condition_systems.py::test_power_complex_is_the_per_tuple_builder"
FUNCTIONAL = "tests/test_condition_systems.py::test_functional_complexes_are_the_per_tuple_builders"
REGULAR = "tests/test_condition_systems.py::test_functional_complexes_with_regular_coefficients"
SLOT_MAP = "tests/test_complexes.py::test_slot_map_is_one_tensor_f_tensor_one_on_tuples"
PINNED = "tests/test_specfile_cli.py::test_validate_lists_every_violation_of_broken_input"
INVERSE = "tests/test_linalg.py::test_invert_matrix_is_a_two_sided_inverse_or_none"
GAUSS_JORDAN = "tests/test_linalg.py::test_span_solver_is_dense_gauss_jordan"
WIDTH = "tests/test_linalg.py::test_span_solver_width_drops_exactly_the_rows_led_at_or_past_it"
STREAMED = "tests/test_condition_systems.py::test_streamed_conditions_match_the_stacked_matrix_oracle"
CONJUGATION = "tests/test_complexes.py::test_conjugation_certificate_names_the_broken_operator"
CHAIN_MAP = "tests/test_cup.py::test_chain_map_certificate_names_the_failing_operator"
CLI = "src/hopfcyclic/cli.py"
COHOMOLOGY = "src/hopfcyclic/cohomology.py"
BOUNDARY_WITNESS = "tests/test_certificates.py::test_not_a_complex_witness_of_the_boundary"
LIFECYCLE = "tests/test_lifecycle.py::test_the_process_prints_and_exits_as_main_does"
TWO = "tests/test_two_processes.py::"
FAILURES = "tests/test_failure_reports.py::"
OPEN_INPUT = "tests/test_cup.py::test_cups_reject_an_open_input_or_the_wrong_context"
QUOTIENT_TAKEN = [TWO + "test_a_coalgebra_complex_in_a_hopf_group_takes_its_quotient[%s-%d]"
                  % (k, cpus) for k in ("kz2", "kz2-quotient-replaced") for cpus in (1, 2)]

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
    Mutant("inverse-keeps-a-dropped-row", LINALG,
           "        if not solver.add(row):\n            return None\n",
           "        solver.add(row)\n",
           [INVERSE]),
    Mutant("inverse-read-transposed", LINALG,
           "{(i, j - n): x for i, row",
           "{(j - n, i): x for i, row",
           [INVERSE]),
    Mutant("add-stores-a-row-led-at-a-pivot", LINALG,
           "            if row is None:\n                break\n            vec_axpy(v, -v[p], row)\n",
           "            break\n",
           [GAUSS_JORDAN, WIDTH, INVERSE,
            "tests/test_linalg.py::test_rref_matches_dense_oracle"]),
    Mutant("width-compared-with-gt", LINALG,
           "p >= self.width",
           "p > self.width",
           [WIDTH]),
    Mutant("image-rank-counts-refused-rows", LINALG,
           "sum(solver.add(row) for row",
           "sum(solver.add(row) is not None for row",
           [GAUSS_JORDAN, "tests/test_linalg.py::test_rank_nullity_random",
            "tests/test_linalg.py::test_kernel_of_rows_is_the_kernel_of_the_stacked_matrix",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[audit h4.hcy --max-degree 4]"]),
    Mutant("inverse-skips-back-substitution", LINALG,
           "                for q in [q for q in row if q != p and q in rows]:\n"
           "                    vec_axpy(row, -row[q], rows[q])\n",
           "                pass\n",
           [GAUSS_JORDAN, INVERSE, STREAMED + "[h4.hcy]",
            "tests/test_cohomology.py::test_random_basis_change_preserves_cohomology[h4]"]),
    Mutant("kernel-of-rows-drops-first-row", LINALG,
           "    solver = SpanSolver()\n    for row in rows:\n",
           "    solver = SpanSolver()\n    rows = iter(rows)\n    next(rows, None)\n"
           "    for row in rows:\n",
           ["tests/test_linalg.py::test_kernel_of_rows_is_the_kernel_of_the_stacked_matrix",
            "tests/test_linalg.py::test_kernel_basis_matches_free_pivot_loop",
            "tests/test_linalg.py::test_kernel_vectors_annihilated"]),
    Mutant("normalization-rank-check-dropped", COMPLEXES,
           "        if inv is None:\n            raise ConjugationFailure(",
           "        if False:\n            raise ConjugationFailure(",
           ["tests/test_condition_systems.py::test_singular_normalization_map_fails_with_its_degree"]),
    Mutant("greedy-scan-left-to-right", COMPLEXES,
           "    for f in reversed(range(adim)):\n",
           "    for f in range(adim):\n",
           [STREAMED + "[h4.hcy]", STREAMED + "[kz2.hcy]",
            "tests/test_complexes.py::test_quotient_projection_section_identity"]),
    Mutant("relations-unchecked-at-top", COMPLEXES,
           "        for t in range(S):\n            residual = generators(t)\n",
           "        for t in range(S if n < top else 0):\n            residual = generators(t)\n",
           ["tests/test_condition_systems.py::test_relations_are_checked_at_the_top_degree"]),
    Mutant("descent-on-free-columns-only", COMPLEXES,
           "first_residual([(1, tgt.phi, op), (-1, op_w, src.phi)], len(op))",
           "first_residual([(1, tgt.phi, [op[f] for f in src.free]),"
           " (-1, op_w, [src.phi[f] for f in src.free])], len(src.free))",
           ["tests/test_complexes.py::test_phi_operator_that_does_not_descend_is_ill_defined"]),
    Mutant("colinear-one-condition-per-w", COMPLEXES,
           "            yield from rows.values()\n",
           "            yield next(iter(rows.values()))\n",
           [STREAMED + "[h4.hcy]",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[audit h4.hcy --max-degree 4]"]),
    Mutant("plain-tau-transposed", COMPLEXES,
           "                    out[mj * S + b * W + rest][v] = x\n",
           "                    out[v][mj * S + b * W + rest] = x\n",
           ["tests/test_condition_systems.py::test_plain_cyclic_complex_is_the_ambient_cyclic_module",
            "tests/test_condition_systems.py::"
            "test_plain_cyclic_complex_is_the_per_tuple_builder[kz2-A#B-2]",
            FUNCTIONAL + "[kz3.hcy-alg_triv-2]", FUNCTIONAL + "[h4.hcy-comod_taft-2]"]),
    Mutant("power-tau-untwisted", COMPLEXES,
           "    St = twisted_antipode(mp).columns()\n",
           "    St = tabs.S\n",
           [PER_TUPLE + "[h4-2]", PER_TUPLE + "[h4-basis-changed-3]",
            "tests/test_complexes.py::test_hopf_complex_h4",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[audit h4.hcy --max-degree 4]"]),
    Mutant("power-last-face-drops-sigma", COMPLEXES,
           "            return _slot_columns([sigma], d ** n, 1, d)\n",
           "            return _slot_columns([tabs.unit], d ** n, 1, d)\n",
           [PER_TUPLE + "[kZ2-sigma-g-2]",
            "tests/test_complexes.py::test_hopf_complex_append_sigma_face",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[audit kz2.hcy --max-degree 4]"]),
    Mutant("restrict-reads-source-degree", COMPLEXES,
           "readers[n + _SHIFT[kind]], message, n)",
           "readers[n], message, n)",
           ["tests/test_complexes.py::test_algebra_complex_h4_passes",
            "tests/test_complexes.py::test_comodule_complex_kz2",
            "tests/test_acceptance.py::test_criterion_8_characteristic_map_agreement"]),
    Mutant("algebra-twist-by-the-antipode", COMPLEXES,
           "action_table(ma.action), adim, tabs.Sinv)",
           "action_table(ma.action), adim, tabs.S)",
           [REGULAR + "[h4.hcy-alg_taft-1]", REGULAR + "[h4.hcy-alg_taft-2]"]),
    Mutant("comodule-twist-m-swapped", COMPLEXES,
           "vec_acc(twist[mj][v], (m, b0), x * y)",
           "vec_acc(twist[m][v], (mj, b0), x * y)",
           [REGULAR + "[h4.hcy-comod_taft-1]", REGULAR + "[kz3.hcy-comod_triv-2]"]),
    Mutant("slot-map-drops-low-offset", COMPLEXES,
           "    terms = [[(y * low, c) for y, c in t] for t in table]\n",
           "    terms = [[(y, c) for y, c in t] for t in table]\n",
           [SLOT_MAP, PER_TUPLE + "[h4-3]", FUNCTIONAL + "[h4.hcy-alg_taft-3]",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[audit h4.hcy --max-degree 4]"]),
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
    Mutant("push-target-base-of-keys", LINALG,
           "        tplace *= tbase\n",
           "        tplace *= kbase\n",
           [PUSH, "tests/test_cup.py::test_psi_cross_certificate",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[cup kz2.hcy --kind crossed --p 0 --q 3]"]),
    Mutant("contract-drops-offset", LINALG,
           "                    t += offset\n",
           "",
           [PUSH, "tests/test_cup.py::test_psi_cross_certificate",
            "tests/test_cup.py::test_crossed_explicit_trivial_a",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[cup kz2.hcy --kind traces --p 0 --q 3]"]),
    Mutant("residuals-stops-at-first", LINALG,
           "sorted(acc.items())}\n            acc.clear()\n",
           "sorted(acc.items())}\n            return\n",
           ["tests/test_certificates.py::test_residuals_are_every_nonzero_column_of_the_sum",
            PINNED + "[h4-comul]", PINNED + "[kz2-act]"]),
    Mutant("law-drops-sign", HOPF,
           "        plans = [(sign, None if a is None",
           "        plans = [(1, None if a is None",
           ["tests/test_hopf.py::test_group_algebra_kz2_valid",
            "tests/test_hopf.py::test_sweedler_h4_valid",
            PINNED + "[kz2-sayd-stability]"]),
    Mutant("law-skips-identity-term", HOPF,
           "                 for sign, a, b in terms]\n",
           "                 for sign, a, b in terms if a is not None or b is not None]\n",
           ["tests/test_hopf.py::test_group_algebra_kz2_valid",
            PINNED + "[kz2-sayd-stability]"]),
    Mutant("product-plan-factors-swapped", COMPLEXES,
           "tensor_kron(self.c1.op(kind, n, i), self.c2.op(kind, n, i))",
           "tensor_kron(self.c2.op(kind, n, i), self.c1.op(kind, n, i))",
           ["tests/test_complexes.py::test_diagonal_equals_product",
            "tests/test_certificates.py::test_product_tau_powers_are_the_powers_of_its_tau",
            "tests/test_cup.py::test_psi_r_certificate_kz4"]),
    Mutant("product-plan-rows-from-source", LINALG,
           "    brows, bplan = b.rows, b.plan\n",
           "    brows, bplan = b.cols, b.plan\n",
           [COLUMN_FORM, "tests/test_complexes.py::test_diagonal_equals_product"]),
    Mutant("kron-rows-of-the-wrong-factor", LINALG,
           "    brows, bplan = b.rows, b.plan\n",
           "    brows, bplan = a.rows, b.plan\n",
           [COLUMN_FORM, "tests/test_complexes.py::test_diagonal_equals_product",
            "tests/test_hopf.py::test_sweedler_h4_valid"]),
    Mutant("compose-leaves-a-column-unsorted", LINALG,
           "    col.sort()\n    return tuple(col)\n",
           "    return tuple(col)\n",
           [COLUMN_FORM]),
    Mutant("from-text-accepts-a-row-out-of-order", COMPLEXES,
           "            elif col[-1][0] < r:\n",
           "            elif col[-1][0] != r:\n",
           ["tests/test_complexes.py::"
            "test_resigned_dump_with_two_entries_of_a_column_swapped_is_refused"]),
    Mutant("intertwines-src-plan-of-tgt", COMPLEXES,
           "(1, plans[n + _SHIFT[key[0]]], src.op(*key).plan)",
           "(1, plans[n + _SHIFT[key[0]]], tgt.op(*key).plan)",
           ["tests/test_cup.py::test_psi_c_and_psi_certificates_kz2",
            "tests/test_cup.py::test_psi_r_certificate_kz4",
            "tests/test_certificates.py::"
            "test_chain_map_failure_on_the_product_view_is_that_of_the_built_product"]),
    Mutant("walk-drops-last-face", COMPLEXES,
           "            for i in range(n + 2):\n                yield \"face\", n, i\n",
           "            for i in range(n + 1):\n                yield \"face\", n, i\n",
           ["tests/test_complexes.py::test_structure_maps_list_every_map_once_degree_by_degree[1]",
            "tests/test_complexes.py::test_assemble_gives_back_a_built_complex",
            "tests/test_complexes.py::test_complex_dump_round_trip"]),
    Mutant("intertwines-skips-tau", COMPLEXES,
           "    for key in structure_maps(src.N, src.top):\n        n = key[1]\n",
           "    for key in structure_maps(src.N, src.top):\n        n = key[1]\n"
           "        if key[0] == \"tau\":\n            continue\n",
           [CONJUGATION + "[key2-cyclic operator at degree 2]",
            CHAIN_MAP + "[key2-convolution pairing: cyclic operator at degree 1]",
            "tests/test_certificates.py::test_conjugation_failure_witness_is_the_residual_of_its_column"]),
    Mutant("intertwines-skips-degeneracies", COMPLEXES,
           "    for key in structure_maps(src.N, src.top):\n        n = key[1]\n",
           "    for key in structure_maps(src.N, src.top):\n        n = key[1]\n"
           "        if key[0] == \"degen\":\n            continue\n",
           [CONJUGATION + "[key1-degeneracy 1 at degree 2]",
            CHAIN_MAP + "[key1-convolution pairing: degeneracy 0 at degree 1]"]),
    Mutant("is-b-closed-reads-lower-b", CUP,
           "    return cx.b[n].apply(vec) == {}",
           "    return cx.b[n - 1].apply(vec) == {}",
           ["tests/test_certificates.py::test_cups_of_one_context_build_each_b_family_once",
            "tests/test_cup.py::test_aw_cup_sigma_g_closed_but_not_cyclic_at_1_1",
            "tests/test_cup.py::test_shuffle_cup_traces_closed_cyclic",
            "tests/test_cup.py::test_cotrace_cup_general_pairs_closed",
            "tests/test_cup.py::test_aw_cup_rejects_non_cocycle",
            OPEN_INPUT + "[aw-second]", OPEN_INPUT + "[shuffle-first]",
            OPEN_INPUT + "[shuffle-second]", OPEN_INPUT + "[cotrace-first]",
            OPEN_INPUT + "[cotrace-second]"]),
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
    Mutant("pairing-slot-ignores-action", CUP,
           "_slot(ca.action.entries, ca.mc.space.dim, ca.ma.space.dim)",
           "_slot({key: {key[1]: 1} for key in ca.action.entries}, ca.mc.space.dim,"
           " ca.ma.space.dim)",
           [ORACLE + "[kz2]", ORACLE + "[kz3]", ORACLE + "[kz2-sigma-g]",
            "tests/test_cup.py::test_psi_certificates_sigma_g",
            "tests/test_cup.py::test_psi_r_unit_subhopf_equals_psi"]),
    Mutant("pairing-tdim-of-coalgebra", CUP,
           "_slot(ca.action.entries, ca.mc.space.dim, ca.ma.space.dim)",
           "_slot(ca.action.entries, ca.mc.space.dim, ca.mc.space.dim)",
           [ORACLE + "[kz2-counit-on-q3]"]),
    Mutant("memo-before-certificate", CUP,
           "            certify_chain_map(self.diag, tgt, mats, what)\n"
           "            self._certified[what] = mats\n",
           "            self._certified[what] = mats\n"
           "            certify_chain_map(self.diag, tgt, mats, what)\n",
           [NOT_KEPT + "[algebra]", NOT_KEPT + "[convolution]", NOT_KEPT + "[crossed]",
            NOT_KEPT + "[relative]"]),
    Mutant("conv-cx-one-degree-short", CUP,
           "plain_cyclic_complex(self.conv.algebra, self.N)",
           "plain_cyclic_complex(self.conv.algebra, self.N - 1)",
           ["tests/test_cup.py::test_psi_c_certificate_trivial",
            "tests/test_cup.py::test_psi_c_and_psi_certificates_kz2", ORACLE + "[kz3]"]),
    Mutant("class-rep-of-class-0", CUP,
           "if self.proj.column(hh) == {j: 1})",
           "if self.proj.column(hh) == {0: 1})",
           ["tests/test_cup.py::test_psi_r_unit_subhopf_equals_psi",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[cup kz4_relative.hcy --kind relative --p 0 --q 3]"]),
    Mutant("merge-worker-after-parent", CLI,
           "    for name in spec.complexes:\n        ident.merge(parts[name][0])\n",
           "    for name in parts:\n        ident.merge(parts[name][0])\n",
           [TWO + "test_the_merge_keeps_declaration_order_when_the_sides_interleave"]),
    Mutant("failed-worker-groups-dropped", CLI,
           "            if not all(name in parts for name in group):\n",
           "            if False:\n",
           [TWO + "test_a_failing_worker_gives_the_serial_report[%s]" % how
            for how in ("cannot-start", "exits-non-zero", "garbage-reply", "killed",
                        "raises-in-a-group", "truncated-reply", "wrong-shape",
                        "wrong-tail-shape")]),
    Mutant("audit-tail-merged-first", CLI,
           "    ident, cohom = Report(), Report()\n    for name in spec.complexes:\n",
           "    ident, cohom = Report(), Report()\n    if tail_part is not None:\n"
           "        rep.merge(tail_part)\n        tail = tail_part = None\n"
           "    for name in spec.complexes:\n",
           [TWO + "test_the_merge_keeps_declaration_order_when_the_sides_interleave",
            TWO + "test_two_processes_give_the_serial_report_and_cache[audit-warm]",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[audit kz4_relative.hcy --max-degree 4]",
            "tests/test_failure_reports.py::test_audit_of_a_kernel_self_check_that_fails"]),
    Mutant("worker-tail-not-rerun", CLI,
           "return parts, None if closing is None else _headless(*closing)",
           "return parts, Report() if closing is None else _headless(*closing)",
           [TWO + "test_a_failing_worker_gives_the_serial_report[raises-in-the-tail]",
            TWO + "test_a_tail_that_raises_raises_here_after_the_complexes",
            "tests/test_failure_reports.py::"
            "test_a_certificate_failure_that_escapes_a_command_is_fatal"]),
    Mutant("coalgebra-split-from-hopf", CLI,
           "            held[1].append(name)\n            held = None\n            continue\n",
           "            held = None\n",
           [TWO + "test_a_coalgebra_complex_stays_with_the_hopf_complex_that_feeds_it[%s]" % k
            for k in ("h4", "kz2", "kz2-quotient-replaced")] + QUOTIENT_TAKEN),
    Mutant("any-coalgebra-is-a-hopf-quotient", CLI,
           "    return (acts_on_itself(mc, mp.hopf)\n",
           "    return True or (acts_on_itself(mc, mp.hopf)\n",
           [TWO + "test_a_coalgebra_complex_stays_with_the_hopf_complex_that_feeds_it"
            "[kz2-quotient-replaced]",
            "tests/test_audit_pass.py::test_quotient_reused_only_for_the_same_structure"]),
    Mutant("group-drops-quotient", CLI,
           "parts[name] = _complex_part(spec, spec_text, name, flags, quotients,",
           "parts[name] = _complex_part(spec, spec_text, name, flags, [],",
           QUOTIENT_TAKEN + ["tests/test_audit_pass.py::test_no_cache_audit_builds_each_complex_once"]),
    Mutant("negative-q-accepted", CLI,
           '    pc.add_argument("--q", type=nonnegative_int, required=True)\n',
           '    pc.add_argument("--q", type=int, required=True)\n',
           [FAILURES + "test_a_negative_degree_is_refused[cup-q]"]),
    Mutant("cache-write-error-reraised", CLI,
           '        except OSError:\n            return cx, "unwritten"\n',
           '        except OSError:\n            raise\n',
           [FAILURES + "test_a_failed_cache_write_leaves_no_temporary_file",
            FAILURES + "test_a_cache_directory_that_is_a_file_is_a_miss"]),
    Mutant("worker-stopped-without-clean-up", CLI,
           "    os.kill(pid, signal.SIGTERM)\n",
           "    os.kill(pid, signal.SIGKILL)\n",
           [TWO + "test_a_parent_that_raises_stops_and_reaps_its_worker"]),
    Mutant("b0-plus-tau-squared-at-even-n", COHOMOLOGY,
           "t + t2 if n % 2 else t - t2",
           "t + t2",
           [BOUNDARY_WITNESS + "[3-B.B != 0 at degree 4]",
            "tests/test_cohomology.py::test_connes_B1_on_kz2_hopf_complex",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[audit kz2.hcy --max-degree 4]"]),
    Mutant("tau-power-kept-after-tau-replaced", COMPLEXES,
           "        if powers is None or powers[0] is not t:\n",
           "        if powers is None:\n",
           ["tests/test_certificates.py::"
            "test_cocyclic_violation_witness_is_the_residual_of_its_column",
            BOUNDARY_WITNESS + "[2-bB + Bb != 0 at degree 2]",
            BOUNDARY_WITNESS + "[3-B.B != 0 at degree 4]"]),
    Mutant("norm-drops-last-power", COHOMOLOGY,
           "    for k in range(1, n + 1):\n        power = cx.tau_power(n, k)\n",
           "    for k in range(1, n):\n        power = cx.tau_power(n, k)\n",
           [BOUNDARY_WITNESS + "[2-bB + Bb != 0 at degree 2]",
            "tests/test_cohomology.py::test_connes_B_certificates_on_fixtures",
            "tests/test_reference_reports.py::test_report_matches_reference"
            "[audit h4.hcy --max-degree 4]"]),
    Mutant("entry-exits-with-status-0", CLI,
           "        sys.exit(status)\n    os._exit(status)\n",
           "        sys.exit(status)\n    os._exit(0)\n",
           [LIFECYCLE + "[exit-1-invalid]", LIFECYCLE + "[exit-2-unreadable]",
            LIFECYCLE + "[exit-2-unwritable-out]"]),
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
