import hashlib
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic.linalg import (SparseMatrix, compose, first_residual, invert_matrix,
                               tensor_kron, vec_acc, vec_axpy)
from hopfcyclic.complexes import (build_coalgebra_complex, build_algebra_complex,
                                  build_comodule_algebra_complex, build_hopf_complex,
                                  check_cocyclic, tensor_bicocyclic, CocyclicViolation,
                                  diagonal, plain_cyclic_complex, build_power_complex,
                                  CocyclicComplex, complex_to_text, complex_from_text,
                                  content_hash, structure_maps, same_complex,
                                  ConjugationFailure)
from hopfcyclic.actions import trivial_sayd, mpi_coefficients, relative_coalgebra
from hopfcyclic.fixtures import (trivial_hopf, group_algebra, sweedler_h4,
                                 self_module_coalgebra, swap_module_algebra,
                                 self_comodule_algebra, trivial_comodule_algebra,
                                 trivial_module_algebra, mpi_trivial, mpi_kz2_sigma_g,
                                 mpi_h4, kz4_with_kz2)


def complexes_equal(a, b):
    if a.dims() != b.dims() or a.N != b.N:
        return False
    for n in range(a.N + 1):
        for i in range(n + 2):
            if a.face(n, i) != b.face(n, i):
                return False
    for n in range(1, a.top + 1):
        for j in range(n):
            if a.degen(n, j) != b.degen(n, j):
                return False
    for n in range(a.top + 1):
        if a.tau(n) != b.tau(n):
            return False
    return True


# -- small frozen facts ---------------------------------------------------------

def test_trivial_coalgebra_complex_is_constant():
    h = trivial_hopf()
    data = build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 3)
    assert data.complex.dims() == [1, 1, 1, 1, 1]
    for n in range(4):
        for i in range(n + 2):
            assert data.complex.face(n, i) == SparseMatrix.identity(1)
    assert check_cocyclic(data.complex) == []

def test_kz2_coalgebra_complex_dims():
    # M (x)_H C^(n+1) over the group algebra collapses one tensor factor
    h = group_algebra(2)
    data = build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 3)
    assert data.complex.dims() == [1, 2, 4, 8, 16]
    assert check_cocyclic(data.complex) == []

def test_kz2_sigma_g_coalgebra_complex():
    data = build_coalgebra_complex(self_module_coalgebra(group_algebra(2)),
                                   mpi_coefficients(mpi_kz2_sigma_g()), 3)
    assert data.complex.dims() == [1, 2, 4, 8, 16]
    assert check_cocyclic(data.complex) == []

def test_tau_degree_zero_is_identity_trivial_coefficients():
    h = group_algebra(2)
    data = build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 2)
    assert data.complex.tau(0) == SparseMatrix.identity(1)

def test_corrupted_tau_reported_under_cyclic_order():
    h = group_algebra(2)
    cx = build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 2).complex
    cx.maps["tau", 2, 0] = cx.tau(2).scale(-1)
    bad = check_cocyclic(cx)
    assert any(v.family == "cyclic-order" and v.degree == 2 for v in bad)


# -- algebra complex ----------------------------------------------------------------

def test_algebra_complex_trivial():
    h = trivial_hopf()
    data = build_algebra_complex(trivial_module_algebra(h, h.alg), trivial_sayd(h), 3)
    assert data.complex.dims() == [1, 1, 1, 1, 1]
    assert check_cocyclic(data.complex) == []

def test_algebra_complex_tau0_identity():
    # degree 0 cyclic operator is the identity when coefficients are trivial
    h = group_algebra(2)
    data = build_algebra_complex(swap_module_algebra(), trivial_sayd(h), 2)
    assert data.complex.tau(0) == SparseMatrix.identity(data.complex.dim(0))

def test_algebra_complex_deterministic():
    h = group_algebra(2)
    a = build_algebra_complex(swap_module_algebra(), trivial_sayd(h), 3)
    b = build_algebra_complex(swap_module_algebra(), trivial_sayd(h), 3)
    assert complexes_equal(a.complex, b.complex)

def test_algebra_complex_h4_passes():
    data = build_algebra_complex(
        __import__("hopfcyclic.fixtures", fromlist=["adjoint_module_algebra"]).adjoint_module_algebra(sweedler_h4()),
        mpi_coefficients(mpi_h4()), 2)
    assert check_cocyclic(data.complex) == []


# -- comodule algebra complex ----------------------------------------------------------

def test_comodule_complex_trivial():
    h = trivial_hopf()
    data = build_comodule_algebra_complex(trivial_comodule_algebra(h), trivial_sayd(h), 3)
    assert data.complex.dims() == [1, 1, 1, 1, 1]
    assert check_cocyclic(data.complex) == []

def test_comodule_complex_kz2():
    h = group_algebra(2)
    data = build_comodule_algebra_complex(self_comodule_algebra(h), trivial_sayd(h), 3)
    # colinear maps B^(n+1) -> Q over the self coaction: one functional per
    # group-degree-zero monomial tuple
    assert data.complex.dims() == [1, 2, 4, 8, 16]
    assert check_cocyclic(data.complex) == []

def test_comodule_tau_squared_identity_degree_one():
    h = group_algebra(2)
    data = build_comodule_algebra_complex(self_comodule_algebra(h), trivial_sayd(h), 2)
    t1 = data.complex.tau(1)
    assert compose(t1, t1) == SparseMatrix.identity(data.complex.dim(1))


# -- Hopf complex and the normalization isomorphism -------------------------------------

def test_hopf_complex_kz2_dims_and_certificate():
    hd = build_hopf_complex(mpi_trivial(group_algebra(2)), 2)
    # requested degrees 0..2 plus the degree-3 target for top faces
    assert hd.power.dims() == [1, 2, 4, 8]
    assert hd.power.dims()[:3] == [1, 2, 4]
    assert check_cocyclic(hd.power) == []
    assert check_cocyclic(hd.quot.complex) == []
    for n in range(3):
        assert invert_matrix(hd.iso[n]) is not None

def test_hopf_complex_append_sigma_face():
    # the last coface appends sigma: over (eps, g) on the group algebra the
    # degree-1 last face sends h to h (x) g
    hd = build_hopf_complex(mpi_kz2_sigma_g(), 2)
    f = hd.power.face(1, 2)
    assert f.column(0) == {1: 1}     # e -> e (x) g
    assert f.column(1) == {3: 1}     # g -> g (x) g

def test_hopf_complex_degree_zero_tau():
    hd = build_hopf_complex(mpi_trivial(group_algebra(3)), 2)
    assert hd.power.tau(0) == SparseMatrix.identity(1)

def test_hopf_complex_h4():
    hd = build_hopf_complex(mpi_h4(), 2)
    assert hd.power.dims() == [1, 4, 16, 64]
    assert check_cocyclic(hd.power) == []

def test_hopf_complex_rejects_non_sayd_pair():
    with pytest.raises(ValueError):
        build_hopf_complex(mpi_trivial(sweedler_h4()), 2)


@pytest.mark.parametrize("key,message", [(("face", 1, 2), "face 2 at degree 1"),
                                         (("degen", 2, 1), "degeneracy 1 at degree 2"),
                                         (("tau", 2, 0), "cyclic operator at degree 2")])
def test_conjugation_certificate_names_the_broken_operator(monkeypatch, key, message):
    import hopfcyclic.complexes as complexes
    build_power = complexes.build_power_complex

    def flipped(mp, N):
        cx = build_power(mp, N)
        return CocyclicComplex.assemble(
            cx.N, cx.dims(), lambda *k: cx.op(*k).scale(-1) if k == key else cx.op(*k))

    monkeypatch.setattr(complexes, "build_power_complex", flipped)
    with pytest.raises(ConjugationFailure) as e:
        build_hopf_complex(mpi_kz2_sigma_g(), 2)
    assert str(e.value) == message


# -- the structure-map walk ------------------------------------------------------------

@pytest.mark.parametrize("N", [0, 1, 3])
def test_structure_maps_list_every_map_once_degree_by_degree(N):
    top = N + 1
    keys = list(structure_maps(N, top))
    assert len(keys) == len(set(keys))
    assert set(keys) == ({("face", n, i) for n in range(N + 1) for i in range(n + 2)}
                         | {("degen", n, j) for n in range(1, top + 1) for j in range(n)}
                         | {("tau", n, 0) for n in range(top + 1)})
    kinds = ("face", "degen", "tau")
    assert keys == sorted(keys, key=lambda k: (k[1], kinds.index(k[0]), k[2]))

def test_assemble_gives_back_a_built_complex():
    alg, coalg = _kz2_pair()
    for cx in (alg, coalg, build_hopf_complex(mpi_h4(), 2).power):
        back = CocyclicComplex.assemble(cx.N, cx.dims(), cx.op)
        assert (back.N, back.top, back.dims()) == (cx.N, cx.top, cx.dims())
        assert set(back.maps) == (
            {("face", n, i) for n in range(cx.N + 1) for i in range(n + 2)}
            | {("degen", n, j) for n in range(1, cx.top + 1) for j in range(n)}
            | {("tau", n, 0) for n in range(cx.top + 1)})
        assert list(back.maps) == list(structure_maps(cx.N, cx.top))
        assert back.maps == cx.maps
        assert same_complex(back, cx)

@pytest.mark.parametrize("key", [("face", 1, 2), ("degen", 2, 1), ("tau", 2, 0)])
def test_same_complex_rejects_one_changed_entry(key):
    alg, _ = _kz2_pair()
    m = alg.op(*key)
    ent = dict(m.entries)
    ent[0, 0] = ent.get((0, 0), 0) + 1 or 2     # changed, and never a stored zero
    changed = SparseMatrix(m.rows, m.cols, ent)
    copy = CocyclicComplex.assemble(alg.N, alg.dims(),
                                    lambda *k: changed if k == key else alg.op(*k))
    assert not same_complex(alg, copy)
    assert not same_complex(copy, alg)


# -- tensor products ----------------------------------------------------------------------

def _kz2_pair(N=2):
    h = group_algebra(2)
    M = trivial_sayd(h)
    alg = build_algebra_complex(swap_module_algebra(), M, N).complex
    coalg = build_coalgebra_complex(self_module_coalgebra(h), M, N).complex
    return alg, coalg

# the bicocyclic module b of two complexes as a grid: the oracle of its
# diagonal, the product view

def horizontal(b, kind, p, q, i):
    """The map of key (kind, p, i) of b.c1 at the spot (p, q)."""
    return tensor_kron(b.c1.op(kind, p, i), SparseMatrix.identity(b.c2.dim(q)))

def vertical(b, kind, p, q, i):
    """The map of key (kind, q, i) of b.c2 at the spot (p, q)."""
    return tensor_kron(SparseMatrix.identity(b.c1.dim(p)), b.c2.op(kind, q, i))

def check_bicocyclic(b, vertical=vertical):
    """Every horizontal face and tau commutes with every vertical one: the
    violations, each with its first failing column and the residual
    there."""
    bad = []
    H = lambda *key: horizontal(b, *key)
    V = lambda *key: vertical(b, *key)

    def commute(family, p, indices, f, g, f2, g2):
        """f . g = f2 . g2, checked over the columns of g."""
        hit = first_residual([(1, f.plan, g.plan), (-1, f2.plan, g2.plan)], g.cols)
        if hit is not None:
            bad.append(CocyclicViolation(family, p, indices, *hit))

    for p in range(b.N + 1):
        for q in range(b.N + 1):
            if p <= b.N - 1 and q <= b.N - 1:
                for i in range(p + 2):
                    for j in range(q + 2):
                        commute("h-v-face", p, (q, i, j), H("face", p, q + 1, i),
                                V("face", p, q, j), V("face", p + 1, q, j), H("face", p, q, i))
            commute("h-v-cyclic", p, (q,), H("tau", p, q, 0), V("tau", p, q, 0),
                    V("tau", p, q, 0), H("tau", p, q, 0))
    return bad

def test_bicocyclic_commutation():
    alg, coalg = _kz2_pair()
    assert check_bicocyclic(tensor_bicocyclic(alg, coalg)) == []

def test_bicocyclic_commutation_names_the_failing_pair():
    # a vertical face replaced by zero: h-v-face commutation fails where it
    # is the inner map, at p=0, q=0, j=0 for both horizontal faces i, with
    # the witness column and residual -(vertical face . horizontal face) there
    alg, coalg = _kz2_pair()
    b = tensor_bicocyclic(alg, coalg)
    real = vertical(b, "face", 0, 0, 0)
    zero = SparseMatrix(real.rows, real.cols, {})
    expected = compose(vertical(b, "face", 1, 0, 0), horizontal(b, "face", 0, 0, 0))
    column = min(c for _, c in expected.entries)
    bad = check_bicocyclic(b, lambda b, *key: zero if key == ("face", 0, 0, 0)
                           else vertical(b, *key))
    assert [(v.family, v.degree, v.indices) for v in bad] == \
        [("h-v-face", 0, (0, 0, 0)), ("h-v-face", 0, (0, 1, 0))]
    assert bad[0].column == column
    assert bad[0].residual == {r: -x for (r, c), x in sorted(expected.entries.items()) if c == column}

def test_diagonal_passes_cocyclic():
    alg, coalg = _kz2_pair()
    d = diagonal(tensor_bicocyclic(alg, coalg))
    assert check_cocyclic(d) == []

def test_diagonal_with_point_complex_is_original():
    h = trivial_hopf()
    point = build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 2).complex
    alg, _ = _kz2_pair()
    d = diagonal(tensor_bicocyclic(alg, point))
    assert complexes_equal(d, alg)

def composite(b, kind, n, i):
    """The diagonal's map of key (kind, n, i) composed from the horizontal
    and vertical maps of the bicocyclic module b: the oracle for every
    operator of the product."""
    q = n + {"face": 1, "degen": -1, "tau": 0}[kind]
    return compose(horizontal(b, kind, n, q, i), vertical(b, kind, n, n, i))

def test_diagonal_equals_product():
    # the factors come from every builder: the algebra complex, the
    # coalgebra complex through Phi (kZ2 over itself) and as a
    # QuotientSpace (the relative coalgebra kZ4/kZ2), the comodule-algebra
    # complex and the power complex of H4
    h = group_algebra(2)
    twisted = mpi_coefficients(mpi_kz2_sigma_g())
    kz4, k = kz4_with_kz2()
    relc, _ = relative_coalgebra(kz4, k)
    alg = build_algebra_complex(swap_module_algebra(), twisted, 2).complex
    pairs = [_kz2_pair(),
             (alg, build_comodule_algebra_complex(self_comodule_algebra(h), twisted, 3).complex),
             (alg, build_coalgebra_complex(relc, trivial_sayd(kz4), 2).complex),
             (build_power_complex(mpi_h4(), 2), alg)]
    for c1, c2 in pairs:
        b = tensor_bicocyclic(c1, c2)
        assert diagonal(b) is b
        assert (b.N, b.dims()) == (2, [c1.dim(n) * c2.dim(n) for n in range(4)])
        for key in structure_maps(b.N, b.top):
            assert b.op(*key) == composite(b, *key), key
        assert check_cocyclic(b) == []


# -- plain cyclic complex of an algebra ---------------------------------------------------

def test_plain_cyclic_complex_of_matrixlike_algebra():
    ab = swap_module_algebra().alg
    cx = plain_cyclic_complex(ab, 2)
    # no equivariance conditions: full dual of A^(x)(n+1)
    assert cx.dims() == [2, 4, 8, 16]
    assert check_cocyclic(cx) == []


# -- serialization --------------------------------------------------------------------------

def test_complex_dump_round_trip():
    alg, coalg = _kz2_pair()
    text = complex_to_text(alg, content_hash("fixture"))
    back = complex_from_text(text)
    assert complexes_equal(alg, back)
    assert back.content_hash == content_hash("fixture")


def _resigned(text, edit):
    """text with its body's lines edited by edit and its digest re-signed,
    so that only the layout checks of complex_from_text can refuse it."""
    head, _, body = text.partition("\n")
    body = "\n".join(edit(body.splitlines())) + "\n"
    return "%s %s\n%s" % (head.rpartition(" ")[0], hashlib.sha256(body.encode()).hexdigest(), body)

def _set_line(k, new):
    return lambda lines: lines[:k] + [new] + lines[k + 1:]

@pytest.mark.parametrize("edit,message", [
    (_set_line(0, "N 2"), "complex dump lacks its N/top line"),
    (_set_line(0, "N 3 top 3"), "complex dump has N 3 and top 3"),
    (_set_line(2, "degree 1 dim two"), "complex dump lacks the dim of degree 1"),
    (_set_line(7, "2 0 1"), "complex dump block 'face 0 0' has entry '2 0 1'"),
    (lambda lines: lines[:8] + lines[7:], "complex dump block 'face 0 0' repeats an entry"),
    (lambda lines: lines[:8] + lines[9:], "complex dump lacks block 'face 0 1' of shape 2x1"),
    (_set_line(7, "1 0"), "complex dump block 'face 0 0' has entry '1 0'"),
    (_set_line(7, "1"), "complex dump block 'face 0 0' has entry '1'"),
], ids=["no-N-top", "N-not-below-top", "no-dim", "entry-out-of-range", "repeated-entry",
        "no-later-label", "two-fields", "one-field"])
def test_resigned_dump_with_a_bad_layout_names_its_fault(edit, message):
    text = complex_to_text(_kz2_pair()[0], content_hash("fixture"))
    lines = text.splitlines()[1:]
    # the edits address these lines: N/top, the dim of degree 1, the block
    # face 0 0 (2 x 1) with its one entry, and the label of the next block
    assert lines[0] == "N 2 top 3" and lines[2] == "degree 1 dim 2"
    assert lines[5:10] == ["face 0 0", "2 1", "1 0 1", "face 0 1", "2 1"]
    with pytest.raises(ValueError) as e:
        complex_from_text(_resigned(text, edit))
    assert str(e.value) == message


def test_resigned_dump_with_two_entries_of_a_column_swapped_is_refused():
    # the dump lists each column's rows in ascending order, and the reader
    # parses a block straight into its columns: the first two entries of
    # one column, swapped, are refused at the one that comes second (the
    # faces of H4's power complex hold columns of several entries)
    text = complex_to_text(build_power_complex(mpi_h4(), 2), content_hash("fixture"))
    lines = text.splitlines()[1:]
    label, seen = None, {}
    for k, line in enumerate(lines):
        words = line.split()
        if not line[0].isdigit():
            label, seen = line, {}
        elif len(words) == 3:
            if words[1] in seen:
                first, second = seen[words[1]], k
                break
            seen[words[1]] = k
    swap = lambda ls: (ls[:first] + [ls[second]] + ls[first + 1:second] + [ls[first]]
                       + ls[second + 1:])
    with pytest.raises(ValueError) as e:
        complex_from_text(_resigned(text, swap))
    assert str(e.value) == ("complex dump block %r has entry %r out of order"
                            % (label, lines[first]))


# -- shared Hopf tables ------------------------------------------------------------

def test_hopf_tables_built_once_with_legs_of_the_iterated_coproduct():
    from hopfcyclic.complexes import HopfTables
    for h in (group_algebra(3), sweedler_h4()):
        tabs = HopfTables.of(h)
        assert HopfTables.of(h) is tabs


# the diagonal action on flat indices, degree by degree, for the regular and
# the adjoint action of kZ3 and H4; lookups[n] covers V^(x)(n+1), n <= 4
_DEGREE_TABLES = {}

def _degree_tables(name, kind):
    from hopfcyclic.complexes import HopfTables, _acting_on
    from hopfcyclic.fixtures import adjoint_module_algebra
    from hopfcyclic.hopf import iterated_coproduct
    key = (name, kind)
    if key not in _DEGREE_TABLES:
        h = {"kZ3": group_algebra(3), "H4": sweedler_h4()}[name]
        action = h.alg.mul if kind == "regular" else adjoint_module_algebra(h).action
        lookups = list(HopfTables.of(h).diag_act_degrees(_acting_on(action), h.dim, 4))
        coproducts = [iterated_coproduct(h.coalg, k) for k in range(1, 6)]
        _DEGREE_TABLES[key] = (h, action, coproducts, lookups)
    return _DEGREE_TABLES[key]

def diagonal_action_oracle(h, action, coproducts, u, n, t):
    """u acting on the basis tensor of flat index t in V^(x)(n+1): each
    term of the (n+1)-fold coproduct of u acts leg by leg through the
    action tensor's values, and the slots multiply out on flat indices."""
    from hopfcyclic.spaces import MultiIndex
    vdim = action.domains[1].dim
    legs_of, slots_of = MultiIndex((h.dim,) * (n + 1)), MultiIndex((vdim,) * (n + 1))
    out = {}
    for f, x in coproducts[n].value((u,)).items():
        terms = {0: x}
        for leg, v in zip(legs_of.unflat(f), slots_of.unflat(t)):
            image = action.value((leg, v))
            terms = {k * vdim + j: y * z for k, y in terms.items() for j, z in image.items()}
        for k, y in terms.items():
            vec_acc(out, k, y)
    return out

@given(st.sampled_from(["kZ3", "H4"]), st.sampled_from(["regular", "adjoint"]),
       st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_degree_by_degree_action_matches_diag_act(name, kind, n, data):
    h, action, coproducts, lookups = _degree_tables(name, kind)
    t = data.draw(st.integers(0, h.dim ** (n + 1) - 1))
    hvec = data.draw(st.dictionaries(st.integers(0, h.dim - 1), st.integers(-3, 3)))
    row = lookups[n](t)
    got, expected = {}, {}
    for u, c in hvec.items():
        vec_axpy(got, c, row.get(u, {}))
        vec_axpy(expected, c, diagonal_action_oracle(h, action, coproducts, u, n, t))
    assert got == expected

@pytest.mark.parametrize("name", ["kZ3", "H4"])
@pytest.mark.parametrize("kind", ["regular", "adjoint"])
def test_degree_by_degree_action_every_row(name, kind):
    h, action, coproducts, lookups = _degree_tables(name, kind)
    for n, lookup in enumerate(lookups):
        for t in range(h.dim ** (n + 1)):
            row = lookup(t)
            assert sorted(row) == sorted(u for u in range(h.dim) if row.get(u))
            for u in range(h.dim):
                assert diagonal_action_oracle(h, action, coproducts, u, n, t) == row.get(u, {})


# -- failure paths and realization invariants -----------------------------------

def test_ill_defined_raised_for_broken_action():
    # bypass validation: a corrupted module-coalgebra action cannot descend
    from hopfcyclic.complexes import IllDefined
    from hopfcyclic.actions import ModuleCoalgebra, trivial_sayd
    from hopfcyclic.spaces import StructureTensor
    import pytest as _pytest
    h = group_algebra(2)
    mc = self_module_coalgebra(h)
    ent = dict(mc.action.entries)
    ent[(1, 1)] = {0: 1, 1: 1}      # g.g corrupted
    broken = ModuleCoalgebra(h, mc.coalg, StructureTensor(mc.action.domains, mc.action.codomain, ent))
    with _pytest.raises(IllDefined) as info:
        build_coalgebra_complex(broken, trivial_sayd(h), 2)
    # the witness: the relation pivot whose image is left in the quotient
    err = info.value
    assert str(err) == "coalgebra operator does not descend at degree 2"
    assert (err.degree, err.column, err.residual) == (2, 0, {5: 1})

def test_ill_defined_at_the_last_relation_row():
    # Delta(g) = g (x) e breaks the coalgebra but not the relations, so at
    # degree 0 the one relation row e - g (its RREF's first and last row)
    # has the image [e(x)e] - [g(x)e] under the zeroth coface
    from hopfcyclic.complexes import IllDefined
    from hopfcyclic.actions import ModuleCoalgebra, trivial_sayd
    from hopfcyclic.hopf import CoalgebraData
    from hopfcyclic.spaces import StructureTensor
    import pytest as _pytest
    h = group_algebra(2)
    mc = self_module_coalgebra(h)
    com = mc.coalg.comul
    ent = dict(com.entries)
    ent[(1,)] = {2: 1}              # Delta(g) = g (x) e
    coalg = CoalgebraData(mc.coalg.space, StructureTensor(com.domains, com.codomain, ent),
                          mc.coalg.counit)
    with _pytest.raises(IllDefined) as info:
        build_coalgebra_complex(ModuleCoalgebra(h, coalg, mc.action), trivial_sayd(h), 2)
    err = info.value
    assert str(err) == "coalgebra operator does not descend at degree 0"
    assert (err.degree, err.column, err.residual) == (0, 0, {0: -1, 1: 1})

def test_ill_defined_raised_for_broken_module_algebra():
    from hopfcyclic.complexes import IllDefined
    from hopfcyclic.actions import ModuleAlgebra, trivial_sayd
    from hopfcyclic.spaces import StructureTensor
    import pytest as _pytest
    ma = swap_module_algebra()
    ent = dict(ma.action.entries)
    ent[(1, 0)] = {0: 1, 1: -1}     # g.p0 corrupted
    broken = ModuleAlgebra(ma.hopf, ma.alg, StructureTensor(ma.action.domains, ma.action.codomain, ent))
    with _pytest.raises(IllDefined) as info:
        build_algebra_complex(broken, trivial_sayd(ma.hopf), 2)
    # the witness: the basis index whose image the target reader leaves over
    err = info.value
    assert str(err) == "algebra face does not preserve equivariance (deg 1)"
    assert (err.degree, err.column, err.residual) == (1, 0, {1: -1, 6: 1})

def test_ill_defined_raised_for_broken_coaction():
    from hopfcyclic.complexes import IllDefined
    from hopfcyclic.actions import ComoduleAlgebra, trivial_sayd
    from hopfcyclic.spaces import StructureTensor
    h = group_algebra(2)
    ba = self_comodule_algebra(h)
    ent = dict(ba.coaction.entries)
    ent[(1,)] = {3: 1, 0: 1}        # g -> g|g + e|e: not an algebra map
    broken = ComoduleAlgebra(h, ba.alg, StructureTensor(ba.coaction.domains, ba.coaction.codomain, ent))
    with pytest.raises(IllDefined, match="colinearity") as info:
        build_comodule_algebra_complex(broken, trivial_sayd(h), 2)
    err = info.value
    assert str(err) == "comodule-algebra face does not preserve colinearity (deg 1)"
    assert (err.degree, err.column, err.residual) == (1, 0, {3: 2})

def test_quotient_projection_section_identity():
    # through Phi, the projection of every ambient basis vector is that of
    # the QuotientSpace oracle, and it is the identity on the free columns
    from hopfcyclic.linalg import compose, SparseMatrix
    from hopfcyclic.complexes import phi_degrees, _coalgebra_by_relations
    h = group_algebra(3)
    mc, sayd = self_module_coalgebra(h), trivial_sayd(h)
    data = build_coalgebra_complex(mc, sayd, 2)
    oracle = _coalgebra_by_relations(mc, sayd, 2, "coalgebra").quotients
    for quo, deg, ref in zip(data.quotients, phi_degrees(mc, sayd, 3), oracle, strict=True):
        assert quo.free == deg.free == ref.free
        # Phi_F^-1 Phi: the quotient coordinates of every ambient column
        pi = compose(deg.inv, SparseMatrix.from_columns([dict(c) for c in deg.phi], deg.iso.rows))
        assert pi == ref.projection_matrix()
        assert compose(pi, ref.inclusion_matrix()) == SparseMatrix.identity(quo.dim)
        assert quo.include_vec({0: 3}) == {quo.free[0]: 3}


# -- the route through Phi: each certificate's failure and its witness ------------

def test_phi_that_does_not_kill_a_relation_is_ill_defined():
    # delta(e) = 1, delta(g) = 2 is no character, so m.g (x) g - m (x) e,
    # the generator (1*1 + 0)*2 + 1, has the image 2*2 - 1 under Phi
    from hopfcyclic.complexes import IllDefined
    from hopfcyclic.hopf import ModularPair
    h = group_algebra(2)
    sayd = mpi_coefficients(ModularPair(h, {0: 1, 1: 2}, {0: 1}))
    with pytest.raises(IllDefined) as info:
        build_coalgebra_complex(self_module_coalgebra(h), sayd, 1)
    err = info.value
    assert str(err) == "coalgebra normalization map does not kill the relations at degree 0"
    assert (err.degree, err.column, err.residual) == (0, 3, {0: 3})

def test_phi_whose_kernel_identity_fails_is_ill_defined():
    # S(g) = -g breaks h(1) S(h(2)) = eps(h): the column g is rebuilt as
    # g.(1 (x) S(g)) = -g, which leaves -2 g
    from hopfcyclic.complexes import IllDefined
    from hopfcyclic.hopf import HopfData
    h = group_algebra(2)
    broken = HopfData(h.alg, h.coalg, SparseMatrix(2, 2, {(0, 0): 1, (1, 1): -1}))
    with pytest.raises(IllDefined) as info:
        build_coalgebra_complex(self_module_coalgebra(broken), trivial_sayd(broken), 1)
    err = info.value
    assert str(err) == ("coalgebra relations do not span the kernel of the normalization map "
                        "at degree 0")
    assert (err.degree, err.column, err.residual) == (0, 1, {1: -2})

@given(st.integers(1, 4).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]), min_size=w, max_size=w),
                         min_size=w, max_size=w + 3))))
def test_free_and_inverse_is_a_greedy_scan_and_an_inverse(shape):
    # oracle: a SpanSolver scan of the columns from the right, and the
    # two-sided inverse T . Phi_F = Phi_F . T = 1 of the free columns
    from hopfcyclic.linalg import SpanSolver, free_and_inverse
    wdim, cols = shape
    plan = [[(r, x) for r, x in enumerate(col) if x] for col in cols]
    solver = SpanSolver()
    want = sorted(f for f in reversed(range(len(plan))) if solver.add(dict(plan[f])))
    free, inv = free_and_inverse(plan, len(plan), wdim)
    assert free == want
    if len(want) < wdim:
        assert inv is None
    else:
        phi_f = SparseMatrix.from_columns([dict(plan[f]) for f in free], wdim)
        one = SparseMatrix.identity(wdim)
        assert compose(inv, phi_f) == one and compose(phi_f, inv) == one


def test_phi_operator_that_does_not_descend_is_ill_defined():
    # (eps, 1) over the Taft algebra passes the structure test but is not
    # anti-Yetter-Drinfeld: Phi' . op = op_W . Phi fails on the ambient
    # column x at degree 0, which is not free there (the free column is g)
    from hopfcyclic.complexes import IllDefined, acts_on_itself, phi_degrees
    h = sweedler_h4()
    mc, sayd = self_module_coalgebra(h), mpi_coefficients(mpi_trivial(h))
    assert acts_on_itself(mc, h)
    assert next(phi_degrees(mc, sayd, 2)).free == [1]
    with pytest.raises(IllDefined) as info:
        build_coalgebra_complex(mc, sayd, 1)
    err = info.value
    assert str(err) == "coalgebra operator does not descend at degree 0"
    assert (err.degree, err.column, err.residual) == (0, 2, {2: 2})


# -- the slot map against its per-tuple definition -----------------------------------------

@st.composite
def slot_maps(draw):
    """(table, outer, low, wout): f sends x < len(table) to the terms (y, c)
    of table[x], y < wout; a term list may be empty and wout may be 1."""
    wout = draw(st.integers(1, 4))
    terms = st.dictionaries(st.integers(0, wout - 1), st.sampled_from([1, -1, 2, Fraction(1, 2)]),
                            max_size=wout)
    table = [sorted(t.items()) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    return table, draw(st.integers(1, 3)), draw(st.integers(1, 4)), wout


@settings(max_examples=200, deadline=None)
@given(slot_maps())
def test_slot_map_is_one_tensor_f_tensor_one_on_tuples(case):
    # the input (o, x, l) goes to the terms (o, y, l) of f(x), both tuples
    # flattened by MultiIndex; the column form lists them input by input
    # and the transposed form by output
    from hopfcyclic.complexes import _slot_columns, _slot_pullback
    from hopfcyclic.spaces import MultiIndex
    table, outer, low, wout = case
    ins, outs = MultiIndex((outer, len(table), low)), MultiIndex((outer, wout, low))
    columns = [[(outs.flat((o, y, l)), c) for y, c in table[x]]
               for o, x, l in iproduct(range(outer), range(len(table)), range(low))]
    assert [list(col) for col in _slot_columns(table, outer, low, wout)] == columns
    by_source = [{} for _ in range(outs.size)]
    for v, col in enumerate(columns):
        for k, c in col:
            by_source[k][v] = c
    assert _slot_pullback(table, outer, low, wout, outs.size) == by_source
