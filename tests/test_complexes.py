import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic.linalg import SparseMatrix, column_plan, compose, invert_matrix, vec_axpy
from hopfcyclic.complexes import (build_coalgebra_complex, build_algebra_complex,
                                  build_comodule_algebra_complex, build_hopf_complex,
                                  check_cocyclic, tensor_bicocyclic, check_bicocyclic,
                                  diagonal, product_complex, plain_cyclic_complex,
                                  CocyclicComplex, complex_to_text, complex_from_text,
                                  content_hash, structure_maps, same_complex,
                                  ConjugationFailure)
from hopfcyclic.actions import trivial_sayd, mpi_coefficients
from hopfcyclic.fixtures import (trivial_hopf, group_algebra, sweedler_h4,
                                 self_module_coalgebra, swap_module_algebra,
                                 self_comodule_algebra, trivial_comodule_algebra,
                                 trivial_module_algebra, mpi_trivial, mpi_kz2_sigma_g,
                                 mpi_h4)


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
    cx.taus[2] = cx.taus[2].scale(-1)
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
    build_power = complexes._build_power_complex

    def flipped(mp, N):
        cx = build_power(mp, N)
        return CocyclicComplex.assemble(
            cx.N, cx.spaces, lambda *k: cx.op(*k).scale(-1) if k == key else cx.op(*k))

    monkeypatch.setattr(complexes, "_build_power_complex", flipped)
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
        back = CocyclicComplex.assemble(cx.N, cx.spaces, cx.op)
        assert (back.N, back.top, back.dims()) == (cx.N, cx.top, cx.dims())
        assert [len(fam) for fam in back.faces] == [n + 2 for n in range(cx.N + 1)]
        assert {n: len(fam) for n, fam in back.degens.items()} == {
            n: n for n in range(1, cx.top + 1)}
        assert len(back.taus) == cx.top + 1
        assert back.faces == cx.faces and back.degens == cx.degens and back.taus == cx.taus
        assert same_complex(back, cx)

@pytest.mark.parametrize("key", [("face", 1, 2), ("degen", 2, 1), ("tau", 2, 0)])
def test_same_complex_rejects_one_changed_entry(key):
    alg, _ = _kz2_pair()
    m = alg.op(*key)
    ent = dict(m.entries)
    ent[0, 0] = ent.get((0, 0), 0) + 1 or 2     # changed, and never a stored zero
    changed = SparseMatrix(m.rows, m.cols, ent)
    copy = CocyclicComplex.assemble(alg.N, alg.spaces,
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

def test_bicocyclic_commutation():
    alg, coalg = _kz2_pair()
    assert check_bicocyclic(tensor_bicocyclic(alg, coalg)) == []

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
    and vertical maps of the bicocyclic complex b: the oracle for every
    operator of the product."""
    if kind == "face":
        return compose(b.hface(n, n + 1, i), b.vface(n, n, i))
    if kind == "degen":
        return compose(b.hdegen(n, n - 1, i), b.vdegen(n, n, i))
    return compose(b.htau(n, n), b.vtau(n, n))

def sorted_plan(plan):
    return [sorted(col) for col in plan]

def test_diagonal_equals_product():
    h = group_algebra(2)
    twisted = mpi_coefficients(mpi_kz2_sigma_g())
    pairs = [_kz2_pair(),
             (build_algebra_complex(swap_module_algebra(), twisted, 2).complex,
              build_comodule_algebra_complex(self_comodule_algebra(h), twisted, 3).complex)]
    for alg, other in pairs:
        b = tensor_bicocyclic(alg, other)
        d = diagonal(b)
        p = product_complex(alg, other)
        assert complexes_equal(d, p)
        assert (p.N, p.dims()) == (2, [alg.dim(n) * other.dim(n) for n in range(4)])
        for key in structure_maps(p.N, p.top):
            m = composite(b, *key)
            assert p.op(*key) == m, key
            assert sorted_plan(p.plan(*key)) == sorted_plan(column_plan(m)), key
        assert check_cocyclic(p) == []


# -- plain cyclic complex of an algebra ---------------------------------------------------

def test_plain_cyclic_complex_of_matrixlike_algebra():
    ab = swap_module_algebra().alg
    data = plain_cyclic_complex(ab, 2)
    # no equivariance conditions: full dual of A^(x)(n+1)
    assert data.complex.dims() == [2, 4, 8, 16]
    assert check_cocyclic(data.complex) == []


# -- serialization --------------------------------------------------------------------------

def test_complex_dump_round_trip():
    alg, coalg = _kz2_pair()
    text = complex_to_text(alg, content_hash("fixture"))
    back = complex_from_text(text)
    assert complexes_equal(alg, back)
    assert back.content_hash == content_hash("fixture")


# -- shared Hopf tables ------------------------------------------------------------

def test_hopf_tables_built_once_with_legs_of_the_iterated_coproduct():
    from hopfcyclic.complexes import HopfTables
    from hopfcyclic.hopf import iterated_coproduct
    from hopfcyclic.spaces import MultiIndex
    for h in (group_algebra(3), sweedler_h4()):
        tabs = HopfTables.of(h)
        assert HopfTables.of(h) is tabs
        for k in range(1, 6):
            mi = MultiIndex((h.dim,) * k)
            ref = iterated_coproduct(h.coalg, k)
            for i in range(h.dim):
                assert tabs.legs(k)[i] == sorted((mi.unflat(f), x)
                                                 for f, x in ref.value((i,)).items())


# the diagonal action on flat indices, degree by degree, for the regular and
# the adjoint action of kZ3 and H4; lookups[n] covers V^(x)(n+1), n <= 4
_DEGREE_TABLES = {}

def _degree_tables(name, kind):
    from hopfcyclic.complexes import HopfTables, _acting_on, _by_slot
    from hopfcyclic.fixtures import adjoint_module_algebra
    key = (name, kind)
    if key not in _DEGREE_TABLES:
        h = {"kZ3": group_algebra(3), "H4": sweedler_h4()}[name]
        action = h.alg.mul if kind == "regular" else adjoint_module_algebra(h).action
        tabs = HopfTables.of(h)
        lookups = list(tabs.diag_act_degrees(_acting_on(action), h.dim, 4))
        _DEGREE_TABLES[key] = (h, tabs, _by_slot(action), lookups)
    return _DEGREE_TABLES[key]

@given(st.sampled_from(["kZ3", "H4"]), st.sampled_from(["regular", "adjoint"]),
       st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_degree_by_degree_action_matches_diag_act(name, kind, n, data):
    from hopfcyclic.spaces import MultiIndex
    h, tabs, slot_of, lookups = _degree_tables(name, kind)
    mi = MultiIndex((h.dim,) * (n + 1))
    t = data.draw(st.integers(0, mi.size - 1))
    hvec = data.draw(st.dictionaries(st.integers(0, h.dim - 1), st.integers(-3, 3)))
    hvec = {u: c for u, c in hvec.items() if c}
    row = lookups[n](t)
    expected = {}
    for u, c in hvec.items():
        vec_axpy(expected, c, row.get(u, {}))
    slots = [slot_of[c] for c in mi.unflat(t)]
    assert {mi.flat(keys): x for keys, x in tabs.diag_act(hvec, slots).items()} == expected

@pytest.mark.parametrize("name", ["kZ3", "H4"])
@pytest.mark.parametrize("kind", ["regular", "adjoint"])
def test_degree_by_degree_action_every_row(name, kind):
    from hopfcyclic.spaces import MultiIndex
    h, tabs, slot_of, lookups = _degree_tables(name, kind)
    for n, lookup in enumerate(lookups):
        mi = MultiIndex((h.dim,) * (n + 1))
        for t in range(mi.size):
            slots = [slot_of[c] for c in mi.unflat(t)]
            row = lookup(t)
            assert sorted(row) == sorted(u for u in range(h.dim) if row.get(u))
            for u in range(h.dim):
                ref = tabs.diag_act({u: 1}, slots)
                assert {mi.flat(keys): x for keys, x in ref.items()} == row.get(u, {})


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
    from hopfcyclic.linalg import compose, SparseMatrix
    h = group_algebra(3)
    data = build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 2)
    for n, quo in enumerate(data.quotients):
        pi = quo.projection_matrix()
        iota = quo.inclusion_matrix()
        assert compose(pi, iota) == SparseMatrix.identity(quo.dim)
