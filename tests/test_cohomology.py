from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic.linalg import SparseMatrix, SpanSolver, compose, image_rank, kernel_basis, vec_acc
from hopfcyclic.complexes import (build_coalgebra_complex, build_hopf_complex,
                                  plain_cyclic_complex, CocyclicComplex, phi_degrees,
                                  same_complex, _coalgebra_by_relations)
from hopfcyclic.cohomology import (hochschild_b, connes_B, compute_cohomology,
                                   cyclic_cocycles, total_differential, NotAComplex, lam)
from hopfcyclic.actions import trivial_sayd, mpi_coefficients
from hopfcyclic.fixtures import (trivial_hopf, group_algebra, mpi_trivial, mpi_h4,
                                 self_module_coalgebra, swap_module_algebra,
                                 fixture_file_texts)
from hopfcyclic.specfile import parse_spec
from hopfcyclic.cli import build_declared_complex


def constant_point_complex(N):
    h = trivial_hopf()
    return build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), N).complex


# -- Hochschild coboundary -------------------------------------------------------

def test_b_alternating_pattern_on_point():
    # on the one-dimensional constant complex b_n is the alternating sum of
    # n+2 identity faces: zero for n even (the terms pair off), the identity
    # for n odd (one surplus term)
    cx = constant_point_complex(4)
    bs = hochschild_b(cx)
    for n, b in enumerate(bs):
        if n % 2 == 0:
            assert not any(b.plan)
        else:
            assert b == SparseMatrix.identity(1)

def test_b_squared_zero_everywhere():
    h = group_algebra(2)
    cx = build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 4).complex
    bs = hochschild_b(cx)
    for n in range(len(bs) - 1):
        assert not any(compose(bs[n + 1], bs[n]).plan)

def test_not_a_complex_raised_on_corruption():
    cx = constant_point_complex(3)
    cx.maps["face", 0, 0] = cx.face(0, 0).scale(2)
    with pytest.raises(NotAComplex):
        hochschild_b(cx)


# -- boundary operator -------------------------------------------------------------

def test_connes_B_degree_zero_convention():
    cx = constant_point_complex(3)
    Bs, variant = connes_B(cx)
    assert Bs[0].rows == 0
    assert variant == "norm.degen.tau.(1-lam)"

def test_connes_B_certificates_on_fixtures():
    for cx in (constant_point_complex(4),
               build_hopf_complex(mpi_trivial(group_algebra(2)), 4).power):
        bs = hochschild_b(cx)
        Bs, _ = connes_B(cx)
        for n in range(2, cx.top + 1):
            assert not any(compose(Bs[n - 1], Bs[n]).plan)
        for n in range(1, cx.N + 1):
            assert not any((compose(bs[n - 1], Bs[n]) + compose(Bs[n + 1], bs[n])).plan)

def test_connes_B1_on_kz2_hopf_complex():
    hd = build_hopf_complex(mpi_trivial(group_algebra(2)), 3)
    Bs, _ = connes_B(hd.power)
    B1 = Bs[1]
    assert B1.rows == 1 and B1.cols == 2
    # frozen from the formula: B1 = N0 . s0 . t1 . (1 - (-1) t1) on H -> Q
    t1 = hd.power.tau(1)
    s0 = hd.power.degen(1, 0)
    expected = compose(s0, compose(t1, SparseMatrix.identity(2) + t1))
    assert B1 == expected


# -- cohomology dimensions -----------------------------------------------------------

def test_trivial_hopf_cyclic_dims():
    hd = build_hopf_complex(mpi_trivial(trivial_hopf()), 5)
    rep = compute_cohomology(hd.power)
    assert [d for _, d, t in rep.hc if t] == [1, 0, 1, 0]
    assert rep.hp_even == (1, True)
    assert rep.hp_odd == (0, True)

def test_kz2_hopf_cyclic_dims():
    hd = build_hopf_complex(mpi_trivial(group_algebra(2)), 5)
    rep = compute_cohomology(hd.power)
    assert [d for _, d, t in rep.hc if t] == [1, 0, 1, 0]

def test_hh0_of_trivial_coalgebra_complex():
    cx = constant_point_complex(3)
    rep = compute_cohomology(cx)
    assert rep.hh[0] == (0, 1)

def test_report_lines_format():
    hd = build_hopf_complex(mpi_trivial(group_algebra(2)), 4)
    rep = compute_cohomology(hd.power)
    lines = rep.lines()
    assert "HH 0 1" in lines
    assert any(l.startswith("HC 0 1 trusted") for l in lines)
    assert any(l.startswith("HP even") for l in lines)

def test_determinism_of_report():
    hd = build_hopf_complex(mpi_trivial(group_algebra(3)), 4)
    a = compute_cohomology(hd.power).lines()
    b = compute_cohomology(hd.power).lines()
    assert a == b


def kernel_oracle(cx):
    """(hh, hc) by the loops compute_cohomology ran before it took ranks
    only: HH^n counts the kernel vectors of b_n that stay independent
    modulo the image of b_{n-1}; HC^n is nullity(D_n) - rank(D_{n-1})."""
    bs, Bs = cx.b, cx.B
    N = cx.N
    hh = []
    for n in range(N):
        solver = SpanSolver()
        if n:
            for c in bs[n - 1].columns():
                if c:
                    solver.add(c)
        count = 0
        for v in kernel_basis(bs[n]):
            red = solver.reduce(v)
            if red and solver.add(red):
                count += 1
        hh.append((n, count))
    hc = []
    for n in range(N):
        rank_img = image_rank(total_differential(cx, n - 1)) if n else 0
        nullity = len(kernel_basis(total_differential(cx, n)))
        hc.append((n, nullity - rank_img, n <= N - 2))
    return hh, hc


@pytest.mark.parametrize("fixture", sorted(fixture_file_texts()))
def test_ranks_agree_with_the_kernel_oracle(fixture):
    text = fixture_file_texts()[fixture]
    spec = parse_spec(text)
    for name in spec.complexes:
        cx, _ = build_declared_complex(spec, spec.to_text(), name, 3, no_cache=True)
        rep = compute_cohomology(cx)
        assert (rep.hh, rep.hc) == kernel_oracle(cx), (fixture, name)


# -- cyclic cocycles -------------------------------------------------------------------

def test_cyclic_cocycles_are_closed_and_invariant():
    cx = plain_cyclic_complex(swap_module_algebra().alg, 3)
    bs = hochschild_b(cx)
    for n in range(3):
        for v in cyclic_cocycles(cx, n):
            assert bs[n].apply(v) == {}
            diff = (SparseMatrix.identity(cx.dim(n)) - lam(cx, n)).apply(v)
            assert diff == {}

def test_degree_zero_cyclic_cocycles_of_commutative_algebra():
    # every functional on a commutative algebra is a trace: b phi (a,b) =
    # phi(ab) - phi(ba) = 0 and tau_0 = id
    cx = plain_cyclic_complex(swap_module_algebra().alg, 2)
    assert len(cyclic_cocycles(cx, 0)) == 2


# -- the families a complex owns ----------------------------------------------------

def test_a_complex_owns_its_certified_families():
    cx = build_hopf_complex(mpi_trivial(group_algebra(2)), 3).power
    bs, Bs = cx.b, cx.B
    assert cx.b is bs and cx.B is Bs
    assert cx.boundary_reading == "norm.degen.tau.(1-lam)"
    for n in range(1, cx.N + 1):
        assert not any((compose(bs[n - 1], Bs[n]) + compose(Bs[n + 1], bs[n])).plan)
    # a doubled tau keeps b but breaks bB + Bb = 0: nothing is kept, and
    # every read raises
    h = group_algebra(2)
    cx = build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 3).complex
    cx.maps["tau", 2, 0] = cx.tau(2).scale(2)
    for _ in range(2):
        with pytest.raises(NotAComplex, match=r"bB \+ Bb != 0 at degree 2"):
            cx.B
    assert "B" not in vars(cx)


# -- exactness under a fractional change of basis ---------------------------------

def change_basis_hopf(h, T):
    """Transport all structure constants through new_j = sum_i T[i,j] old_i."""
    from hopfcyclic.linalg import invert_matrix, compose, tensor_kron
    from hopfcyclic.spaces import BasedSpace, StructureTensor, tensor_space
    from hopfcyclic.hopf import AlgebraData, CoalgebraData, HopfData
    Ti = invert_matrix(T)
    d = h.dim
    s = BasedSpace(tuple("n%d" % i for i in range(d)))
    mul = compose(Ti, compose(h.alg.mul.matrix, tensor_kron(T, T)))
    comul = compose(tensor_kron(Ti, Ti), compose(h.coalg.comul.matrix, T))
    counit = compose(h.coalg.counit_matrix(), T)
    unit = Ti.apply(dict(h.alg.unit))
    S = compose(Ti, compose(h.antipode, T))
    alg = AlgebraData(s, __import__("hopfcyclic.spaces", fromlist=["StructureTensor"])
                      .StructureTensor.from_matrix(mul, (s, s), s), unit)
    coalg = CoalgebraData(s, __import__("hopfcyclic.spaces", fromlist=["StructureTensor"])
                          .StructureTensor.from_matrix(comul, (s,), tensor_space(s, s)),
                          {i: x for (r, i), x in counit.entries.items()})
    return HopfData(alg, coalg, S)


def test_fractional_basis_change_preserves_dimension_tables():
    # a non-monomial base change introduces genuine denominators into every
    # structure constant; all ranks and dimension tables must be unchanged
    from fractions import Fraction
    from hopfcyclic.linalg import SparseMatrix
    from hopfcyclic.hopf import validate_hopf, ModularPair
    h = group_algebra(2)
    T = SparseMatrix.from_rows([[1, 1], [0, 2]])
    h2 = change_basis_hopf(h, T)
    assert validate_hopf(h2).ok
    assert any(isinstance(x, Fraction)
               for v in h2.coalg.comul.entries.values() for x in v.values())
    mp = ModularPair(h2, dict(h2.coalg.counit), dict(h2.alg.unit))
    hd = build_hopf_complex(mp, 4)
    rep = compute_cohomology(hd.power)
    ref = compute_cohomology(build_hopf_complex(mpi_trivial(h), 4).power)
    assert [x[1] for x in rep.hh] == [x[1] for x in ref.hh]
    assert [x[1] for x in rep.hc] == [x[1] for x in ref.hc]
    assert (rep.hh, rep.hc) == kernel_oracle(hd.power)


@st.composite
def sparse_basis_changes(draw, d):
    """An invertible, non-monomial T: a diagonal of small nonzero rationals
    plus one nonzero off-diagonal entry, so det T is the diagonal's product.
    A dense rational T makes the complexes far slower to build."""
    nonzero = st.builds(Fraction, st.integers(-2, 2).filter(bool), st.integers(1, 2))
    ent = {(i, i): draw(nonzero) for i in range(d)}
    i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    ent[(i, j)] = draw(nonzero)
    return SparseMatrix(d, d, ent)


# name -> (modular pair, examples): few examples, since a transformed
# complex carries Fractions everywhere and builds far slower
BASIS_CHANGE_PAIRS = {
    "kz2": (lambda: mpi_trivial(group_algebra(2)), 3),
    "kz3": (lambda: mpi_trivial(group_algebra(3)), 2),
    "h4": (mpi_h4, 1),
}


@pytest.mark.parametrize("name", sorted(BASIS_CHANGE_PAIRS))
def test_random_basis_change_preserves_cohomology(name):
    # HH and HC of the Hopf complex do not depend on the basis: transport
    # the algebra through T, delta to delta o T and sigma to T^-1 sigma.
    # Under the same T, the coinvariant quotient built through Phi has the
    # free columns, projections and operators of the QuotientSpace oracle
    from hopfcyclic.hopf import validate_hopf, validate_modular_pair, ModularPair
    from hopfcyclic.linalg import invert_matrix
    make, examples = BASIS_CHANGE_PAIRS[name]
    mp = make()
    h = mp.hopf
    want = compute_cohomology(build_hopf_complex(mp, 3).power).lines()

    @settings(max_examples=examples, deadline=None)
    @given(sparse_basis_changes(h.dim))
    def check(T):
        h2 = change_basis_hopf(h, T)
        delta = {}
        for (i, j), x in T.entries.items():
            vec_acc(delta, j, mp.delta.get(i, 0) * x)
        mp2 = ModularPair(h2, delta, invert_matrix(T).apply(mp.sigma))
        assert validate_hopf(h2).ok and validate_modular_pair(mp2).ok
        assert compute_cohomology(build_hopf_complex(mp2, 3).power).lines() == want
        mc, sayd = self_module_coalgebra(h2), mpi_coefficients(mp2)
        got = build_coalgebra_complex(mc, sayd, 2)
        ref = _coalgebra_by_relations(mc, sayd, 2, "coalgebra")
        assert [q.free for q in got.quotients] == [q.free for q in ref.quotients]
        # Phi_F^-1 Phi: the quotient coordinates of every ambient column
        assert ([compose(deg.inv, SparseMatrix.from_columns([dict(c) for c in deg.phi], deg.iso.rows))
                 for deg in phi_degrees(mc, sayd, 3)]
                == [q.projection_matrix() for q in ref.quotients])
        assert same_complex(got.complex, ref.complex)

    check()
