from itertools import product

import pytest

from hopfcyclic.linalg import SparseMatrix, compose
from hopfcyclic.spaces import BasedSpace, StructureTensor, tensor_space, MultiIndex
from hopfcyclic.hopf import (AlgebraData, CoalgebraData, HopfData, ModularPair,
                             validate_algebra, validate_coalgebra, validate_hopf,
                             validate_modular_pair, iterated_coproduct,
                             twisted_antipode, involution_flags, BracketingMismatch)
from hopfcyclic.fixtures import (trivial_hopf, group_algebra, sweedler_h4,
                                 mpi_trivial, mpi_h4)


def brute_force_algebra_violations(a):
    """Independent oracle: expand every triple/element by hand loops."""
    bad = []
    d = a.space.dim
    for i, j, k in product(range(d), repeat=3):
        left = a.mul.apply(a.mul.apply({i: 1}, {j: 1}), {k: 1})
        right = a.mul.apply({i: 1}, a.mul.apply({j: 1}, {k: 1}))
        if left != right:
            bad.append(("assoc", (i, j, k)))
    for i in range(d):
        if a.mul.apply(dict(a.unit), {i: 1}) != {i: 1}:
            bad.append(("lunit", (i,)))
        if a.mul.apply({i: 1}, dict(a.unit)) != {i: 1}:
            bad.append(("runit", (i,)))
    return bad


# -- algebra / coalgebra validation -------------------------------------------

def test_group_algebra_kz2_valid():
    h = group_algebra(2)
    assert validate_algebra(h.alg).ok
    assert validate_coalgebra(h.coalg).ok
    assert validate_hopf(h).ok

def test_one_dimensional_algebra_valid():
    h = trivial_hopf()
    assert validate_hopf(h).ok

def test_absorbing_monoid_is_still_an_algebra():
    # basis e,g with g*g = g: a semilattice algebra; brute force confirms
    # associativity and both unit laws hold, so the report is empty.
    s = BasedSpace(("e", "g"))
    mul = StructureTensor((s, s), s, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}})
    a = AlgebraData(s, mul, {0: 1})
    assert brute_force_algebra_violations(a) == []
    assert validate_algebra(a).ok

def test_broken_algebra_reported_exhaustively():
    # g*e = g but e*g = e and g*g = e: unit law and associativity both break;
    # the report must agree with the brute-force oracle on which triples fail.
    s = BasedSpace(("e", "g"))
    mul = StructureTensor((s, s), s, {(0, 0): {0: 1}, (0, 1): {0: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}})
    a = AlgebraData(s, mul, {0: 1})
    oracle = brute_force_algebra_violations(a)
    assert oracle
    rep = validate_algebra(a)
    assert not rep.ok
    assoc_oracle = {idx for law, idx in oracle if law == "assoc"}
    assoc_report = {tuple(s.index(l) for l in v.where) for v in rep.violations if v.law == "associativity"}
    assert assoc_report == assoc_oracle

def test_coalgebra_group_like_valid():
    h = group_algebra(2)
    assert validate_coalgebra(h.coalg).ok

def test_coalgebra_counit_violation():
    # Delta g = g (x) e fails the counit law: (id (x) eps) Delta g = e != g
    s = BasedSpace(("e", "g"))
    comul = StructureTensor((s,), tensor_space(s, s), {(0,): {0: 1}, (1,): {1 * 2 + 0: 1}})
    c = CoalgebraData(s, comul, {0: 1, 1: 1})
    rep = validate_coalgebra(c)
    assert not rep.ok
    assert any(v.law.endswith("counit") for v in rep.violations)


# -- Hopf validation -----------------------------------------------------------

def test_sweedler_h4_valid():
    assert validate_hopf(sweedler_h4()).ok

def test_h4_wrong_antipode_detected():
    h = sweedler_h4()
    # S(x) = x breaks the antipode identity: S(x)1 + S(g)x = x + gx != 0
    bad = SparseMatrix(4, 4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
    broken = HopfData(h.alg, h.coalg, bad)
    rep = validate_hopf(broken)
    assert any(v.law.startswith("antipode") and v.where == ("x",) for v in rep.violations)

def test_group_algebra_antipode_involutive():
    for n in (2, 3, 4):
        h = group_algebra(n)
        S = h.antipode
        assert compose(S, S) == SparseMatrix.identity(n)

def test_eps_S_and_S_of_unit():
    for h in (group_algebra(3), sweedler_h4()):
        eps = h.coalg.counit_matrix()
        assert compose(eps, h.antipode) == eps
        assert h.antipode.apply(dict(h.alg.unit)) == dict(h.alg.unit)


# -- iterated coproducts --------------------------------------------------------

def test_iterated_coproduct_identity():
    h = group_algebra(2)
    t = iterated_coproduct(h.coalg, 1)
    assert t.as_matrix() == SparseMatrix.identity(2)

def test_iterated_coproduct_group_like():
    h = group_algebra(2)
    t = iterated_coproduct(h.coalg, 3)
    # g -> g (x) g (x) g at flat index 1*4 + 1*2 + 1 = 7
    assert t.value((1,)) == {7: 1}

def test_iterated_coproduct_h4_x():
    h = sweedler_h4()
    t = iterated_coproduct(h.coalg, 3)
    d = 4
    X, G, ONE = 2, 1, 0
    expected = {
        X * d * d + ONE * d + ONE: 1,   # x (x) 1 (x) 1
        G * d * d + X * d + ONE: 1,     # g (x) x (x) 1
        G * d * d + G * d + X: 1,       # g (x) g (x) x
    }
    assert t.value((X,)) == expected

def test_iterated_coproduct_counit_contraction():
    # applying eps to any slot of the n-fold coproduct recovers the (n-1)-fold one
    for h in (group_algebra(3), sweedler_h4()):
        d = h.dim
        eps = h.coalg.counit
        for n in (2, 3, 4):
            big = iterated_coproduct(h.coalg, n)
            small = iterated_coproduct(h.coalg, n - 1).as_matrix() if n > 2 else SparseMatrix.identity(d)
            mi = MultiIndex((d,) * n)
            mi_small = MultiIndex((d,) * (n - 1))
            for slot in range(n):
                ent = {}
                for i in range(d):
                    out = {}
                    for flat, x in big.value((i,)).items():
                        idx = mi.unflat(flat)
                        c = eps.get(idx[slot], 0)
                        if c:
                            rest = idx[:slot] + idx[slot + 1:]
                            k = mi_small.flat(rest)
                            out[k] = out.get(k, 0) + c * x
                    for k, x in out.items():
                        if x:
                            ent[(k, i)] = x
                contracted = SparseMatrix(d ** (n - 1), d, ent)
                assert contracted == small

def test_bracketing_mismatch_on_broken_coalgebra():
    s = BasedSpace(("e", "g"))
    # Delta g = g (x) e + g (x) g is not coassociative: the two bracketings of
    # the triple coproduct differ by g (x) e (x) g
    comul = StructureTensor((s,), tensor_space(s, s),
                            {(0,): {0: 1}, (1,): {1 * 2 + 0: 1, 1 * 2 + 1: 1}})
    c = CoalgebraData(s, comul, {0: 1, 1: 1})
    assert not validate_coalgebra(c).ok
    with pytest.raises(BracketingMismatch) as e:
        iterated_coproduct(c, 3)
    # the first failing column is g, and g|e|g is flat index 1*4 + 0*2 + 1
    assert str(e.value) == "iterated coproduct depends on bracketing"
    assert (e.value.column, e.value.residual) == (1, {5: 1})


# -- twisted antipode ------------------------------------------------------------

def test_twisted_antipode_with_counit_is_antipode():
    for h in (group_algebra(2), group_algebra(3), sweedler_h4()):
        mp = mpi_trivial(h)
        assert twisted_antipode(mp) == h.antipode

def test_twisted_antipode_h4():
    h = sweedler_h4()
    mp = ModularPair(h, {0: 1, 1: -1}, {0: 1})
    St = twisted_antipode(mp)
    # S~(x) = delta(x) S(1) + delta(g) S(x) = -(-gx) = gx
    assert St.column(2) == {3: 1}
    # S~(g) = delta(g) S(g) = -g
    assert St.column(1) == {1: -1}

def test_modular_pair_validation():
    assert validate_modular_pair(mpi_trivial(group_algebra(2))).ok
    assert validate_modular_pair(mpi_h4()).ok
    h = sweedler_h4()
    bad = ModularPair(h, {0: 1, 1: 1, 2: 1, 3: 0}, {0: 1})  # delta(x)=1 is not a character
    assert not validate_modular_pair(bad).ok

def test_involution_flags_h4():
    # the squared identity holds for the Taft pair, and is reported, never enforced
    lit, sq = involution_flags(mpi_h4())
    assert sq is True
    assert lit is False
