from itertools import product

import pytest

from hopfcyclic.linalg import SparseMatrix, compose, tensor_kron
from hopfcyclic.spaces import BasedSpace, StructureTensor, tensor_space
from hopfcyclic.hopf import CoalgebraData, HopfData, ModularPair, validate_algebra
from hopfcyclic.actions import (ModuleAlgebra, SubHopf, NotClosed, CoalgebraAction,
                                CoalgebraNotInduced,
                                validate_module_algebra, validate_module_coalgebra,
                                validate_comodule_algebra, validate_sayd,
                                validate_coalgebra_action, validate_subhopf,
                                mpi_coefficients, trivial_sayd, invariant_subalgebra,
                                relative_coalgebra, crossed_product, convolution_algebra)
from hopfcyclic.fixtures import (trivial_hopf, group_algebra, sweedler_h4,
                                 mpi_trivial, mpi_kz2_sigma_g, mpi_h4,
                                 swap_module_algebra, permutation_module_algebra,
                                 adjoint_module_algebra, self_module_coalgebra,
                                 self_comodule_algebra, trivial_comodule_algebra,
                                 trivial_module_algebra, trivial_module_coalgebra,
                                 module_action_as_coalgebra_action,
                                 counit_coalgebra_action, kz4_with_kz2, unit_subhopf)


# -- structure validators ------------------------------------------------------

def test_swap_module_algebra_valid():
    ma = swap_module_algebra()
    assert validate_module_algebra(ma).ok

def test_adjoint_module_algebra_valid():
    for h in (group_algebra(2), sweedler_h4()):
        assert validate_module_algebra(adjoint_module_algebra(h)).ok

def test_self_module_coalgebra_valid():
    for h in (group_algebra(2), group_algebra(3), sweedler_h4()):
        assert validate_module_coalgebra(self_module_coalgebra(h)).ok

def test_self_comodule_algebra_valid():
    for h in (group_algebra(2), sweedler_h4()):
        assert validate_comodule_algebra(self_comodule_algebra(h)).ok

def test_rotation_module_algebra_valid():
    assert validate_module_algebra(permutation_module_algebra(3)).ok
    assert validate_module_algebra(permutation_module_algebra(4)).ok


# -- SAYD ------------------------------------------------------------------------

def test_trivial_sayd_valid_everywhere():
    for h in (trivial_hopf(), group_algebra(2), group_algebra(3), group_algebra(4)):
        assert validate_sayd(trivial_sayd(h)).ok

def test_sigma_g_sayd_on_kz2():
    m = mpi_coefficients(mpi_kz2_sigma_g())
    assert validate_sayd(m).ok

def test_h4_trivial_pair_fails_ayd():
    # over the Taft algebra (eps, 1) is NOT anti-Yetter-Drinfeld:
    # S(x2) x1 = x + (-gx)g = 2x != 0
    h = sweedler_h4()
    m = mpi_coefficients(mpi_trivial(h))
    rep = validate_sayd(m)
    assert any(v.law == "anti-yetter-drinfeld" for v in rep.violations)

def test_h4_taft_pair_is_sayd():
    assert validate_sayd(mpi_coefficients(mpi_h4())).ok

def test_h4_bad_character_rejected():
    # delta(x) = 1 is not an algebra character (x**2 = 0 forces delta(x) = 0),
    # and the resulting module fails SAYD validation
    h = sweedler_h4()
    mp = ModularPair(h, {0: 1, 1: 1, 2: 1, 3: 1}, {0: 1})
    m = mpi_coefficients(mp)
    assert not validate_sayd(m).ok


# -- coalgebra actions ------------------------------------------------------------

def test_module_action_is_coalgebra_action():
    h = group_algebra(2)
    ca = module_action_as_coalgebra_action(self_module_coalgebra(h), swap_module_algebra())
    assert validate_coalgebra_action(ca).ok

def test_counit_action_is_coalgebra_action():
    # c.a = eps(c) a is h-linear only when the module-algebra action on A is
    # itself the counit action: (hc)a = eps(h)eps(c)a must equal eps(c) h(a)
    h = group_algebra(2)
    ma = trivial_module_algebra(h, swap_module_algebra().alg)
    ca = counit_coalgebra_action(self_module_coalgebra(h), ma)
    assert validate_coalgebra_action(ca).ok

def test_counit_action_fails_over_nontrivial_module_algebra():
    h = group_algebra(2)
    ca = counit_coalgebra_action(self_module_coalgebra(h), swap_module_algebra())
    rep = validate_coalgebra_action(ca)
    assert any(v.law == "h-linearity" for v in rep.violations)

def test_corrupted_action_pinpointed():
    h = group_algebra(2)
    ca = module_action_as_coalgebra_action(self_module_coalgebra(h), swap_module_algebra())
    ent = dict(ca.action.entries)
    ent[(1, 0)] = {0: 1, 1: 1}   # g . p0 corrupted
    bad = type(ca)(ca.mc, ca.ma, StructureTensor(ca.action.domains, ca.action.codomain, ent))
    rep = validate_coalgebra_action(bad)
    assert not rep.ok
    assert any("g" in v.where for v in rep.violations)


# -- sub Hopf algebras -------------------------------------------------------------

def test_kz2_inside_kz4_is_subhopf():
    h, k = kz4_with_kz2()
    assert validate_subhopf(k).ok

def test_bad_span_not_subhopf():
    h = group_algebra(4)
    k = SubHopf(h, [{0: 1}, {1: 1}])   # e, g: not closed under product? g*g = g2 missing
    rep = validate_subhopf(k)
    assert any(v.law == "closed-under-product" for v in rep.violations)


# -- invariant subalgebra -----------------------------------------------------------

def test_invariants_of_unit_subhopf_is_everything():
    ma = swap_module_algebra()
    inv, incl = invariant_subalgebra(ma, unit_subhopf(ma.hopf))
    assert inv.space.dim == 2

def test_invariants_of_swap_is_diagonal():
    ma = swap_module_algebra()
    inv, incl = invariant_subalgebra(ma, SubHopf(ma.hopf, [{0: 1}, {1: 1}]))
    assert inv.space.dim == 1
    # the invariant line is spanned by (1,1)
    assert incl.column(0) == {0: 1, 1: 1}
    assert validate_algebra(inv).ok

def test_invariants_trivial_action_is_everything():
    h = group_algebra(2)
    ma = trivial_module_algebra(h, swap_module_algebra().alg)
    inv, incl = invariant_subalgebra(ma, SubHopf(h, [{0: 1}, {1: 1}]))
    assert inv.space.dim == 2

def test_invariants_kz4_translation():
    ma = permutation_module_algebra(4)
    h, k = kz4_with_kz2()
    inv, incl = invariant_subalgebra(ma, k)
    assert inv.space.dim == 2
    assert validate_algebra(inv).ok


# -- relative coalgebra ---------------------------------------------------------------

def test_relative_coalgebra_unit_subhopf_is_h():
    h = group_algebra(2)
    mc, proj = relative_coalgebra(h, unit_subhopf(h))
    assert mc.coalg.space.dim == 2
    # explicit isomorphism with H as module coalgebra: proj is square invertible
    # and intertwines comul, counit and the action
    from hopfcyclic.linalg import image_rank
    assert image_rank(proj) == 2
    d = h.dim
    assert compose(mc.coalg.comul.matrix, proj) == compose(tensor_kron(proj, proj), h.coalg.comul.matrix)
    assert compose(mc.coalg.counit_matrix(), proj) == h.coalg.counit_matrix()
    selfmc = self_module_coalgebra(h)
    assert compose(mc.action.matrix, tensor_kron(SparseMatrix.identity(d), proj)) == \
           compose(proj, selfmc.action.matrix)

def test_relative_coalgebra_full_subhopf_is_ground():
    h = group_algebra(2)
    mc, proj = relative_coalgebra(h, SubHopf(h, [{0: 1}, {1: 1}]))
    assert mc.coalg.space.dim == 1

def test_relative_coalgebra_kz4_over_kz2():
    h, k = kz4_with_kz2()
    mc, proj = relative_coalgebra(h, k)
    assert mc.coalg.space.dim == 2
    assert validate_module_coalgebra(mc).ok


# -- crossed product -----------------------------------------------------------------

def test_crossed_product_trivial_b():
    ma = swap_module_algebra()
    ba = trivial_comodule_algebra(ma.hopf)
    ab = crossed_product(ma, ba)
    assert ab.space.dim == 2
    assert validate_algebra(ab).ok

def test_crossed_product_trivial_a():
    h = group_algebra(2)
    ma = trivial_module_algebra(h, trivial_hopf().alg)
    ba = self_comodule_algebra(h)
    ab = crossed_product(ma, ba)
    assert ab.space.dim == 2
    assert validate_algebra(ab).ok

def test_crossed_product_swap_kz2():
    ma = swap_module_algebra()
    ba = self_comodule_algebra(ma.hopf)
    ab = crossed_product(ma, ba)
    assert ab.space.dim == 4
    # brute force associativity over all 64 basis triples (independent oracle)
    for i, j, k in product(range(4), repeat=3):
        left = ab.mul.apply(ab.mul.apply({i: 1}, {j: 1}), {k: 1})
        right = ab.mul.apply({i: 1}, ab.mul.apply({j: 1}, {k: 1}))
        assert left == right
    assert validate_algebra(ab).ok


# -- convolution algebra ---------------------------------------------------------------

def test_convolution_trivial_coalgebra_gives_invariants():
    # C = ground field: Hom_H(C, A) = invariants of A; convolution = product
    h = group_algebra(2)
    ma = swap_module_algebra()
    ca = counit_coalgebra_action(trivial_module_coalgebra(h), ma)
    conv = convolution_algebra(ca)
    inv, _ = invariant_subalgebra(ma, SubHopf(h, [{0: 1}, {1: 1}]))
    assert conv.algebra.space.dim == inv.space.dim == 1

def test_convolution_self_action_kz2():
    h = group_algebra(2)
    ca = module_action_as_coalgebra_action(self_module_coalgebra(h), swap_module_algebra())
    conv = convolution_algebra(ca)
    # H-linear maps H -> A are determined by the image of e: dim = dim A
    assert conv.algebra.space.dim == 2
    assert validate_algebra(conv.algebra).ok

def test_convolution_unit_is_two_sided():
    h = group_algebra(2)
    ca = module_action_as_coalgebra_action(self_module_coalgebra(h), swap_module_algebra())
    conv = convolution_algebra(ca)
    a = conv.algebra
    d = a.space.dim
    for i in range(d):
        assert a.mul.apply(dict(a.unit), {i: 1}) == {i: 1}
        assert a.mul.apply({i: 1}, dict(a.unit)) == {i: 1}

def test_convolution_dual_algebra():
    # A = ground field: Hom_H(C, Q) with convolution = dual of the coalgebra
    h = group_algebra(2)
    ma = trivial_module_algebra(h, trivial_hopf().alg)
    mc = self_module_coalgebra(h)
    ca = counit_coalgebra_action(mc, ma)
    conv = convolution_algebra(ca)
    # H-linear functionals H -> Q_eps: f(g c) = eps(g) f(c): forces f(e) = f(g)
    assert conv.algebra.space.dim == 1
    assert validate_algebra(conv.algebra).ok


# -- error paths for derived constructions --------------------------------------

def _swapping_x_and_x2():
    """A non-multiplicative "action" of Z/2 on Q[x]/x^3 whose fixed space is
    not a subalgebra: g swaps x and x^2, fixing 1 and x + x^2, but
    (x + x^2)^2 = x^2 is not in span{1, x + x^2}."""
    from hopfcyclic.hopf import AlgebraData
    h = group_algebra(2)
    s = BasedSpace(("1", "x", "x2"))
    mul = StructureTensor((s, s), s, {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (1, 1): {2: 1}, (1, 2): {},
        (2, 0): {2: 1}, (2, 1): {}, (2, 2): {},
    })
    alg = AlgebraData(s, mul, {0: 1})
    act = StructureTensor((h.space, s), s, {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 0): {0: 1}, (1, 1): {2: 1}, (1, 2): {1: 1},
    })
    return ModuleAlgebra(h, alg, act)

def test_not_closed_for_inconsistent_action():
    ma = _swapping_x_and_x2()
    h = ma.hopf
    assert not validate_module_algebra(ma).ok   # not an automorphism action
    with pytest.raises(NotClosed):
        invariant_subalgebra(ma, SubHopf(h, [{0: 1}, {1: 1}]))

def test_convolution_of_invariants_that_are_no_subalgebra_is_not_closed():
    # C = ground field: the convolution algebra is the fixed space of A
    ma = _swapping_x_and_x2()
    ca = counit_coalgebra_action(trivial_module_coalgebra(ma.hopf), ma)
    with pytest.raises(NotClosed) as e:
        convolution_algebra(ca)
    assert str(e.value) == "convolution product left the equivariant span"

def test_convolution_with_a_non_invariant_unit_is_not_closed():
    # Z/2 acting on Q x Q by g(e1) = e1, g(e2) = -e2: the fixed space
    # span{e1} is closed under the product, but the unit e1 + e2 is not in it
    from hopfcyclic.hopf import AlgebraData
    h = group_algebra(2)
    s = BasedSpace(("e1", "e2"))
    alg = AlgebraData(s, StructureTensor((s, s), s, {(0, 0): {0: 1}, (1, 1): {1: 1}}),
                      {0: 1, 1: 1})
    act = StructureTensor((h.space, s), s, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                            (1, 0): {0: 1}, (1, 1): {1: -1}})
    ma = ModuleAlgebra(h, alg, act)
    assert validate_algebra(alg).ok and not validate_module_algebra(ma).ok
    ca = counit_coalgebra_action(trivial_module_coalgebra(h), ma)
    with pytest.raises(NotClosed) as e:
        convolution_algebra(ca)
    assert str(e.value) == "unit eta.eps is not equivariant; inputs are inconsistent"

def test_crossed_product_over_two_hopf_algebras_is_refused():
    with pytest.raises(ValueError) as e:
        crossed_product(swap_module_algebra(), self_comodule_algebra(sweedler_h4()))
    assert str(e.value) == "crossed product requires one Hopf algebra on both sides"

def test_crossed_product_of_a_non_action_is_refused():
    # g acting on the swap algebra by doubling is no action (g.g.a = 4a, not
    # a); with B = Q[Z/2] coacting by its coproduct, (1 >< g)(1 >< g)(a >< 1)
    # = a >< 1 but (1 >< g)((1 >< g)(a >< 1)) = 4a >< 1
    good = swap_module_algebra()
    h, s = good.hopf, good.alg.space
    double = StructureTensor((h.space, s), s, {(0, i): {i: 1} for i in range(s.dim)}
                             | {(1, i): {i: 2} for i in range(s.dim)})
    with pytest.raises(ValueError) as e:
        crossed_product(ModuleAlgebra(h, good.alg, double), self_comodule_algebra(h))
    assert str(e.value).startswith(
        "crossed product failed to be associative/unital; inputs are inconsistent: ")

def test_action_not_descended():
    # a non-associative product on span{e, g, x}: with K = span{g} the
    # relations b.g - eps(g) b span e - g and x, the counit kills them and
    # the comultiplication descends, but g.x = e is not a relation
    from hopfcyclic.actions import ActionNotDescended
    from hopfcyclic.hopf import AlgebraData, CoalgebraData, HopfData
    s = BasedSpace(("e", "g", "x"))
    mul = StructureTensor((s, s), s, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                                      (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {0: 1},
                                      (2, 0): {2: 1}})
    # Delta(e) = e(x)e, Delta(g) = g(x)g, Delta(x) = e(x)x + x(x)e
    comul = StructureTensor((s,), tensor_space(s, s), {(0,): {0: 1}, (1,): {4: 1},
                                                        (2,): {2: 1, 6: 1}})
    h = HopfData(AlgebraData(s, mul, {0: 1}), CoalgebraData(s, comul, {0: 1, 1: 1}),
                 SparseMatrix.identity(3))
    with pytest.raises(ActionNotDescended, match="left action does not descend"):
        relative_coalgebra(h, SubHopf(h, [{1: 1}]))

def test_coalgebra_not_induced():
    # span{1, x + gx} in the Taft algebra: the right ideal it generates is
    # not a coideal (Delta(x+gx) = x(x)1 + g(x)x + gx(x)g + 1(x)gx has legs
    # that cannot factor through the quotient)
    from hopfcyclic.actions import CoalgebraNotInduced
    from hopfcyclic.fixtures import sweedler_h4
    h4 = sweedler_h4()
    with pytest.raises(CoalgebraNotInduced):
        relative_coalgebra(h4, SubHopf(h4, [{0: 1}, {2: 1, 3: 1}]))


# -- guards against inconsistent structures ---------------------------------------------

def test_coalgebra_action_refuses_two_hopf_symmetries():
    with pytest.raises(ValueError) as e:
        CoalgebraAction(self_module_coalgebra(group_algebra(2)), permutation_module_algebra(3), None)
    assert str(e.value) == "coalgebra and algebra carry different Hopf symmetries"


def test_module_action_as_coalgebra_action_needs_h_itself():
    h = group_algebra(2)
    with pytest.raises(ValueError) as e:
        module_action_as_coalgebra_action(trivial_module_coalgebra(h), swap_module_algebra())
    assert str(e.value) == "expected the Hopf algebra itself as the coalgebra"


def test_invariants_without_the_unit_are_not_closed():
    # g fixes p0 and sends p1 to p0: the invariants p0 are closed under the
    # product, but the unit p0 + p1 is not invariant
    swap = swap_module_algebra()
    h, s = swap.hopf, swap.alg.space
    act = StructureTensor((h.space, s), s, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                             (1, 0): {0: 1}, (1, 1): {0: 1}})
    with pytest.raises(NotClosed) as e:
        invariant_subalgebra(ModuleAlgebra(h, swap.alg, act), SubHopf(h, [{0: 1}, {1: 1}]))
    assert str(e.value) == "unit is not invariant; module-algebra axioms are broken upstream"


def test_relative_coalgebra_needs_a_multiplicative_counit():
    # eps(g) = 2 on Q[Z/2]: eps(g.g - eps(g) g) = 1 - 4 on the ideal of K = <g>
    h = group_algebra(2)
    bad = HopfData(h.alg, CoalgebraData(h.space, h.coalg.comul, {0: 1, 1: 2}), h.antipode)
    with pytest.raises(CoalgebraNotInduced) as e:
        relative_coalgebra(bad, SubHopf(bad, [{1: 1}]))
    assert str(e.value) == "counit does not vanish on the ideal"


def test_subhopf_violations_name_the_unit_and_the_coproduct():
    # <g> in Q[Z/2] holds no unit
    rep = validate_subhopf(SubHopf(group_algebra(2), [{1: 1}]))
    assert [(v.where, v.residual) for v in rep.violations if v.law == "contains-unit"] == \
        [(("1",), {0: 1})]
    # <1, x> in H4 is a subalgebra, but Delta x = x (x) 1 + g (x) x leaves it by g (x) x
    rep = validate_subhopf(SubHopf(sweedler_h4(), [{0: 1}, {2: 1}]))
    assert not any(v.law == "contains-unit" for v in rep.violations)
    assert [(v.where, v.residual) for v in rep.violations if v.law == "closed-under-comul"] == \
        [(("1",), {1 * 4 + 2: 1})]
