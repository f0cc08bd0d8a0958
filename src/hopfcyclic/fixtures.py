"""Shipped example structures: group algebras, the 4-dimensional Taft algebra,
permutation module algebras, self (co)module structures and ready-made cup
contexts.  Everything the acceptance suite runs is built from these.
"""

from __future__ import annotations

from .linalg import SparseMatrix, vec_acc
from .spaces import BasedSpace, StructureTensor, tensor_space
from .hopf import AlgebraData, CoalgebraData, HopfData, ModularPair
from .actions import (ModuleAlgebra, ModuleCoalgebra, ComoduleAlgebra,
                      CoalgebraAction, SubHopf)
from .specfile import structure_lines


def trivial_hopf() -> HopfData:
    s = BasedSpace(("1",))
    alg = AlgebraData(s, StructureTensor((s, s), s, {(0, 0): {0: 1}}), {0: 1})
    coalg = CoalgebraData(s, StructureTensor((s,), tensor_space(s, s), {(0,): {0: 1}}), {0: 1})
    return HopfData(alg, coalg, SparseMatrix.identity(1))


def group_algebra(n: int) -> HopfData:
    """Q[Z/n] with basis e, g, g2, ..."""
    labels = ["e"] + ["g" if k == 1 else "g%d" % k for k in range(1, n)]
    s = BasedSpace(tuple(labels))
    mul = StructureTensor((s, s), s, {(i, j): {(i + j) % n: 1} for i in range(n) for j in range(n)})
    comul = StructureTensor((s,), tensor_space(s, s), {(i,): {i * n + i: 1} for i in range(n)})
    counit = {i: 1 for i in range(n)}
    antipode = SparseMatrix(n, n, {((-i) % n, i): 1 for i in range(n)})
    return HopfData(AlgebraData(s, mul, {0: 1}), CoalgebraData(s, comul, counit), antipode)


def sweedler_h4() -> HopfData:
    """Basis 1, g, x, gx with g2=1, x2=0, xg=-gx, Delta x = x(x)1 + g(x)x."""
    s = BasedSpace(("1", "g", "x", "gx"))
    ONE, G, X, GX = 0, 1, 2, 3
    mul_table = {
        (ONE, ONE): {ONE: 1}, (ONE, G): {G: 1}, (ONE, X): {X: 1}, (ONE, GX): {GX: 1},
        (G, ONE): {G: 1}, (G, G): {ONE: 1}, (G, X): {GX: 1}, (G, GX): {X: 1},
        (X, ONE): {X: 1}, (X, G): {GX: -1}, (X, X): {}, (X, GX): {},
        (GX, ONE): {GX: 1}, (GX, G): {X: -1}, (GX, X): {}, (GX, GX): {},
    }
    mul = StructureTensor((s, s), s, mul_table)
    d = 4
    comul_table = {
        (ONE,): {ONE * d + ONE: 1},
        (G,): {G * d + G: 1},
        (X,): {X * d + ONE: 1, G * d + X: 1},
        (GX,): {GX * d + G: 1, ONE * d + GX: 1},
    }
    comul = StructureTensor((s,), tensor_space(s, s), comul_table)
    counit = {ONE: 1, G: 1}
    antipode = SparseMatrix(4, 4, {(ONE, ONE): 1, (G, G): 1, (GX, X): -1, (X, GX): 1})
    return HopfData(AlgebraData(s, mul, {ONE: 1}), CoalgebraData(s, comul, counit), antipode)


# -- modular pairs -----------------------------------------------------------

def mpi_trivial(h: HopfData) -> ModularPair:
    return ModularPair(h, dict(h.coalg.counit), dict(h.alg.unit))

def mpi_kz2_sigma_g() -> ModularPair:
    h = group_algebra(2)
    return ModularPair(h, dict(h.coalg.counit), {1: 1})

def mpi_h4() -> ModularPair:
    """The valid pair on the Taft algebra: delta(g) = -1, delta(x) = 0, sigma = 1."""
    h = sweedler_h4()
    return ModularPair(h, {0: 1, 1: -1}, {0: 1})


# -- module algebras ---------------------------------------------------------

def permutation_module_algebra(n: int) -> ModuleAlgebra:
    """Q^(Z/n) (pointwise product) with Z/n acting by coordinate rotation.

    n = 2 is the coordinate-swap algebra.
    """
    h = group_algebra(n)
    s = BasedSpace(tuple("p%d" % i for i in range(n)))
    mul = StructureTensor((s, s), s, {(i, i): {i: 1} for i in range(n)})
    alg = AlgebraData(s, mul, {i: 1 for i in range(n)})
    act = StructureTensor((h.space, s), s,
                          {(k, i): {(i + k) % n: 1} for k in range(n) for i in range(n)})
    return ModuleAlgebra(h, alg, act)


def swap_module_algebra() -> ModuleAlgebra:
    return permutation_module_algebra(2)


def trivial_module_algebra(h: HopfData, alg: AlgebraData) -> ModuleAlgebra:
    """Any algebra as a module algebra via the counit action."""
    eps = h.coalg.counit
    a = alg.space.dim
    ent = {}
    for ih in range(h.dim):
        e = eps.get(ih, 0)
        if e:
            for ia in range(a):
                ent[(ih, ia)] = {ia: e}
    return ModuleAlgebra(h, alg, StructureTensor((h.space, alg.space), alg.space, ent))


def adjoint_module_algebra(h: HopfData) -> ModuleAlgebra:
    """H acting on itself by h (x) a -> h1 a S(h2)."""
    d = h.dim
    ent = {}
    for ih in range(d):
        com = h.coalg.comul.value((ih,))
        for ia in range(d):
            out = {}
            for pair, x in com.items():
                h1, h2 = divmod(pair, d)
                sh2 = h.antipode.column(h2)
                left = h.alg.mul.apply({h1: 1}, {ia: 1})
                w = h.alg.mul.apply(left, sh2)
                for j, y in w.items():
                    vec_acc(out, j, x * y)
            if out:
                ent[(ih, ia)] = out
    return ModuleAlgebra(h, h.alg, StructureTensor((h.space, h.space), h.space, ent))


# -- module coalgebras / comodule algebras -----------------------------------

def self_module_coalgebra(h: HopfData) -> ModuleCoalgebra:
    """H over itself by left multiplication."""
    act = StructureTensor.from_matrix(h.alg.mul_matrix(), (h.space, h.space), h.space)
    return ModuleCoalgebra(h, h.coalg, act)


def trivial_module_coalgebra(h: HopfData) -> ModuleCoalgebra:
    """The ground field as a module coalgebra (counit action)."""
    s = BasedSpace(("c",))
    coalg = CoalgebraData(s, StructureTensor((s,), tensor_space(s, s), {(0,): {0: 1}}), {0: 1})
    eps = h.coalg.counit
    ent = {}
    for ih in range(h.dim):
        e = eps.get(ih, 0)
        if e:
            ent[(ih, 0)] = {0: e}
    return ModuleCoalgebra(h, coalg, StructureTensor((h.space, s), s, ent))


def self_comodule_algebra(h: HopfData) -> ComoduleAlgebra:
    """H over itself with the comultiplication as coaction."""
    co = StructureTensor.from_matrix(h.coalg.comul_matrix(), (h.space,), tensor_space(h.space, h.space))
    return ComoduleAlgebra(h, h.alg, co)


def trivial_comodule_algebra(h: HopfData) -> ComoduleAlgebra:
    """The ground field with coaction b -> 1 (x) b."""
    s = BasedSpace(("b",))
    alg = AlgebraData(s, StructureTensor((s, s), s, {(0, 0): {0: 1}}), {0: 1})
    ent = {(0,): {i: x for i, x in h.alg.unit.items()}}
    return ComoduleAlgebra(h, alg, StructureTensor((s,), tensor_space(h.space, s), ent))


# -- coalgebra-on-algebra actions --------------------------------------------

def module_action_as_coalgebra_action(mc: ModuleCoalgebra, ma: ModuleAlgebra) -> CoalgebraAction:
    """C = H acting on A through the module-algebra action (C must be H itself)."""
    if mc.coalg.space != ma.hopf.space:
        raise ValueError("expected the Hopf algebra itself as the coalgebra")
    return CoalgebraAction(mc, ma, ma.action)


def counit_coalgebra_action(mc: ModuleCoalgebra, ma: ModuleAlgebra) -> CoalgebraAction:
    """c . a = eps(c) a."""
    C, A = mc.coalg, ma.alg
    eps = C.counit
    ent = {}
    for ic in range(C.space.dim):
        e = eps.get(ic, 0)
        if e:
            for ia in range(A.space.dim):
                ent[(ic, ia)] = {ia: e}
    return CoalgebraAction(mc, ma, StructureTensor((C.space, A.space), A.space, ent))


# -- sub Hopf algebras --------------------------------------------------------

def kz4_with_kz2() -> tuple[HopfData, SubHopf]:
    h = group_algebra(4)
    return h, SubHopf(h, [{0: 1}, {2: 1}])


def unit_subhopf(h: HopfData) -> SubHopf:
    return SubHopf(h, [dict(h.alg.unit)])


# -- invariant traces ---------------------------------------------------------

def sum_trace(n: int):
    """The coordinate-sum functional on Q^(Z/n): delta-invariant sigma-trace
    for the trivial pair."""
    return {i: 1 for i in range(n)}


# -- shipped fixture files -----------------------------------------------------

def _block(header, kind, obj, **roles):
    """A fixture block: its header, then the structure lines of obj naming
    the spaces of roles."""
    return [header] + structure_lines(kind, roles, obj)


def _hopf_blocks(h):
    """The algebra, coalgebra and hopf blocks of h as the Hopf algebra H."""
    return (_block("algebra H", "algebra", h.alg, S=h.space)
            + _block("coalgebra H", "coalgebra", h.coalg, S=h.space)
            + _block("hopf H", "hopf", h, S=h.space))


def _self_comodule_blocks(h, labels):
    """H coacting on a copy B of itself by its comultiplication, B's basis
    relabelled."""
    ba = self_comodule_algebra(h)
    bspace = BasedSpace(labels)
    return (["space B = %s" % " ".join(labels)]
            + _block("algebra B", "algebra", ba.alg, S=bspace)
            + _block("comodule_algebra B over H", "comodule_algebra", ba, S=bspace, H=h.space))


def _group_fixture_text(n, extras=True):
    h = group_algebra(n)
    L = ["# group algebra of Z/%d with its standard Hopf structure" % n]
    L.append("space H = %s" % " ".join(h.space.labels))
    L += _hopf_blocks(h)
    L.append("character eps on H = %s" % " ".join(["1"] * n))
    L.append("grouplike one in H = 1*e")
    L.append("coefficients triv = mpi(eps, one)")
    mc = self_module_coalgebra(h)
    L += _block("module_coalgebra H over H", "module_coalgebra", mc, S=h.space, H=h.space)
    ma = permutation_module_algebra(n)
    L.append("space A = %s" % " ".join(ma.space.labels))
    L += _block("algebra A", "algebra", ma.alg, S=ma.space)
    L += _block("module_algebra A over H", "module_algebra", ma, S=ma.space, H=h.space)
    L += _self_comodule_blocks(h, tuple("b%d" % i for i in range(n)))
    L += _block("action ca : H on A", "action", module_action_as_coalgebra_action(mc, ma),
                C=h.space, A=ma.space)
    L.append("trace tr on A = %s" % " ".join(["1"] * n))
    if n == 2 and extras:
        L.append("grouplike gg in H = 1*g")
        L.append("coefficients twist = mpi(eps, gg)")
    L.append("complex hopf_triv = hopf(H, triv)")
    L.append("complex coalg_triv = coalgebra(H, triv)")
    L.append("complex alg_triv = algebra(A, triv)")
    L.append("complex comod_triv = comodule(B, triv)")
    if n == 2 and extras:
        L.append("complex hopf_twist = hopf(H, twist)")
        L.append("complex coalg_twist = coalgebra(H, twist)")
    L.append("context cup_coalg = coalgebra(ca, triv)")
    L.append("context cup_cross = crossed(A, B, triv)")
    return "\n".join(L) + "\n"


def _kz4_relative_text():
    h = group_algebra(4)
    ma = permutation_module_algebra(4)
    L = ["# Z/4 with the Z/2 sub-Hopf-algebra and the translation module algebra"]
    L.append("space H = %s" % " ".join(h.space.labels))
    L += _hopf_blocks(h)
    L.append("character eps on H = 1 1 1 1")
    L.append("grouplike one in H = 1*e")
    L.append("coefficients triv = mpi(eps, one)")
    L += _block("module_coalgebra H over H", "module_coalgebra", self_module_coalgebra(h),
                S=h.space, H=h.space)
    L.append("space A = %s" % " ".join(ma.space.labels))
    L += _block("algebra A", "algebra", ma.alg, S=ma.space)
    L += _block("module_algebra A over H", "module_algebra", ma, S=ma.space, H=h.space)
    L.append("subhopf K of H = 1*e ; 1*g2")
    L.append("complex coalg_triv = coalgebra(H, triv)")
    L.append("context cup_rel = relative(A, K, triv)")
    return "\n".join(L) + "\n"


def _h4_text():
    h = sweedler_h4()
    L = ["# the 4-dimensional Taft algebra"]
    L.append("space H = %s" % " ".join(h.space.labels))
    L += _hopf_blocks(h)
    L.append("character eps on H = 1 1 0 0")
    L.append("character delta on H = 1 -1 0 0")
    L.append("grouplike one in H = 1*1")
    L.append("coefficients taft = mpi(delta, one)")
    L += _block("module_coalgebra H over H", "module_coalgebra", self_module_coalgebra(h),
                S=h.space, H=h.space)
    L += _block("module_algebra H over H", "module_algebra", adjoint_module_algebra(h),
                S=h.space, H=h.space)
    L += _self_comodule_blocks(h, ("c1", "cg", "cx", "cgx"))
    L.append("complex hopf_taft = hopf(H, taft)")
    L.append("complex coalg_taft = coalgebra(H, taft)")
    L.append("complex alg_taft = algebra(H, taft)")
    L.append("complex comod_taft = comodule(B, taft)")
    return "\n".join(L) + "\n"


def _trivial_text():
    h = trivial_hopf()
    # H acts on itself by left multiplication, as a module (co)algebra and
    # as the action of its coalgebra on its algebra
    mc = self_module_coalgebra(h)
    L = ["# the one-dimensional Hopf algebra"]
    L.append("space H = 1")
    L += _hopf_blocks(h)
    L.append("character eps on H = 1")
    L.append("grouplike one in H = 1*1")
    L.append("coefficients triv = mpi(eps, one)")
    L += _block("module_coalgebra H over H", "module_coalgebra", mc, S=h.space, H=h.space)
    L += _block("module_algebra H over H", "module_algebra", mc, S=h.space, H=h.space)
    L += _block("action ca : H on H", "action", mc, C=h.space, A=h.space)
    L.append("trace tr on H = 1")
    L.append("complex hopf_triv = hopf(H, triv)")
    L.append("complex coalg_triv = coalgebra(H, triv)")
    L.append("complex alg_triv = algebra(H, triv)")
    L.append("context cup_coalg = coalgebra(ca, triv)")
    return "\n".join(L) + "\n"


def fixture_file_texts():
    """All shipped fixture files as name -> text."""
    return {
        "trivial.hcy": _trivial_text(),
        "kz2.hcy": _group_fixture_text(2),
        "kz3.hcy": _group_fixture_text(3),
        "kz4_relative.hcy": _kz4_relative_text(),
        "h4.hcy": _h4_text(),
    }
