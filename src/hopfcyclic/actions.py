"""Actions and coactions under a Hopf algebra.

Module algebras, module coalgebras, comodule algebras, SAYD coefficient
modules, coalgebra-on-algebra actions, invariant subalgebras, relative
coalgebras, crossed products and convolution algebras.  Every axiom is an
exact matrix identity; validators return exhaustive reports.
"""

from __future__ import annotations

from .linalg import (SparseMatrix, SpanSolver, KernelCoords, compose, first_residual,
                     tensor_kron, kernel_of_rows, scal, vec_acc, vec_axpy)
from .spaces import BasedSpace, GROUND, MultiIndex, StructureTensor, tensor_space
from .hopf import (AlgebraData, CoalgebraData, HopfData, ModularPair,
                   ValidationReport, Violation, swap_matrix, validate_algebra)


class NotClosed(Exception):
    """A product of invariants left the computed invariant span."""


class CoalgebraNotInduced(Exception):
    """The coalgebra structure does not descend to the quotient."""


class ActionNotDescended(Exception):
    """The induced action fails to factor through the quotient."""


# ---------------------------------------------------------------------------
# data bundles

class ModuleAlgebra:
    def __init__(self, hopf, alg, action):
        self.hopf = hopf
        self.alg = alg
        self.action = action      # StructureTensor H (x) A -> A

    @property
    def space(self):
        return self.alg.space


class ModuleCoalgebra:
    def __init__(self, hopf, coalg, action):
        self.hopf = hopf
        self.coalg = coalg
        self.action = action      # StructureTensor H (x) C -> C

    @property
    def space(self):
        return self.coalg.space


class ComoduleAlgebra:
    def __init__(self, hopf, alg, coaction):
        self.hopf = hopf
        self.alg = alg
        self.coaction = coaction  # StructureTensor B -> H (x) B

    @property
    def space(self):
        return self.alg.space


class SAYDModule:
    """Right module, left comodule; validity via validate_sayd."""

    def __init__(self, hopf, space, raction, lcoaction):
        self.hopf = hopf
        self.space = space
        self.raction = raction    # StructureTensor M (x) H -> M
        self.lcoaction = lcoaction  # StructureTensor M -> H (x) M


class CoalgebraAction:
    """A module coalgebra acting on a module algebra over the same Hopf algebra."""

    def __init__(self, mc, ma, action):
        if mc.hopf is not ma.hopf and mc.hopf.space != ma.hopf.space:
            raise ValueError("coalgebra and algebra carry different Hopf symmetries")
        self.mc = mc
        self.ma = ma
        self.action = action      # StructureTensor C (x) A -> A
        self.hopf = ma.hopf


class SubHopf:
    def __init__(self, hopf, spanning):
        self.hopf = hopf
        self.spanning = [dict(v) for v in spanning]


# ---------------------------------------------------------------------------
# validators

def _module_law(rep, hopf, space, act_m, prefix):
    I_A = SparseMatrix.identity(space.dim)
    mul = hopf.alg.mul.matrix
    eta = hopf.alg.unit_matrix()
    rep.law(prefix + "-action-associative", (hopf.space, hopf.space, space),
            (1, act_m, tensor_kron(mul, I_A)),
            (-1, act_m, tensor_kron(SparseMatrix.identity(hopf.dim), act_m)))
    rep.law(prefix + "-action-unital", (space,), (1, act_m, tensor_kron(eta, I_A)), (-1, None, None))


def validate_module_algebra(ma: ModuleAlgebra) -> ValidationReport:
    rep = ValidationReport("module-algebra")
    rep.merge(validate_algebra(ma.alg))
    h, A = ma.hopf, ma.alg
    d, a = h.dim, A.space.dim
    act = ma.action.matrix
    _module_law(rep, h, A.space, act, "module")
    I_H = SparseMatrix.identity(d)
    I_A = SparseMatrix.identity(a)
    mulA = A.mul.matrix
    com = h.coalg.comul.matrix
    # h(xy) = (h1 x)(h2 y)
    rep.law("action-multiplicative", (h.space, A.space, A.space),
            (1, act, tensor_kron(I_H, mulA)),
            (-1, mulA, compose(tensor_kron(act, act),
                               compose(tensor_kron(I_H, tensor_kron(swap_matrix(d, a), I_A)),
                                       tensor_kron(com, tensor_kron(I_A, I_A))))))
    # h(1) = eps(h) 1
    etaA = A.unit_matrix()
    eps = h.coalg.counit_matrix()
    rep.law("action-on-unit", (h.space,), (1, act, tensor_kron(I_H, etaA)), (-1, etaA, eps))
    return rep.sort()


def validate_module_coalgebra(mc: ModuleCoalgebra) -> ValidationReport:
    from .hopf import validate_coalgebra
    rep = ValidationReport("module-coalgebra")
    rep.merge(validate_coalgebra(mc.coalg))
    h, C = mc.hopf, mc.coalg
    d, c = h.dim, C.space.dim
    act = mc.action.matrix
    _module_law(rep, h, C.space, act, "module")
    I_H = SparseMatrix.identity(d)
    comC = C.comul.matrix
    comH = h.coalg.comul.matrix
    # Delta(hc) = h1 c1 (x) h2 c2
    rep.law("comul-equivariant", (h.space, C.space), (1, comC, act),
            (-1, tensor_kron(act, act),
             compose(tensor_kron(I_H, tensor_kron(swap_matrix(d, c), SparseMatrix.identity(c))),
                     tensor_kron(comH, comC))))
    # eps(hc) = eps(h) eps(c)
    epsC = C.counit_matrix()
    epsH = h.coalg.counit_matrix()
    rep.law("counit-equivariant", (h.space, C.space),
            (1, epsC, act), (-1, tensor_kron(epsH, epsC), None))
    return rep.sort()


def validate_comodule_algebra(ba: ComoduleAlgebra) -> ValidationReport:
    rep = ValidationReport("comodule-algebra")
    rep.merge(validate_algebra(ba.alg))
    h, B = ba.hopf, ba.alg
    d, b = h.dim, B.space.dim
    co = ba.coaction.matrix        # B -> H (x) B
    I_B = SparseMatrix.identity(b)
    I_H = SparseMatrix.identity(d)
    comH = h.coalg.comul.matrix
    epsH = h.coalg.counit_matrix()
    # comodule laws
    rep.law("coaction-coassociative", (B.space,),
            (1, tensor_kron(I_H, co), co), (-1, tensor_kron(comH, I_B), co))
    rep.law("coaction-counital", (B.space,), (1, tensor_kron(epsH, I_B), co), (-1, None, None))
    # coaction is an algebra map
    mulB = B.mul.matrix
    mulH = h.alg.mul.matrix
    rep.law("coaction-multiplicative", (B.space, B.space), (1, co, mulB),
            (-1, tensor_kron(mulH, mulB),
             compose(tensor_kron(I_H, tensor_kron(swap_matrix(b, d), I_B)), tensor_kron(co, co))))
    etaB = B.unit_matrix()
    etaH = h.alg.unit_matrix()
    rep.law("coaction-unital", (GROUND,), (1, co, etaB), (-1, tensor_kron(etaH, etaB), None))
    return rep.sort()


def validate_sayd(m: SAYDModule) -> ValidationReport:
    """Stability reads raction(m^(0), m^(-1)) = m; see ledger for the convention."""
    rep = ValidationReport("sayd")
    h = m.hopf
    d, mm = h.dim, m.space.dim
    ract = m.raction.matrix        # M (x) H -> M
    coact = m.lcoaction.matrix     # M -> H (x) M
    I_H = SparseMatrix.identity(d)
    I_M = SparseMatrix.identity(mm)
    mul = h.alg.mul.matrix
    eta = h.alg.unit_matrix()
    comH = h.coalg.comul.matrix
    epsH = h.coalg.counit_matrix()
    # right module laws
    rep.law("module-associative", (m.space, h.space, h.space),
            (1, ract, tensor_kron(ract, I_H)), (-1, ract, tensor_kron(I_M, mul)))
    rep.law("module-unital", (m.space,), (1, ract, tensor_kron(I_M, eta)), (-1, None, None))
    # left comodule laws
    rep.law("comodule-coassociative", (m.space,),
            (1, tensor_kron(I_H, coact), coact), (-1, tensor_kron(comH, I_M), coact))
    rep.law("comodule-counital", (m.space,),
            (1, tensor_kron(epsH, I_M), coact), (-1, None, None))
    # stability m^(0) . m^(-1) = m
    rep.law("stability", (m.space,),
            (1, ract, compose(swap_matrix(d, mm), coact)), (-1, None, None))
    # anti-Yetter-Drinfeld: coact(m h) = S(h3) m^(-1) h1 (x) m^(0) h2,
    # both sides M (x) H -> H (x) M
    com2 = compose(tensor_kron(comH, I_H), comH)         # H -> H^3
    step = compose(tensor_kron(coact, SparseMatrix.identity(d ** 3)),
                   tensor_kron(I_M, com2))               # M(x)H -> H(x)M(x)H^3
    # slots (m-1, m0, h1, h2, h3) -> (h3, m-1, h1, m0, h2)
    P = perm_tensor_matrix((d, mm, d, d, d), (4, 0, 2, 1, 3))
    S = h.antipode
    mu3 = compose(mul, tensor_kron(mul, I_H))            # H^3 -> H
    mu3S = compose(mu3, tensor_kron(S, SparseMatrix.identity(d * d)))
    rep.law("anti-yetter-drinfeld", (m.space, h.space),
            (1, coact, ract), (-1, tensor_kron(mu3S, ract), compose(P, step)))
    return rep.sort()


def perm_tensor_matrix(dims, order):
    """Permutation of tensor slots: output slot k carries input slot order[k]."""
    mi_in = MultiIndex(dims)
    mi_out = MultiIndex(tuple(dims[i] for i in order))
    return SparseMatrix.from_columns(
        [{mi_out.flat(tuple(idx[i] for i in order)): 1}
         for idx in map(mi_in.unflat, range(mi_in.size))], mi_out.size)


def validate_coalgebra_action(ca: CoalgebraAction) -> ValidationReport:
    rep = ValidationReport("coalgebra-action")
    h = ca.hopf
    C, A = ca.mc.coalg, ca.ma.alg
    d, c, a = h.dim, C.space.dim, A.space.dim
    act = ca.action.matrix         # C (x) A -> A
    actC = ca.mc.action.matrix     # H (x) C -> C
    actA = ca.ma.action.matrix     # H (x) A -> A
    I_H, I_C, I_A = (SparseMatrix.identity(n) for n in (d, c, a))
    # (hc)a = h(ca)
    rep.law("h-linearity", (h.space, C.space, A.space),
            (1, act, tensor_kron(actC, I_A)), (-1, actA, tensor_kron(I_H, act)))
    # c(xy) = (c1 x)(c2 y)
    mulA = A.mul.matrix
    comC = C.comul.matrix
    rep.law("action-multiplicative", (C.space, A.space, A.space),
            (1, act, tensor_kron(I_C, mulA)),
            (-1, mulA, compose(tensor_kron(act, act),
                               compose(tensor_kron(I_C, tensor_kron(swap_matrix(c, a), I_A)),
                                       tensor_kron(comC, tensor_kron(I_A, I_A))))))
    # c(1) = eps(c) 1
    etaA = A.unit_matrix()
    epsC = C.counit_matrix()
    rep.law("action-on-unit", (C.space,), (1, act, tensor_kron(I_C, etaA)), (-1, etaA, epsC))
    return rep.sort()


def validate_subhopf(k: SubHopf) -> ValidationReport:
    rep = ValidationReport("subhopf")
    h = k.hopf
    solver = SpanSolver()
    for v in k.spanning:
        solver.add(v)
    if solver.reduce(dict(h.alg.unit)):
        rep.violations.append(Violation("contains-unit", ("1",), dict(h.alg.unit)))
    basis = solver.rref()
    mul = h.alg.mul
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            w = mul.apply(u, v)
            r = solver.reduce(w)
            if r:
                rep.violations.append(Violation("closed-under-product", (str(i), str(j)), r))
    # Delta(K) within K (x) K
    pair = SpanSolver()
    d = h.dim
    for u in basis:
        for v in basis:
            vec = {}
            for iu, xu in u.items():
                for iv, xv in v.items():
                    vec[iu * d + iv] = scal(xu * xv)
            pair.add(vec)
    com = h.coalg.comul
    for i, u in enumerate(basis):
        w = com.apply(u)
        r = pair.reduce(w)
        if r:
            rep.violations.append(Violation("closed-under-comul", (str(i),), r))
    for i, u in enumerate(basis):
        w = h.antipode.apply(u)
        r = solver.reduce(w)
        if r:
            rep.violations.append(Violation("closed-under-antipode", (str(i),), r))
    return rep.sort()


# ---------------------------------------------------------------------------
# constructions

def mpi_coefficients(mp: ModularPair) -> SAYDModule:
    """1-dimensional coefficients: right action by the character, left coaction by sigma."""
    h = mp.hopf
    M = BasedSpace(("m",))
    ract = StructureTensor((M, h.space), M,
                           {(0, i): {0: x} for i, x in mp.delta.items() if x})
    lco = StructureTensor((M,), tensor_space(h.space, M),
                          {(0,): {i * 1 + 0: x for i, x in mp.sigma.items()}})
    return SAYDModule(h, M, ract, lco)


def trivial_sayd(hopf) -> SAYDModule:
    """Trivial coefficients: action by the counit, coaction by the unit."""
    return mpi_coefficients(ModularPair(hopf, dict(hopf.coalg.counit), dict(hopf.alg.unit)))


def invariant_subalgebra(ma: ModuleAlgebra, k: SubHopf):
    """(AlgebraData on the invariants, inclusion matrix into the big algebra)."""
    A = ma.alg
    a = A.space.dim
    I_A = SparseMatrix.identity(a)
    eps = ma.hopf.coalg.counit

    def rows():
        for kv in k.spanning:
            # the rows of act(kv (x) -) - eps(kv) id
            cols = []
            for j in range(a):
                cols.append(ma.action.apply(kv, {j: 1}))
            m = SparseMatrix.from_columns(cols, a)
            epsk = scal(sum(eps.get(i, 0) * x for i, x in kv.items()))
            yield from (m - I_A.scale(epsk)).row_vectors()
    basis = kernel_of_rows(rows(), a)
    reader = KernelCoords(basis)
    space = BasedSpace(tuple("inv%d" % i for i in range(len(basis))))
    ent = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            w = A.mul.apply(u, v)
            coeff = reader.solve(w)
            if coeff is None:
                raise NotClosed("product of invariants %d,%d leaves the invariant span" % (i, j))
            if coeff:
                ent[(i, j)] = coeff
    unit = reader.solve(dict(A.unit))
    if unit is None:
        raise NotClosed("unit is not invariant; module-algebra axioms are broken upstream")
    mul = StructureTensor((space, space), space, ent)
    inclusion = SparseMatrix.from_columns(basis, a)
    return AlgebraData(space, mul, unit), inclusion


def relative_coalgebra(h: HopfData, k: SubHopf):
    """Quotient of H by the right ideal h.k - eps(k)h, as a module coalgebra.

    Returns (ModuleCoalgebra, projection matrix H -> C).
    """
    d = h.dim
    eps = h.coalg.counit
    rel = []
    for bi in range(d):
        for kv in k.spanning:
            w = h.alg.mul.apply({bi: 1}, kv)
            epsk = scal(sum(eps.get(i, 0) * x for i, x in kv.items()))
            vec_axpy(w, -epsk, {bi: 1})
            if w:
                rel.append(w)
    quo = QuotientSpace(d, rel)
    proj = quo.projection_matrix()
    sect = quo.inclusion_matrix()
    R = SparseMatrix.from_columns(rel, d)       # the relations as columns
    # counit must kill the ideal
    epsM = h.coalg.counit_matrix()
    if first_residual([(1, epsM.plan, R.plan)], len(rel)) is not None:
        raise CoalgebraNotInduced("counit does not vanish on the ideal")
    # comultiplication must descend: (pi (x) pi) Delta (ideal) = 0
    pp = tensor_kron(proj, proj)
    com = h.coalg.comul.matrix
    if first_residual([(1, pp.plan, compose(com, R).plan)], len(rel)) is not None:
        raise CoalgebraNotInduced("comultiplication does not descend to the quotient")
    # left action must descend: pi(mul(H (x) ideal)) = 0
    mul = h.alg.mul.matrix
    I_H = SparseMatrix.identity(d)
    if first_residual([(1, proj.plan, compose(mul, tensor_kron(I_H, R)).plan)],
                      d * len(rel)) is not None:
        raise ActionNotDescended("left action does not descend to the quotient")
    labels = tuple("[%s]" % h.space.labels[f] for f in quo.free)
    C = BasedSpace(labels)
    comul_q = compose(pp, compose(com, sect))
    counit_q = compose(epsM, sect)
    coalg = CoalgebraData(C, StructureTensor.from_matrix(comul_q, (C,), tensor_space(C, C)),
                          {i: x for i, col in enumerate(counit_q.plan) for _, x in col})
    act_q = compose(proj, compose(mul, tensor_kron(I_H, sect)))
    action = StructureTensor.from_matrix(act_q, (h.space, C), C)
    return ModuleCoalgebra(h, coalg, action), proj


class QuotientSpace:
    """Ambient space modulo a relation span, with canonical free-coordinate basis."""

    def __init__(self, ambient_dim, relation_vectors):
        self.ambient_dim = ambient_dim
        self.solver = SpanSolver()
        for v in relation_vectors:
            self.solver.add(v)
        self.solver.rref()
        pivot_set = set(self.solver.pivots)
        self.free = [i for i in range(ambient_dim) if i not in pivot_set]
        self.pos = {f: i for i, f in enumerate(self.free)}

    @property
    def dim(self):
        return len(self.free)

    def project_vec(self, vec):
        red = self.solver.reduce(vec)
        return {self.pos[i]: x for i, x in red.items()}

    def include_vec(self, qvec):
        return {self.free[i]: x for i, x in qvec.items()}

    def projection_matrix(self):
        cols = [self.project_vec({i: 1}) for i in range(self.ambient_dim)]
        return SparseMatrix.from_columns(cols, self.dim)

    def inclusion_matrix(self):
        cols = [{self.free[i]: 1} for i in range(self.dim)]
        return SparseMatrix.from_columns(cols, self.ambient_dim)


def crossed_product(ma: ModuleAlgebra, ba: ComoduleAlgebra) -> AlgebraData:
    """Algebra on A (x) B with product (a><b)(a'><b') = a b^(-1)(a') >< b^(0) b'."""
    if ma.hopf.space != ba.hopf.space:
        raise ValueError("crossed product requires one Hopf algebra on both sides")
    A, B = ma.alg, ba.alg
    a, b = A.space.dim, B.space.dim
    space = tensor_space(A.space, B.space)
    mi = MultiIndex((a, b))
    ent = {}
    for ia in range(a):
        for ib in range(b):
            co = ba.coaction.value((ib,))     # sparse over H (x) B
            for ja in range(a):
                for jb in range(b):
                    out = {}
                    for hb, x in co.items():
                        ih, ib0 = divmod(hb, b)
                        ha = ma.action.value((ih, ja))          # h . a'
                        left = A.mul.apply({ia: 1}, ha)         # a (h a')
                        right = B.mul.apply({ib0: 1}, {jb: 1})  # b0 b'
                        for la, xa in left.items():
                            for lb, xb in right.items():
                                vec_acc(out, la * b + lb, x * xa * xb)
                    if out:
                        ent[(mi.flat((ia, ib)), mi.flat((ja, jb)))] = out
    mul = StructureTensor((space, space), space, ent)
    unit = {}
    for iu, xu in A.unit.items():
        for ju, xj in B.unit.items():
            unit[iu * b + ju] = scal(xu * xj)
    out = AlgebraData(space, mul, unit)
    rep = validate_algebra(out)
    if not rep.ok:
        raise ValueError("crossed product failed to be associative/unital; inputs are inconsistent: %r" % rep)
    return out


class ConvolutionAlgebra:
    """Hom_H(C, A) with the convolution product.

    maps[i] is the i-th basis element as a matrix C -> A; flat coordinates
    are (a-index major, c-index minor); reader (KernelCoords on the flat
    basis) expresses arbitrary H-linear maps over the basis.
    """

    def __init__(self, algebra, maps, reader, cdim):
        self.algebra = algebra
        self.maps = maps
        self.reader = reader
        self.cdim = cdim

    def coords(self, matrix):
        return self.reader.solve(_flatten(matrix, self.cdim))


def _flatten(matrix, cdim):
    """A map C -> A as a vector on the flat coordinates (a major, c minor)."""
    return {ia * cdim + ic: x for ic, col in enumerate(matrix.plan) for ia, x in col}


def convolution_algebra(ca: CoalgebraAction) -> ConvolutionAlgebra:
    """Equivariant maps C -> A with (f*g)(c) = f(c1) g(c2); unit eta.eps."""
    h = ca.hopf
    C, A = ca.mc.coalg, ca.ma.alg
    c, a, d = C.space.dim, A.space.dim, h.dim
    # kernel of the equivariance system  f(h.c) = h.f(c)
    def rows():
        for ih in range(d):
            for ic in range(c):
                moved = ca.mc.action.value((ih, ic))      # h . c in C
                for ia in range(a):
                    row = {}
                    for jc, x in moved.items():
                        vec_acc(row, ia * c + jc, x)
                    # minus h . f(c): f(c) = sum_ja f[ja,ic] e_ja
                    for ja in range(a):
                        x = ca.ma.action.value((ih, ja)).get(ia)
                        if x:
                            vec_acc(row, ja * c + ic, -x)
                    yield row
    basis = kernel_of_rows(rows(), a * c)
    maps = []
    for v in basis:
        ent = {}
        for flat, x in v.items():
            ia, ic = divmod(flat, c)
            ent[(ia, ic)] = x
        maps.append(SparseMatrix(a, c, ent))
    reader = KernelCoords(basis)
    space = BasedSpace(tuple("f%d" % i for i in range(len(basis))))
    mulA = A.mul.matrix
    comC = C.comul.matrix
    ent = {}
    for i, fi in enumerate(maps):
        for j, fj in enumerate(maps):
            prod = compose(mulA, compose(tensor_kron(fi, fj), comC))
            coeff = reader.solve(_flatten(prod, c))
            if coeff is None:
                raise NotClosed("convolution product left the equivariant span")
            if coeff:
                ent[(i, j)] = coeff
    unit_map = compose(A.unit_matrix(), C.counit_matrix())
    unit = reader.solve(_flatten(unit_map, c))
    if unit is None:
        raise NotClosed("unit eta.eps is not equivariant; inputs are inconsistent")
    mul = StructureTensor((space, space), space, ent)
    alg = AlgebraData(space, mul, unit)
    return ConvolutionAlgebra(alg, maps, reader, c)
