"""Cup products on Hopf-cyclic cohomology.

Three pairing maps from diagonal complexes into the cyclic complex of a
target algebra (convolution algebra, base algebra and invariant subalgebra),
the crossed-product pairing, their chain-map certificates, the composed
front/back-face cup, the explicit closed formulas with mismatch surfacing,
the characteristic map of an invariant trace and the shuffle-sum cups.

Conventions pinned by calibration (see the repo notes): the composed cup
applies zeroth faces to the algebra-side argument and twisted last faces to
the coalgebra-side argument; with that split the explicit coalgebra formula
is reproduced entrywise for trivially-coacting coefficients.
"""

from __future__ import annotations

from itertools import product as iproduct

from .linalg import (SparseMatrix, SpanSolver, compose, tensor_kron, scal,
                     vec_acc, vec_sub, mul_vec, kernel_basis)
from .spaces import MultiIndex
from .hopf import ModularPair, iterated_coproduct
from .actions import (CoalgebraAction, SAYDModule, convolution_algebra,
                      invariant_subalgebra, relative_coalgebra, crossed_product,
                      validate_module_algebra, validate_module_coalgebra,
                      validate_comodule_algebra, validate_sayd,
                      validate_coalgebra_action, validate_subhopf,
                      ActionNotDescended)
from .complexes import (build_algebra_complex, build_coalgebra_complex,
                        build_comodule_algebra_complex, plain_cyclic_complex,
                        product_complex, HopfTables)
from .cohomology import hochschild_b, lam


class ChainMapFailure(Exception):
    pass


class NotACocycle(Exception):
    pass


class NotInvariantTrace(Exception):
    pass


class MismatchWithAW(Exception):
    """Explicit formula differs from the composed cup; carries the difference."""

    def __init__(self, message, difference):
        super().__init__(message)
        self.difference = difference


def _require_valid(reports):
    bad = [r for r in reports if not r.ok]
    if bad:
        raise ValueError("cup context components failed validation: %r" % bad)


def _pair(phi_amb, mi, mindex, slot_vecs):
    """phi(m (x) v_0 (x) ... (x) v_n) for sparse slot vectors."""
    total = 0
    for combo in iproduct(*[list(v.items()) for v in slot_vecs]):
        c = phi_amb.get(mi.flat((mindex,) + tuple(i for i, _ in combo)))
        if c:
            x = c
            for _, y in combo:
                x = x * y
            total += x
    return scal(total)


def certify_chain_map(src, tgt, mats, what):
    """mats[n]: src degree n -> tgt degree n must intertwine all operators."""
    N, top = src.N, src.top
    for n in range(N + 1):
        for i in range(n + 2):
            if compose(mats[n + 1], src.face(n, i)) != compose(tgt.face(n, i), mats[n]):
                raise ChainMapFailure("%s: face %d at degree %d" % (what, i, n))
    for n in range(1, top + 1):
        for j in range(n):
            if compose(mats[n - 1], src.degen(n, j)) != compose(tgt.degen(n, j), mats[n]):
                raise ChainMapFailure("%s: degeneracy %d at degree %d" % (what, j, n))
    for n in range(top + 1):
        if compose(mats[n], src.tau(n)) != compose(tgt.tau(n), mats[n]):
            raise ChainMapFailure("%s: cyclic operator at degree %d" % (what, n))


def _assert_standard_basis(data):
    # plain cyclic complexes realize the full dual with the identity basis
    for n, basis in enumerate(data.bases):
        for k, v in enumerate(basis):
            if v != {k: 1}:
                raise AssertionError("plain complex basis is not standard at degree %d" % n)


# ---------------------------------------------------------------------------
# contexts

class CoalgebraCupContext:
    """Module coalgebra acting on a module algebra, plus coefficients."""

    kind = "coalgebra"

    def __init__(self, ca: CoalgebraAction, sayd: SAYDModule, N=3):
        _require_valid([validate_module_algebra(ca.ma),
                        validate_module_coalgebra(ca.mc),
                        validate_coalgebra_action(ca),
                        validate_sayd(sayd)])
        self.ca = ca
        self.sayd = sayd
        self.N = N
        self.hopf = ca.hopf
        self.alg = build_algebra_complex(ca.ma, sayd, N)
        self.coalg = build_coalgebra_complex(ca.mc, sayd, N)
        self.diag = product_complex(self.alg.complex, self.coalg.complex)
        self.conv = convolution_algebra(ca)
        self.conv_cx = plain_cyclic_complex(self.conv.algebra, N)
        self.a_cx = plain_cyclic_complex(ca.ma.alg, N)
        _assert_standard_basis(self.conv_cx)
        _assert_standard_basis(self.a_cx)
        self._act = {idx: sorted(v.items()) for idx, v in ca.action.entries.items()}
        self._amul = {idx: sorted(v.items()) for idx, v in ca.ma.alg.mul.entries.items()}
        self._psi_c = None
        self._psi = None
        self._nat = None

    # -- the evaluation pairing into the convolution algebra

    def psi_c_matrices(self):
        if self._psi_c is not None:
            return self._psi_c
        bdim = self.conv.algebra.space.dim
        mats = []
        for n in range(self.N + 2):
            alg_b = self.alg.bases[n]
            quo = self.coalg.quotients[n]
            mi_amb_c = self.coalg.ambients[n]
            mi_amb_a = self.alg.ambients[n]
            mi_b = MultiIndex((bdim,) * (n + 1))
            cols = []
            for alpha in range(len(alg_b)):
                phi = alg_b[alpha]
                for j in range(quo.dim):
                    rep = quo.include_vec({j: 1})
                    col = {}
                    for bt in iproduct(range(bdim), repeat=n + 1):
                        total = 0
                        for f, c0 in rep.items():
                            idx = mi_amb_c.unflat(f)
                            mindex, ct = idx[0], idx[1:]
                            slots = [self.conv.maps[bt[k]].column(ct[k]) for k in range(n + 1)]
                            total += c0 * _pair(phi, mi_amb_a, mindex, slots)
                        if total:
                            col[mi_b.flat(bt)] = scal(total)
                    cols.append(col)
            mats.append(SparseMatrix.from_columns(cols, mi_b.size))
        certify_chain_map(self.diag, self.conv_cx.complex, mats, "convolution pairing")
        self._psi_c = mats
        return mats

    # -- natural embedding of A into the convolution algebra

    def natural_map(self):
        if self._nat is not None:
            return self._nat
        adim = self.ca.ma.space.dim
        cdim = self.ca.mc.space.dim
        cols = []
        for a in range(adim):
            m = SparseMatrix.from_columns(
                [dict(self._act.get((c, a), ())) for c in range(cdim)], adim)
            coords = self.conv.coords(m)
            if coords is None:
                raise ChainMapFailure("evaluation against a basis element is not equivariant")
            cols.append(coords)
        nat = SparseMatrix.from_columns(cols, self.conv.algebra.space.dim)
        # unital
        unit_a = dict(self.ca.ma.alg.unit)
        if nat.apply(unit_a) != dict(self.conv.algebra.unit):
            raise ChainMapFailure("natural embedding is not unital")
        # multiplicative
        conv_mul = self.conv.algebra.mul
        amul = self.ca.ma.alg.mul
        for i in range(adim):
            for j in range(adim):
                lhs = nat.apply(amul.apply({i: 1}, {j: 1}))
                rhs = conv_mul.apply(nat.column(i), nat.column(j))
                if lhs != rhs:
                    raise ChainMapFailure("natural embedding is not multiplicative at (%d,%d)" % (i, j))
        self._nat = nat
        return nat

    def psi_matrices(self):
        if self._psi is not None:
            return self._psi
        nat = self.natural_map()
        mats = []
        for n, m in enumerate(self.psi_c_matrices()):
            pull = nat
            for _ in range(n):
                pull = tensor_kron(pull, nat)
            mats.append(compose(pull.transpose(), m))
        certify_chain_map(self.diag, self.a_cx.complex, mats, "algebra pairing")
        self._psi = mats
        return mats

    # cochain sides used by the generic cup driver
    def phi_complex(self):
        return self.alg

    def x_complex(self):
        return self.coalg.complex

    def pairing(self):
        return self.psi_matrices()

    def target(self):
        return self.a_cx


class RelativeCupContext:
    """Module algebra with a sub-Hopf algebra: relative coalgebra acting on
    the invariant subalgebra."""

    kind = "relative"

    def __init__(self, ma, k, sayd, N=3):
        _require_valid([validate_module_algebra(ma), validate_sayd(sayd),
                        validate_subhopf(k)])
        self.ma = ma
        self.k = k
        self.sayd = sayd
        self.N = N
        self.hopf = ma.hopf
        self.inv_alg, self.inclusion = invariant_subalgebra(ma, k)
        self.relc, self.proj = relative_coalgebra(ma.hopf, k)
        _require_valid([validate_module_coalgebra(self.relc)])
        self._build_class_action()
        self.alg = build_algebra_complex(ma, sayd, N)
        self.coalg = build_coalgebra_complex(self.relc, sayd, N)
        self.diag = product_complex(self.alg.complex, self.coalg.complex)
        self.ak_cx = plain_cyclic_complex(self.inv_alg, N)
        _assert_standard_basis(self.ak_cx)
        self._psi_r = None

    def _build_class_action(self):
        """Representative action of the relative coalgebra on the invariants.

        Checks that it factors through the quotient and lands in the
        invariant span; the in-A values are kept for the pairing."""
        h = self.hopf
        akdim = self.inv_alg.space.dim
        cdim = self.relc.space.dim
        inc_cols = self.inclusion.columns()
        quoS = self.proj
        # recover coset representatives: solve proj(e_h) = e_class
        reps = []
        for j in range(cdim):
            # the projection's free coordinate j corresponds to an H basis vector
            found = None
            for hh in range(h.dim):
                if quoS.column(hh) == {j: 1}:
                    found = hh
                    break
            if found is None:
                raise ActionNotDescended("no monomial representative for class %d" % j)
            reps.append(found)
        self.class_reps = reps
        # factoring through the quotient: the ideal must kill every invariant
        ker = kernel_basis(self.proj)
        for r in ker:
            for a in range(akdim):
                if self.ma.action.apply(r, inc_cols[a]):
                    raise ActionNotDescended("relative action does not factor through the quotient")
        # values on representatives, solved back into the invariant span
        inv_solver = SpanSolver(track=True)
        for c in inc_cols:
            inv_solver.add(c)
        self.class_act_in_A = {}    # (class, invariant) -> sparse A vector
        ent = {}
        for j, hh in enumerate(reps):
            for a in range(akdim):
                out = self.ma.action.apply({hh: 1}, inc_cols[a])
                self.class_act_in_A[(j, a)] = out
                coords = inv_solver.solve(out)
                if coords is None:
                    raise ActionNotDescended("relative action leaves the invariant subalgebra")
                if coords:
                    ent[(j, a)] = coords
        from .spaces import StructureTensor
        self.class_action = StructureTensor((self.relc.space, self.inv_alg.space),
                                            self.inv_alg.space, ent)

    def psi_r_matrices(self):
        if self._psi_r is not None:
            return self._psi_r
        akdim = self.inv_alg.space.dim
        mats = []
        for n in range(self.N + 2):
            alg_b = self.alg.bases[n]
            quo = self.coalg.quotients[n]
            mi_amb_c = self.coalg.ambients[n]
            mi_amb_a = self.alg.ambients[n]
            mi_t = MultiIndex((akdim,) * (n + 1))
            cols = []
            for alpha in range(len(alg_b)):
                phi = alg_b[alpha]
                for j in range(quo.dim):
                    rep = quo.include_vec({j: 1})
                    col = {}
                    for at in iproduct(range(akdim), repeat=n + 1):
                        total = 0
                        for f, c0 in rep.items():
                            idx = mi_amb_c.unflat(f)
                            mindex, ct = idx[0], idx[1:]
                            slots = [self.class_act_in_A[(ct[k], at[k])] for k in range(n + 1)]
                            total += c0 * _pair(phi, mi_amb_a, mindex, slots)
                        if total:
                            col[mi_t.flat(at)] = scal(total)
                    cols.append(col)
            mats.append(SparseMatrix.from_columns(cols, mi_t.size))
        certify_chain_map(self.diag, self.ak_cx.complex, mats, "relative pairing")
        self._psi_r = mats
        return mats

    def phi_complex(self):
        return self.alg

    def x_complex(self):
        return self.coalg.complex

    def pairing(self):
        return self.psi_r_matrices()

    def target(self):
        return self.ak_cx


class CrossedCupContext:
    """Module algebra paired with a comodule algebra over one Hopf algebra."""

    kind = "crossed"

    def __init__(self, ma, ba, sayd, N=3):
        _require_valid([validate_module_algebra(ma),
                        validate_comodule_algebra(ba),
                        validate_sayd(sayd)])
        self.ma = ma
        self.ba = ba
        self.sayd = sayd
        self.N = N
        self.hopf = ma.hopf
        self.alg = build_algebra_complex(ma, sayd, N)
        self.comod = build_comodule_algebra_complex(ba, sayd, N)
        self.diag = product_complex(self.alg.complex, self.comod.complex)
        self.ab = crossed_product(ma, ba)
        self.ab_cx = plain_cyclic_complex(self.ab, N)
        _assert_standard_basis(self.ab_cx)
        self.tabs = HopfTables.of(self.hopf)
        self._coact = {i: sorted(((divmod(kk, ba.space.dim)), x) for kk, x in
                                 ba.coaction.value((i,)).items()) for i in range(ba.space.dim)}
        self._act = {idx: sorted(v.items()) for idx, v in ma.action.entries.items()}
        self._amul = {idx: sorted(v.items()) for idx, v in ma.alg.mul.entries.items()}
        self._psi = None

    def _leg_product(self, legs):
        """The product legs[0] legs[1] ... in H as a sparse vector."""
        hv = {legs[0]: 1}
        for leg in legs[1:]:
            if not hv:
                break
            hv = mul_vec(self.tabs.mul, hv, {leg: 1})
        return hv

    def iterated_coaction(self, b, depth):
        """[(legs tuple deepest-first, b0, coeff)] for depth applications."""
        terms = [((), b, 1)]
        for _ in range(depth):
            nxt = []
            for legs, bb, c in terms:
                for (hh, b0), x in self._coact.get(bb, ()):
                    nxt.append((legs + (hh,), b0, scal(c * x)))
            terms = nxt
        # legs were appended innermost-last; deepest leg is the first produced
        return terms

    def psi_cross_matrices(self):
        if self._psi is not None:
            return self._psi
        adim = self.ma.space.dim
        bdim = self.ba.space.dim
        mdim = self.sayd.space.dim
        mats = []
        for n in range(self.N + 2):
            alg_b = self.alg.bases[n]
            com_b = self.comod.bases[n]
            mi_amb_a = self.alg.ambients[n]
            mi_amb_b = self.comod.ambients[n]
            mi_t = MultiIndex((adim * bdim,) * (n + 1))
            cols = []
            for alpha in range(len(alg_b)):
                phi = alg_b[alpha]
                for beta in range(len(com_b)):
                    psi = com_b[beta]
                    col = {}
                    for abt in iproduct(range(adim * bdim), repeat=n + 1):
                        ats = tuple(v // bdim for v in abt)
                        bts = tuple(v % bdim for v in abt)
                        total = 0
                        # expand all iterated coactions: slot j needs j+1 legs
                        expansions = [self.iterated_coaction(bts[j], j + 1) for j in range(n + 1)]
                        for combo in iproduct(*expansions):
                            coeff = 1
                            for _, _, c in combo:
                                coeff = coeff * c
                            b0s = tuple(t[1] for t in combo)
                            # psi value in M
                            mvals = {}
                            for mi_ in range(mdim):
                                c = psi.get(mi_amb_b.flat((mi_,) + b0s))
                                if c:
                                    mvals[mi_] = c
                            if not mvals:
                                continue
                            # slot i: Sinv(prod_{j>=i} leg_j at depth i+1) . a_i
                            slots = []
                            dead = False
                            for i in range(n + 1):
                                # depth -(i+1) legs, deepest first
                                hv = self._leg_product([combo[j][0][j - i] for j in range(i, n + 1)])
                                av = mul_vec(self._act, self.hopf.antipode_inv.apply(hv), {ats[i]: 1})
                                if not av:
                                    dead = True
                                    break
                                slots.append(av)
                            if dead:
                                continue
                            for mi_, mc in mvals.items():
                                total += coeff * mc * _pair(phi, mi_amb_a, mi_, slots)
                        if total:
                            col[mi_t.flat(abt)] = scal(total)
                    cols.append(col)
            mats.append(SparseMatrix.from_columns(cols, mi_t.size))
        certify_chain_map(self.diag, self.ab_cx.complex, mats, "crossed pairing")
        self._psi = mats
        return mats

    def phi_complex(self):
        return self.alg

    def x_complex(self):
        return self.comod.complex

    def pairing(self):
        return self.psi_cross_matrices()

    def target(self):
        return self.ab_cx


# ---------------------------------------------------------------------------
# cocycle bookkeeping and the composed cup

def _vec(x):
    """Accept a plain coefficient dict or a Cochain."""
    from .complexes import Cochain
    return x.vector if isinstance(x, Cochain) else x


def is_b_closed(cx, n, vec, bs=None):
    bs = hochschild_b(cx) if bs is None else bs
    return bs[n].apply(vec) == {}

def is_cyclic(cx, n, vec):
    I = SparseMatrix.identity(cx.dim(n))
    return (I - lam(cx, n)).apply(vec) == {}


class CupResult:
    def __init__(self, vector, degree, b_closed, cyclic):
        self.vector = vector
        self.degree = degree
        self.b_closed = b_closed
        self.cyclic = cyclic


def aw_cup(ctx, phi, p, x, q):
    """Composed cup: raise phi with zeroth faces, x with twisted last faces,
    pair on the diagonal.  Inputs must be Hochschild-closed in their own
    complexes; the output closure flags are verified, not assumed.

    Cochain inputs are accepted alongside plain coefficient dicts."""
    phi, x = _vec(phi), _vec(x)
    acx = ctx.phi_complex().complex
    xcx = ctx.x_complex()
    if not is_b_closed(acx, p, phi):
        raise NotACocycle("algebra-side input is not closed")
    if not is_b_closed(xcx, q, x):
        raise NotACocycle("second input is not closed")
    cyc_in = is_cyclic(acx, p, phi) and is_cyclic(xcx, q, x)
    n = p + q
    phi2 = dict(phi)
    for k in range(q):
        phi2 = acx.face(p + k, 0).apply(phi2)
    x2 = dict(x)
    for k in range(p):
        x2 = xcx.face(q + k, q + k + 1).apply(x2)
    # diagonal coordinates: algebra index major
    xdim = xcx.dim(n)
    vec = {}
    for a, ca in phi2.items():
        for j, cj in x2.items():
            vec[a * xdim + j] = scal(ca * cj)
    mats = ctx.pairing()
    out = mats[n].apply(vec)
    tgt = ctx.target().complex
    return CupResult(out, n, is_b_closed(tgt, n, out), cyc_in and is_cyclic(tgt, n, out))


# ---------------------------------------------------------------------------
# explicit formulas

def cup_explicit_coalgebra(ctx, phi, p, x, q):
    """The closed evaluation formula; must agree with the composed cup
    entrywise, otherwise the difference is raised, not suppressed."""
    phi, x = _vec(phi), _vec(x)
    if not isinstance(ctx, (CoalgebraCupContext,)):
        raise TypeError("explicit coalgebra cup needs a coalgebra-action context")
    acx = ctx.phi_complex()
    n = p + q
    adim = ctx.ca.ma.space.dim
    mi_t = MultiIndex((adim,) * (n + 1))
    mi_amb_a = acx.ambients[p]
    phi_amb = acx.functional(phi, p)
    quo = ctx.coalg.quotients[q]
    mi_amb_c = ctx.coalg.ambients[q]
    cdim = ctx.ca.mc.space.dim
    # p+1 fold coproduct legs of the first coalgebra slot
    legs_tab = {}
    it = iterated_coproduct(ctx.ca.mc.coalg, p + 1)
    mi_l = MultiIndex((cdim,) * (p + 1))
    for c0 in range(cdim):
        legs_tab[c0] = sorted((mi_l.unflat(f), v) for f, v in it.value((c0,)).items())
    rep = quo.include_vec(dict(x))
    out = {}
    for at in iproduct(range(adim), repeat=n + 1):
        total = 0
        for f, c0coef in rep.items():
            idx = mi_amb_c.unflat(f)
            mindex, ct = idx[0], idx[1:]
            for legs, lcoef in legs_tab[ct[0]]:
                # first slot: c0^(p+1)(a0) c1(a1) ... cq(aq) multiplied out
                v = dict(ctx._act.get((legs[p], at[0]), ()))
                dead = not v
                for k in range(1, q + 1):
                    if dead:
                        break
                    w = dict(ctx._act.get((ct[k], at[k]), ()))
                    if not w:
                        dead = True
                        break
                    v = mul_vec(ctx._amul, v, w)
                    dead = not v
                if dead:
                    continue
                slots = [v]
                for k in range(1, p + 1):
                    w = dict(ctx._act.get((legs[k - 1], at[q + k]), ()))
                    if not w:
                        dead = True
                        break
                    slots.append(w)
                if dead:
                    continue
                total += c0coef * lcoef * _pair(phi_amb, mi_amb_a, mindex, slots)
        if total:
            out[mi_t.flat(at)] = scal(total)
    composed = aw_cup(ctx, phi, p, x, q)
    diff = vec_sub(out, composed.vector)
    if diff:
        raise MismatchWithAW("explicit coalgebra cup differs from the composed cup", diff)
    return CupResult(out, n, composed.b_closed, composed.cyclic)


def cup_explicit_crossed(ctx, phi, p, psi, q):
    """Returns (normative CupResult, closed-formula candidate vector, match flag).

    The closed candidate formula is implemented under a fixed literal reading
    (see the repo notes) and reported as data; the composed cup is the
    normative value."""
    phi, psi = _vec(phi), _vec(psi)
    if not isinstance(ctx, CrossedCupContext):
        raise TypeError("explicit crossed cup needs a crossed context")
    normative = aw_cup(ctx, phi, p, psi, q)
    n = p + q
    adim = ctx.ma.space.dim
    bdim = ctx.ba.space.dim
    mdim = ctx.sayd.space.dim
    mi_t = MultiIndex((adim * bdim,) * (n + 1))
    mi_amb_a = ctx.alg.ambients[p]
    mi_amb_b = ctx.comod.ambients[q]
    phi_amb = ctx.alg.functional(phi, p)
    psi_amb = ctx.comod.hom_coeffs(psi, q)
    bmul = {idx: sorted(v.items()) for idx, v in ctx.ba.alg.mul.entries.items()}
    out = {}
    for abt in iproduct(range(adim * bdim), repeat=n + 1):
        ats = tuple(v // bdim for v in abt)
        bts = tuple(v % bdim for v in abt)
        total = 0
        # coaction depths: b^t for t <= q gets t+1 legs; for q+1 <= t <= n-1
        # it gets n-t legs; b^n none
        expans = []
        for t in range(n + 1):
            if t <= q:
                depth = t + 1
            elif t <= n - 1:
                depth = n - t
            else:
                depth = 0
            expans.append(ctx.iterated_coaction(bts[t], depth))
        for combo in iproduct(*expans):
            coeff = 1
            for _, _, c in combo:
                coeff = coeff * c
            b0s = tuple(t[1] for t in combo)
            # psi argument: (b^{q+1}(0) ... b^{p+q}(0) b^0(0), b^1(0), ..., b^q(0))
            first = {b0s[0]: 1} if p == 0 else None
            if p > 0:
                prodv = {b0s[q + 1]: 1}
                for t in range(q + 2, n + 1):
                    prodv = mul_vec(bmul, prodv, {b0s[t]: 1})
                    if not prodv:
                        break
                if not prodv:
                    continue
                first = mul_vec(bmul, prodv, {b0s[0]: 1})
                if not first:
                    continue
            mvals = {}
            for bf, xf in first.items():
                args = (bf,) + b0s[1:q + 1]
                for mi_ in range(mdim):
                    c = psi_amb.get(mi_amb_b.flat((mi_,) + args))
                    if c:
                        vec_acc(mvals, mi_, xf * c)
            if not mvals:
                continue
            # first slot: the PRODUCT of the q+1 twisted values; a product,
            # not a tensor, is what makes the formula well-typed
            first_slot = None
            dead = False
            for i in range(q + 1):
                hv = ctx._leg_product([combo[j][0][j - i] for j in range(i, q + 1)])
                av = mul_vec(ctx._act, ctx.hopf.antipode_inv.apply(hv), {ats[i]: 1})
                if not av:
                    dead = True
                    break
                if first_slot is None:
                    first_slot = av
                else:
                    first_slot = mul_vec(ctx._amul, first_slot, av)
                    if not first_slot:
                        dead = True
                        break
            if dead:
                continue
            slots = [first_slot]
            # slot q+1 bare; slots s = q+2..n twisted by later-block legs, no antipode
            if p >= 1:
                slots.append({ats[q + 1]: 1})
            for s in range(q + 2, n + 1):
                hv = ctx._leg_product([combo[t][0][s - t - 1] for t in range(q + 1, s)])
                av = mul_vec(ctx._act, hv, {ats[s]: 1})
                if not av:
                    dead = True
                    break
                slots.append(av)
            if dead:
                continue
            for mi_, mc in mvals.items():
                total += coeff * mc * _pair(phi_amb, mi_amb_a, mi_, slots)
        if total:
            out[mi_t.flat(abt)] = scal(total)
    match = (vec_sub(out, normative.vector) == {})
    return normative, out, match


# ---------------------------------------------------------------------------
# the characteristic map of an invariant trace

def validate_trace(mp: ModularPair, ma, trace):
    """delta-invariance and the sigma-twisted trace condition, exhaustively."""
    violations = []
    adim = ma.space.dim
    act = ma.action
    mul = ma.alg.mul
    delta = dict(mp.delta)
    sigma = dict(mp.sigma)
    tr = lambda v: scal(sum(trace.get(i, 0) * x for i, x in v.items()))
    for hh in range(ma.hopf.dim):
        dh = delta.get(hh, 0)
        for a in range(adim):
            lhs = tr(act.value((hh, a)))
            rhs = scal(dh * trace.get(a, 0))
            if lhs != rhs:
                violations.append(("delta-invariance", (hh, a), lhs - rhs))
    for a in range(adim):
        sa = act.apply(sigma, {a: 1})
        for b in range(adim):
            lhs = tr(mul.apply({a: 1}, {b: 1}))
            rhs = tr(mul.apply({b: 1}, sa))
            if lhs != rhs:
                violations.append(("sigma-trace", (a, b), lhs - rhs))
    return violations


def char_map(mp: ModularPair, ma, trace, N=3):
    """Per-degree matrices from the tensor-power complex of the Hopf algebra
    into the cyclic complex of the module algebra:

        h1 (x) ... (x) hn  ->  (a0 ... an -> trace(a0 h1(a1) ... hn(an)))

    Certified to commute with every cocyclic operator.  Raises
    NotInvariantTrace when the trace conditions fail."""
    from .complexes import _build_power_complex
    bad = validate_trace(mp, ma, trace)
    if bad:
        raise NotInvariantTrace("trace conditions violated: %r" % bad[:5])
    h = mp.hopf
    power = _build_power_complex(mp, N)
    a_cx = plain_cyclic_complex(ma.alg, N)
    _assert_standard_basis(a_cx)
    adim = ma.space.dim
    act = {idx: sorted(v.items()) for idx, v in ma.action.entries.items()}
    amul = {idx: sorted(v.items()) for idx, v in ma.alg.mul.entries.items()}
    mats = []
    for n in range(N + 2):
        mi_t = MultiIndex((adim,) * (n + 1))
        cols = []
        for ht in iproduct(range(h.dim), repeat=n):
            col = {}
            for at in iproduct(range(adim), repeat=n + 1):
                v = {at[0]: 1}
                for k in range(1, n + 1):
                    w = dict(act.get((ht[k - 1], at[k]), ()))
                    if not w:
                        v = {}
                        break
                    v = mul_vec(amul, v, w)
                    if not v:
                        break
                total = scal(sum(trace.get(i, 0) * x for i, x in v.items())) if v else 0
                if total:
                    col[mi_t.flat(at)] = total
            cols.append(col)
        mats.append(SparseMatrix.from_columns(cols, mi_t.size))
    certify_chain_map(power, a_cx.complex, mats, "characteristic map")
    return mats, power, a_cx


# ---------------------------------------------------------------------------
# shuffle-sum cups (closed trace formulas)

from .shuffles import shuffle_set, dg_expand_oracle   # re-exported operations


def _raise_by_faces(cx, vec, start_deg, indices):
    """Apply cx.face(d, i) successively; indices paired with ascending degrees."""
    v = dict(vec)
    d = start_deg
    for i in indices:
        v = cx.face(d, i).apply(v)
        d += 1
    return v


def shuffle_cup_traces(ctx: CrossedCupContext, phi, p, psi, q):
    """Signed shuffle-sum cup of a module-algebra cocycle with a
    comodule-algebra cocycle, valued on the crossed product."""
    phi, psi = _vec(phi), _vec(psi)
    acx = ctx.alg.complex
    ccx = ctx.comod.complex
    if not is_b_closed(acx, p, phi):
        raise NotACocycle("algebra-side input is not closed")
    if not is_b_closed(ccx, q, psi):
        raise NotACocycle("comodule-side input is not closed")
    n = p + q
    adim = ctx.ma.space.dim
    bdim = ctx.ba.space.dim
    mdim = ctx.sayd.space.dim
    mi_t = MultiIndex((adim * bdim,) * (n + 1))
    mi_amb_a = ctx.alg.ambients[n]
    mi_amb_b = ctx.comod.ambients[n]
    out = {}
    for sig in shuffle_set(q, p):
        # first block raises the algebra cochain, second block the comodule one
        phi_up = _raise_by_faces(acx, phi, p, [v - 1 for v in sig.first_block()])
        psi_up = _raise_by_faces(ccx, psi, q, [v - 1 for v in sig.second_block()])
        phi_amb = ctx.alg.functional(phi_up, n)
        psi_amb = ctx.comod.hom_coeffs(psi_up, n)
        for abt in iproduct(range(adim * bdim), repeat=n + 1):
            ats = tuple(v // bdim for v in abt)
            bts = tuple(v % bdim for v in abt)
            total = 0
            # b^t emits n-t legs (t < n); b^n none; slot k multiplies the
            # depth -(n+1-k) legs of b^0..b^{k-1} (no antipode)
            expans = [ctx.iterated_coaction(bts[t], n - t) for t in range(n)]
            expans.append([((), bts[n], 1)])
            for combo in iproduct(*expans):
                coeff = 1
                for _, _, c in combo:
                    coeff = coeff * c
                b0s = tuple(t[1] for t in combo)
                args = b0s[:n] + (b0s[n],)
                mvals = {}
                for mi_ in range(mdim):
                    c = psi_amb.get(mi_amb_b.flat((mi_,) + args))
                    if c:
                        mvals[mi_] = c
                if not mvals:
                    continue
                slots = [{ats[0]: 1}]
                dead = False
                for k in range(1, n + 1):
                    hv = ctx._leg_product([combo[t][0][k - t - 1] for t in range(k)])
                    av = mul_vec(ctx._act, hv, {ats[k]: 1})
                    if not av:
                        dead = True
                        break
                    slots.append(av)
                if dead:
                    continue
                for mi_, mc in mvals.items():
                    total += coeff * mc * _pair(phi_amb, mi_amb_a, mi_, slots)
            if total:
                vec_acc(out, mi_t.flat(abt), sig.sign * total)
    tgt = ctx.target().complex
    return CupResult(out, n, is_b_closed(tgt, n, out), is_cyclic(tgt, n, out))


def cotrace_cup(ctx: CoalgebraCupContext, x, p, phi, q):
    """Signed shuffle-sum cup of a coalgebra-side cocycle with an algebra-side
    cocycle, valued on the algebra.

    Degree-correct block sizes: the algebra cochain (degree q) is raised by p
    faces indexed by the first block of Sh(p,q), the coalgebra class by q
    faces from the second block; both block choices agree when p = q."""
    x, phi = _vec(x), _vec(phi)
    acx = ctx.alg.complex
    ccx = ctx.coalg.complex
    if not is_b_closed(ccx, p, x):
        raise NotACocycle("coalgebra-side input is not closed")
    if not is_b_closed(acx, q, phi):
        raise NotACocycle("algebra-side input is not closed")
    n = p + q
    adim = ctx.ca.ma.space.dim
    mi_t = MultiIndex((adim,) * (n + 1))
    mi_amb_a = ctx.alg.ambients[n]
    mi_amb_c = ctx.coalg.ambients[n]
    out = {}
    for sig in shuffle_set(p, q):
        phi_up = _raise_by_faces(acx, phi, q, [v - 1 for v in sig.first_block()])
        x_up = _raise_by_faces(ccx, x, p, [v - 1 for v in sig.second_block()])
        phi_amb = ctx.alg.functional(phi_up, n)
        rep = ctx.coalg.quotients[n].include_vec(x_up)
        for at in iproduct(range(adim), repeat=n + 1):
            total = 0
            for f, c0 in rep.items():
                idx = mi_amb_c.unflat(f)
                mindex, ct = idx[0], idx[1:]
                slots = []
                dead = False
                for k in range(n + 1):
                    w = dict(ctx._act.get((ct[k], at[k]), ()))
                    if not w:
                        dead = True
                        break
                    slots.append(w)
                if dead:
                    continue
                total += c0 * _pair(phi_amb, mi_amb_a, mindex, slots)
            if total:
                vec_acc(out, mi_t.flat(at), sig.sign * total)
    tgt = ctx.target().complex
    return CupResult(out, n, is_b_closed(tgt, n, out), is_cyclic(tgt, n, out))
