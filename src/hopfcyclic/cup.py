"""Cup products on Hopf-cyclic cohomology.

Three pairing maps from diagonal complexes into the cyclic complex of a
target algebra (convolution algebra, base algebra and invariant subalgebra),
the crossed-product pairing, their chain-map certificates, the composed
front/back-face cup, the explicit closed formulas with mismatch surfacing,
the characteristic map of an invariant trace and the shuffle-sum cups.

Every pairing is one factored contraction.  The algebra-side functional phi
on M (x) A^(x)(n+1) is pushed slot by slot through per-slot tables, built
once per context, that send a basis element of A to the (x-side key,
target) pairs whose slot value contains it (linalg.push_slots).  The
pushforward is then contracted with the x side (linalg.contract): a
quotient representative keyed by (m, c_0, ..., c_n) on the coalgebra side,
or, per b-tuple, the coaction expansion into a b0-tuple and leg products in
H on the comodule side.  Every pairing matrix is still certified to be a
chain map (certify_chain_map).

Conventions pinned by calibration (see the repo notes): the composed cup
applies zeroth faces to the algebra-side argument and twisted last faces to
the coalgebra-side argument; with that split the explicit coalgebra formula
is reproduced entrywise for trivially-coacting coefficients.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iproduct
from math import prod

from .linalg import (SparseMatrix, KernelCoords, compose, first_residual, matrix_terms,
                     tensor_kron, scal, vec_acc, vec_axpy, vec_sub, mul_vec, kernel_basis,
                     push_slots, contract)
from .spaces import MultiIndex
from .hopf import ModularPair, ValidationReport, iterated_coproduct, swap_matrix
from .actions import (CoalgebraAction, SAYDModule, convolution_algebra,
                      invariant_subalgebra, relative_coalgebra, crossed_product,
                      validate_module_algebra, validate_module_coalgebra,
                      validate_comodule_algebra, validate_sayd,
                      validate_coalgebra_action, validate_subhopf,
                      ActionNotDescended)
from .complexes import (build_algebra_complex, build_coalgebra_complex,
                        build_comodule_algebra_complex, plain_cyclic_complex,
                        product_complex, HopfTables, expand_terms, intertwines,
                        describe_map, CertificateFailure, _action_table, _coaction_table)
from .cohomology import hochschild_b, lam


class ChainMapFailure(CertificateFailure):
    """A pairing or characteristic map fails to intertwine an operator, or
    the natural embedding fails to be unital or multiplicative; the witness
    is the first failing column and the residual there (no witness when a
    basis element's evaluation map is not equivariant)."""


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


def certify_chain_map(src, tgt, mats, what):
    """mats[n]: src degree n -> tgt degree n must intertwine all operators."""
    bad = intertwines(src, tgt, mats)
    if bad is not None:
        key, column, residual = bad
        raise ChainMapFailure("%s: %s" % (what, describe_map(*key)), key[1], column, residual)


# ---------------------------------------------------------------------------
# the factored contraction shared by every pairing

def _slot_table(values):
    """a -> [(key, target tuple, coeff)]: the transpose of a slot map
    (key, target tuple) -> sparse vector in A."""
    table = {}
    for (key, targets), vec in values.items():
        for a, x in vec.items():
            table.setdefault(a, []).append((key, targets, x))
    return table


def _mul_all(table, vecs, unit=None):
    """Left-to-right product of sparse vectors through a structure table;
    the unit for an empty product."""
    if not vecs:
        return dict(unit)
    out = dict(vecs[0])
    for v in vecs[1:]:
        if not out:
            break
        out = mul_vec(table, out, v)
    return out


def _product_table(amul, factor, keys, adim):
    """Slot table of a slot that holds a product in A: for each key
    (k_0, ..., k_r) and targets (a_0, ..., a_r), the product
    factor[k_0, a_0] ... factor[k_r, a_r] of sparse A-vectors."""
    values = {}
    for key in keys:
        for ats in iproduct(range(adim), repeat=len(key)):
            values[key, ats] = _mul_all(amul, [factor.get((k, a), {}) for k, a in zip(key, ats)])
    return _slot_table(values)


def _push(adata, phi, n, slots):
    """phi (ambient coefficients of the algebra complex at degree n) pushed
    through one table per A slot; the M index passes through unchanged."""
    mi = adata.ambients[n]
    keep_m = {m: [(m, (), 1)] for m in range(mi.dims[0])}
    return push_slots({mi.unflat(f): c for f, c in phi.items()}, [keep_m] + list(slots))


def _rep(cdata, n, qvec):
    """Quotient representative of a coalgebra-complex class, keyed by
    (m, c_0, ..., c_n)."""
    mi = cdata.ambients[n]
    return {mi.unflat(f): c for f, c in cdata.quotients[n].include_vec(qvec).items()}


def _evaluate(pushed, xside, mi_t, bdim=1):
    """One pairing value as a target vector.  The x side is a list of
    (b tuple, x vector); each x vector contracted with phi's pushforward
    lands at the target (a_k * bdim + b_k)_k."""
    out = {}
    for bts, xvec in xside:
        for ats, y in contract(pushed, xvec).items():
            vec_acc(out, mi_t.flat([a * bdim + b for a, b in zip(ats, bts)]), y)
    return out


def _pairing_matrix(adata, n, slots, xsides, tdim, bdim=1):
    """Degree-n pairing matrix, columns phi-major over adata.bases[n] x xsides."""
    mi_t = MultiIndex((tdim,) * (n + 1))
    cols = []
    for phi in adata.bases[n]:
        pushed = _push(adata, phi, n, slots)
        cols.extend(_evaluate(pushed, xside, mi_t, bdim) for xside in xsides)
    return SparseMatrix.from_columns(cols, mi_t.size)


def _quotient_pairing(adata, cdata, slot, tdim, N):
    """Pairing matrices of an algebra complex with a coalgebra complex
    through one slot table; the x sides are the quotient representatives."""
    mats = []
    for n in range(N + 2):
        zero = (0,) * (n + 1)
        xsides = [[(zero, _rep(cdata, n, {j: 1}))] for j in range(cdata.quotients[n].dim)]
        mats.append(_pairing_matrix(adata, n, [slot] * (n + 1), xsides, tdim))
    return mats


# ---------------------------------------------------------------------------
# contexts

class _CupContext:
    """The Hochschild coboundary families of a context's phi, x and target
    complexes, each built (and certified) on first use and kept, so that
    every cup of the context shares them."""

    @cached_property
    def phi_b(self):
        return hochschild_b(self.phi_complex().complex)

    @cached_property
    def x_b(self):
        return hochschild_b(self.x_complex())

    @cached_property
    def target_b(self):
        return hochschild_b(self.target().complex)


class CoalgebraCupContext(_CupContext):
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
        self._amul = _action_table(ca.ma.alg.mul)
        # the slot c (x) a -> c.a of the trace and explicit formulas
        self._act_slot = _slot_table({(c, (a,)): v for (c, a), v in ca.action.entries.items()})
        self._psi_c = None
        self._psi = None
        self._nat = None

    # -- the evaluation pairing into the convolution algebra

    def psi_c_matrices(self):
        if self._psi_c is not None:
            return self._psi_c
        # slot c -> the value of each convolution basis map at c
        slot = _slot_table({(c, (b,)): v for b, m in enumerate(self.conv.maps)
                            for c, v in enumerate(m.columns())})
        mats = _quotient_pairing(self.alg, self.coalg, slot, self.conv.algebra.space.dim, self.N)
        certify_chain_map(self.diag, self.conv_cx.complex, mats, "convolution pairing")
        self._psi_c = mats
        return mats

    # -- natural embedding of A into the convolution algebra

    def natural_map(self):
        if self._nat is not None:
            return self._nat
        adim = self.ca.ma.space.dim
        cdim = self.ca.mc.space.dim
        ca_action = self.ca.action
        cols = []
        for a in range(adim):
            m = SparseMatrix.from_columns(
                [ca_action.value((c, a)) for c in range(cdim)], adim)
            coords = self.conv.coords(m)
            if coords is None:
                raise ChainMapFailure("evaluation against a basis element is not equivariant")
            cols.append(coords)
        nat = SparseMatrix.from_columns(cols, self.conv.algebra.space.dim)
        alg, conv = self.ca.ma.alg, self.conv.algebra
        # unital: nat(1) = 1
        hit = first_residual(matrix_terms([(1, nat, alg.unit_matrix()),
                                           (-1, conv.unit_matrix(), None)]), 1)
        if hit is not None:
            raise ChainMapFailure("natural embedding is not unital", None, *hit)
        # multiplicative: nat(xy) = nat(x) nat(y), column i*adim + j at (x, y) = (e_i, e_j)
        hit = first_residual(matrix_terms([(1, nat, alg.mul_matrix()),
                                           (-1, conv.mul_matrix(), tensor_kron(nat, nat))]),
                             adim * adim)
        if hit is not None:
            raise ChainMapFailure("natural embedding is not multiplicative at (%d,%d)"
                                  % divmod(hit[0], adim), None, *hit)
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


class RelativeCupContext(_CupContext):
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
        # values on representatives, read back on the invariant basis, which
        # invariant_subalgebra took from kernel_of_rows
        inv_coords = KernelCoords(inc_cols)
        self.class_act_in_A = {}    # (class, invariant) -> sparse A vector
        ent = {}
        for j, hh in enumerate(reps):
            for a in range(akdim):
                out = self.ma.action.apply({hh: 1}, inc_cols[a])
                self.class_act_in_A[(j, a)] = out
                coords = inv_coords.solve(out)
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
        slot = _slot_table({(j, (a,)): v for (j, a), v in self.class_act_in_A.items()})
        mats = _quotient_pairing(self.alg, self.coalg, slot, self.inv_alg.space.dim, self.N)
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


class CrossedCupContext(_CupContext):
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
        self.tabs = HopfTables.of(self.hopf)
        self._coact = _coaction_table(ba.coaction, self.hopf.dim)
        self._coaction_memo = {}
        self._amul = _action_table(ma.alg.mul)
        act = _action_table(ma.action)
        # (h, a) -> S^-1(h).a: the twisted slot; h.a: the plain slot
        self._twisted = {(h, a): mul_vec(act, self.tabs.Sinv[h], {a: 1})
                         for h in range(self.hopf.dim) for a in range(ma.space.dim)}
        self._twisted_slot = _slot_table({(h, (a,)): v for (h, a), v in self._twisted.items()})
        self._plain_slot = _slot_table({(h, (a,)): v for (h, a), v in ma.action.entries.items()})
        self._psi = None

    def _coaction_legs(self, b, depth):
        """[(legs, b0, coeff)] of depth iterated coactions of b; legs[0] is
        the H leg of the first coaction.  Memoized per (b, depth)."""
        key = (b, depth)
        if key not in self._coaction_memo:
            if depth == 0:
                terms = [((), b, 1)]
            else:
                terms = [(legs + (hh,), b0, scal(c * x))
                         for legs, bb, c in self._coaction_legs(b, depth - 1)
                         for (hh, b0), x in self._coact.get(bb, ())]
            self._coaction_memo[key] = terms
        return self._coaction_memo[key]

    def coaction_sides(self, depths, slot_legs):
        """The x side of a crossed pairing before the comodule cochain, per
        b-tuple: {b tuple: {(b0 tuple, h tuple): coeff}}.

        b_t is expanded by depths[t] iterated coactions; slot s carries the
        product in H, left to right, of the legs legs_t[i] for (t, i) in
        slot_legs[s] (the unit when there are none)."""
        bdim = self.ba.space.dim
        per_slot = [[(b,) + term for b in range(bdim) for term in self._coaction_legs(b, d)]
                    for d in depths]
        unit = dict(self.tabs.unit)
        sides = {}
        for combo in iproduct(*per_slot):
            c = prod(t[3] for t in combo)
            b0s = tuple(t[2] for t in combo)
            hvecs = [_mul_all(self.tabs.mul, [{combo[t][1][i]: 1} for t, i in legs], unit)
                     for legs in slot_legs]
            side = sides.setdefault(tuple(t[0] for t in combo), {})
            for hs, y in expand_terms([sorted(v.items()) for v in hvecs]):
                vec_acc(side, (b0s, hs), c * y)
        return sides

    def x_side(self, sides, psi, n):
        """[(b tuple, {(m,) + h keys: coeff})]: the comodule cochain psi
        (ambient coefficients at degree n) evaluated on the b0 tuples of
        coaction sides {b tuple: {(b0 tuple, h keys): coeff}}."""
        mi = self.comod.ambients[n]
        by_b0 = {}
        for f, c in psi.items():
            m, *b0s = mi.unflat(f)
            by_b0.setdefault(tuple(b0s), []).append((m, c))
        out = []
        for bts, terms in sides.items():
            xvec = {}
            for (b0s, hs), c in terms.items():
                for m, y in by_b0.get(b0s, ()):
                    vec_acc(xvec, (m,) + hs, c * y)
            if xvec:
                out.append((bts, xvec))
        return out

    def psi_cross_matrices(self):
        if self._psi is not None:
            return self._psi
        adim, bdim = self.ma.space.dim, self.ba.space.dim
        mats = []
        for n in range(self.N + 2):
            # slot i: S^-1 of the product of leg j - i of b_j for j >= i,
            # where b_j carries j + 1 legs
            sides = self.coaction_sides([j + 1 for j in range(n + 1)],
                                        [[(j, j - i) for j in range(i, n + 1)]
                                         for i in range(n + 1)])
            xsides = [self.x_side(sides, psi, n) for psi in self.comod.bases[n]]
            mats.append(_pairing_matrix(self.alg, n, [self._twisted_slot] * (n + 1), xsides,
                                        adim * bdim, bdim))
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

def is_b_closed(cx, n, vec, bs=None):
    bs = hochschild_b(cx) if bs is None else bs
    return bs[n].apply(vec) == {}

def is_cyclic(cx, n, vec):
    return not vec_sub(lam(cx, n).apply(vec), vec)


class CupResult:
    def __init__(self, vector, degree, b_closed, cyclic):
        self.vector = vector
        self.degree = degree
        self.b_closed = b_closed
        self.cyclic = cyclic


def aw_cup(ctx, phi, p, x, q):
    """Composed cup: raise phi with zeroth faces, x with twisted last faces,
    pair on the diagonal.  Inputs must be Hochschild-closed in their own
    complexes; the output closure flags are verified, not assumed."""
    acx = ctx.phi_complex().complex
    xcx = ctx.x_complex()
    if not is_b_closed(acx, p, phi, ctx.phi_b):
        raise NotACocycle("algebra-side input is not closed")
    if not is_b_closed(xcx, q, x, ctx.x_b):
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
    return CupResult(out, n, is_b_closed(tgt, n, out, ctx.target_b),
                     cyc_in and is_cyclic(tgt, n, out))


# ---------------------------------------------------------------------------
# explicit formulas

def cup_explicit_coalgebra(ctx, phi, p, x, q):
    """The closed evaluation formula; must agree with the composed cup
    entrywise, otherwise the difference is raised, not suppressed."""
    if not isinstance(ctx, (CoalgebraCupContext,)):
        raise TypeError("explicit coalgebra cup needs a coalgebra-action context")
    acx = ctx.phi_complex()
    n = p + q
    adim = ctx.ca.ma.space.dim
    cdim = ctx.ca.mc.space.dim
    # p+1 fold coproduct legs of the first coalgebra slot
    it = iterated_coproduct(ctx.ca.mc.coalg, p + 1)
    mi_l = MultiIndex((cdim,) * (p + 1))
    # phi's first slot: c0^(p+1)(a0) c1(a1) ... cq(aq) multiplied out; slot
    # k = 1..p: c0^(k)(a_{q+k})
    xvec = {}
    for (m, c0, *cs), x0 in _rep(ctx.coalg, q, dict(x)).items():
        for f, y in it.value((c0,)).items():
            legs = mi_l.unflat(f)
            vec_acc(xvec, (m, (legs[p],) + tuple(cs)) + legs[:p], x0 * y)
    slot0 = _product_table(ctx._amul, ctx.ca.action.entries, {k[1] for k in xvec}, adim)
    pushed = _push(acx, acx.functional(phi, p), p, [slot0] + [ctx._act_slot] * p)
    out = _evaluate(pushed, [((0,) * (n + 1), xvec)], MultiIndex((adim,) * (n + 1)))
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
    if not isinstance(ctx, CrossedCupContext):
        raise TypeError("explicit crossed cup needs a crossed context")
    normative = aw_cup(ctx, phi, p, psi, q)
    n = p + q
    adim, bdim = ctx.ma.space.dim, ctx.ba.space.dim
    bmul = _action_table(ctx.ba.alg.mul)
    # coaction depths: b^t for t <= q gets t+1 legs; for q+1 <= t <= n it
    # gets n-t legs.  Slot i <= q: S^-1 of the legs j - i of b^j, i <= j <= q;
    # slot s > q: the legs s - t - 1 of b^t, q < t < s, no antipode (slot
    # q+1 is bare)
    sides = ctx.coaction_sides([t + 1 if t <= q else n - t for t in range(n + 1)],
                               [[(j, j - i) for j in range(i, q + 1)] for i in range(q + 1)]
                               + [[(t, s - t - 1) for t in range(q + 1, s)]
                                  for s in range(q + 1, n + 1)])
    # psi argument: (b^{q+1}(0) ... b^{p+q}(0) b^0(0), b^1(0), ..., b^q(0));
    # the first q+1 twisted values go into phi's first slot as a PRODUCT --
    # a product, not a tensor, is what makes the formula well-typed
    args = {}
    for bts, terms in sides.items():
        side = args[bts] = {}
        for (b0s, hs), c in terms.items():
            first = _mul_all(bmul, [{b: 1} for b in b0s[q + 1:] + b0s[:1]])
            for bf, y in first.items():
                vec_acc(side, ((bf,) + b0s[1:q + 1], (hs[:q + 1],) + hs[q + 1:]), c * y)
    xside = ctx.x_side(args, ctx.comod.functional(psi, q), q)
    slot0 = _product_table(ctx._amul, ctx._twisted, {k[1] for _, xv in xside for k in xv}, adim)
    pushed = _push(ctx.alg, ctx.alg.functional(phi, p), p, [slot0] + [ctx._plain_slot] * p)
    out = _evaluate(pushed, xside, MultiIndex((adim * bdim,) * (n + 1)), bdim)
    match = (vec_sub(out, normative.vector) == {})
    return normative, out, match


# ---------------------------------------------------------------------------
# the characteristic map of an invariant trace

def validate_trace(mp: ModularPair, ma, trace):
    """delta-invariance, tr(h.a) = delta(h) tr(a), and the sigma-twisted
    trace condition, tr(ab) = tr(b (sigma.a)), on every pair of basis
    elements: the list of violations (hopf.Violation), with the labels of
    each failing pair and the residual lhs - rhs there."""
    rep = ValidationReport("trace")
    A = ma.space
    tr = SparseMatrix(1, A.dim, {(0, i): x for i, x in trace.items()})
    act = ma.action.as_matrix()
    rep.law("delta-invariance", (ma.hopf.space, A),
            (1, tr, act), (-1, tensor_kron(mp.delta_matrix(), tr), None))
    # a (x) b -> b (x) sigma.a
    sigma_act = compose(act, tensor_kron(mp.sigma_matrix(), SparseMatrix.identity(A.dim)))
    moved = compose(tensor_kron(SparseMatrix.identity(A.dim), sigma_act), swap_matrix(A.dim, A.dim))
    tr_mul = compose(tr, ma.alg.mul_matrix())
    rep.law("sigma-trace", (A, A), (1, tr_mul, None), (-1, tr_mul, moved))
    return rep.violations


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
    adim = ma.space.dim
    amul = _action_table(ma.alg.mul)
    mats = []
    for n in range(N + 2):
        mi_t = MultiIndex((adim,) * (n + 1))
        cols = []
        for ht in iproduct(range(h.dim), repeat=n):
            col = {}
            for at in iproduct(range(adim), repeat=n + 1):
                v = _mul_all(amul, [{at[0]: 1}] + [ma.action.value(ha) for ha in zip(ht, at[1:])])
                total = scal(sum(trace.get(i, 0) * x for i, x in v.items()))
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
    acx = ctx.alg.complex
    ccx = ctx.comod.complex
    if not is_b_closed(acx, p, phi, ctx.phi_b):
        raise NotACocycle("algebra-side input is not closed")
    if not is_b_closed(ccx, q, psi, ctx.x_b):
        raise NotACocycle("comodule-side input is not closed")
    n = p + q
    bdim = ctx.ba.space.dim
    mi_t = MultiIndex((ctx.ma.space.dim * bdim,) * (n + 1))
    # b^t emits n-t legs; slot k multiplies the legs k - t - 1 of
    # b^0..b^{k-1} (no antipode; slot 0 is bare)
    sides = ctx.coaction_sides([n - t for t in range(n + 1)],
                               [[(t, k - t - 1) for t in range(k)] for k in range(n + 1)])
    out = {}
    for sig in shuffle_set(q, p):
        # first block raises the algebra cochain, second block the comodule one
        phi_up = _raise_by_faces(acx, phi, p, [v - 1 for v in sig.first_block()])
        psi_up = _raise_by_faces(ccx, psi, q, [v - 1 for v in sig.second_block()])
        pushed = _push(ctx.alg, ctx.alg.functional(phi_up, n), n, [ctx._plain_slot] * (n + 1))
        xside = ctx.x_side(sides, ctx.comod.functional(psi_up, n), n)
        vec_axpy(out, sig.sign, _evaluate(pushed, xside, mi_t, bdim))
    tgt = ctx.target().complex
    return CupResult(out, n, is_b_closed(tgt, n, out, ctx.target_b), is_cyclic(tgt, n, out))


def cotrace_cup(ctx: CoalgebraCupContext, x, p, phi, q):
    """Signed shuffle-sum cup of a coalgebra-side cocycle with an algebra-side
    cocycle, valued on the algebra.

    Degree-correct block sizes: the algebra cochain (degree q) is raised by p
    faces indexed by the first block of Sh(p,q), the coalgebra class by q
    faces from the second block; both block choices agree when p = q."""
    acx = ctx.alg.complex
    ccx = ctx.coalg.complex
    if not is_b_closed(ccx, p, x, ctx.x_b):
        raise NotACocycle("coalgebra-side input is not closed")
    if not is_b_closed(acx, q, phi, ctx.phi_b):
        raise NotACocycle("algebra-side input is not closed")
    n = p + q
    mi_t = MultiIndex((ctx.ca.ma.space.dim,) * (n + 1))
    zero = (0,) * (n + 1)
    out = {}
    for sig in shuffle_set(p, q):
        phi_up = _raise_by_faces(acx, phi, q, [v - 1 for v in sig.first_block()])
        x_up = _raise_by_faces(ccx, x, p, [v - 1 for v in sig.second_block()])
        pushed = _push(ctx.alg, ctx.alg.functional(phi_up, n), n, [ctx._act_slot] * (n + 1))
        vec_axpy(out, sig.sign, _evaluate(pushed, [(zero, _rep(ctx.coalg, n, x_up))], mi_t))
    tgt = ctx.target().complex
    return CupResult(out, n, is_b_closed(tgt, n, out, ctx.target_b), is_cyclic(tgt, n, out))
