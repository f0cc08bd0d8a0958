"""Cup products on Hopf-cyclic cohomology.

The evaluation pairings from diagonal complexes into the cyclic complex of
a target algebra (the base algebra, the invariant subalgebra and, as a
reference, the convolution algebra), the crossed-product pairing, their
chain-map certificates, the composed front/back-face cup, the explicit
closed formulas with mismatch surfacing, the characteristic map of an
invariant trace and the shuffle-sum cups.

Every pairing is one factored contraction on flat indices.  The
algebra-side functional phi on M (x) A^(x)(n+1), keyed by its flat ambient
index, is pushed through per-slot tables, built once per context, that send
a basis element of A to the (x-side key, target) pairs whose slot value
contains it (linalg.push_slots).  Each slot has a key base and a target
base, so keys and targets are flat ints.  The pushforward is then
contracted with the x side, a list of (offset, x vector) pairs
(linalg.contract): a quotient representative keyed by its ambient index
m * C^(n+1) + (c_0, ..., c_n) on the coalgebra side, or, per b-tuple, the
coaction expansion into a b0-tuple and leg products in H on the comodule
side, where the b-tuple is the offset of its b digits among the targets in
(A#B)^(x)(n+1).  Every pairing matrix is still certified to be a chain map
(certify_chain_map).  A context's target is the plain cyclic complex of its
target algebra (A, A^K or A#B), built from the algebra's product and unit
(complexes.plain_cyclic_complex) on its first read, so a job that finds no
cocycle pair never builds it.  Every cup reads its closure flags in that
target; the two shuffle-sum cups are one signed sum over the shuffles
(_shuffle_cup).

Conventions pinned by calibration (see the repo notes): the composed cup
applies zeroth faces to the algebra-side argument and twisted last faces to
the coalgebra-side argument; with that split the explicit coalgebra formula
is reproduced entrywise for trivially-coacting coefficients.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iproduct
from math import prod

from .linalg import (SparseMatrix, KernelCoords, compose, first_residual, tensor_kron, scal,
                     vec_acc, vec_axpy, vec_sub, mul_vec, push_slots, contract)
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
                        tensor_bicocyclic, diagonal, HopfTables, intertwines,
                        describe_map, CertificateFailure, action_table, split_table,
                        build_power_complex)
from .cohomology import lam
from .shuffles import shuffle_set


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
    bad = ["%s (%s)" % (r.subject, ", ".join(sorted({v.law for v in r.violations})))
           for r in reports if not r.ok]
    if bad:
        raise ValueError("cup context components failed validation: %s" % "; ".join(bad))


def certify_chain_map(src, tgt, mats, what):
    """mats[n]: src degree n -> tgt degree n must intertwine all operators."""
    bad = intertwines(src, tgt, mats)
    if bad is not None:
        key, column, residual = bad
        raise ChainMapFailure("%s: %s" % (what, describe_map(*key)), key[1], column, residual)


# ---------------------------------------------------------------------------
# the factored contraction shared by every pairing

def _slot(values, kbase, tbase):
    """The slot (table, key base, target base) of linalg.push_slots whose
    table, a -> [(key, target, coeff)], is the transpose of a slot map
    (key, target) -> sparse vector in A."""
    table = {}
    for (key, target), vec in values.items():
        for a, x in vec.items():
            table.setdefault(a, []).append((key, target, x))
    return table, kbase, tbase


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


def _product_slot(amul, factor, keys, kdim, adim, tdim, width):
    """The slot of a factor of phi that holds a product in A: for each key
    (k_1, ..., k_width) of keys, flat in base kdim, and targets (a_1, ...,
    a_width), the product factor[k_1, a_1] ... factor[k_width, a_width] of
    sparse A-vectors.  The target is flat in base tdim with digits a_i *
    (tdim // adim), whose b digits the crossed x side's offsets add."""
    scale = tdim // adim
    mk = MultiIndex((kdim,) * width)
    values = {}
    for key in keys:
        ks = mk.unflat(key)
        for ats in iproduct(range(adim), repeat=width):
            t = 0
            for a in ats:
                t = t * tdim + a * scale
            values[key, t] = _mul_all(amul, [factor.get((k, a), {}) for k, a in zip(ks, ats)])
    return _slot(values, kdim ** width, tdim ** width)


def _push(adata, phi, n, slots):
    """phi (ambient coefficients of the algebra complex at degree n) pushed
    through one slot per A factor; the M index passes through as the
    leading key digit."""
    mdim = adata.mdim
    keep_m = ({m: [(m, 0, 1)] for m in range(mdim)}, mdim, 1)
    return push_slots(phi, (mdim,) + (adata.dim,) * (n + 1), [keep_m] + list(slots))


def _pairing_matrix(adata, n, slots, xsides):
    """Degree-n pairing matrix, columns phi-major over adata.bases[n] x
    xsides; its rows are the flat targets of the slots."""
    cols = []
    for phi in adata.bases[n]:
        pushed = _push(adata, phi, n, slots)
        cols.extend(contract(pushed, xside) for xside in xsides)
    return SparseMatrix.from_columns(cols, prod(tbase for _, _, tbase in slots))


def _quotient_pairing(adata, cdata, slot, N):
    """Pairing matrices of an algebra complex with a coalgebra complex
    through one slot; the x sides are the quotient representatives, keyed
    by their ambient index m * C^(n+1) + (c_0, ..., c_n)."""
    mats = []
    for n in range(N + 2):
        quot = cdata.quotients[n]
        xsides = [[(0, quot.include_vec({j: 1}))] for j in range(quot.dim)]
        mats.append(_pairing_matrix(adata, n, [slot] * (n + 1), xsides))
    return mats


# ---------------------------------------------------------------------------
# contexts

class _CupContext:
    """What every context shares: its algebra complex alg, the diagonal diag
    of the bicocyclic module of alg's complex and its x-side complex (diag.c1
    is alg's complex, diag.c2 the x side), the degree bound N and its target,
    the plain cyclic complex of the target algebra.  The target is built on
    its first read, so a job that finds no cocycle pair never builds it.
    The pairing is the method named PAIRING, looked up at call time.
    Pairing matrices are kept only once certified, so a failed certificate
    is raised again on the next call.  The phi, x and target complexes each
    hold their own certified Hochschild coboundaries (CocyclicComplex.b),
    which every cup of the context shares."""

    def __init__(self, alg, xcx, target_alg, N):
        self.N = N
        self.alg = alg
        self.diag = diagonal(tensor_bicocyclic(alg.complex, xcx))
        self.target_alg = target_alg

    @cached_property
    def target(self):
        return plain_cyclic_complex(self.target_alg, self.N)

    def pairing(self):
        return getattr(self, self.PAIRING)()

    @cached_property
    def _certified(self):
        return {}

    def _certify_once(self, what, tgt, build):
        """The matrices build() gives, certified to be a chain map from the
        diagonal to tgt and kept under what."""
        if what not in self._certified:
            mats = build()
            certify_chain_map(self.diag, tgt, mats, what)
            self._certified[what] = mats
        return self._certified[what]


class CoalgebraCupContext(_CupContext):
    """Module coalgebra acting on a module algebra, plus coefficients."""

    kind = "coalgebra"
    PAIRING = "psi_matrices"

    def __init__(self, ca: CoalgebraAction, sayd: SAYDModule, N=3):
        _require_valid([validate_module_algebra(ca.ma),
                        validate_module_coalgebra(ca.mc),
                        validate_coalgebra_action(ca),
                        validate_sayd(sayd)])
        self.ca = ca
        self.hopf = ca.hopf
        alg = build_algebra_complex(ca.ma, sayd, N)
        self.coalg = build_coalgebra_complex(ca.mc, sayd, N)
        super().__init__(alg, self.coalg.complex, ca.ma.alg, N)
        self._amul = action_table(ca.ma.alg.mul)
        # the slot c (x) a -> c.a of the pairing, the trace and explicit formulas
        self._act_slot = _slot(ca.action.entries, ca.mc.space.dim, ca.ma.space.dim)
        self._nat = None

    # -- the evaluation pairing into the algebra

    def psi_matrices(self):
        return self._certify_once("algebra pairing", self.target, lambda: _quotient_pairing(
            self.alg, self.coalg, self._act_slot, self.N))

    # -- the convolution algebra: the evaluation pairing into it and the
    # natural embedding of A, which pulls it back to psi_matrices

    @cached_property
    def conv(self):
        return convolution_algebra(self.ca)

    @cached_property
    def conv_cx(self):
        return plain_cyclic_complex(self.conv.algebra, self.N)

    def psi_c_matrices(self):
        # slot c -> the value of each convolution basis map at c
        return self._certify_once("convolution pairing", self.conv_cx, lambda: _quotient_pairing(
            self.alg, self.coalg,
            _slot({(c, b): v for b, m in enumerate(self.conv.maps)
                   for c, v in enumerate(m.columns())},
                  self.ca.mc.space.dim, self.conv.algebra.space.dim),
            self.N))

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
        hit = first_residual([(1, nat.plan, alg.unit_matrix().plan),
                              (-1, conv.unit_matrix().plan, None)], 1)
        if hit is not None:
            raise ChainMapFailure("natural embedding is not unital", None, *hit)
        # multiplicative: nat(xy) = nat(x) nat(y), column i*adim + j at (x, y) = (e_i, e_j)
        hit = first_residual([(1, nat.plan, alg.mul.matrix.plan),
                              (-1, conv.mul.matrix.plan, tensor_kron(nat, nat).plan)],
                             adim * adim)
        if hit is not None:
            raise ChainMapFailure("natural embedding is not multiplicative at (%d,%d)"
                                  % divmod(hit[0], adim), None, *hit)
        self._nat = nat
        return nat


class RelativeCupContext(_CupContext):
    """Module algebra with a sub-Hopf algebra: relative coalgebra acting on
    the invariant subalgebra."""

    kind = "relative"
    PAIRING = "psi_r_matrices"

    def __init__(self, ma, k, sayd, N=3):
        _require_valid([validate_module_algebra(ma), validate_sayd(sayd),
                        validate_subhopf(k)])
        self.ma = ma
        self.k = k
        self.hopf = ma.hopf
        self.inv_alg, self.inclusion = invariant_subalgebra(ma, k)
        self.relc, self.proj = relative_coalgebra(ma.hopf, k)
        _require_valid([validate_module_coalgebra(self.relc)])
        self._build_class_action()
        alg = build_algebra_complex(ma, sayd, N)
        self.coalg = build_coalgebra_complex(self.relc, sayd, N)
        super().__init__(alg, self.coalg.complex, self.inv_alg, N)

    def _build_class_action(self):
        """Representative action of the relative coalgebra on the invariants.

        Checks that it lands in the invariant span; the in-A values are kept
        for the pairing.  It factors through the quotient unchecked: for an
        invariant a, (hk - eps(k)h).a = h.(k.a - eps(k)a) = 0 by the
        module-algebra associativity validated in __init__."""
        akdim = self.inv_alg.space.dim
        inc_cols = self.inclusion.columns()
        # coset representatives: the quotient's free column of class j
        # projects to e_j
        self.class_reps = [next(hh for hh in range(self.hopf.dim) if self.proj.column(hh) == {j: 1})
                           for j in range(self.relc.space.dim)]
        # values on representatives, read back on the invariant basis, which
        # invariant_subalgebra took from kernel_of_rows
        inv_coords = KernelCoords(inc_cols)
        self.class_act_in_A = {}    # (class, invariant) -> sparse A vector
        for j, hh in enumerate(self.class_reps):
            for a in range(akdim):
                out = self.ma.action.apply({hh: 1}, inc_cols[a])
                self.class_act_in_A[(j, a)] = out
                if inv_coords.solve(out) is None:
                    raise ActionNotDescended("relative action leaves the invariant subalgebra: "
                                             "class %d on invariant %d" % (j, a))

    def psi_r_matrices(self):
        return self._certify_once("relative pairing", self.target, lambda: _quotient_pairing(
            self.alg, self.coalg,
            _slot(self.class_act_in_A, self.relc.space.dim, self.inv_alg.space.dim), self.N))


class CrossedCupContext(_CupContext):
    """Module algebra paired with a comodule algebra over one Hopf algebra."""

    kind = "crossed"
    PAIRING = "psi_cross_matrices"

    def __init__(self, ma, ba, sayd, N=3):
        _require_valid([validate_module_algebra(ma),
                        validate_comodule_algebra(ba),
                        validate_sayd(sayd)])
        self.ma = ma
        self.ba = ba
        self.hopf = ma.hopf
        alg = build_algebra_complex(ma, sayd, N)
        self.comod = build_comodule_algebra_complex(ba, sayd, N)
        super().__init__(alg, self.comod.complex, crossed_product(ma, ba), N)
        self.tabs = HopfTables.of(self.hopf)
        self._coact = split_table(ba.coaction)
        self._coaction_memo = {}
        self._amul = action_table(ma.alg.mul)
        act = action_table(ma.action)
        # (h, a) -> S^-1(h).a: the twisted slot; h.a: the plain slot.  A
        # target a of A sits at a * bdim in A#B, whose b digit the x side's
        # offset adds
        hdim, adim, bdim = self.hopf.dim, ma.space.dim, ba.space.dim
        self._twisted = {(h, a): mul_vec(act, self.tabs.Sinv[h], {a: 1})
                         for h in range(hdim) for a in range(adim)}
        self._twisted_slot = _slot({(h, a * bdim): v for (h, a), v in self._twisted.items()},
                                   hdim, adim * bdim)
        self._plain_slot = _slot({(h, a * bdim): v for (h, a), v in ma.action.entries.items()},
                                 hdim, adim * bdim)

    def _iterated_coaction(self, b, depth):
        """[(legs, b0, coeff)] of depth iterated coactions of b; legs[0] is
        the H leg of the first coaction.  Memoized per (b, depth)."""
        key = (b, depth)
        if key not in self._coaction_memo:
            if depth == 0:
                terms = [((), b, 1)]
            else:
                terms = [(legs + (hh,), b0, scal(c * x))
                         for legs, bb, c in self._iterated_coaction(b, depth - 1)
                         for (hh, b0), x in self._coact.get(bb, ())]
            self._coaction_memo[key] = terms
        return self._coaction_memo[key]

    def coaction_sides(self, depths, slot_legs):
        """The x side of a crossed pairing before the comodule cochain, per
        b-tuple: {offset: {(b0, h): coeff}}.

        b_t is expanded by depths[t] iterated coactions; slot s carries the
        product in H, left to right, of the legs legs_t[i] for (t, i) in
        slot_legs[s] (the unit when there are none).  The b-tuple is the
        offset sum_t b_t * (A#B)^(n-t) of its b digits among the targets in
        (A#B)^(x)(n+1); the b0 tuple is flat in base B and the h tuple in
        base H."""
        adim, bdim, hdim = self.ma.space.dim, self.ba.space.dim, self.hopf.dim
        tdim = adim * bdim
        per_slot = [[(b,) + term for b in range(bdim) for term in self._iterated_coaction(b, d)]
                    for d in depths]
        unit = dict(self.tabs.unit)
        sides = {}
        for combo in iproduct(*per_slot):
            c = prod(t[3] for t in combo)
            offset = b0 = 0
            for t in combo:
                offset = offset * tdim + t[0]
                b0 = b0 * bdim + t[2]
            hs = [(0, c)]
            for legs in slot_legs:
                hvec = _mul_all(self.tabs.mul, [{combo[t][1][i]: 1} for t, i in legs], unit)
                hs = [(h * hdim + k, y * x) for h, y in hs for k, x in sorted(hvec.items())]
            side = sides.setdefault(offset, {})
            for h, y in hs:
                vec_acc(side, (b0, h), y)
        return sides

    def x_side(self, sides, psi, n, width):
        """[(offset, {m * H^width + h: coeff})]: the comodule cochain psi
        (ambient coefficients at degree n) evaluated on the b0 tuples of
        coaction sides {offset: {(b0, h): coeff}} whose h tuples have width
        digits."""
        bpow = self.ba.space.dim ** (n + 1)
        hpow = self.hopf.dim ** width
        by_b0 = {}
        for f, c in psi.items():
            m, b0 = divmod(f, bpow)
            by_b0.setdefault(b0, []).append((m * hpow, c))
        out = []
        for offset, terms in sides.items():
            xvec = {}
            for (b0, h), c in terms.items():
                for m, y in by_b0.get(b0, ()):
                    vec_acc(xvec, m + h, c * y)
            if xvec:
                out.append((offset, xvec))
        return out

    def psi_cross_matrices(self):
        return self._certify_once("crossed pairing", self.target, self._crossed_pairing)

    def _crossed_pairing(self):
        mats = []
        for n in range(self.N + 2):
            # slot i: S^-1 of the product of leg j - i of b_j for j >= i,
            # where b_j carries j + 1 legs
            sides = self.coaction_sides([j + 1 for j in range(n + 1)],
                                        [[(j, j - i) for j in range(i, n + 1)]
                                         for i in range(n + 1)])
            xsides = [self.x_side(sides, psi, n, n + 1) for psi in self.comod.bases[n]]
            mats.append(_pairing_matrix(self.alg, n, [self._twisted_slot] * (n + 1), xsides))
        return mats


# ---------------------------------------------------------------------------
# cocycle bookkeeping and the composed cup

def _raise_by_faces(cx, vec, start_deg, indices):
    """Apply cx.face(d, i) successively; indices paired with ascending degrees."""
    v = dict(vec)
    d = start_deg
    for i in indices:
        v = cx.face(d, i).apply(v)
        d += 1
    return v


def is_b_closed(cx, n, vec):
    return cx.b[n].apply(vec) == {}

def is_cyclic(cx, n, vec):
    return not vec_sub(lam(cx, n).apply(vec), vec)


class CupResult:
    def __init__(self, vector, degree, b_closed, cyclic):
        self.vector = vector
        self.degree = degree
        self.b_closed = b_closed
        self.cyclic = cyclic


def _require_closed(*inputs):
    """NotACocycle for the first (complex, degree, vector, side) of inputs
    whose vector is not Hochschild-closed."""
    for cx, n, vec, side in inputs:
        if not is_b_closed(cx, n, vec):
            raise NotACocycle("%s input is not closed" % side)


def _result(ctx, out, n, cyclic_in=True):
    """The cup out of degree n with its flags read in the context's target:
    b-closed, and cyclic when the inputs were (cyclic_in)."""
    tgt = ctx.target
    return CupResult(out, n, is_b_closed(tgt, n, out), cyclic_in and is_cyclic(tgt, n, out))


def aw_cup(ctx, phi, p, x, q):
    """Composed cup: raise phi with zeroth faces, x with twisted last faces,
    pair on the diagonal.  Inputs must be Hochschild-closed in their own
    complexes; the output closure flags are verified, not assumed."""
    acx, xcx = ctx.diag.c1, ctx.diag.c2
    _require_closed((acx, p, phi, "algebra-side"), (xcx, q, x, "second"))
    cyc_in = is_cyclic(acx, p, phi) and is_cyclic(xcx, q, x)
    n = p + q
    phi2 = _raise_by_faces(acx, phi, p, [0] * q)
    x2 = _raise_by_faces(xcx, x, q, [q + k + 1 for k in range(p)])
    # diagonal coordinates: algebra index major
    xdim = xcx.dim(n)
    vec = {}
    for a, ca in phi2.items():
        for j, cj in x2.items():
            vec[a * xdim + j] = scal(ca * cj)
    return _result(ctx, ctx.pairing()[n].apply(vec), n, cyc_in)


# ---------------------------------------------------------------------------
# explicit formulas

def cup_explicit_coalgebra(ctx, phi, p, x, q):
    """The closed evaluation formula; must agree with the composed cup
    entrywise, otherwise the difference is raised, not suppressed.  Returns
    the composed cup (aw_cup)."""
    if not isinstance(ctx, (CoalgebraCupContext,)):
        raise TypeError("explicit coalgebra cup needs a coalgebra-action context")
    adim = ctx.ca.ma.space.dim
    cdim = ctx.ca.mc.space.dim
    # p+1 fold coproduct legs of the first coalgebra slot
    it = iterated_coproduct(ctx.ca.mc.coalg, p + 1)
    # phi's first slot: c0^(p+1)(a0) c1(a1) ... cq(aq) multiplied out, its
    # key the q+1 digits (c0^(p+1), c1, ..., cq); slot k = 1..p:
    # c0^(k)(a_{q+k}).  A key m (x) legs has m * C^(n+1) + flat legs.
    cq, cp = cdim ** q, cdim ** p
    xvec = {}
    for g, x0 in ctx.coalg.quotients[q].include_vec(dict(x)).items():
        m, rest = divmod(g, cdim * cq)
        c0, cs = divmod(rest, cq)
        for f, y in it.value((c0,)).items():
            head, last = divmod(f, cdim)
            vec_acc(xvec, (((m * cdim + last) * cq) + cs) * cp + head, x0 * y)
    slot0 = _product_slot(ctx._amul, ctx.ca.action.entries,
                          {key // cp % (cdim * cq) for key in xvec}, cdim, adim, adim, q + 1)
    pushed = _push(ctx.alg, ctx.alg.functional(phi, p), p, [slot0] + [ctx._act_slot] * p)
    out = contract(pushed, [(0, xvec)])
    composed = aw_cup(ctx, phi, p, x, q)
    diff = vec_sub(out, composed.vector)
    if diff:
        raise MismatchWithAW("explicit coalgebra cup differs from the composed cup", diff)
    return composed


def cup_explicit_crossed(ctx, phi, p, psi, q):
    """Returns (normative CupResult, closed-formula candidate vector, match flag).

    The closed candidate formula is implemented under a fixed literal reading
    (see the repo notes) and reported as data; the composed cup is the
    normative value."""
    if not isinstance(ctx, CrossedCupContext):
        raise TypeError("explicit crossed cup needs a crossed context")
    normative = aw_cup(ctx, phi, p, psi, q)
    n = p + q
    adim, bdim, hdim = ctx.ma.space.dim, ctx.ba.space.dim, ctx.hopf.dim
    bmul = action_table(ctx.ba.alg.mul)
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
    # a product, not a tensor, is what makes the formula well-typed.  That
    # slot's key is the first q+1 digits of the h tuple, so a key keeps its
    # flat h tuple
    mi_b = MultiIndex((bdim,) * (n + 1))
    bq = bdim ** q
    args = {}
    for offset, terms in sides.items():
        side = args[offset] = {}
        for (b0, h), c in terms.items():
            b0s = mi_b.unflat(b0)
            first = _mul_all(bmul, [{b: 1} for b in b0s[q + 1:] + b0s[:1]])
            for bf, y in first.items():
                vec_acc(side, (bf * bq + b0 // bdim ** p % bq, h), c * y)
    xside = ctx.x_side(args, ctx.comod.functional(psi, q), q, n + 1)
    hp = hdim ** p
    slot0 = _product_slot(ctx._amul, ctx._twisted,
                          {key // hp % hdim ** (q + 1) for _, xv in xside for key in xv},
                          hdim, adim, adim * bdim, q + 1)
    pushed = _push(ctx.alg, ctx.alg.functional(phi, p), p, [slot0] + [ctx._plain_slot] * p)
    out = contract(pushed, xside)
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
    act = ma.action.matrix
    rep.law("delta-invariance", (ma.hopf.space, A),
            (1, tr, act), (-1, tensor_kron(mp.delta_matrix(), tr), None))
    # a (x) b -> b (x) sigma.a
    sigma_act = compose(act, tensor_kron(mp.sigma_matrix(), SparseMatrix.identity(A.dim)))
    moved = compose(tensor_kron(SparseMatrix.identity(A.dim), sigma_act), swap_matrix(A.dim, A.dim))
    tr_mul = compose(tr, ma.alg.mul.matrix)
    rep.law("sigma-trace", (A, A), (1, tr_mul, None), (-1, tr_mul, moved))
    return rep.violations


def char_map(mp: ModularPair, ma, trace, N=3):
    """Per-degree matrices from the tensor-power complex of the Hopf algebra
    into the cyclic complex of the module algebra:

        h1 (x) ... (x) hn  ->  (a0 ... an -> trace(a0 h1(a1) ... hn(an)))

    Certified to commute with every cocyclic operator.  Raises
    NotInvariantTrace when the trace conditions fail."""
    bad = validate_trace(mp, ma, trace)
    if bad:
        raise NotInvariantTrace("trace conditions violated: %r" % bad[:5])
    h = mp.hopf
    power = build_power_complex(mp, N)
    tgt = plain_cyclic_complex(ma.alg, N)
    adim = ma.space.dim
    amul = action_table(ma.alg.mul)
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
    certify_chain_map(power, tgt, mats, "characteristic map")
    return mats, power, tgt


# ---------------------------------------------------------------------------
# shuffle-sum cups (closed trace formulas)

def _shuffle_cup(ctx, phi, p, x, xcx, q, slot, x_side):
    """The signed sum over the shuffles of Sh(q, p) of the pairing of phi
    (degree p in ctx.alg) raised by the faces of the first block with x
    (degree q in xcx) raised by those of the second: phi is pushed through
    slot in every A factor and contracted with x_side(raised x)."""
    acx = ctx.alg.complex
    n = p + q
    out = {}
    for sig in shuffle_set(q, p):
        phi_up = _raise_by_faces(acx, phi, p, [v - 1 for v in sig.first_block()])
        x_up = _raise_by_faces(xcx, x, q, [v - 1 for v in sig.second_block()])
        pushed = _push(ctx.alg, ctx.alg.functional(phi_up, n), n, [slot] * (n + 1))
        vec_axpy(out, sig.sign, contract(pushed, x_side(x_up)))
    return _result(ctx, out, n)


def shuffle_cup_traces(ctx: CrossedCupContext, phi, p, psi, q):
    """Signed shuffle-sum cup of a module-algebra cocycle with a
    comodule-algebra cocycle, valued on the crossed product."""
    _require_closed((ctx.alg.complex, p, phi, "algebra-side"),
                    (ctx.comod.complex, q, psi, "comodule-side"))
    n = p + q
    # b^t emits n-t legs; slot k multiplies the legs k - t - 1 of
    # b^0..b^{k-1} (no antipode; slot 0 is bare)
    sides = ctx.coaction_sides([n - t for t in range(n + 1)],
                               [[(t, k - t - 1) for t in range(k)] for k in range(n + 1)])
    return _shuffle_cup(ctx, phi, p, psi, ctx.comod.complex, q, ctx._plain_slot,
                        lambda psi_up: ctx.x_side(sides, ctx.comod.functional(psi_up, n), n, n + 1))


def cotrace_cup(ctx: CoalgebraCupContext, x, p, phi, q):
    """Signed shuffle-sum cup of a coalgebra-side cocycle with an algebra-side
    cocycle, valued on the algebra.

    Degree-correct block sizes: the algebra cochain (degree q) is raised by p
    faces indexed by the first block of Sh(p,q), the coalgebra class by q
    faces from the second block; both block choices agree when p = q."""
    _require_closed((ctx.coalg.complex, p, x, "coalgebra-side"),
                    (ctx.alg.complex, q, phi, "algebra-side"))
    quot = ctx.coalg.quotients[p + q]
    return _shuffle_cup(ctx, phi, q, x, ctx.coalg.complex, p, ctx._act_slot,
                        lambda x_up: [(0, quot.include_vec(x_up))])
