"""Cocyclic complexes as explicit per-degree operator matrices.

Four builders: the coalgebra complex (coinvariant-quotient realization), the
algebra complex (equivariant-functional realization), the comodule-algebra
complex (colinear-map realization) and the normalized Hopf complex on tensor
powers together with its certified isomorphism to the coalgebra complex.
When the module coalgebra is H acting on itself (acts_on_itself), the
quotient (M (x) H^(x)(n+1))_H is read through Phi(m (x) h0 (x) h~) =
m.h0(1) (x) S(h0(2)).h~ onto M (x) H^(x)n (Connes-Moscovici 1998;
Hajac-Khalkhali-Rangipour-Sommerhaeuser 2004), with no elimination of the
relations: three identities, each checked on every column, certify that the
kernel of Phi is the span of the relations and that every operator
descends (phi_degrees).  Every other module coalgebra is a QuotientSpace of
its relations.

A complex is its dims and one table of matrices keyed by structure map.
The bicocyclic module of two complexes (tensor_bicocyclic) is a view on its
two factors (ProductComplex), and so is its diagonal, the degreewise
product: it stores no operator, and the certificates read its column plans
from the factors'.

A complex built with truncation N carries degrees 0..N+1 so that faces, and
hence the Hochschild coboundary, exist at degree N.  Its structure maps are
walked in one order (structure_maps): every complex is assembled along it,
a degreewise map is certified along it (intertwines), and two complexes are
compared and dumped along it.  check_cocyclic verifies the six
cosimplicial/cyclic identity families exactly, on every basis column,
wherever every composite is defined; a violation carries its first failing
column and the residual there.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iproduct

# sha256 from the interpreter's built-in module: hashlib would load OpenSSL's
# libcrypto, several MB of resident memory for the one digest used here
try:
    from _sha2 import sha256            # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .linalg import (SparseMatrix, SpanSolver, KernelCoords, compose, tensor_kron, scal,
                     kernel_of_rows, matrix_to_text,
                     parse_scalar, vec_acc, vec_axpy, mul_vec,
                     column_plan, kron_plan, first_residual, matrix_terms)
from .spaces import MultiIndex
from .hopf import iterated_coproduct
from .actions import QuotientSpace


class CertificateFailure(Exception):
    """A failed certificate with its witness: the degree, and for an
    operator identity the first failing basis column and the sparse
    residual there (both None for a failure of another kind)."""

    def __init__(self, message, degree=None, column=None, residual=None):
        super().__init__(message)
        self.degree = degree
        self.column = column
        self.residual = residual


class IllDefined(CertificateFailure):
    """An operator does not descend to / preserve the realized space.  The
    column is the source basis index whose image leaves the target
    subspace, or the relation pivot whose image does not vanish in the
    quotient; the residual is what is left there.  Through Phi
    (phi_degrees) it is the ambient column where an operator does not
    commute with Phi or the kernel identity fails, or the relation
    generator that Phi does not kill, with the residual there."""


class ConjugationFailure(CertificateFailure):
    """The normalization isomorphism fails to intertwine an operator."""


class CocyclicComplex:
    """Degrees 0..top of dims[n] each, and one matrix per structure map,
    maps[kind, n, i] for the keys of structure_maps(N, top):

    ("face", n, i) : degree n -> n+1   for 0 <= n <= N,   0 <= i <= n+1
    ("degen", n, j): degree n -> n-1   for 1 <= n <= top, 0 <= j <= n-1
    ("tau", n, 0)  : degree n -> n     for 0 <= n <= top

    Its mixed complex (b, B) is read off the operators on first use of b or
    B and kept, so the operators must not change after that.  The powers of
    each tau_n are kept in one table (tau_power) from the first that is
    asked for until connes_B has read them; it follows a replaced tau.
    """

    def __init__(self, N, dims, maps, name=""):
        self.N = N
        self.top = len(dims) - 1
        self._dims = list(dims)
        self.maps = maps
        self.name = name
        self._tau_powers = {}       # n -> [tau_n, tau_n^2, ...]

    def dim(self, n):
        return self._dims[n]

    def face(self, n, i):
        return self.op("face", n, i)

    def degen(self, n, j):
        return self.op("degen", n, j)

    def tau(self, n):
        return self.op("tau", n, 0)

    def dims(self):
        return [self.dim(n) for n in range(self.top + 1)]

    def op(self, kind, n, i):
        """The structure map of key (kind, n, i); i is 0 for tau."""
        return self.maps[kind, n, i]

    def plan(self, kind, n, i):
        """The column plan of op(kind, n, i), the operand form the
        certificates read (linalg.residuals)."""
        return column_plan(self.op(kind, n, i))

    def tau_power(self, n, k):
        """tau_n^k for k >= 1, from the table of powers of tau_n that
        check_cocyclic and cohomology.connes_B share: each power is composed
        once, from the one below it.  The table of degree n starts again
        when maps["tau", n, 0] is replaced."""
        t = self.tau(n)
        powers = self._tau_powers.get(n)
        if powers is None or powers[0] is not t:
            powers = self._tau_powers[n] = [t]
        while len(powers) < k:
            powers.append(compose(t, powers[-1]))
        return powers[k - 1]

    def tau_power_plan(self, n, k):
        """The column plan of tau_power(n, k)."""
        return column_plan(self.tau_power(n, k))

    def drop_tau_powers(self, n):
        """Forget the kept powers of tau_n, once their last reader is done."""
        self._tau_powers.pop(n, None)

    @cached_property
    def b(self):
        """The Hochschild coboundaries b_n, n <= N, certified by
        cohomology.hochschild_b.  A failed certificate keeps nothing, so
        every read raises it again."""
        from . import cohomology
        return cohomology.hochschild_b(self)

    @cached_property
    def B(self):
        """The boundaries B_n, certified against b by cohomology.connes_B,
        which also sets boundary_reading; kept as b is."""
        from . import cohomology
        Bs, self.boundary_reading = cohomology.connes_B(self)
        return Bs

    @classmethod
    def assemble(cls, N, dims, make, name=""):
        """The complex whose map of key (kind, n, i) is make(kind, n, i),
        evaluated in the order of structure_maps."""
        return cls(N, dims, {key: make(*key) for key in structure_maps(N, len(dims) - 1)}, name)


# degree shift of each kind of structure map: faces raise it, degeneracies
# lower it, tau keeps it
_SHIFT = {"face": 1, "degen": -1, "tau": 0}


def structure_maps(N, top):
    """The keys (kind, n, i) of a complex with truncation N and spaces
    0..top, degree by degree: the faces of n when n <= N, then its
    degeneracies, then tau_n (i = 0)."""
    for n in range(top + 1):
        if n <= N:
            for i in range(n + 2):
                yield "face", n, i
        for j in range(n):
            yield "degen", n, j
        yield "tau", n, 0


def describe_map(kind, n, i):
    if kind == "face":
        return "face %d at degree %d" % (i, n)
    if kind == "degen":
        return "degeneracy %d at degree %d" % (i, n)
    return "cyclic operator at degree %d" % n


def intertwines(src, tgt, mats):
    """The first key of src's structure maps where the degreewise map
    mats[n]: src degree n -> tgt degree n fails to commute, as (key,
    column, residual) with the first failing source column and the residual
    mats . op - op . mats there; None when every map commutes."""
    plans = [column_plan(m) for m in mats]
    for key in structure_maps(src.N, src.top):
        n = key[1]
        hit = first_residual([(1, plans[n + _SHIFT[key[0]]], src.plan(*key)),
                              (-1, tgt.plan(*key), plans[n])], src.dim(n))
        if hit is not None:
            return (key,) + hit
    return None


def same_complex(a, b):
    """Same N, dims, faces, degeneracies and cyclic operators."""
    return (a.N == b.N and a.dims() == b.dims()
            and all(a.op(*key) == b.op(*key) for key in structure_maps(a.N, a.top)))


class CocyclicViolation:
    """One failed identity of check_cocyclic with its witness: the first
    source column where lhs and rhs differ and the residual lhs - rhs there
    as a sparse column."""

    __slots__ = ("family", "degree", "indices", "column", "residual")

    def __init__(self, family, degree, indices, column, residual):
        self.family = family
        self.degree = degree
        self.indices = tuple(indices)
        self.column = column
        self.residual = residual

    def __repr__(self):
        return "CocyclicViolation(%s, n=%d, %s)" % (self.family, self.degree, self.indices)


def check_cocyclic(cx: CocyclicComplex):
    """Exhaustive identity check; returns the (possibly empty) violation list.

    Each identity lhs = rhs is one first_residual call over the column
    plans of the structure maps, built once here: every column of every
    identity is checked, and a violation carries its first failing column
    and the residual lhs - rhs there."""
    bad = []
    N, top = cx.N, cx.top
    plans = {key: cx.plan(*key) for key in structure_maps(N, top)}
    F = lambda n, i: plans["face", n, i]
    S = lambda n, j: plans["degen", n, j]
    T = lambda n: plans["tau", n, 0]

    def check(family, n, indices, src, *terms, into=bad):
        hit = first_residual(terms, cx.dim(src))
        if hit is not None:
            into.append(CocyclicViolation(family, n, indices, *hit))

    # face-face:  d_j d_i = d_i d_{j-1},  i < j
    for n in range(N):
        for i in range(n + 2):
            for j in range(i + 1, n + 3):
                check("face-face", n, (i, j), n,
                      (1, F(n + 1, j), F(n, i)), (-1, F(n + 1, i), F(n, j - 1)))
    # degen-degen:  s_j s_i = s_i s_{j+1},  i <= j
    for n in range(2, top + 1):
        for i in range(n - 1):
            for j in range(i, n - 1):
                check("degen-degen", n, (i, j), n,
                      (1, S(n - 1, j), S(n, i)), (-1, S(n - 1, i), S(n, j + 1)))
    # degen-face:  s_j d_i = d_i s_{j-1} (i < j), id (i = j, j+1),
    # d_{i-1} s_j (i > j+1)
    for n in range(N + 1):
        for i in range(n + 2):
            for j in range(n + 1):
                # at n = 0, j = 0 and i <= 1: only the identity case
                if i < j:
                    rhs = (-1, F(n - 1, i), S(n, j - 1))
                elif i in (j, j + 1):
                    rhs = (-1, None, None)
                else:
                    rhs = (-1, F(n - 1, i - 1), S(n, j))
                check("degen-face", n, (i, j), n, (1, S(n + 1, j), F(n, i)), rhs)
    # cyclic-face:  t_n d_i = d_{i-1} t_{n-1} (1<=i<=n),  t_n d_0 = d_n
    for n in range(1, top + 1):
        for i in range(1, n + 1):
            check("cyclic-face", n, (i,), n - 1,
                  (1, T(n), F(n - 1, i)), (-1, F(n - 1, i - 1), T(n - 1)))
        check("cyclic-face", n, (0,), n - 1, (1, T(n), F(n - 1, 0)), (-1, F(n - 1, n), None))
    # cyclic-degen:  t_n s_i = s_{i-1} t_{n+1} (1<=i<=n),  t_n s_0 = s_n t_{n+1}^2
    # cyclic-order:  t_m^{m+1} = id, checked as t_m^h t_m^(m+1-h) - id, h = (m+1)//2
    # Both run in one pass over m = n+1 on the powers of the complex's table
    # (tau_power), each planned once here (t_m^2 serves both); the
    # cyclic-order violations follow all others.
    order = []
    for m in range(top + 1):
        h = (m + 1) // 2
        powers = {0: None, 1: T(m)}             # plans of t_m^0 = id, t_m^1, ...
        for k in (2, h, m + 1 - h) if m else ():
            if k not in powers:
                powers[k] = cx.tau_power_plan(m, k)
        n = m - 1
        if m:
            for i in range(1, n + 1):
                check("cyclic-degen", n, (i,), m,
                      (1, T(n), S(m, i)), (-1, S(m, i - 1), T(m)))
            check("cyclic-degen", n, (0,), m, (1, T(n), S(m, 0)), (-1, S(m, n), powers[2]))
        check("cyclic-order", m, (), m, (1, powers[h], powers[m + 1 - h]), (-1, None, None),
              into=order)
    return bad + order


# ---------------------------------------------------------------------------
# shared expansion tables

class HopfTables:
    """Sparse lookup tables for one Hopf algebra, shared by the builders.

    Obtain them with HopfTables.of(hopf): they are built once per Hopf
    algebra and kept on it.  Iterated coproduct legs are expanded from the
    comultiplication table on first use.
    """

    def __init__(self, hopf):
        if hopf.antipode_inv is None:
            raise ValueError("antipode is not invertible; fix the input data")
        # coassociativity makes every bracketing of every iterated coproduct
        # agree, so checking the triple one suffices (BracketingMismatch)
        iterated_coproduct(hopf.coalg, 3)
        self.mul = action_table(hopf.alg.mul)           # (i,j) -> list (k, coeff)
        self.right_mul = _by_slot(hopf.alg.mul)         # j -> {i: terms of i*j}
        self.unit = sorted(hopf.alg.unit.items())
        self.eps = dict(hopf.coalg.counit)
        self.comul = split_table(hopf.coalg.comul)      # i -> list ((a,b), coeff)
        self.S = hopf.antipode.columns()                # i -> sparse vector S(i)
        self.Sinv = hopf.antipode_inv.columns()
        # legs[k][i] = sorted list of (k-tuple, coeff); k = 0 is the counit
        self._legs = {0: {i: [((), x)] for i, x in self.eps.items() if x},
                      1: {i: [((i,), 1)] for i in range(hopf.dim)}}

    @staticmethod
    def of(hopf):
        if hopf.tables is None:
            hopf.tables = HopfTables(hopf)
        return hopf.tables

    def legs(self, k):
        """i -> the k-fold iterated coproduct of basis element i (leftmost
        bracketing) as a sorted list of (k-tuple of legs, coeff)."""
        tab = self._legs.get(k)
        if tab is None:
            tab = {}
            for i, terms in self.legs(k - 1).items():
                out = {}
                for prev, x in terms:
                    for (a, b), y in self.comul[prev[0]]:
                        vec_acc(out, (a, b) + prev[1:], x * y)
                tab[i] = sorted(out.items())
            self._legs[k] = tab
        return tab

    def diag_act(self, hvec, slots):
        """Diagonal action of the sparse vector hvec on a tensor of slots.

        slots[k] maps a basis element h to the terms [(key, coeff), ...] of
        h acting on the k-th slot; each basis element u of hvec acts through
        the legs of its len(slots)-fold coproduct.  The result is keyed by
        tuples of slot keys."""
        out = {}
        legs_tab = self.legs(len(slots))
        for u, c in hvec.items():
            for legs, x in legs_tab.get(u, ()):
                parts = []
                for leg, slot in zip(legs, slots):
                    t = slot.get(leg)
                    if not t:
                        break
                    parts.append(t)
                else:
                    for keys, y in expand_terms(parts):
                        vec_acc(out, keys, c * x * y)
        return out

    def diag_act_degrees(self, base, dim, top):
        """The diagonal action on V^(x)(n+1) for n = 0..top, on flat indices.

        base[v] maps a basis element v of V to {h: h.v as a sparse vector}.
        Yields one lookup per degree: t -> {h: h acting on the basis tensor
        with flat index t}.  Degree n is computed from degree n-1: for
        t = head*dim + v, h(1) acts on the first n slots through the
        previous degree and h(2) on the last slot through base."""
        comul = self.comul
        hdim = len(comul)

        def step(prev, head, v):
            left_all, right_all = prev(head), base[v]
            out = {}
            for hh in range(hdim):
                acc = {}
                for (h1, h2), x in comul[hh]:
                    left, right = left_all.get(h1), right_all.get(h2)
                    if left and right:
                        for a, y in left.items():
                            shift, xy = a * dim, x * y
                            for b, z in right.items():
                                vec_acc(acc, shift + b, xy * z)
                if acc:
                    out[hh] = acc
            return out

        return _by_degree(base.__getitem__, step, dim, top)


def _by_degree(first, step, dim, top):
    """Tables on V^(x)(n+1) for n = 0..top, built degree by degree on flat
    indices.  Yields one lookup t -> entry per degree: degree 0 is
    first(v); degree n is step(prev, head, v) for t = head*dim + v, prev
    being the lookup of degree n-1.  Only the previous degree's table is
    held, and the top degree is computed on demand, never stored."""
    lookup = first
    yield lookup
    for n in range(1, top + 1):
        rows = lambda t, prev=lookup: step(prev, *divmod(t, dim))
        lookup = [rows(t) for t in range(dim ** (n + 1))].__getitem__ if n < top else rows
        yield lookup


def action_table(action):
    """(i_h, i_x) -> list (j, coeff) for an arity-2 structure tensor."""
    tab = {}
    for idx, vec in action.entries.items():
        tab[idx] = sorted(vec.items())
    return tab


def _by_slot(tensor):
    """x -> {h: terms} for an arity-2 structure tensor (h, x) -> terms: what
    every h does to one basis element x of the second slot."""
    tab = {x: {} for x in range(tensor.domains[1].dim)}
    for (h, x), vec in tensor.entries.items():
        tab[x][h] = sorted(vec.items())
    return tab


def _acting_on(action):
    """x -> {h: h.x as a sparse vector} for an action tensor (h, x) -> h.x."""
    tab = {x: {} for x in range(action.domains[1].dim)}
    for (h, x), vec in action.entries.items():
        tab[x][h] = dict(vec)
    return tab


def split_table(tensor):
    """i -> sorted list ((x, v), coeff), for every basis element i of V, of
    an arity-1 structure tensor V -> X (x) V: a comultiplication, a
    coaction or a left coaction of coefficients."""
    vdim = tensor.domains[0].dim
    return {i: sorted((divmod(k, vdim), x) for k, x in tensor.value((i,)).items())
            for i in range(vdim)}


def expand_terms(parts):
    """Cartesian product of [(key, coeff)] lists -> list of (tuple_of_keys, coeff)."""
    out = [((), 1)]
    for part in parts:
        nxt = []
        for keys, c in out:
            for k, x in part:
                nxt.append((keys + (k,), scal(c * x)))
        out = nxt
    return out


# ---------------------------------------------------------------------------
# coalgebra complex: the coinvariant quotient M (x)_H C^(x)(n+1)

class CoalgebraComplexData:

    def __init__(self, complex, quotients, ambients, iso=None):
        self.complex = complex
        self.quotients = quotients      # per degree: the free ambient columns (QuotientSpace, FreeColumns)
        self.ambients = ambients        # per-degree MultiIndex (m, c, ..., c)
        self.iso = iso                  # through Phi: per-degree Phi_F, quotient -> M (x) H^(x)n


def structure_tables(t):
    """A StructureTensor's shape and structure constants."""
    return tuple(s.dim for s in t.domains), t.codomain.dim, t.entries


def same_hopf(a, b):
    """Whether two Hopf algebras have the same structure tables."""
    return (structure_tables(a.alg.mul) == structure_tables(b.alg.mul)
            and a.alg.unit == b.alg.unit
            and structure_tables(a.coalg.comul) == structure_tables(b.coalg.comul)
            and a.coalg.counit == b.coalg.counit and a.antipode == b.antipode)


def acts_on_itself(mc, h):
    """Whether the module coalgebra mc is the Hopf algebra h over itself by
    left multiplication, by structure tables: mc's Hopf algebra is h, and
    mc's comultiplication, counit and action are h's comultiplication,
    counit and multiplication.  build_coalgebra_complex builds such a
    coalgebra's complex through Phi."""
    return (same_hopf(mc.hopf, h)
            and structure_tables(mc.coalg.comul) == structure_tables(h.coalg.comul)
            and mc.coalg.counit == h.coalg.counit
            and structure_tables(mc.action) == structure_tables(h.alg.mul))


def build_coalgebra_complex(mc, sayd, N, name="coalgebra") -> CoalgebraComplexData:
    """The complex M (x)_H C^(x)(n+1): through Phi when C is H over itself
    (acts_on_itself), else as a QuotientSpace of the relations."""
    if acts_on_itself(mc, mc.hopf):
        return _coalgebra_through_phi(mc, sayd, N, name)
    return _coalgebra_by_relations(mc, sayd, N, name)


def _ambient_maps(mc, sayd, top):
    """kind -> cols(n, i): the images of the basis columns f = 0, 1, ... of
    the ambient M (x) C^(x)(n+1), flat index m*cdim^(n+1) + t, under the
    structure map (kind, n, i), in order, each as a list of (row, x)."""
    act = action_table(mc.action)
    comul, eps = split_table(mc.coalg.comul), dict(mc.coalg.counit)
    mco = split_table(sayd.lcoaction)
    mdim, cdim = sayd.space.dim, mc.space.dim
    pw = [cdim ** k for k in range(top + 3)]
    size = pw[1:]

    def face_cols(n, i):
        if i <= n:
            # m (x) head (x) c (x) tail -> m (x) head (x) c(1) (x) c(2) (x) tail
            low = pw[n - i]
            for m in range(mdim):
                for head in range(pw[i]):
                    for c in range(cdim):
                        pre = [(m * size[n + 1] + ((head * cdim + a) * cdim + b) * low, x)
                               for (a, b), x in comul[c]]
                        for tail in range(low):
                            yield [(k + tail, x) for k, x in pre]
            return
        # twisted last coface: m0 (x) c0^(2), c1..cn, m^(-1) c0^(1)
        for m in range(mdim):
            for c0 in range(cdim):
                pre = {}
                for (hh, mj), x1 in mco[m]:
                    for (a, b), x2 in comul[c0]:
                        for cc, x3 in act.get((hh, a), ()):
                            vec_acc(pre, mj * size[n + 1] + b * pw[n] * cdim + cc, x1 * x2 * x3)
                pre = list(pre.items())
                for rest in range(pw[n]):
                    yield [(k + rest * cdim, x) for k, x in pre]

    def degen_cols(n, j):
        # m (x) head (x) c (x) tail -> eps(c) m (x) head (x) tail
        low = pw[n - j - 1]
        for m in range(mdim):
            for head in range(pw[j + 1]):
                base = m * size[n - 1] + head * low
                for c in range(cdim):
                    e = eps.get(c, 0)
                    for tail in range(low):
                        yield [(base + tail, e)] if e else []

    def tau_cols(n, _):
        # m (x) c0 (x) rest -> m0 (x) rest (x) m^(-1) c0
        for m in range(mdim):
            for c0 in range(cdim):
                pre = {}
                for (hh, mj), x1 in mco[m]:
                    for cc, x2 in act.get((hh, c0), ()):
                        vec_acc(pre, mj * size[n] + cc, x1 * x2)
                pre = list(pre.items())
                for rest in range(pw[n]):
                    yield [(k + rest * cdim, x) for k, x in pre]

    return {"face": face_cols, "degen": degen_cols, "tau": tau_cols}


def _coalgebra_by_relations(mc, sayd, N, name):
    """The quotient of every degree's ambient by the span of its relations
    (QuotientSpace), each operator lifted to the quotient bases."""
    h = mc.hopf
    tabs = HopfTables.of(h)
    mract = action_table(sayd.raction)
    mdim, cdim = sayd.space.dim, mc.space.dim
    top = N + 1
    size = [cdim ** (n + 1) for n in range(top + 1)]

    def relations(n, moved_by):
        """The relations m.h (x) c~ - m (x) h.c~ of M (x)_H C^(x)(n+1), made
        c~ by c~ as the quotient eliminates them."""
        S = size[n]
        for t in range(S):
            moved = moved_by(t)
            for m in range(mdim):
                for hh in range(h.dim):
                    rel = {mj * S + t: x for mj, x in mract.get((m, hh), ())}
                    for k, x in moved.get(hh, {}).items():
                        vec_acc(rel, m * S + k, -x)
                    if rel:
                        yield rel

    moved_by_degree = tabs.diag_act_degrees(_acting_on(mc.action), cdim, top)
    quotients = [QuotientSpace(mdim * size[n], relations(n, moved_by))
                 for n, moved_by in enumerate(moved_by_degree)]
    col_fns = _ambient_maps(mc, sayd, top)

    def lift(kind, n, i):
        """Operator matrix on quotient bases.  The image of every ambient
        column is projected once; the quotient columns are the images of
        the free columns, and descent is checked on every relation row r of
        the RREF as sum_f r_f image(f) = 0 (the projection is linear): one
        residuals column per row, the images and the rows as column plans."""
        quo_s, quo_t = quotients[n], quotients[n + _SHIFT[kind]]
        images = [quo_t.project_vec(col) for col in col_fns[kind](n, i)]
        solver = quo_s.solver
        rows = [row.items() for row in solver.rref()]
        hit = first_residual([(1, [img.items() for img in images], rows)], len(rows))
        if hit is not None:
            k, residual = hit
            raise IllDefined("%s operator does not descend at degree %d" % (name, n),
                             n, solver.pivots[k], residual)
        return SparseMatrix.from_columns([images[f] for f in quo_s.free], quo_t.dim)

    cx = CocyclicComplex.assemble(N, [q.dim for q in quotients], lift, name)
    return CoalgebraComplexData(cx, quotients, _coalgebra_ambients(mdim, cdim, top))


def _coalgebra_ambients(mdim, cdim, top):
    return [MultiIndex((mdim,) + (cdim,) * (n + 1)) for n in range(top + 1)]


class FreeColumns:
    """One degree of a coinvariant quotient built through Phi, as cup reads
    it: the classes of the free ambient columns are its basis."""

    __slots__ = ("free",)

    def __init__(self, free):
        self.free = free

    @property
    def dim(self):
        return len(self.free)

    def include_vec(self, qvec):
        return {self.free[i]: x for i, x in qvec.items()}


class PhiDegree:
    """Degree n of (M (x) H^(x)(n+1))_H while it is built through Phi: the
    column plan phi of Phi on the whole ambient, the free columns, iso =
    Phi_F (quotient -> M (x) H^(x)n) and inv, its inverse."""

    __slots__ = ("n", "phi", "free", "iso", "inv")

    def __init__(self, n, phi, free, iso, inv):
        self.n, self.phi, self.free, self.iso, self.inv = n, phi, free, iso, inv


def _apply_plan(plan, terms):
    """The map with column plan plan applied to a vector given by its
    (index, x) terms."""
    out = {}
    for k, x in terms:
        for r, y in plan[k]:
            vec_acc(out, r, x * y)
    return out


def _normalization_map(n, psis, mract, mdim, S, W):
    """The column plan of Phi at degree n on the ambient M (x) H^(x)(n+1),
    flat index m*S + t: Phi(m (x) h0 (x) h~) = m.h0(1) (x) S(h0(2)).h~
    lands at m'*W + w in M (x) H^(x)n, W = dim H^(x)n.  psis yields, for
    t = (h0, h~) = 0, 1, ..., the terms (a*W + w, x) of h0(1) (x)
    S(h0(2)).h~."""
    plan = [()] * (mdim * S)
    for t, terms in enumerate(psis):
        for m in range(mdim):
            col = {}
            for aw, x in terms:
                a, w = divmod(aw, W)
                for mj, y in mract.get((m, a), ()):
                    vec_acc(col, mj * W + w, x * y)
            if col:
                plan[m * S + t] = list(col.items())
    return plan


def _free_and_inverse(phi, adim, wdim):
    """(free, T) for Phi at one degree, from one SpanSolver: the free
    columns, and T = Phi_F^-1, or None when Phi_F is not invertible.  The
    columns f of the plan phi are read from the right as the rows
    [Phi(e_f) | e_(wdim+f)] of SpanSolver(width=wdim); a row it keeps has
    a free column, and the scan stops at wdim rows.  RREF row p is then
    e_p beside the combination of free columns whose image is e_p: column
    p of T."""
    solver, free = SpanSolver(width=wdim), []
    for f in reversed(range(adim)):
        row = dict(phi[f])
        row[wdim + f] = 1
        if solver.add(row):
            free.append(f)
            if len(free) == wdim:
                break
    free.sort()
    if len(free) != wdim:
        return free, None
    pos = {f: j for j, f in enumerate(free)}
    return free, SparseMatrix(wdim, wdim, {(pos[c - wdim], p): x
                                           for p, row in enumerate(solver.rref())
                                           for c, x in row.items() if c >= wdim})


def phi_degrees(mc, sayd, top, name="coalgebra"):
    """Degrees 0..top of the coinvariant quotient of M (x) H^(x)(n+1), for
    mc the Hopf algebra H over itself (acts_on_itself), one PhiDegree each.

    Phi(m (x) h0 (x) h~) = m.h0(1) (x) S(h0(2)).h~ kills every relation
    r(m, h, c~) = m.h (x) c~ - m (x) h.c~, and every ambient column is
    x = sum m (x) h0(1).(1 (x) S(h0(2)).h~); as m (x) h.(1 (x) y) is
    m.h (x) 1 (x) y modulo r(m, h, 1 (x) y), the second identity puts
    x - s(Phi(x)) in the span of the relations, s(m (x) w~) = m (x) 1 (x)
    w~.  Both are checked on every column, so the kernel of Phi is the
    span of the relations (the relations read h.c~ as the diagonal action
    table moved does, and the second identity reads a.(1 (x) w~) as
    a(1).1 (x) a(2).w~, the same action by coassociativity, which
    HopfTables checks), and an ambient column is free in the echelon
    form of the relations exactly when its image is independent of the
    images of the columns after it: the free columns are found by a greedy
    scan from the right that stops at full rank, the elimination that also
    inverts Phi_F (_free_and_inverse).  A failed identity raises
    IllDefined with its degree, its first failing column (the ambient
    column, or the relation generator (t*mdim + m)*hdim + h) and the
    residual there; Phi_F singular raises ConjugationFailure."""
    h = mc.hopf
    tabs = HopfTables.of(h)
    d, mdim = h.dim, sayd.space.dim
    mract = action_table(sayd.raction)
    unit = tabs.unit
    # h0 -> terms (a, u, x) of h0(1) (x) S(h0(2)), u a basis element of H
    twist = {c: [(a, u, x * y) for (a, b), x in tabs.comul[c] for u, y in tabs.S[b].items()]
             for c in range(d)}
    prev = [{u: {0: e} for u, e in tabs.eps.items()}].__getitem__     # u.() = eps(u)
    base = _acting_on(mc.action)
    # a -> the terms (c, a2, x) of a(1).1 (x) a(2), a(1).1 read from the action table
    times_one = {a: {} for a in range(d)}
    for k, u in unit:
        for a, col in base[k].items():
            for c, y in col.items():
                vec_acc(times_one[a], c, u * y)
    lifted = {}
    for a in range(d):
        acc = {}
        for (a1, a2), z in tabs.comul[a]:
            for c, y in times_one[a1].items():
                vec_acc(acc, (c, a2), z * y)
        lifted[a] = [(c, a2, x) for (c, a2), x in acc.items()]
    for n, moved in enumerate(tabs.diag_act_degrees(base, d, top)):
        W, S = d ** n, d ** (n + 1)
        adim, wdim = mdim * S, mdim * W

        def psi(t):
            """h0(1) (x) S(h0(2)).h~ for t = (h0, h~), on flat indices a*W + w."""
            h0, rest = divmod(t, W)
            moved_rest, col = prev(rest), {}
            for a, u, x in twist[h0]:
                for w, y in moved_rest.get(u, {}).items():
                    vec_acc(col, a * W + w, x * y)
            return list(col.items())

        def rebuilt(m, terms):
            """sum m (x) a.(1 (x) w~) over the terms a (x) w~ of psi(t), read
            as a(1).1 (x) a(2).w~, which is h.c~ of the relations by
            coassociativity (HopfTables checks it)."""
            out = {}
            for aw, x in terms:
                a, w = divmod(aw, W)
                moved_w = prev(w)
                for c, a2, z in lifted[a]:
                    right = moved_w.get(a2)
                    if right:
                        shift, xz = m * S + c * W, x * z
                        for i, v in right.items():
                            vec_acc(out, shift + i, xz * v)
            return out

        def checked_psi():
            """psi(t) for t = 0, 1, ..., made once each, after the kernel
            identity x = sum m (x) h0(1).(1 (x) S(h0(2)).h~ is checked on
            the columns m*S + t.  The columns of one t fail together (m is
            carried along), so the first failure met is the first failing
            column."""
            for t in range(S):
                terms = psi(t)
                for m in range(mdim):
                    residual = rebuilt(m, terms)
                    vec_acc(residual, m * S + t, -1)
                    if residual:
                        raise IllDefined("%s relations do not span the kernel of the "
                                         "normalization map at degree %d" % (name, n),
                                         n, m * S + t, dict(sorted(residual.items())))
                yield terms

        phi = _normalization_map(n, checked_psi(), mract, mdim, S, W)
        blocks = mdim * d

        def generators(t):
            """Phi of the generators r(m, h, t~) of one t, (m*hdim + h)*wdim
            + r holding the entry at row r of the generator's image."""
            row, out = moved(t), {}
            for m in range(mdim):
                for hh in range(d):
                    shift = (m * d + hh) * wdim
                    for mj, x in mract.get((m, hh), ()):
                        for r, y in phi[mj * S + t]:
                            vec_acc(out, shift + r, x * y)
                    for k, x in row.get(hh, {}).items():
                        x = -x
                        for r, y in phi[m * S + k]:
                            vec_acc(out, shift + r, x * y)
            return out

        # Phi(m.h (x) c~) = Phi(m (x) h.c~): the images of the generators of
        # one t are checked together, each in rows of its own
        for t in range(S):
            residual = generators(t)
            if residual:
                block = min(residual) // wdim
                raise IllDefined("%s normalization map does not kill the relations at degree %d"
                                 % (name, n), n, t * blocks + block,
                                 {r - block * wdim: x for r, x in sorted(residual.items())
                                  if r // wdim == block})

        free, inv = _free_and_inverse(phi, adim, wdim)
        if inv is None:
            raise ConjugationFailure("normalization map is not invertible at degree %d" % n, n)
        iso = SparseMatrix.from_columns([dict(phi[f]) for f in free], wdim)
        prev = moved
        yield PhiDegree(n, phi, free, iso, inv)


def _coalgebra_through_phi(mc, sayd, N, name):
    """The complex of H over itself through Phi (phi_degrees).  With op_W =
    Phi' . op . s on M (x) H^(x)n, each structure map is T' . op_W . Phi_F,
    T' = Phi'_F^-1, once Phi' . op = op_W . Phi is checked on every ambient
    column: then op descends, and its quotient is that map.  Phi is held
    for degrees n-1..n+1 only, while the maps of degree n are made."""
    unit = HopfTables.of(mc.hopf).unit
    mdim, d = sayd.space.dim, mc.space.dim
    top = N + 1
    col_fns = _ambient_maps(mc, sayd, top)
    degrees = phi_degrees(mc, sayd, top, name)
    window, quotients, iso = {}, [], []

    def degree(n):
        while n not in window:
            deg = next(degrees)
            window[deg.n] = deg
            quotients.append(FreeColumns(deg.free))
            iso.append(deg.iso)
            if deg.n == top:
                degrees.close()     # the action tables go
        return window[n]

    def make(kind, n, i):
        window.pop(n - 2, None)
        src, tgt = degree(n), degree(n + _SHIFT[kind])
        S, W = d ** (n + 1), d ** n
        op = list(col_fns[kind](n, i))
        # op_W = Phi' . op . s reads the section columns m (x) 1 (x) w~
        op_w = [_apply_plan(tgt.phi, [(r, x * u) for k, u in unit
                                      for r, x in op[m * S + k * W + w]]).items()
                for m in range(mdim) for w in range(W)]
        hit = first_residual([(1, tgt.phi, op), (-1, op_w, src.phi)], len(op))
        if hit is not None:
            raise IllDefined("%s operator does not descend at degree %d" % (name, n), n, *hit)
        return compose(tgt.inv, SparseMatrix.from_columns(
            [_apply_plan(tgt.phi, op[f]) for f in src.free], tgt.iso.rows))

    cx = CocyclicComplex.assemble(N, [mdim * d ** n for n in range(top + 1)], make, name)
    return CoalgebraComplexData(cx, quotients, _coalgebra_ambients(mdim, d, top), iso)


class SubspaceComplexData:
    """An algebra or comodule-algebra complex with its realization: degree
    n is the span of bases[n] in the ambient M (x) V^(x)(n+1)."""

    def __init__(self, complex, bases, ambients):
        self.complex = complex
        self.bases = bases          # per-degree kernel_of_rows basis of ambient vectors
        self.ambients = ambients    # per-degree MultiIndex (m, v, ..., v)

    def functional(self, coords, n):
        """Ambient coefficients of a subspace cochain."""
        out = {}
        for k, c in coords.items():
            vec_axpy(out, c, self.bases[n][k])
        return out


# Operators on functionals / maps over M (x) V^(x)(n+1), coordinates flat as
# m*dim^(n+1) + t.  An operator is given by its ambient table by_source:
# by_source[w] maps the target coordinates v to the coefficient with which
# the source coordinate w enters (op psi)(v).

def _restrict(by_source, basis, target, message, n):
    """Matrix of an ambient operator on subspace coordinates.  The image of
    every basis vector is read on the target subspace's KernelCoords; one
    that leaves it raises IllDefined(message) at degree n with the basis
    index and the reader's residual."""
    cols = []
    for k, vec in enumerate(basis):
        img = {}
        for w, c in vec.items():
            vec_axpy(img, c, by_source[w])
        coords, residual = target.read(img)
        if residual:
            raise IllDefined(message, n, k, dict(sorted(residual.items())))
        cols.append(coords)
    return SparseMatrix.from_columns(cols, len(target.basis))


def _product_face(mul, dim, mdim, n, i):
    """(d_i psi)(m (x) v~) = psi(m (x) v_0..v_i v_{i+1}..v_{n+1}), i <= n.
    Each (source, target) pair is hit once: the target fixes every slot
    but the product's, and the source fixes the product's term."""
    S, T = dim ** (n + 1), dim ** (n + 2)
    low = dim ** (n - i)
    by_source = [{} for _ in range(mdim * S)]
    for t in range(T):
        head, rest = divmod(t, low * dim * dim)
        pair, tail = divmod(rest, low)
        for k, x in mul.get(divmod(pair, dim), ()):
            w = (head * dim + k) * low + tail
            for m in range(mdim):
                by_source[m * S + w][m * T + t] = x
    return by_source


def _unit_degen(unit, dim, mdim, n, j):
    """(s_j psi)(m (x) v~) = psi(m (x) v_0..v_j, 1, v_{j+1}..v_{n-1}).
    Each (source, target) pair is hit once, as in _product_face; the unit,
    an algebra's plain dict, is normalized here."""
    S, T = dim ** (n + 1), dim ** n
    low = dim ** (n - 1 - j)
    unit = [(k, scal(x)) for k, x in unit if x]
    by_source = [{} for _ in range(mdim * S)]
    for t in range(T):
        head, tail = divmod(t, low)
        for k, x in unit:
            w = (head * dim + k) * low + tail
            for m in range(mdim):
                by_source[m * S + w][m * T + t] = x
    return by_source


_OP_NAMES = {"face": "face", "degen": "degeneracy", "tau": "cyclic"}


def _subspace_complex(N, name, preserves, bases, ambients, mul, unit, last_face, tau):
    """The complex on the spans of bases: the product faces, the builder's
    last face, the unit degeneracies and the builder's tau, each restricted
    to the subspaces.  IllDefined("... does not preserve <preserves>") when
    an image leaves them."""
    mdim, dim = ambients[0].dims
    readers = [KernelCoords(basis) for basis in bases]

    def make(kind, n, i):
        if kind == "face":
            by_source = last_face(n) if i == n + 1 else _product_face(mul, dim, mdim, n, i)
        elif kind == "degen":
            by_source = _unit_degen(unit, dim, mdim, n, i)
        else:
            by_source = tau(n)
        target = n + _SHIFT[kind]
        message = "%s %s does not preserve %s (deg %d)" % (name, _OP_NAMES[kind], preserves, n)
        return _restrict(by_source, bases[n], readers[target], message, n)

    cx = CocyclicComplex.assemble(N, [len(basis) for basis in bases], make, name)
    return SubspaceComplexData(cx, bases, ambients)


# ---------------------------------------------------------------------------
# algebra complex: equivariant functionals on M (x) A^(x)(n+1)

def build_algebra_complex(ma, sayd, N, name="algebra") -> SubspaceComplexData:
    h = ma.hopf
    tabs = HopfTables.of(h)
    act = action_table(ma.action)
    mul = action_table(ma.alg.mul)
    mco = split_table(sayd.lcoaction)
    mract = action_table(sayd.raction)
    unit = sorted(ma.alg.unit.items())
    mdim, adim = sayd.space.dim, ma.space.dim
    top = N + 1

    ambients = [MultiIndex((mdim,) + (adim,) * (n + 1)) for n in range(top + 2)]
    # ambient of degree n: flat index m*size[n] + t, t a flat index of A^(x)(n+1)
    pw = [adim ** k for k in range(top + 3)]
    size = pw[1:]

    def equivariant(n, moved_by):
        """The conditions phi(m.h1 (x) S(h2).a~) = eps(h) phi(m (x) a~), one
        row per basis a~, h and m, made as the kernel eliminates them."""
        S = size[n]
        for t in range(S):
            moved = moved_by(t)
            twisted = {}        # h2 -> S(h2) acting diagonally on a~
            for hh in range(h.dim):
                eps_h = tabs.eps.get(hh, 0)
                for m in range(mdim):
                    row = {}
                    if eps_h:
                        row[m * S + t] = -eps_h
                    for (h1, h2), x in tabs.comul[hh]:
                        macts = mract.get((m, h1))
                        if not macts:
                            continue
                        tw = twisted.get(h2)
                        if tw is None:
                            tw = twisted[h2] = {}
                            for u, c in tabs.S[h2].items():
                                if u in moved:
                                    vec_axpy(tw, c, moved[u])
                        for mj, x1 in macts:
                            for k, x2 in tw.items():
                                vec_acc(row, mj * S + k, x * x1 * x2)
                    # condition on phi: phi(E_h v) - eps(h) phi(v) = 0; as a row
                    # over the dual coordinates this IS the column expansion
                    yield row

    moved_by_degree = tabs.diag_act_degrees(_acting_on(ma.action), adim, top)
    bases = [kernel_of_rows(equivariant(n, moved_by), ambients[n].size)
             for n, moved_by in enumerate(moved_by_degree)]

    def last_face(n):
        """(d_{n+1} phi)(m (x) a~) = phi(m0 (x) (Sinv(m-1) a_{n+1}) a0 (x) a1..an)."""
        S, T = size[n], size[n + 1]
        by_source = [{} for _ in range(mdim * S)]
        for v in range(mdim * T):
            m, t = divmod(v, T)
            a0, rest = divmod(t, pw[n + 1])
            mid, last = divmod(rest, adim)
            for (hh, mj), x1 in mco[m]:
                for u, x2 in tabs.Sinv[hh].items():
                    for b, x3 in act.get((u, last), ()):
                        for k, x4 in mul.get((b, a0), ()):
                            vec_acc(by_source[mj * S + k * pw[n] + mid], v, x1 * x2 * x3 * x4)
        return by_source

    def tau(n):
        """(t phi)(m (x) a~) = phi(m0 (x) Sinv(m-1) a_n (x) a0..a_{n-1})."""
        S = size[n]
        by_source = [{} for _ in range(mdim * S)]
        for v in range(mdim * S):
            m, t = divmod(v, S)
            rest, last = divmod(t, adim)
            for (hh, mj), x1 in mco[m]:
                for u, x2 in tabs.Sinv[hh].items():
                    for b, x3 in act.get((u, last), ()):
                        vec_acc(by_source[mj * S + b * pw[n] + rest], v, x1 * x2 * x3)
        return by_source

    return _subspace_complex(N, name, "equivariance", bases, ambients, mul, unit,
                             last_face, tau)


# ---------------------------------------------------------------------------
# comodule algebra complex: colinear maps B^(x)(n+1) -> M

def build_comodule_algebra_complex(ba, sayd, N, name="comodule-algebra") -> SubspaceComplexData:
    h = ba.hopf
    tabs = HopfTables.of(h)
    coact = split_table(ba.coaction)
    mul = action_table(ba.alg.mul)
    unit = sorted(ba.alg.unit.items())
    mco = split_table(sayd.lcoaction)
    mract = action_table(sayd.raction)
    mdim, bdim = sayd.space.dim, ba.space.dim
    top = N + 1
    # hom coordinates: (m, b-tuple), m major; flat index m*size[n] + t
    ambients = [MultiIndex((mdim,) + (bdim,) * (n + 1)) for n in range(top + 2)]
    pw = [bdim ** k for k in range(top + 3)]
    size = pw[1:]

    def coact_step(prev, head, v):
        """Diagonal coaction of (b~, v) from that of b~: the H legs are
        multiplied in slot order.  Keys are (h, flat index of the b-out
        tuple)."""
        out = {}
        for (hp, bp), x in prev(head).items():
            for (hh, b0), y in coact.get(v, ()):
                for k, z in tabs.mul.get((hp, hh), ()):
                    vec_acc(out, (k, bp * bdim + b0), x * y * z)
        return out

    def colinear(n, coact_of):
        """The conditions coact_M(psi(w)) = w^(-1) (x) psi(w^(0)), one row per
        basis w, h and m'; the rows of one w are complete once w is done."""
        S = size[n]
        for w in range(S):
            rows = {}
            for m in range(mdim):
                col = m * S + w
                for (hh, mj), x in mco[m]:
                    vec_acc(rows.setdefault((hh, mj), {}), col, x)
            for (hh, bouts), x in coact_of(w).items():
                for mj in range(mdim):
                    vec_acc(rows.setdefault((hh, mj), {}), mj * S + bouts, -x)
            yield from rows.values()

    first = [{key: x for key, x in coact.get(v, ())} for v in range(bdim)]
    coact_by_degree = _by_degree(first.__getitem__, coact_step, bdim, top)
    bases = [kernel_of_rows(colinear(n, coact_of), ambients[n].size)
             for n, coact_of in enumerate(coact_by_degree)]

    def last_face(n):
        """(d_{n+1} psi)(v~) = psi(v_{n+1}^(0) v_0, v_1..v_n) . v_{n+1}^(-1)."""
        S, T = size[n], size[n + 1]
        by_source = [{} for _ in range(mdim * S)]
        for t in range(T):
            v0, rest = divmod(t, pw[n + 1])
            mid, last = divmod(rest, bdim)
            for (hh, b0), x1 in coact.get(last, ()):
                for k, x2 in mul.get((b0, v0), ()):
                    w = k * pw[n] + mid
                    for m in range(mdim):
                        for mj, x3 in mract.get((m, hh), ()):
                            vec_acc(by_source[m * S + w], mj * T + t, x1 * x2 * x3)
        return by_source

    def tau(n):
        """(t psi)(v_0..v_n) = psi(v_n^(0), v_0..v_{n-1}) . v_n^(-1)."""
        S = size[n]
        by_source = [{} for _ in range(mdim * S)]
        for t in range(S):
            rest, last = divmod(t, bdim)
            for (hh, b0), x1 in coact.get(last, ()):
                w = b0 * pw[n] + rest
                for m in range(mdim):
                    for mj, x2 in mract.get((m, hh), ()):
                        vec_acc(by_source[m * S + w], mj * S + t, x1 * x2)
        return by_source

    return _subspace_complex(N, name, "colinearity", bases, ambients, mul, unit,
                             last_face, tau)


# ---------------------------------------------------------------------------
# the normalized Hopf complex on tensor powers, with certified isomorphism

class HopfComplexData:

    def __init__(self, quot, power, iso):
        self.quot = quot        # coinvariant-quotient side (H over itself)
        self.power = power      # simplified side on tensor powers H^(x)n
        self.iso = iso          # per-degree matrices: quotient side -> power side


def build_hopf_complex(mp, N) -> HopfComplexData:
    """Coalgebra complex of H over itself with 1-dim twisted coefficients,
    the simplified complex on tensor powers, and the certified conjugating
    isomorphism between them: Phi_F, the normalization map on the classes
    of the free columns (phi_degrees)."""
    from .actions import mpi_coefficients, validate_sayd
    from .fixtures import self_module_coalgebra
    h = mp.hopf
    sayd = mpi_coefficients(mp)
    rep = validate_sayd(sayd)
    if not rep.ok:
        raise ValueError("coefficient pair is not stable anti-Yetter-Drinfeld: %r" % rep)
    quot = build_coalgebra_complex(self_module_coalgebra(h), sayd, N, name="hopf-quotient")
    power = build_power_complex(mp, N)
    # certify conjugation of every operator
    bad = intertwines(quot.complex, power, quot.iso)
    if bad is not None:
        key, column, residual = bad
        raise ConjugationFailure(describe_map(*key), key[1], column, residual)
    return HopfComplexData(quot, power, quot.iso)


def build_power_complex(mp, N) -> CocyclicComplex:
    """The simplified complex: degree n space is H^(x) n."""
    h = mp.hopf
    d = h.dim
    tabs = HopfTables.of(h)
    from .hopf import twisted_antipode
    St = twisted_antipode(mp).columns()
    sigma = sorted(mp.sigma.items())
    # leg -> terms of leg * sigma, the slot table of the appended sigma
    sigma_slot = {}
    for leg in range(d):
        v = mul_vec(tabs.mul, {leg: 1}, mp.sigma)
        if v:
            sigma_slot[leg] = sorted(v.items())
    unit = tabs.unit
    top = N + 1
    mis = [MultiIndex((d,) * n) for n in range(top + 1)]

    def face_col(n, i, ht):
        mi1 = mis[n + 1]
        out = {}
        if i == 0:
            for k, x in unit:
                out[mi1.flat((k,) + ht)] = x
        elif i <= n:
            for (a, b), x in tabs.comul[ht[i - 1]]:
                out[mi1.flat(ht[:i - 1] + (a, b) + ht[i:])] = x
        else:
            for k, x in sigma:
                out[mi1.flat(ht + (k,))] = x
        return out

    def degen_col(n, j, ht):
        e = tabs.eps.get(ht[j], 0)
        if not e:
            return {}
        return {mis[n - 1].flat(ht[:j] + ht[j + 1:]): e}

    def tau_col(n, _, ht):
        # (iterated coproduct of the twisted antipode of h1) . (h2..hn, sigma)
        if n == 0:
            return {0: 1}
        # multiply slotwise: legs[k] * h_{k+1} for k < n-1, legs[n-1] * sigma
        slots = [tabs.right_mul[t] for t in ht[1:]] + [sigma_slot]
        return {mis[n].flat(keys): x for keys, x in tabs.diag_act(St[ht[0]], slots).items()}

    col_fns = {"face": face_col, "degen": degen_col, "tau": tau_col}

    def materialize(kind, n, i):
        cols = [col_fns[kind](n, i, ht) for ht in iproduct(range(d), repeat=n)]
        return SparseMatrix.from_columns(cols, mis[n + _SHIFT[kind]].size)

    return CocyclicComplex.assemble(N, [mi.size for mi in mis], materialize, "hopf-power")


# ---------------------------------------------------------------------------
# the bicocyclic module of two complexes and its diagonal

class ProductComplex(CocyclicComplex):
    """The bicocyclic module of c1 and c2: spot (p, q) is degree p of c1
    (x) degree q of c2, first factor major; horizontal maps act on c1 and
    vertical maps on c2, so they commute (check_bicocyclic).  As a
    CocyclicComplex it is its diagonal, the degreewise product: degree n is
    the spot (n, n), and (d_i (x) 1)(1 (x) d_i) = d_i (x) d_i.

    It holds its two factors and no operator, and no table of tau powers.
    op and tau_power form the Kronecker product of the factors' maps or
    powers when a matrix is asked for; plan and tau_power_plan read the
    Kronecker column plan straight from the factors' plans and powers, so
    the certificates never build an operator of the product."""

    def __init__(self, c1, c2):
        self.c1 = c1
        self.c2 = c2
        self.N = min(c1.N, c2.N)
        self.top = min(c1.top, c2.top)
        self.name = "product"

    def dim(self, n):
        return self.c1.dim(n) * self.c2.dim(n)

    def horizontal(self, kind, p, q, i):
        """The map of key (kind, p, i) of c1 at the spot (p, q)."""
        return tensor_kron(self.c1.op(kind, p, i), SparseMatrix.identity(self.c2.dim(q)))

    def vertical(self, kind, p, q, i):
        """The map of key (kind, q, i) of c2 at the spot (p, q)."""
        return tensor_kron(SparseMatrix.identity(self.c1.dim(p)), self.c2.op(kind, q, i))

    def op(self, kind, n, i):
        return tensor_kron(self.c1.op(kind, n, i), self.c2.op(kind, n, i))

    def plan(self, kind, n, i):
        return kron_plan(self.c1.plan(kind, n, i), self.c2.plan(kind, n, i),
                         self.c2.dim(n + _SHIFT[kind]))

    def tau_power(self, n, k):
        return tensor_kron(self.c1.tau_power(n, k), self.c2.tau_power(n, k))

    def tau_power_plan(self, n, k):
        """(t1 (x) t2)^k = t1^k (x) t2^k, planned from the factors' tables."""
        return kron_plan(self.c1.tau_power_plan(n, k), self.c2.tau_power_plan(n, k),
                         self.c2.dim(n))

    def drop_tau_powers(self, n):
        pass


def tensor_bicocyclic(c1, c2) -> ProductComplex:
    """The bicocyclic module c1 (x) c2."""
    return ProductComplex(c1, c2)


def diagonal(b: ProductComplex) -> ProductComplex:
    """The diagonal complex of the bicocyclic module b, which b already is."""
    return b


def check_bicocyclic(b: ProductComplex):
    """Rows/columns are cocyclic (delegated) plus pairwise commutation."""
    bad = []
    N = b.N
    H, V = b.horizontal, b.vertical

    def commute(family, p, indices, f, g, f2, g2):
        """f . g = f2 . g2, checked over the columns of g."""
        hit = first_residual(matrix_terms([(1, f, g), (-1, f2, g2)]), g.cols)
        if hit is not None:
            bad.append(CocyclicViolation(family, p, indices, *hit))

    for p in range(N + 1):
        for q in range(N + 1):
            if p <= N - 1 and q <= N - 1:
                for i in range(p + 2):
                    for j in range(q + 2):
                        commute("h-v-face", p, (q, i, j), H("face", p, q + 1, i),
                                V("face", p, q, j), V("face", p + 1, q, j), H("face", p, q, i))
            commute("h-v-cyclic", p, (q,), H("tau", p, q, 0), V("tau", p, q, 0),
                    V("tau", p, q, 0), H("tau", p, q, 0))
    return bad


# ---------------------------------------------------------------------------
# plain cyclic complex of an algebra, used as cup targets

def plain_cyclic_complex(alg, N, name="cyclic"):
    """The standard cocyclic module of a unital algebra A (Connes 1985;
    Loday 2.1): degree n is the dual of A^(x)(n+1) on its standard basis,
    the faces multiply neighbouring slots, the last face multiplies the
    last slot into the first, the degeneracies insert the unit and tau
    rotates the last slot to the front.  Every operator is built straight
    from alg.mul and alg.unit, on the ambients (1, A, ..., A) that the
    algebra complex uses, with one trivial coefficient index."""
    mul = action_table(alg.mul)
    unit = sorted(alg.unit.items())
    dim = alg.space.dim
    top = N + 1
    ambients = [MultiIndex((1,) + (dim,) * (n + 1)) for n in range(top + 2)]
    pw = [dim ** k for k in range(top + 3)]

    def last_face(n):
        """(d_{n+1} phi)(a~) = phi(a_{n+1} a_0 (x) a_1..a_n)."""
        by_source = [{} for _ in range(pw[n + 1])]
        for t in range(pw[n + 2]):
            a0, rest = divmod(t, pw[n + 1])
            mid, last = divmod(rest, dim)
            for k, x in mul.get((last, a0), ()):
                by_source[k * pw[n] + mid][t] = x
        return by_source

    def tau(n):
        """(t phi)(a~) = phi(a_n (x) a_0..a_{n-1})."""
        by_source = [None] * pw[n + 1]
        for t in range(pw[n + 1]):
            rest, last = divmod(t, dim)
            by_source[last * pw[n] + rest] = {t: 1}
        return by_source

    def make(kind, n, i):
        if kind == "face":
            by_source = last_face(n) if i == n + 1 else _product_face(mul, dim, 1, n, i)
        elif kind == "degen":
            by_source = _unit_degen(unit, dim, 1, n, i)
        else:
            by_source = tau(n)
        return SparseMatrix.from_columns(by_source, pw[n + 1 + _SHIFT[kind]])

    cx = CocyclicComplex.assemble(N, pw[1:top + 2], make, name)
    bases = [[{k: 1} for k in range(size)] for size in pw[1:top + 2]]
    return SubspaceComplexData(cx, bases, ambients)


# ---------------------------------------------------------------------------
# serialization (versioned text dump with input content hash)

DUMP_VERSION = "hopfcyclic-complex v2"


def _dump_order(N, top):
    """The keys of structure_maps in dump order: all faces, then all
    degeneracies, then all taus (a stable sort by kind)."""
    kinds = ("face", "degen", "tau")
    return sorted(structure_maps(N, top), key=lambda key: kinds.index(key[0]))


def _dump_label(kind, n, i):
    return "tau %d" % n if kind == "tau" else "%s %d %d" % (kind, n, i)


def complex_to_text(cx: CocyclicComplex, content_hash=""):
    """The dump of a complex; its first line carries the version, the
    caller's content hash and the sha256 digest of the rest of the text."""
    out = ["N %d top %d" % (cx.N, cx.top)]
    for n in range(cx.top + 1):
        out.append("degree %d dim %d" % (n, cx.dim(n)))
    for key in _dump_order(cx.N, cx.top):
        out.append(_dump_label(*key))
        out.append(matrix_to_text(cx.op(*key)))
    body = "\n".join(out) + "\n"
    return "%s %s %s\n%s" % (DUMP_VERSION, content_hash,
                             sha256(body.encode()).hexdigest(), body)


def complex_from_text(text):
    """Inverse of complex_to_text.  Raises ValueError for a dump of another
    version, one whose body does not match its digest (cut short or
    edited), and one whose body is not the layout complex_to_text writes:
    a block missing or out of order, a ``rows cols`` header that does not
    match the degree dims, or a line inside a block that is not an
    in-range ``r c p/q`` triplet."""
    head, _, body = text.partition("\n")
    if not head.startswith(DUMP_VERSION):
        raise ValueError("unrecognized complex dump")
    content_hash, _, digest = head[len(DUMP_VERSION):].strip().rpartition(" ")
    if digest != sha256(body.encode()).hexdigest():
        raise ValueError("complex dump does not match its digest")
    lines = body.splitlines()
    words = lines[0].split() if lines else ()
    if len(words) != 4 or words[0] != "N" or words[2] != "top":
        raise ValueError("complex dump lacks its N/top line")
    N, top = int(words[1]), int(words[3])
    if not 0 <= N < top or len(lines) < top + 2:
        raise ValueError("complex dump has N %d and top %d" % (N, top))
    dims = []
    for n in range(top + 1):
        words = lines[n + 1].split()
        if len(words) != 4 or words[:3] != ["degree", str(n), "dim"] or not words[3].isdigit():
            raise ValueError("complex dump lacks the dim of degree %d" % n)
        dims.append(int(words[3]))

    keys = _dump_order(N, top)
    labels = [_dump_label(*key) for key in keys]
    shapes = [(dims[n + _SHIFT[kind]], dims[n]) for kind, n, _ in keys]
    mats = {}
    pos = top + 2
    for b, key in enumerate(keys):
        label, (rows, cols) = labels[b], shapes[b]
        if lines[pos:pos + 2] != [label, "%d %d" % (rows, cols)]:
            raise ValueError("complex dump lacks block %r of shape %dx%d" % (label, rows, cols))
        pos += 2
        try:
            end = lines.index(labels[b + 1], pos) if b + 1 < len(keys) else len(lines)
        except ValueError:
            raise ValueError("complex dump lacks block %r of shape %dx%d"
                             % ((labels[b + 1],) + shapes[b + 1])) from None
        ent = {}
        for line in lines[pos:end]:
            words = line.split()
            if len(words) == 3:
                r, c, x = int(words[0]), int(words[1]), words[2]
                x = int(x) if "/" not in x else parse_scalar(x)
            if len(words) != 3 or not (x and 0 <= r < rows and 0 <= c < cols):
                raise ValueError("complex dump block %r has entry %r" % (label, line))
            ent[(r, c)] = x
        if len(ent) != end - pos:
            raise ValueError("complex dump block %r repeats an entry" % label)
        m = SparseMatrix(rows, cols)
        m.entries = ent
        mats[key] = m
        pos = end
    cx = CocyclicComplex(N, dims, mats)
    cx.content_hash = content_hash
    return cx


def content_hash(text):
    return sha256(text.encode()).hexdigest()[:16]
