"""Cocyclic complexes as explicit per-degree operator matrices.

Four builders: the coalgebra complex (coinvariant-quotient realization), the
algebra complex (equivariant-functional realization), the comodule-algebra
complex (colinear-map realization) and the normalized Hopf complex on tensor
powers together with its certified isomorphism to the coalgebra complex.
The degreewise product of two complexes, which is also the diagonal of their
tensor product, is a view on its two factors (ProductComplex): it stores no
operator, and the certificates read its column plans from the factors'.

A complex built with truncation N carries spaces 0..N+1 so that faces, and
hence the Hochschild coboundary, exist at degree N.  Its structure maps are
walked in one order (structure_maps): every complex is assembled along it,
a degreewise map is certified along it (intertwines), and two complexes are
compared and dumped along it.  check_cocyclic verifies the six
cosimplicial/cyclic identity families exactly, on every basis column,
wherever every composite is defined; a violation carries its first failing
column and the residual there.
"""

from __future__ import annotations

from functools import partial
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

from .linalg import (SparseMatrix, KernelCoords, compose, tensor_kron, scal,
                     image_rank, kernel_of_rows, matrix_to_text,
                     parse_scalar, vec_acc, vec_axpy, mul_vec,
                     column_plan, kron_plan, first_residual, matrix_terms)
from .spaces import BasedSpace, MultiIndex, tensor_power, tensor_space
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
    quotient; the residual is what is left there."""


class ConjugationFailure(CertificateFailure):
    """The normalization isomorphism fails to intertwine an operator."""


class CocyclicComplex:
    """Spaces 0..top with faces, degeneracies and cyclic operators.

    faces[n][i] : space_n -> space_{n+1}   for 0 <= n <= N,   0 <= i <= n+1
    degens[n][j]: space_n -> space_{n-1}   for 1 <= n <= top, 0 <= j <= n-1
    taus[n]     : space_n -> space_n       for 0 <= n <= top
    """

    def __init__(self, N, spaces, faces, degens, taus, name=""):
        self.N = N
        self.top = len(spaces) - 1
        self.spaces = spaces
        self.faces = faces
        self.degens = degens
        self.taus = taus
        self.name = name

    def dim(self, n):
        return self.spaces[n].dim

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
        if kind == "face":
            return self.faces[n][i]
        if kind == "degen":
            return self.degens[n][i]
        return self.taus[n]

    def plan(self, kind, n, i):
        """The column plan of op(kind, n, i), the operand form the
        certificates read (linalg.residuals)."""
        return column_plan(self.op(kind, n, i))

    @classmethod
    def assemble(cls, N, spaces, make, name=""):
        """The complex whose map of key (kind, n, i) is make(kind, n, i),
        evaluated in the order of structure_maps."""
        faces, degens, taus = [[] for _ in range(N + 1)], {}, []
        for kind, n, i in structure_maps(N, len(spaces) - 1):
            m = make(kind, n, i)
            if kind == "face":
                faces[n].append(m)
            elif kind == "degen":
                degens.setdefault(n, []).append(m)
            else:
                taus.append(m)
        return cls(N, spaces, faces, degens, taus, name=name)


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
    # Both run in one pass over m = n+1, so each power of t_m is composed once
    # (t_m^2 serves both); the cyclic-order violations follow all others.
    order = []
    for m in range(top + 1):
        h = (m + 1) // 2
        highest = max(2, m + 1 - h) if m else 1
        powers = [None, T(m)]                   # plans of t_m^0 = id, t_m^1, ...
        t = tm = cx.tau(m)
        while len(powers) <= highest:
            tm = compose(t, tm)
            powers.append(column_plan(tm))
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
        self.mul = _action_table(hopf.alg.mul)          # (i,j) -> list (k, coeff)
        self.right_mul = _by_slot(hopf.alg.mul)         # j -> {i: terms of i*j}
        self.unit = sorted(hopf.alg.unit.items())
        ctabs = _coalg_tables(hopf.coalg)
        self.eps = ctabs["eps"]
        self.comul = ctabs["comul"]                     # i -> list ((a,b), coeff)
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


def _action_table(action):
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


def _coaction_table(coaction, hdim):
    """i_b -> list ((i_h, j_b), coeff)."""
    tab = {}
    cdim = coaction.codomain.dim // hdim
    for (i,), vec in coaction.entries.items():
        tab[i] = sorted((divmod(k, cdim), x) for k, x in vec.items())
    return tab


def _mcoact_table(sayd):
    """m -> list ((h, m'), coeff)."""
    mdim = sayd.space.dim
    tab = {}
    for i in range(mdim):
        vec = sayd.lcoaction.value((i,))
        tab[i] = sorted((divmod(k, mdim), x) for k, x in vec.items())
    return tab


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

    def __init__(self, complex, quotients, ambients):
        self.complex = complex
        self.quotients = quotients      # per-degree QuotientSpace on the ambient
        self.ambients = ambients        # per-degree MultiIndex (m, c, ..., c)


def build_coalgebra_complex(mc, sayd, N, name="coalgebra") -> CoalgebraComplexData:
    h = mc.hopf
    tabs = HopfTables.of(h)
    act = _action_table(mc.action)
    ctabs = _coalg_tables(mc.coalg)
    comul, eps = ctabs["comul"], ctabs["eps"]
    mco = _mcoact_table(sayd)
    mract = _action_table(sayd.raction)
    mdim, cdim = sayd.space.dim, mc.space.dim
    top = N + 1
    # ambient of degree n: flat index m*size[n] + t, t a flat index of C^(x)(n+1)
    pw = [cdim ** k for k in range(top + 3)]
    size = pw[1:]

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
    ambients = [MultiIndex((mdim,) + (cdim,) * (n + 1)) for n in range(top + 1)]
    spaces = [BasedSpace(tuple("q%d_%d" % (n, i) for i in range(quo.dim)))
              for n, quo in enumerate(quotients)]

    def face_col(n, i, f):
        """Ambient image of the ambient basis column f under the i-th coface."""
        m, t = divmod(f, size[n])
        base = m * size[n + 1]
        out = {}
        if i <= n:
            head, rest = divmod(t, pw[n - i + 1])
            c, tail = divmod(rest, pw[n - i])
            for (a, b), x in comul[c]:
                out[base + ((head * cdim + a) * cdim + b) * pw[n - i] + tail] = x
        else:
            # twisted last coface: m0 (x) c0^(2), c1..cn, m^(-1) c0^(1)
            c0, rest = divmod(t, pw[n])
            for (hh, mj), x1 in mco[m]:
                for (a, b), x2 in comul[c0]:
                    for cc, x3 in act.get((hh, a), ()):
                        vec_acc(out, mj * size[n + 1] + (b * pw[n] + rest) * cdim + cc,
                                x1 * x2 * x3)
        return out

    def degen_col(n, j, f):
        m, t = divmod(f, size[n])
        head, rest = divmod(t, pw[n - j])
        c, tail = divmod(rest, pw[n - j - 1])
        e = eps.get(c, 0)
        if not e:
            return {}
        return {m * size[n - 1] + head * pw[n - j - 1] + tail: e}

    def tau_col(n, _, f):
        m, t = divmod(f, size[n])
        c0, rest = divmod(t, pw[n])
        out = {}
        for (hh, mj), x1 in mco[m]:
            for cc, x2 in act.get((hh, c0), ()):
                vec_acc(out, mj * size[n] + rest * cdim + cc, x1 * x2)
        return out

    col_fns = {"face": face_col, "degen": degen_col, "tau": tau_col}

    def lift(kind, n, i):
        """Operator matrix on quotient bases.  The image of every ambient
        column is projected once; the quotient columns are the images of
        the free columns, and descent is checked on every relation row r of
        the RREF as sum_f r_f image(f) = 0 (the projection is linear): one
        residuals column per row, the images and the rows as column plans."""
        colfn = partial(col_fns[kind], n, i)
        quo_s, quo_t = quotients[n], quotients[n + _SHIFT[kind]]
        images = [quo_t.project_vec(colfn(f)) for f in range(quo_s.ambient_dim)]
        solver = quo_s.solver
        rows = [solver.rows[p].items() for p in solver.pivots]
        hit = first_residual([(1, [img.items() for img in images], rows)], len(rows))
        if hit is not None:
            k, residual = hit
            raise IllDefined("%s operator does not descend at degree %d" % (name, n),
                             n, solver.pivots[k], residual)
        return SparseMatrix.from_columns([images[f] for f in quo_s.free], quo_t.dim)

    cx = CocyclicComplex.assemble(N, spaces, lift, name)
    return CoalgebraComplexData(cx, quotients, ambients)


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
    """(d_i psi)(m (x) v~) = psi(m (x) v_0..v_i v_{i+1}..v_{n+1}), i <= n."""
    S, T = dim ** (n + 1), dim ** (n + 2)
    low = dim ** (n - i)
    by_source = [{} for _ in range(mdim * S)]
    for t in range(T):
        head, rest = divmod(t, low * dim * dim)
        pair, tail = divmod(rest, low)
        for k, x in mul.get(divmod(pair, dim), ()):
            w = (head * dim + k) * low + tail
            for m in range(mdim):
                vec_acc(by_source[m * S + w], m * T + t, x)
    return by_source


def _unit_degen(unit, dim, mdim, n, j):
    """(s_j psi)(m (x) v~) = psi(m (x) v_0..v_j, 1, v_{j+1}..v_{n-1})."""
    S, T = dim ** (n + 1), dim ** n
    low = dim ** (n - 1 - j)
    by_source = [{} for _ in range(mdim * S)]
    for t in range(T):
        head, tail = divmod(t, low)
        for k, x in unit:
            w = (head * dim + k) * low + tail
            for m in range(mdim):
                vec_acc(by_source[m * S + w], m * T + t, x)
    return by_source


_OP_NAMES = {"face": "face", "degen": "degeneracy", "tau": "cyclic"}


def _subspace_complex(N, name, prefix, preserves, bases, ambients, mul, unit, last_face, tau):
    """The complex on the spans of bases: the product faces, the builder's
    last face, the unit degeneracies and the builder's tau, each restricted
    to the subspaces.  IllDefined("... does not preserve <preserves>") when
    an image leaves them."""
    mdim, dim = ambients[0].dims
    spaces = [BasedSpace(tuple("%s%d_%d" % (prefix, n, i) for i in range(len(basis))))
              for n, basis in enumerate(bases)]
    # every basis standard: the subspaces are the ambients, and each
    # operator is its ambient table (the plain cyclic complexes)
    full = all(len(basis) == amb.size and all(v == {k: 1} for k, v in enumerate(basis))
               for basis, amb in zip(bases, ambients))
    readers = None if full else [KernelCoords(basis) for basis in bases]

    def make(kind, n, i):
        if kind == "face":
            by_source = last_face(n) if i == n + 1 else _product_face(mul, dim, mdim, n, i)
        elif kind == "degen":
            by_source = _unit_degen(unit, dim, mdim, n, i)
        else:
            by_source = tau(n)
        target = n + _SHIFT[kind]
        if full:
            return SparseMatrix.from_columns(by_source, len(bases[target]))
        message = "%s %s does not preserve %s (deg %d)" % (name, _OP_NAMES[kind], preserves, n)
        return _restrict(by_source, bases[n], readers[target], message, n)

    cx = CocyclicComplex.assemble(N, spaces, make, name)
    return SubspaceComplexData(cx, bases, ambients)


def _coalg_tables(coalg):
    d = coalg.space.dim
    comul = {}
    for i in range(d):
        v = coalg.comul.value((i,))
        comul[i] = sorted((divmod(k, d), x) for k, x in v.items())
    return {"comul": comul, "eps": dict(coalg.counit)}


# ---------------------------------------------------------------------------
# algebra complex: equivariant functionals on M (x) A^(x)(n+1)

def build_algebra_complex(ma, sayd, N, name="algebra") -> SubspaceComplexData:
    h = ma.hopf
    tabs = HopfTables.of(h)
    act = _action_table(ma.action)
    mul = _action_table(ma.alg.mul)
    mco = _mcoact_table(sayd)
    mract = _action_table(sayd.raction)
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

    return _subspace_complex(N, name, "e", "equivariance", bases, ambients, mul, unit,
                             last_face, tau)


# ---------------------------------------------------------------------------
# comodule algebra complex: colinear maps B^(x)(n+1) -> M

def build_comodule_algebra_complex(ba, sayd, N, name="comodule-algebra") -> SubspaceComplexData:
    h = ba.hopf
    tabs = HopfTables.of(h)
    coact = _coaction_table(ba.coaction, h.dim)
    mul = _action_table(ba.alg.mul)
    unit = sorted(ba.alg.unit.items())
    mco = _mcoact_table(sayd)
    mract = _action_table(sayd.raction)
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

    return _subspace_complex(N, name, "c", "colinearity", bases, ambients, mul, unit,
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
    isomorphism between them."""
    from .actions import mpi_coefficients, validate_sayd
    from .fixtures import self_module_coalgebra
    h = mp.hopf
    sayd = mpi_coefficients(mp)
    rep = validate_sayd(sayd)
    if not rep.ok:
        raise ValueError("coefficient pair is not stable anti-Yetter-Drinfeld: %r" % rep)
    mc = self_module_coalgebra(h)
    quot = build_coalgebra_complex(mc, sayd, N, name="hopf-quotient")
    power = _build_power_complex(mp, N)
    iso = []
    for n in range(N + 2):
        I_n = _normalization_map(quot, mp, n)
        if I_n.rows != I_n.cols or image_rank(I_n) != I_n.cols:
            raise ConjugationFailure("normalization map is not invertible at degree %d" % n, n)
        iso.append(I_n)
    # certify conjugation of every operator
    bad = intertwines(quot.complex, power, iso)
    if bad is not None:
        key, column, residual = bad
        raise ConjugationFailure(describe_map(*key), key[1], column, residual)
    return HopfComplexData(quot, power, iso)


def _normalization_map(quot, mp, n):
    """Degree-n matrix of the map from the quotient side to H^(x)n:
    the class of m (x) h0 (x) h~ goes to delta(h0^(1)) S(h0^(2)) . h~."""
    h = mp.hopf
    tabs = HopfTables.of(h)
    delta = dict(mp.delta)
    mi = quot.ambients[n]
    quo = quot.quotients[n]
    mi_t = MultiIndex((h.dim,) * n)
    cols = []
    for k in range(quo.dim):
        amb = quo.include_vec({k: 1})
        out = {}
        for f, c0 in amb.items():
            idx = mi.unflat(f)
            h0, rest = idx[1], idx[2:]
            # m h0^(1) (x) S(h0^(2)) . (h1 .. hn)
            hvec = {}
            for (a, b), x1 in tabs.comul[h0]:
                vec_axpy(hvec, c0 * x1 * delta.get(a, 0), tabs.S[b])
            moved = tabs.diag_act(hvec, [tabs.right_mul[hi] for hi in rest])
            for keys, x in moved.items():
                vec_acc(out, mi_t.flat(keys), x)
        cols.append(out)
    return SparseMatrix.from_columns(cols, mi_t.size)


def _build_power_complex(mp, N) -> CocyclicComplex:
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
    spaces = [tensor_power(h.space, n) for n in range(top + 1)]
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

    return CocyclicComplex.assemble(N, spaces, materialize, "hopf-power")


# ---------------------------------------------------------------------------
# bicocyclic complexes, diagonals, products

class BicocyclicComplex:
    """Tensor product of two cocyclic complexes: horizontal operators act on
    the first factor, vertical on the second; they commute by construction
    and the validator checks it."""

    def __init__(self, c1, c2):
        self.c1 = c1
        self.c2 = c2
        self.N = min(c1.N, c2.N)
        self.top = min(c1.top, c2.top)

    def hface(self, p, q, i):
        return tensor_kron(self.c1.face(p, i), SparseMatrix.identity(self.c2.dim(q)))

    def vface(self, p, q, i):
        return tensor_kron(SparseMatrix.identity(self.c1.dim(p)), self.c2.face(q, i))

    def hdegen(self, p, q, j):
        return tensor_kron(self.c1.degen(p, j), SparseMatrix.identity(self.c2.dim(q)))

    def vdegen(self, p, q, j):
        return tensor_kron(SparseMatrix.identity(self.c1.dim(p)), self.c2.degen(q, j))

    def htau(self, p, q):
        return tensor_kron(self.c1.tau(p), SparseMatrix.identity(self.c2.dim(q)))

    def vtau(self, p, q):
        return tensor_kron(SparseMatrix.identity(self.c1.dim(p)), self.c2.tau(q))


def tensor_bicocyclic(c1, c2) -> BicocyclicComplex:
    return BicocyclicComplex(c1, c2)


def check_bicocyclic(b: BicocyclicComplex):
    """Rows/columns are cocyclic (delegated) plus pairwise commutation."""
    bad = []
    N = b.N

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
                        commute("h-v-face", p, (q, i, j), b.hface(p, q + 1, i), b.vface(p, q, j),
                                b.vface(p + 1, q, j), b.hface(p, q, i))
            commute("h-v-cyclic", p, (q,), b.htau(p, q), b.vtau(p, q),
                    b.vtau(p, q), b.htau(p, q))
    return bad


class ProductComplex(CocyclicComplex):
    """Degreewise tensor product with operators d_i (x) d_i, s_j (x) s_j,
    t (x) t, on flat indices with the first factor major.

    It holds its two factors and no operator.  op forms the Kronecker
    product of the factors' maps when a matrix is asked for; plan reads the
    Kronecker column plan straight from the factors' plans, so the
    certificates never build an operator of the product."""

    def __init__(self, c1, c2):
        self.c1 = c1
        self.c2 = c2
        self.N = min(c1.N, c2.N)
        self.top = min(c1.top, c2.top)
        self.name = "product"

    @property
    def spaces(self):
        return [tensor_space(self.c1.spaces[n], self.c2.spaces[n]) for n in range(self.top + 1)]

    def dim(self, n):
        return self.c1.dim(n) * self.c2.dim(n)

    def op(self, kind, n, i):
        return tensor_kron(self.c1.op(kind, n, i), self.c2.op(kind, n, i))

    def plan(self, kind, n, i):
        return kron_plan(self.c1.plan(kind, n, i), self.c2.plan(kind, n, i),
                         self.c2.dim(n + _SHIFT[kind]))


def diagonal(b: BicocyclicComplex) -> ProductComplex:
    """Diagonal complex: degree n is the (n,n) spot, and each structure map
    is the composite of the matching horizontal and vertical maps.  As
    (d_i (x) 1)(1 (x) d_i) = d_i (x) d_i, that is the degreewise product."""
    return product_complex(b.c1, b.c2)


def product_complex(c1, c2) -> ProductComplex:
    """Degreewise tensor product with operators d_i (x) d_i, s_j (x) s_j, t (x) t."""
    return ProductComplex(c1, c2)


# ---------------------------------------------------------------------------
# plain cyclic complex of an algebra (trivial symmetry), used as cup targets

def plain_cyclic_complex(alg, N, name="cyclic"):
    """The standard cocyclic module of a unital algebra, realized as the
    equivariant complex over the trivial Hopf algebra with trivial
    coefficients (the conditions are vacuous there)."""
    from .fixtures import trivial_hopf, trivial_module_algebra
    from .actions import trivial_sayd
    h = trivial_hopf()
    ma = trivial_module_algebra(h, alg)
    data = build_algebra_complex(ma, trivial_sayd(h), N, name=name)
    # the full dual, realized with the identity basis
    for n, basis in enumerate(data.bases):
        if any(v != {k: 1} for k, v in enumerate(basis)):
            raise AssertionError("plain complex basis is not standard at degree %d" % n)
    return data


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
    spaces = [BasedSpace(tuple("b%d_%d" % (n, i) for i in range(dims[n]))) for n in range(top + 1)]

    keys = _dump_order(N, top)
    labels = [_dump_label(*key) for key in keys]
    mats = {}
    pos = top + 2
    for b, (kind, n, i) in enumerate(keys):
        label = labels[b]
        rows, cols = dims[n + _SHIFT[kind]], dims[n]
        if lines[pos:pos + 2] != [label, "%d %d" % (rows, cols)]:
            raise ValueError("complex dump lacks block %r of shape %dx%d" % (label, rows, cols))
        pos += 2
        end = lines.index(labels[b + 1], pos) if b + 1 < len(keys) else len(lines)
        ent = {}
        for line in lines[pos:end]:
            r, c, x = line.split()
            r, c = int(r), int(c)
            x = int(x) if "/" not in x else parse_scalar(x)
            if not (x and 0 <= r < rows and 0 <= c < cols):
                raise ValueError("complex dump block %r has entry %r" % (label, line))
            ent[(r, c)] = x
        if len(ent) != end - pos:
            raise ValueError("complex dump block %r repeats an entry" % label)
        m = SparseMatrix(rows, cols)
        m.entries = ent
        mats[kind, n, i] = m
        pos = end
    cx = CocyclicComplex.assemble(N, spaces, lambda *key: mats[key])
    cx.content_hash = content_hash
    return cx


def content_hash(text):
    return sha256(text.encode()).hexdigest()[:16]
