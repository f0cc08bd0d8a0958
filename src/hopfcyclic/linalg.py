"""Exact rational sparse linear algebra.

Scalars are arbitrary-precision rationals: plain ``int`` where possible,
``fractions.Fraction`` otherwise.  Everything downstream (axiom checking,
cocyclic operators, cohomology ranks) reduces to the handful of primitives
here: sparse matrices, canonical reduced row echelon form, kernels, ranks,
subspace membership and Kronecker products.  No floating point anywhere.

Vectors are dicts ``{index: nonzero scalar}``.  The echelon form is the
unique RREF of the row space, so every basis this module emits is canonical
and re-runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from operator import itemgetter


_second = itemgetter(1)


class ShapeMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# scalars

def scal(x):
    """Normalize a rational scalar: Fraction with denominator 1 becomes int."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        return x
    if isinstance(x, int):
        return x
    raise TypeError("exact scalar expected, got %r" % (x,))


def parse_scalar(text):
    """An int or p/q; ValueError for anything else, a zero q included."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        num, den = int(num), int(den)
        if not den:
            raise ValueError("zero denominator in %r" % text)
        return scal(Fraction(num, den))
    return int(text)


def format_scalar(x):
    if isinstance(x, int):
        return str(x)
    return "%d/%d" % (x.numerator, x.denominator)


# ---------------------------------------------------------------------------
# sparse vectors (dict index -> nonzero scalar)

def vec_acc(out, key, x):
    """In-place out[key] += x on a mutable dict; an exact zero is dropped.

    This is the one rule every sparse sum in the package follows."""
    y = out.get(key, 0) + x
    if y:
        out[key] = scal(y)
    else:
        out.pop(key, None)

def vec_add(u, v):
    out = dict(u)
    for i, x in v.items():
        vec_acc(out, i, x)
    return out

def vec_sub(u, v):
    return vec_axpy(dict(u), -1, v)

def vec_axpy(out, c, v):
    """In-place out += c*v on a mutable dict (vec_acc inlined: hot loop)."""
    if not c:
        return out
    for i, x in v.items():
        y = out.get(i, 0) + c * x
        if y:
            out[i] = scal(y)
        else:
            out.pop(i, None)
    return out

def mul_vec(table, u, v):
    """Product of two sparse vectors through a structure table
    {(i, j): [(k, coeff), ...]}."""
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            for k, z in table.get((i, j), ()):
                vec_acc(out, k, x * y * z)
    return out

def push_slots(tensor, tables):
    """Mode-k products of a sparse tensor with one sparse table per slot
    (Kolda & Bader, SIAM Review 2009), applied slot by slot.

    tensor maps index tuples (i_0, ..., i_n) to scalars; tables[k] maps an
    index of slot k to terms [(key, target tuple, coeff)].  The result maps
    (key_0, ..., key_n) to the sparse vector over the concatenated targets
    target_0 + ... + target_n."""
    cur = {((), (), idx): c for idx, c in tensor.items()}
    for table in tables:
        nxt = {}
        for (keys, targets, rest), c in cur.items():
            for key, t, x in table.get(rest[0], ()):
                vec_acc(nxt, (keys + (key,), targets + t, rest[1:]), c * x)
        cur = nxt
    out = {}
    for (keys, targets, _), c in cur.items():
        out.setdefault(keys, {})[targets] = c
    return out

def contract(pushed, xvec):
    """Sum of xvec[keys] * pushed[keys] over the keys of xvec: the other
    side of a pairing contracted with the output of push_slots."""
    out = {}
    for keys, c in xvec.items():
        row = pushed.get(keys)
        if row:
            vec_axpy(out, c, row)
    return out


# ---------------------------------------------------------------------------
# sparse matrices

class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q.

    entries: dict {(row, col): nonzero scalar}.  Stored entries are never
    zero; indices are range-checked at construction.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative dimensions")
        self.rows = rows
        self.cols = cols
        ent = {}
        if entries:
            for (r, c), x in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ShapeMismatch("index (%d,%d) out of range %dx%d" % (r, c, rows, cols))
                x = scal(x)
                if x:
                    ent[(r, c)] = x
        self.entries = ent

    # -- constructors

    @staticmethod
    def identity(n):
        return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zeros(rows, cols):
        return SparseMatrix(rows, cols)

    @staticmethod
    def from_rows(rows_list):
        r = len(rows_list)
        c = len(rows_list[0]) if rows_list else 0
        ent = {}
        for i, row in enumerate(rows_list):
            if len(row) != c:
                raise ShapeMismatch("ragged rows")
            for j, x in enumerate(row):
                if x:
                    ent[(i, j)] = scal(x)
        return SparseMatrix(r, c, ent)

    @staticmethod
    def from_columns(cols_list, rows):
        """Columns given as sparse dicts."""
        ent = {}
        for j, col in enumerate(cols_list):
            for i, x in col.items():
                if x:
                    ent[(i, j)] = scal(x)
        return SparseMatrix(rows, len(cols_list), ent)

    # -- basic structure

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def is_zero(self):
        return not self.entries

    def column(self, j):
        return {r: x for (r, c), x in self.entries.items() if c == j}

    def columns(self):
        """List of sparse columns."""
        cols = [dict() for _ in range(self.cols)]
        for (r, c), x in self.entries.items():
            cols[c][r] = x
        return cols

    def row_vectors(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), x in self.entries.items():
            rows[r][c] = x
        return rows

    def transpose(self):
        return SparseMatrix(self.cols, self.rows,
                            {(c, r): x for (r, c), x in self.entries.items()})

    # -- arithmetic

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("add %dx%d + %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        m = SparseMatrix(self.rows, self.cols)
        m.entries = vec_add(self.entries, other.entries)
        return m

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        m = SparseMatrix(self.rows, self.cols)
        if c:
            m.entries = {k: scal(c * x) for k, x in self.entries.items()}
        return m

    def apply(self, v):
        """Matrix times sparse column vector (dict col -> scalar)."""
        out = {}
        cols = None
        for j, c in v.items():
            if cols is None:
                cols = self.columns()
            vec_axpy(out, c, cols[j])
        return out


def compose(a, b):
    """Matrix product a @ b (a after b).

    A scatter over the stored entries of b, taken column by column
    (Gustavson, ACM TOMS 1978): each (k, j) -> x adds x*y into the
    accumulator of column j for every (i, y) in column k of a.  When the
    column ends, its nonzero sums go to the result, integral Fractions as
    int.  Beyond sorting the keys of b by column, the work is proportional
    to the number of terms.  Only one column of sums is held at a time.
    An identity between products is checked with residuals, which never
    builds them."""
    if a.cols != b.rows:
        raise ShapeMismatch("compose %dx%d with %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    acols = {}
    for (i, k), y in a.entries.items():
        col = acols.get(k)
        if col is None:
            acols[k] = [(i, y)]
        else:
            col.append((i, y))
    bent = b.entries
    ent = {}
    acc = {}
    get = acc.get
    j = None
    # the sentinel key after the last column flushes that column
    for key in sorted(bent, key=_second) + [(None, None)]:
        if key[1] != j:
            for i, v in acc.items():
                if v:
                    ent[(i, j)] = v if type(v) is int else scal(v)
            acc.clear()
            j = key[1]
        col = acols.get(key[0])
        if col:
            x = bent[key]
            for i, y in col:
                acc[i] = get(i, 0) + x * y
    m = SparseMatrix(a.rows, b.cols)
    m.entries = ent
    return m


def column_plan(m):
    """The columns of m as a list of sparse columns, each a list of (row,
    x) pairs, every empty column being one shared empty tuple: the operand
    form of residuals.  A plan is read, never written."""
    empty = ()
    cols = [empty] * m.cols
    for (r, c), x in m.entries.items():
        col = cols[c]
        if col is empty:
            cols[c] = [(r, x)]
        else:
            col.append((r, x))
    return cols


def residuals(terms, ncols):
    """Every column at which an operator identity sum(sign * A @ B) = 0
    fails, as (column, residual) pairs in column order.

    Each term is (sign, A, B) with A and B column plans (column_plan); None
    stands for the identity.  For each source column c in order, the terms'
    contributions A[:, k] * B[k, c] are scattered into one accumulator, as
    compose does (Gustavson, ACM TOMS 1978), but the sums are the residual
    of the identity: no product and no difference matrix is ever built.  A
    sum that cancels leaves the accumulator, so it is empty after every
    column that holds, and it is cleared after every column that fails.
    The residual is the sparse column {row: nonzero sum}, rows ascending."""
    acc = {}
    get = acc.get
    for c in range(ncols):
        for sign, a, b in terms:
            if a is not None and b is not None:
                for k, x in b[c]:
                    x = sign * x
                    for i, y in a[k]:
                        v = get(i, 0) + x * y
                        if v:
                            acc[i] = v
                        else:
                            del acc[i]
                continue
            # one factor is the identity: the term is one column, or e_c
            one = b if a is None else a
            for i, y in ((c, 1),) if one is None else one[c]:
                v = get(i, 0) + sign * y
                if v:
                    acc[i] = v
                else:
                    del acc[i]
        if acc:
            yield c, {i: scal(v) for i, v in sorted(acc.items())}
            acc.clear()


def first_residual(terms, ncols):
    """The first item of residuals(terms, ncols), or None when the identity
    holds on all ncols source columns."""
    return next(residuals(terms, ncols), None)


def matrix_terms(terms):
    """Terms (sign, A, B) of matrices, None for the identity, as the terms
    of column plans that residuals reads."""
    return [(sign, None if a is None else column_plan(a), None if b is None else column_plan(b))
            for sign, a, b in terms]


def tensor_kron(a, b):
    """Kronecker product, left factor major: index (i,k) -> i*dim_b + k."""
    ent = {}
    br, bc = b.rows, b.cols
    for (i, j), x in a.entries.items():
        for (k, l), y in b.entries.items():
            ent[(i * br + k, j * bc + l)] = scal(x * y)
    m = SparseMatrix(a.rows * b.rows, a.cols * b.cols)
    m.entries = ent
    return m


def kron_plan(a, b, brows):
    """The column plan of tensor_kron(A, B), read from the plans a of A and
    b of B, where B has brows rows: column (j, l) holds (i*brows + k, x*y)
    for each (i, x) of a[j] and (k, y) of b[l].  Built as a list on each
    call; no matrix is formed.  Plain loops, not a comprehension per
    column: most columns hold one entry, and the comprehension's call
    dominated the cost."""
    plan = []
    append = plan.append
    for aj in a:
        for bl in b:
            if not (aj and bl):
                append(())
                continue
            col = []
            for i, x in aj:
                i *= brows
                for k, y in bl:
                    col.append((i + k, x * y))
            append(col)
    return plan


# ---------------------------------------------------------------------------
# canonical echelon machinery

class SpanSolver:
    """Incremental row space with canonical RREF and membership solving.

    add(vector) reduces against current pivots, inserts a new normalized
    pivot row if independent and back-substitutes, so the stored rows are
    always the unique RREF of the span.  solve() expresses a vector over the
    ORIGINAL inserted vectors via tracked coefficients.

    In full RREF every row is supported on its pivot column plus free
    columns only, so reduction touches just the pivots in the input's own
    support; a column index keeps back-substitution proportional to the
    rows actually containing the new pivot column.
    """

    def __init__(self, track=False):
        self.pivots = []        # sorted pivot column list
        self.rows = {}          # pivot col -> row dict (RREF)
        self.track = track
        self.coeffs = {}        # pivot col -> dict {original index: coeff}
        self.n_added = 0
        self._colidx = {}       # free col -> set of pivots whose row touches it

    def rank(self):
        return len(self.pivots)

    def _reduce(self, v, coeff=None, sign=-1):
        v = dict(v)
        # rows only ever add support at free columns, one pass suffices
        for p in sorted(k for k in v if k in self.rows):
            x = v.get(p)
            if x:
                vec_axpy(v, -x, self.rows[p])
                if coeff is not None:
                    vec_axpy(coeff, sign * x, self.coeffs[p])
        return v

    def add(self, v):
        """Insert a vector; returns True if it enlarged the span."""
        idx = self.n_added
        self.n_added += 1
        coeff = {idx: 1} if self.track else None
        v = self._reduce(v, coeff)
        if not v:
            return False
        p = min(v)
        lead = v[p]
        if lead != 1:
            inv = Fraction(1, 1) / Fraction(lead)
            v = {i: scal(inv * x) for i, x in v.items()}
            if coeff is not None:
                coeff = {i: scal(inv * x) for i, x in coeff.items()}
        # back-substitute into the rows that actually contain column p
        for q in list(self._colidx.get(p, ())):
            row = self.rows[q]
            x = row.get(p)
            if x:
                self._row_axpy(q, row, -x, v, p)
                if self.track:
                    vec_axpy(self.coeffs[q], -x, coeff)
        self._colidx.pop(p, None)
        self.rows[p] = v
        for c in v:
            if c != p:
                self._colidx.setdefault(c, set()).add(p)
        if self.track:
            self.coeffs[p] = coeff
        bisect.insort(self.pivots, p)
        return True

    def freeze(self):
        """Drop the column index, which only add needs; no vector can be
        added afterwards."""
        self._colidx = None

    def _row_axpy(self, q, row, c, v, newpivot):
        """row += c*v for the stored row with pivot q, maintaining the column index."""
        for i, x in v.items():
            y = row.get(i, 0) + c * x
            if y:
                if i not in row and i != q:
                    self._colidx.setdefault(i, set()).add(q)
                row[i] = scal(y)
            else:
                if row.pop(i, None) is not None and i != q:
                    s = self._colidx.get(i)
                    if s is not None:
                        s.discard(q)

    def contains(self, v):
        return not self._reduce(v)

    def reduce(self, v):
        """Canonical coset representative of v modulo the span."""
        return self._reduce(v)

    def solve(self, v):
        """Coefficients over the original vectors, or None if not in span."""
        if not self.track:
            raise ValueError("solve needs a solver that tracks its rows")
        coeff = {}
        v = self._reduce(v, coeff, sign=1)
        if v:
            return None
        return coeff

    def rref_rows(self):
        return [dict(self.rows[p]) for p in self.pivots]


def rref(matrix):
    """(pivot columns, RREF rows as dicts) of a SparseMatrix."""
    solver = SpanSolver()
    for row in matrix.row_vectors():
        if row:
            solver.add(row)
    return solver.pivots, [solver.rows[p] for p in solver.pivots]


def image_rank(matrix):
    """Exact rank over Q."""
    return len(rref(matrix)[0])


def kernel_of_rows(rows, ncols):
    """Canonical kernel basis of the matrix with the given sparse rows over
    ncols columns.

    rows is any iterable, a generator included: each row goes into one
    SpanSolver as it arrives, so no condition matrix is ever held.  The
    RREF is unique, so the row order does not matter.  One vector per free
    column f (in increasing order), with entry 1 at f and the pivot
    coordinates filled from the RREF: each RREF row scatters its free
    entries into the vectors of those columns, so the work is proportional
    to the nnz of the RREF.
    """
    solver = SpanSolver()
    for row in rows:
        if row:
            solver.add(row)
    vecs = {f: {f: 1} for f in range(ncols) if f not in solver.rows}
    for p in solver.pivots:
        for f, x in solver.rows[p].items():
            if f != p:
                vecs[f][p] = scal(-x)
    return list(vecs.values())


def kernel_basis(matrix):
    """Canonical kernel basis of {v : matrix . v = 0} (kernel_of_rows)."""
    return kernel_of_rows(matrix.row_vectors(), matrix.cols)


class KernelCoords:
    """Coordinates on a basis from kernel_of_rows, read off without
    elimination.

    Vector k is 1 at its free column f_k = max(v_k), and its other entries
    sit at pivot columns, where no basis vector has a free entry.  So w
    lies in the span exactly when w - sum_k w[f_k] v_k = 0, and then its
    coordinates are its own entries at the free columns.  The residual
    check certifies the reading: coordinates are returned only when they
    rebuild w exactly."""

    __slots__ = ("basis", "lead")

    def __init__(self, basis):
        self.basis = basis
        self.lead = {max(v): k for k, v in enumerate(basis)}

    def read(self, w):
        """(coordinates, residual) of w: the coordinates {k: w[f_k]} with
        zeros dropped, and the residual w - sum_k w[f_k] v_k, empty exactly
        when w lies in the span."""
        lead = self.lead
        coords = {lead[f]: w[f] for f in sorted(w.keys() & lead.keys())}
        res = dict(w)
        for k, c in coords.items():
            vec_axpy(res, -c, self.basis[k])
        return coords, res

    def solve(self, w):
        """The coordinates of w, or None when it is not in the span."""
        coords, res = self.read(w)
        return None if res else coords


def invert_matrix(m):
    """Exact inverse of a square SparseMatrix, or None if singular."""
    n = m.rows
    if m.cols != n:
        return None
    solver = SpanSolver(track=True)
    for col in m.columns():
        solver.add(col)
    if solver.rank() != n:
        return None
    ent = {}
    for j in range(n):
        for i, x in solver.solve({j: 1}).items():
            ent[(i, j)] = x
    return SparseMatrix(n, n, ent)


# ---------------------------------------------------------------------------
# text serialization ("rows cols" header, then "r c p/q" sorted triplets)

def matrix_to_text(m):
    lines = ["%d %d" % (m.rows, m.cols)]
    for (r, c) in sorted(m.entries):
        lines.append("%d %d %s" % (r, c, format_scalar(m.entries[(r, c)])))
    return "\n".join(lines)


def vector_to_text(v):
    return " + ".join("%s*%d" % (format_scalar(x), i) for i, x in sorted(v.items())) or "0"
