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

def push_slots(tensor, radix, slots):
    """Mode-k products of a sparse tensor with one sparse table per slot
    (Kolda & Bader, SIAM Review 2009), on flat indices.

    tensor maps flat indices to scalars.  An index has one digit per slot,
    left major, slot k's digit in base radix[k]; the digits are read with
    divmod.  slots[k] is (table, key base, target base), and table maps a
    digit of slot k to terms [(key, target, coeff)] with key < key base and
    target < target base.  Every entry of the tensor expands into the list
    of its terms, one choice of term per slot, and the terms are summed into
    one dict per key at the end.  The result maps each flat key, sum_k
    key_k * (key bases of the slots after k), to the sparse vector over the
    flat targets, built the same way from the target bases."""
    # per slot, right to left: its table, its radix and the place values of
    # its key and target digits
    steps = []
    kplace = tplace = 1
    for (table, kbase, tbase), r in reversed(list(zip(slots, radix))):
        steps.append((table, r, kplace, tplace))
        kplace *= kbase
        tplace *= tbase
    terms = []
    for f, c in tensor.items():
        cur = [(0, 0, c)]
        for table, r, kp, tp in steps:
            f, d = divmod(f, r)
            row = table.get(d)
            if not row:
                break
            cur = [(key + k * kp, t + u * tp, y * x) for key, t, y in cur for k, u, x in row]
        else:
            terms += cur
    sums = {}
    for key, t, y in terms:
        row = sums.get(key)
        if row is None:
            sums[key] = {t: y}
        else:
            row[t] = row.get(t, 0) + y
    out = {}
    for key, row in sums.items():
        row = {t: scal(y) for t, y in row.items() if y}
        if row:
            out[key] = row
    return out

def contract(pushed, xside):
    """The other side of a pairing contracted with the output of
    push_slots: the sum, over the pairs (offset, xvec) of xside and the
    keys of xvec, of xvec[key] * pushed[key] with every target moved up by
    offset."""
    acc = {}
    get = acc.get
    for offset, xvec in xside:
        for key, c in xvec.items():
            row = pushed.get(key)
            if row:
                for t, x in row.items():
                    t += offset
                    acc[t] = get(t, 0) + c * x
    return {t: scal(y) for t, y in acc.items() if y}


# ---------------------------------------------------------------------------
# sparse matrices

class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q, stored as its columns.

    plan holds one item per column: the column's nonzero entries as a
    tuple of (row, x) pairs, rows ascending, so an empty column is the one
    shared empty tuple ().  It is the operand form residuals reads, and it
    is canonical, so two matrices are equal exactly when their shapes and
    plans are.  Tuples, not lists: a column of one entry, the most common
    kind, then costs two objects, about the memory of one entry of a dict
    keyed by (row, col).  entries is the same matrix as a dict {(row, col):
    x}, built on each read.
    """

    __slots__ = ("rows", "cols", "plan")

    def __init__(self, rows, cols, entries=None):
        """From a dict {(row, col): scalar}; zeros are dropped and every
        index is range-checked."""
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative dimensions")
        plan = [()] * cols
        if entries:
            for (r, c), x in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ShapeMismatch("index (%d,%d) out of range %dx%d" % (r, c, rows, cols))
                x = scal(x)
                if x:
                    col = plan[c]
                    if col:
                        col.append((r, x))
                    else:
                        plan[c] = [(r, x)]
            for c, col in enumerate(plan):
                if col:
                    col.sort()
                    plan[c] = tuple(col)
        self.rows = rows
        self.cols = cols
        self.plan = plan

    @staticmethod
    def of_plan(rows, cols, plan):
        """The matrix of a plan that is already canonical."""
        m = object.__new__(SparseMatrix)
        m.rows, m.cols, m.plan = rows, cols, plan
        return m

    # -- constructors

    @staticmethod
    def identity(n):
        return SparseMatrix.of_plan(n, n, [((i, 1),) for i in range(n)])

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
        """Columns given as sparse dicts {row: x}, or as iterables of (row,
        x) pairs with distinct rows.  Zeros are dropped, each column is
        sorted once and its rows are range-checked."""
        plan = []
        append = plan.append
        bad = None
        # a plain loop, not a comprehension per column: most columns hold
        # one entry or none, and the comprehension's call dominated the cost
        for j, col in enumerate(cols_list):
            if not col:
                append(())
                continue
            out = []
            for i, x in (col.items() if type(col) is dict else col):
                if x:
                    out.append((i, x if type(x) is int else scal(x)))
            if not out:
                append(())
                continue
            out.sort()
            if bad is None and (out[0][0] < 0 or out[-1][0] >= rows):
                bad = (out[0][0] if out[0][0] < 0 else out[-1][0], j)
            append(tuple(out))
        if bad is not None:
            raise ShapeMismatch("index (%d,%d) out of range %dx%d" % (bad + (rows, len(plan))))
        return SparseMatrix.of_plan(rows, len(plan), plan)

    # -- basic structure

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.plan == other.plan)

    @property
    def entries(self):
        """{(row, col): x}, built on each read."""
        return {(r, c): x for c, col in enumerate(self.plan) for r, x in col}

    def is_zero(self):
        return not any(self.plan)

    def column(self, j):
        return dict(self.plan[j])

    def columns(self):
        """List of sparse columns as dicts."""
        return [dict(col) for col in self.plan]

    def row_vectors(self):
        """List of sparse rows as dicts, each in column order."""
        rows = [{} for _ in range(self.rows)]
        for c, col in enumerate(self.plan):
            for r, x in col:
                rows[r][c] = x
        return rows

    def transpose(self):
        plan = [[] for _ in range(self.rows)]
        for c, col in enumerate(self.plan):
            for r, x in col:
                plan[r].append((c, x))
        return SparseMatrix.of_plan(self.cols, self.rows, list(map(tuple, plan)))

    # -- arithmetic

    def __add__(self, other):
        return linear_combination([(1, self), (1, other)])

    def __sub__(self, other):
        return linear_combination([(1, self), (-1, other)])

    def scale(self, c):
        if not c:
            return SparseMatrix(self.rows, self.cols)
        return SparseMatrix.of_plan(self.rows, self.cols,
                                    [tuple([(r, scal(c * x)) for r, x in col])
                                     for col in self.plan])

    def apply(self, v):
        """Matrix times sparse column vector (dict col -> scalar)."""
        out = {}
        get = out.get
        plan = self.plan
        for j, c in v.items():
            for i, x in plan[j]:
                out[i] = get(i, 0) + c * x
        return {i: scal(y) for i, y in out.items() if y}


def _column(acc):
    """The canonical column of an accumulator {row: sum}: its nonzero sums,
    integral Fractions as int, rows ascending."""
    col = [(i, v if type(v) is int else scal(v)) for i, v in acc.items() if v]
    col.sort()
    return tuple(col)


def linear_combination(terms):
    """sum c * M over the pairs (c, M) of terms, all of one shape, summed
    column by column in one pass."""
    rows, cols = terms[0][1].rows, terms[0][1].cols
    for _, m in terms:
        if (m.rows, m.cols) != (rows, cols):
            raise ShapeMismatch("add %dx%d + %dx%d" % (rows, cols, m.rows, m.cols))
    plans = [(c, m.plan) for c, m in terms if c]
    plan = []
    append = plan.append
    acc = {}
    get = acc.get
    for j in range(cols):
        for c, p in plans:
            for i, x in p[j]:
                acc[i] = get(i, 0) + c * x
        if acc:
            append(_column(acc))
            acc.clear()
        else:
            append(())
    return SparseMatrix.of_plan(rows, cols, plan)


def compose(a, b):
    """Matrix product a @ b (a after b).

    Gustavson's scatter (ACM TOMS 1978) over the columns of b: each entry
    (k, x) of column j adds x*y into column j's accumulator for every
    (i, y) in column k of a, and when the column ends its nonzero sums are
    the result's column j (_column).  The work is proportional to the
    number of terms, plus one sort per column.  Only one column of sums is
    held at a time.  An identity between products is checked with
    residuals, which never builds them."""
    if a.cols != b.rows:
        raise ShapeMismatch("compose %dx%d with %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    acols = a.plan
    plan = []
    append = plan.append
    acc = {}
    get = acc.get
    for bcol in b.plan:
        for k, x in bcol:
            for i, y in acols[k]:
                acc[i] = get(i, 0) + x * y
        if acc:
            append(_column(acc))
            acc.clear()
        else:
            append(())
    return SparseMatrix.of_plan(a.rows, b.cols, plan)


def residuals(terms, ncols):
    """Every column at which an operator identity sum(sign * A @ B) = 0
    fails, as (column, residual) pairs in column order.

    Each term is (sign, A, B) with A and B column plans (SparseMatrix.plan,
    or any list of columns of (row, x) pairs); None stands for the
    identity.  For each source column c in order, the terms'
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


def tensor_kron(a, b):
    """Kronecker product, left factor major: index (i,k) -> i*dim_b + k.
    Column (j, l) holds (i*rows_b + k, x*y) for each (i, x) of column j of
    a and (k, y) of column l of b, rows ascending as they are made.  Plain
    loops, not a comprehension per column: most columns hold one entry,
    and the comprehension's call dominated the cost."""
    brows, bplan = b.rows, b.plan
    plan = []
    append = plan.append
    for aj in a.plan:
        if not aj:
            plan += [()] * len(bplan)
            continue
        for bl in bplan:
            if not bl:
                append(())
                continue
            col = []
            for i, x in aj:
                i *= brows
                for k, y in bl:
                    v = x * y
                    col.append((i + k, v if type(v) is int else scal(v)))
            append(tuple(col))
    return SparseMatrix.of_plan(a.rows * brows, a.cols * b.cols, plan)


# ---------------------------------------------------------------------------
# canonical echelon machinery

class SpanSolver:
    """Incremental row space in echelon form, with its RREF on demand.

    add(vector) reduces only the leading entry, row by row, until it lands
    on a column that is not a pivot, and stores the vector normalized to 1
    there: every stored row p is 1 at p and 0 before it.  With width w, a
    vector whose leading entry lands at or past w is not stored.  rref()
    back-substitutes once, from the last pivot down, so the rows become
    the unique RREF of the span; it is done again only after another add.
    reduce() gives the canonical coset representative of a vector modulo
    the span, and solve() its coordinates over the RREF rows; both read
    the RREF.

    In the RREF every row is supported on its pivot column plus free
    columns only, so reduction touches just the pivots in the input's own
    support.
    """

    def __init__(self, width=None):
        self.pivots = []        # sorted pivot column list
        self.rows = {}          # pivot col -> row dict
        self.width = width
        self._reduced = True    # the rows are the RREF

    def add(self, v):
        """Insert a vector, a dict or (index, x) pairs; returns True if it
        was stored, which it is exactly when it enlarged the span and, with
        a width, its leading entry landed before the width."""
        v = dict(v)
        rows = self.rows
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                break
            vec_axpy(v, -v[p], row)
        if not v or (self.width is not None and p >= self.width):
            return False
        lead = v[p]
        if lead != 1:
            inv = Fraction(1) / lead
            v = {i: scal(inv * x) for i, x in v.items()}
        rows[p] = v
        bisect.insort(self.pivots, p)
        self._reduced = False
        return True

    def rref(self):
        """The RREF rows in pivot order.  Back-substitution runs from the
        last pivot down: the rows after p are already reduced, and each is
        0 at every other pivot, so one pass over the pivots in row p's
        support clears them."""
        rows = self.rows
        if not self._reduced:
            for p in reversed(self.pivots):
                row = rows[p]
                for q in [q for q in row if q != p and q in rows]:
                    vec_axpy(row, -row[q], rows[q])
            self._reduced = True
        return [rows[p] for p in self.pivots]

    def reduce(self, v):
        """Canonical coset representative of v modulo the span."""
        self.rref()
        rows = self.rows
        v = dict(v)
        # RREF rows only ever add support at free columns, one pass suffices
        for p in sorted(k for k in v if k in rows):
            vec_axpy(v, -v[p], rows[p])
        return v

    def solve(self, v):
        """Coordinates of v over the RREF rows, {pivot p: v[p]}, or None
        when v is not in the span: row p is 1 at p and 0 at every other
        pivot."""
        if self.reduce(v):
            return None
        return {p: v[p] for p in self.pivots if p in v}


def rref(matrix):
    """(pivot columns, RREF rows as dicts) of a SparseMatrix."""
    solver = SpanSolver()
    for row in matrix.row_vectors():
        if row:
            solver.add(row)
    return solver.pivots, solver.rref()


def image_rank(matrix):
    """Exact rank over Q: the number of echelon rows add stores, with no
    back-substitution."""
    solver = SpanSolver()
    return sum(solver.add(row) for row in matrix.row_vectors() if row)


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
    for p, row in zip(solver.pivots, solver.rref()):
        for f, x in row.items():
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
    """Exact inverse of a square SparseMatrix, or None if it is singular or
    not square.

    Gauss-Jordan: the RREF of [A | I] is [I | A^-1] exactly when A is
    invertible.  [A | I] always has rank n, so A is invertible exactly when
    SpanSolver(width=n) keeps every row, its pivots then being 0..n-1, and
    the RREF row i holds A^-1[i, j] at column n + j."""
    n = m.rows
    if m.cols != n:
        return None
    solver = SpanSolver(width=n)
    for i, row in enumerate(m.row_vectors()):
        row[n + i] = 1
        if not solver.add(row):
            return None
    return SparseMatrix(n, n, {(i, j - n): x for i, row in enumerate(solver.rref())
                               for j, x in row.items() if j >= n})


# ---------------------------------------------------------------------------
# text serialization ("rows cols" header, then "r c p/q" sorted triplets)

def matrix_to_text(m):
    lines = ["%d %d" % (m.rows, m.cols)]
    for r, row in enumerate(m.row_vectors()):
        for c, x in row.items():
            lines.append("%d %d %s" % (r, c, format_scalar(x)))
    return "\n".join(lines)


def vector_to_text(v):
    return " + ".join("%s*%d" % (format_scalar(x), i) for i, x in sorted(v.items())) or "0"
