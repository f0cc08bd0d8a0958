import random
from fractions import Fraction
from itertools import product as iproduct
from math import prod

import pytest
from hypothesis import example, given, strategies as st

from hopfcyclic.linalg import (
    SparseMatrix, ShapeMismatch, KernelCoords, SpanSolver,
    compose, tensor_kron, kernel_basis, kernel_of_rows, image_rank,
    rref, invert_matrix, parse_scalar, format_scalar, scal,
    vec_acc, vec_axpy, mul_vec, push_slots,
    contract,
)


def M(rows):
    return SparseMatrix.from_rows(rows)


def random_matrix(rng, rows, cols, density=0.5):
    ent = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                num = rng.randint(-6, 6)
                den = rng.choice([1, 1, 2, 3])
                if num:
                    ent[(i, j)] = scal(Fraction(num, den))
    return SparseMatrix(rows, cols, ent)


# -- kernel / rank ----------------------------------------------------------

def test_kernel_zero_matrix_standard_basis():
    ker = kernel_basis(SparseMatrix.zeros(2, 2))
    assert ker == [{0: 1}, {1: 1}]

def test_kernel_identity_empty():
    assert kernel_basis(SparseMatrix.identity(3)) == []

def test_kernel_rank_one_hand_reduced():
    # [[1,2],[2,4]] row-reduces to [[1,2]]; kernel = span{(-2,1)}
    m = M([[1, 2], [2, 4]])
    assert kernel_basis(m) == [{0: -2, 1: 1}]
    assert image_rank(m) == 1

def test_rank_trivial():
    assert image_rank(SparseMatrix.identity(5)) == 5
    assert image_rank(SparseMatrix.zeros(4, 7)) == 0

def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert image_rank(m) + len(kernel_basis(m)) == m.cols

def test_kernel_vectors_annihilated():
    rng = random.Random(13)
    for _ in range(20):
        m = random_matrix(rng, 4, 5)
        for v in kernel_basis(m):
            assert m.apply(v) == {}


# -- products ----------------------------------------------------------------

def test_compose_identity():
    rng = random.Random(3)
    m = random_matrix(rng, 3, 4)
    assert compose(SparseMatrix.identity(3), m) == m
    assert compose(m, SparseMatrix.identity(4)) == m

def test_compose_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compose(SparseMatrix.zeros(2, 3), SparseMatrix.zeros(2, 3))

def test_compose_associative_random():
    rng = random.Random(5)
    for _ in range(10):
        a = random_matrix(rng, 3, 4)
        b = random_matrix(rng, 4, 2)
        c = random_matrix(rng, 2, 5)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

def test_kron_identities():
    assert tensor_kron(SparseMatrix.identity(2), SparseMatrix.identity(3)) == SparseMatrix.identity(6)

def test_kron_block_swap():
    # swap (x) I_2 is the 4x4 block swap
    swap = M([[0, 1], [1, 0]])
    expected = M([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ])
    assert tensor_kron(swap, SparseMatrix.identity(2)) == expected

def test_kron_mixed_product_rule():
    rng = random.Random(17)
    for _ in range(8):
        a = random_matrix(rng, 2, 3)
        b = random_matrix(rng, 3, 2)
        c = random_matrix(rng, 3, 2)
        d = random_matrix(rng, 2, 3)
        lhs = compose(tensor_kron(a, b), tensor_kron(c, d))
        rhs = tensor_kron(compose(a, c), compose(b, d))
        assert lhs == rhs


# -- serialization -----------------------------------------------------------

def test_scalar_round_trip():
    rng = random.Random(23)
    for _ in range(50):
        x = scal(Fraction(rng.randint(-99, 99), rng.randint(1, 40)))
        assert parse_scalar(format_scalar(x)) == x

def test_matrix_text_round_trip():
    # every operator block of the cache dump reads back as the matrix written
    from hopfcyclic.complexes import CocyclicComplex, complex_from_text, complex_to_text
    rng = random.Random(29)
    d0, d1 = 4, 6
    maps = {("face", 0, 0): random_matrix(rng, d1, d0), ("face", 0, 1): random_matrix(rng, d1, d0),
            ("degen", 1, 0): random_matrix(rng, d0, d1),
            ("tau", 0, 0): random_matrix(rng, d0, d0), ("tau", 1, 0): random_matrix(rng, d1, d1)}
    back = complex_from_text(complex_to_text(CocyclicComplex(0, [d0, d1], maps)))
    assert back.dims() == [d0, d1] and back.maps == maps

def test_rref_is_canonical():
    # same row space, different presentations -> identical RREF
    a = M([[2, 4, 0], [1, 2, 1]])
    b = M([[1, 2, 1], [3, 6, 1], [1, 2, -1]])
    assert rref(a) == rref(b)


# -- randomized cross-check against a naive dense echelon oracle ---------------

def dense_rref_oracle(rows, ncols):
    """Textbook Gauss-Jordan on dense lists; returns (pivot cols, rows)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = Fraction(m[r][c])
        m[r] = [Fraction(x) / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    out = []
    for i in range(r):
        out.append({j: scal(Fraction(x)) for j, x in enumerate(m[i]) if x})
    return pivots, out

def test_rref_matches_dense_oracle():
    rng = random.Random(101)
    for trial in range(40):
        nr, nc = rng.randint(1, 9), rng.randint(1, 12)
        dense = [[scal(Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3])))
                  if rng.random() < 0.45 else 0 for _ in range(nc)]
                 for _ in range(nr)]
        m = SparseMatrix.from_rows(dense)
        got_piv, got_rows = rref(m)
        exp_piv, exp_rows = dense_rref_oracle(dense, nc)
        assert got_piv == exp_piv, trial
        assert got_rows == exp_rows, trial

def test_solver_reconstruction_random():
    # solve() reads a vector of the span as coordinates over the RREF rows,
    # which rebuild it exactly; a vector off the span gives None
    from hopfcyclic.linalg import SpanSolver, vec_axpy
    rng = random.Random(202)
    for trial in range(25):
        dim = rng.randint(2, 10)
        vecs = []
        for _ in range(rng.randint(1, 6)):
            v = {i: scal(Fraction(rng.randint(-4, 4), rng.choice([1, 2])))
                 for i in range(dim) if rng.random() < 0.5}
            vecs.append({i: x for i, x in v.items() if x})
        solver = SpanSolver()
        for v in vecs:
            solver.add(v)
        # random combination of the inserted vectors must solve exactly
        target = {}
        coeffs = [rng.randint(-3, 3) for _ in vecs]
        for c, v in zip(coeffs, vecs):
            vec_axpy(target, c, v)
        sol = solver.solve(target)
        assert sol is not None
        assert set(sol) <= set(solver.pivots)
        recon = {}
        for p, c in sol.items():
            vec_axpy(recon, c, solver.rows[p])
        assert recon == target, trial
        # e_f at a free column is never in the span
        free = [f for f in range(dim) if f not in solver.rows]
        if free:
            assert solver.solve({free[0]: 1}) is None, trial


# -- sparse accumulation against a dense Fraction reference -----------------

DIM = 4
rationals = st.builds(lambda n, d: scal(Fraction(n, d)),
                      st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
sparse_vecs = st.dictionaries(st.integers(0, DIM - 1), rationals).map(
    lambda v: {i: x for i, x in v.items() if x})


def dense(v):
    return [Fraction(v.get(i, 0)) for i in range(DIM)]


def assert_normal(v):
    # no stored zero, and integral values stored as int
    for x in v.values():
        assert x and (type(x) is int or x.denominator != 1)


@given(sparse_vecs, st.lists(st.tuples(st.integers(0, DIM - 1), rationals)))
def test_vec_acc_matches_dense(v, terms):
    ref = dense(v)
    out = dict(v)
    for i, x in terms:
        vec_acc(out, i, x)
        ref[i] += x
    assert dense(out) == ref
    assert_normal(out)


@given(sparse_vecs, rationals, sparse_vecs)
def test_vec_axpy_matches_dense(u, c, v):
    out = vec_axpy(dict(u), c, v)
    assert dense(out) == [a + c * b for a, b in zip(dense(u), dense(v))]
    assert_normal(out)


@given(st.dictionaries(st.tuples(st.integers(0, DIM - 1), st.integers(0, DIM - 1)),
                       sparse_vecs), sparse_vecs, sparse_vecs)
def test_mul_vec_matches_dense(structure, u, v):
    table = {k: sorted(w.items()) for k, w in structure.items()}
    ref = [Fraction(0)] * DIM
    for i, x in enumerate(dense(u)):
        for j, y in enumerate(dense(v)):
            for k, z in enumerate(dense(structure.get((i, j), {}))):
                ref[k] += x * y * z
    out = mul_vec(table, u, v)
    assert dense(out) == ref
    assert_normal(out)


@st.composite
def compose_pairs(draw):
    """(a, b) with a.cols == b.rows.  Half of them put a beside itself and s*b
    under b, so every term of a.b meets s times itself: all cancel at s = -1."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    cell = st.one_of(st.just(0), rationals)

    def entries(rows, cols):
        values = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
        return {divmod(n, cols): x for n, x in enumerate(values)}

    a, b = entries(r, k), entries(k, c)
    if draw(st.booleans()):
        s = draw(st.one_of(st.just(-1), rationals))
        a.update({(i, k + j): x for (i, j), x in list(a.items())})
        b.update({(k + i, j): s * x for (i, j), x in list(b.items())})
        k *= 2
    return SparseMatrix(r, k, a), SparseMatrix(k, c, b)


@given(compose_pairs())
def test_compose_matches_dense(pair):
    a, b = pair
    ref = {}
    for i in range(a.rows):
        for j in range(b.cols):
            ref[(i, j)] = sum(Fraction(a.entries.get((i, k), 0)) * b.entries.get((k, j), 0)
                              for k in range(a.cols))
    out = compose(a, b)
    assert (out.rows, out.cols) == (a.rows, b.cols)
    assert out.entries == {key: x for key, x in ref.items() if x}
    assert_normal(out.entries)
    with pytest.raises(ShapeMismatch):
        compose(a, SparseMatrix(b.rows + 1, b.cols))


@given(st.lists(st.dictionaries(st.integers(0, DIM - 1), rationals), max_size=4))
def test_from_columns_is_the_matrix_of_its_columns(cols):
    m = SparseMatrix.from_columns(cols, DIM)
    assert (m.rows, m.cols) == (DIM, len(cols))
    assert m.entries == {(i, j): x for j, col in enumerate(cols) for i, x in col.items() if x}
    assert_normal(m.entries)


# -- the column form against dense Fraction matrices ------------------------

@st.composite
def column_form_cases(draw):
    """Dense A (r x k), B (k x c) and C (r x k), each a list of rows of
    Fractions, with a scalar s, a sparse vector v over k entries and a seed
    for shuffling the rows within each column."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    cell = st.one_of(st.just(0), rationals).map(Fraction)

    def matrix(rows, cols):
        return [draw(st.lists(cell, min_size=cols, max_size=cols)) for _ in range(rows)]

    v = draw(st.dictionaries(st.integers(0, k - 1), rationals)) if k else {}
    return ((r, k, matrix(r, k)), (k, c, matrix(k, c)), (r, k, matrix(r, k)),
            draw(rationals), v, draw(st.integers(0, 2 ** 16)))


def dense_entries(d):
    rows, cols, m = d
    return {(i, j): scal(m[i][j]) for i in range(rows) for j in range(cols) if m[i][j]}


def assert_canonical(m):
    # one tuple per column, rows strictly ascending and in range, no stored
    # zero, integral values as int; an empty column is the empty tuple
    assert len(m.plan) == m.cols
    for col in m.plan:
        assert type(col) is tuple
        rows = [i for i, _ in col]
        assert rows == sorted(set(rows)) and all(0 <= i < m.rows for i in rows)
        assert_normal(dict(col))


@given(column_form_cases())
@example((((2, 2, [[0, 1], [1, 0]]), (2, 1, [[1], [1]]), (2, 2, [[0, 0], [0, 0]]),
           1, {}, 0)))                   # compose's first sum lands on the lower row
@example((((2, 1, [[1], [2]]), (1, 1, [[3]]), (2, 1, [[0], [0]]),
           1, {}, 0)))                   # the Kronecker rows step by B's row count
def test_column_form_matches_the_dense_oracle(case):
    (da, db, dc, s, v, seed) = case
    rng = random.Random(seed)

    def built(d):
        """The matrix of d from its entries and from its columns with their
        rows shuffled, which must be one and the same canonical matrix."""
        rows, cols, m = d
        ent = dense_entries(d)
        columns = [[(i, x) for (i, jj), x in ent.items() if jj == j] for j in range(cols)]
        for col in columns:
            rng.shuffle(col)
        a = SparseMatrix(rows, cols, ent)
        assert SparseMatrix.from_columns(columns, rows) == a
        assert SparseMatrix.from_columns([dict(col) for col in columns], rows) == a
        assert_canonical(a)
        assert a.entries == ent
        return a

    def same(m, rows, cols, values):
        assert_canonical(m)
        assert (m.rows, m.cols) == (rows, cols)
        assert m.entries == {(i, j): scal(x) for (i, j), x in values.items() if x}

    a, b, c = built(da), built(db), built(dc)
    (r, k, A), (_, cc, B), (_, _, C) = da, db, dc
    same(compose(a, b), r, cc, {(i, j): sum((A[i][t] * B[t][j] for t in range(k)), Fraction(0))
                                 for i in range(r) for j in range(cc)})
    same(tensor_kron(a, b), r * k, k * cc,
         {(i * k + p, j * cc + q): A[i][j] * B[p][q]
          for i in range(r) for j in range(k) for p in range(k) for q in range(cc)})
    same(a + c, r, k, {(i, j): A[i][j] + C[i][j] for i in range(r) for j in range(k)})
    same(a - c, r, k, {(i, j): A[i][j] - C[i][j] for i in range(r) for j in range(k)})
    same(a.scale(s), r, k, {(i, j): s * A[i][j] for i in range(r) for j in range(k)})
    assert a.row_vectors() == [{j: scal(x) for j, x in enumerate(row) if x} for row in A]
    out = a.apply(v)
    assert_normal(out)
    assert out == {i: scal(y) for i in range(r)
                   if (y := sum((A[i][j] * x for j, x in v.items()), Fraction(0)))}


def flat(digits, bases):
    """The left-major flat index of digits in the given bases."""
    f = 0
    for d, b in zip(digits, bases):
        f = f * b + d
    return f


@st.composite
def pushes(draw):
    """(tensor, radix, slots, xside): one to three slots, each with its own
    radix, key base and target base, and an x side of one or two offsets."""
    r = draw(st.integers(1, 3))
    radix = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    slots = []
    for d in radix:
        kbase, tbase = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        table = draw(st.dictionaries(st.integers(0, d - 1), st.lists(st.tuples(
            st.integers(0, kbase - 1), st.integers(0, tbase - 1), rationals.filter(bool)),
            max_size=3)))
        slots.append((table, kbase, tbase))
    size = prod(radix)
    tensor = draw(st.dictionaries(st.integers(0, size - 1), rationals.filter(bool)))
    keys = prod(kbase for _, kbase, _ in slots)
    xside = draw(st.lists(st.tuples(st.integers(0, 40), st.dictionaries(
        st.integers(0, keys - 1), rationals.filter(bool))), min_size=1, max_size=2))
    return tensor, radix, slots, xside


@given(pushes())
@example(({5: Fraction(1, 2), 1: 3}, [2, 3],
          [({0: [(1, 0, 2)], 1: [(0, 2, Fraction(1, 3)), (1, 1, -1)]}, 2, 3),
           ({1: [(2, 1, 3)], 2: [(0, 0, Fraction(2, 3))]}, 3, 2)],
          [(0, {5: 2, 3: Fraction(-1, 2)}), (7, {0: 1})]))
def test_push_slots_contract_match_dense(case):
    tensor, radix, slots, xside = case
    kbases = [kbase for _, kbase, _ in slots]
    tbases = [tbase for _, _, tbase in slots]
    # dense reference: every digit tuple, every choice of one term per slot
    ref = {}
    for digits in iproduct(*[range(d) for d in radix]):
        c = Fraction(tensor.get(flat(digits, radix), 0))
        for terms in iproduct(*[table.get(d, []) for (table, _, _), d in zip(slots, digits)]):
            value = c
            for _, _, x in terms:
                value *= x
            key = flat([k for k, _, _ in terms], kbases)
            target = flat([t for _, t, _ in terms], tbases)
            for offset, xvec in xside:
                t = target + offset
                ref[t] = ref.get(t, 0) + value * xvec.get(key, 0)
    pushed = push_slots(tensor, radix, slots)
    for row in pushed.values():
        assert row
        assert_normal(row)
    out = contract(pushed, xside)
    assert out == {t: x for t, x in ref.items() if x}
    assert_normal(out)


def kernel_basis_oracle(matrix):
    """The kernel as kernel_basis built it before scattering RREF rows: a
    loop over every free column and every pivot row."""
    pivots, rows = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for f in range(matrix.cols):
        if f in pivot_set:
            continue
        v = {f: 1}
        for p, row in zip(pivots, rows):
            x = row.get(f)
            if x:
                v[p] = scal(-x)
        basis.append(v)
    return basis


@st.composite
def sparse_matrices(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 8))
    cell = st.one_of(st.just(0), rationals)
    values = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return SparseMatrix(rows, cols, {divmod(k, cols): x for k, x in enumerate(values)})


@given(sparse_matrices())
def test_kernel_basis_matches_free_pivot_loop(m):
    ker = kernel_basis(m)
    ref = kernel_basis_oracle(m)
    # same vectors in the same order, each with the same key order
    assert [list(v.items()) for v in ker] == [list(v.items()) for v in ref]
    for v in ker:
        assert m.apply(v) == {}
        assert_normal(v)


nonzero_rationals = rationals.filter(bool)


@given(sparse_matrices(), st.data())
def test_kernel_of_rows_is_the_kernel_of_the_stacked_matrix(m, data):
    rows = m.row_vectors()
    # fed as a generator, in another order, each row scaled, some repeated,
    # and with zero rows mixed in: the span is the same, so the basis is
    fed = []
    for row in data.draw(st.permutations(rows)):
        c = data.draw(nonzero_rationals)
        fed.append({i: scal(c * x) for i, x in row.items()})
        if data.draw(st.booleans()):
            fed.append(dict(row))
        if data.draw(st.booleans()):
            fed.append({})
    ker = kernel_of_rows((row for row in fed), m.cols)
    # same vectors in the same order, each with the same key order
    assert [list(v.items()) for v in ker] == [list(v.items()) for v in kernel_basis(m)]
    assert [list(v.items()) for v in ker] == [list(v.items()) for v in kernel_basis_oracle(m)]
    assert image_rank(m) + len(ker) == m.cols
    for v in ker:
        assert m.apply(v) == {}
        assert_normal(v)


@given(sparse_matrices(), st.data())
def test_kernel_coords_read_the_free_entries(m, data):
    basis = kernel_of_rows(m.row_vectors(), m.cols)
    pivots = set(rref(m)[0])
    # the canonical form: each vector's last column is its free column,
    # in increasing order, with entry 1 there
    assert [max(v) for v in basis] == [f for f in range(m.cols) if f not in pivots]
    assert all(v[max(v)] == 1 for v in basis)
    reader = KernelCoords(basis)
    # a combination of the basis is read back as its coefficients
    coeffs = data.draw(st.lists(st.one_of(st.just(0), rationals),
                                min_size=len(basis), max_size=len(basis)))
    w = {}
    for c, v in zip(coeffs, basis):
        vec_axpy(w, c, v)
    assert reader.solve(w) == {k: c for k, c in enumerate(coeffs) if c}
    # any vector: in the span exactly when the matrix annihilates it
    w = data.draw(st.dictionaries(st.integers(0, m.cols - 1), nonzero_rationals))
    coords, residual = reader.read(w)
    if m.apply(w):
        assert reader.solve(w) is None and residual
    else:
        assert reader.solve(w) == coords and not residual
        rebuilt = {}
        for k, c in coords.items():
            vec_axpy(rebuilt, c, basis[k])
        assert rebuilt == w


@st.composite
def square_matrices(draw):
    """Square rational matrices, half of them with the last row a rational
    combination of the others (a zero row when n = 1): singular."""
    n = draw(st.integers(0, 5))
    cell = st.one_of(st.just(0), rationals)
    rows = [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        last = [Fraction(0)] * n
        for row in rows[:-1]:
            c = draw(rationals)
            last = [x + c * y for x, y in zip(last, row)]
        rows[-1] = last
    return SparseMatrix(n, n, {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)})


@given(square_matrices())
@example(SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1}))     # A^-1 is not its transpose
def test_invert_matrix_is_a_two_sided_inverse_or_none(m):
    n = m.rows
    dense = [[m.entries.get((i, j), 0) for j in range(n)] for i in range(n)]
    rank = len(dense_rref_oracle(dense, n)[0])
    inv = invert_matrix(m)
    if rank < n:
        assert inv is None
        return
    assert (inv.rows, inv.cols) == (n, n)
    assert compose(m, inv) == SparseMatrix.identity(n)
    assert compose(inv, m) == SparseMatrix.identity(n)
    assert_normal(inv.entries)


@st.composite
def row_lists(draw):
    """(ncols, dense rational rows): some rows repeated or scaled, some
    zero, all in any order."""
    ncols = draw(st.integers(1, 7))
    cell = st.one_of(st.just(0), st.just(0), rationals)
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols), max_size=6))
    for row in draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else ():
        c = draw(st.sampled_from([1, -1, Fraction(2, 3)]))
        rows.append([scal(c * x) for x in row])
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    return ncols, draw(st.permutations(rows))


def sparse_row(row):
    return {j: scal(x) for j, x in enumerate(row) if x}


def dense_representative(w, pivots, rref_rows, ncols):
    """w less its pivot entries, read off dense RREF rows: the vector of
    w's coset that is zero at every pivot."""
    rep = [Fraction(w.get(j, 0)) for j in range(ncols)]
    for p, row in zip(pivots, rref_rows):
        c = rep[p]
        rep = [x - c * row.get(j, 0) for j, x in enumerate(rep)]
    return sparse_row(rep)


@given(row_lists(), st.data())
def test_span_solver_is_dense_gauss_jordan(case, data):
    ncols, rows = case
    pivots, want = dense_rref_oracle(rows, ncols)
    solver = SpanSolver()
    for row in rows:
        solver.add(sparse_row(row))
    assert solver.pivots == pivots
    assert solver.rref() == want
    for row in solver.rref():
        assert_normal(row)
    assert image_rank(SparseMatrix(len(rows), ncols, {(i, j): x for i, row in enumerate(rows)
                                                       for j, x in enumerate(row)})) == len(pivots)
    ker = kernel_of_rows((sparse_row(row) for row in rows), ncols)
    assert len(ker) == ncols - len(pivots)
    for v in ker:
        assert all(sum(row[j] * x for j, x in v.items()) == 0 for row in rows)
    # the same span in another order, with rref() read part way: add after
    # rref() gives the same RREF and the same representatives
    order = data.draw(st.permutations(rows))
    split = data.draw(st.integers(0, len(order)))
    other = SpanSolver()
    for row in order[:split]:
        other.add(sparse_row(row))
    other.rref()
    for row in order[split:]:
        other.add(sparse_row(row))
    w = sparse_row(data.draw(st.lists(rationals, min_size=ncols, max_size=ncols)))
    rep = dense_representative(w, pivots, want, ncols)
    assert other.reduce(w) == solver.reduce(w) == rep
    assert_normal(rep)
    assert other.pivots == pivots and other.rref() == want


@given(row_lists(), st.data())
def test_span_solver_width_drops_exactly_the_rows_led_at_or_past_it(case, data):
    # a row is kept exactly when its first width entries are independent
    # of those of the rows kept before it
    ncols, rows = case
    width = data.draw(st.integers(0, ncols))
    solver, kept = SpanSolver(width=width), []
    for row in rows:
        head = [r[:width] for r in kept]
        rank = len(dense_rref_oracle(head, width)[0])
        grows = len(dense_rref_oracle(head + [row[:width]], width)[0]) > rank
        assert solver.add(sparse_row(row)) == grows
        if grows:
            kept.append(row)
    assert solver.pivots == dense_rref_oracle(kept, ncols)[0]
    assert all(p < width for p in solver.pivots)
    assert solver.rref() == dense_rref_oracle(kept, ncols)[1]


@pytest.mark.parametrize("rows,cols", [(2, 3), (3, 2), (0, 1), (1, 0)])
def test_invert_matrix_of_a_non_square_matrix_is_none(rows, cols):
    m = SparseMatrix(rows, cols, {(i, j): i + j + 1 for i in range(rows) for j in range(cols)})
    assert invert_matrix(m) is None


@pytest.mark.parametrize("call,exc,message", [
    (lambda: scal(0.5), TypeError, "exact scalar expected, got 0.5"),
    (lambda: SparseMatrix(-1, 2), ShapeMismatch, "negative dimensions"),
    (lambda: SparseMatrix(2, 2, {(2, 0): 1}), ShapeMismatch, "index (2,0) out of range 2x2"),
    (lambda: M([[1, 2], [3]]), ShapeMismatch, "ragged rows"),
    (lambda: SparseMatrix.identity(2) + SparseMatrix(2, 3), ShapeMismatch, "add 2x2 + 2x3"),
    (lambda: SparseMatrix.from_columns([{}, {0: 1, 2: 3}], 2), ShapeMismatch,
     "index (2,1) out of range 2x2"),
    (lambda: SparseMatrix.from_columns([{-1: 1}], 2), ShapeMismatch,
     "index (-1,0) out of range 2x1"),
], ids=["scal-float", "negative-dimensions", "index-out-of-range", "ragged-rows", "add-shapes",
        "column-row-past-the-end", "column-row-negative"])
def test_malformed_input_raises_with_its_message(call, exc, message):
    with pytest.raises(exc) as e:
        call()
    assert str(e.value) == message
