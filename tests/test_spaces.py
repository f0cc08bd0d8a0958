from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic.linalg import ShapeMismatch, SparseMatrix
from hopfcyclic.spaces import BasedSpace, StructureTensor

V = BasedSpace(("a", "b"))


@pytest.mark.parametrize("call,exc,message", [
    (lambda: BasedSpace(("a", "a")), ValueError, "basis labels must be distinct"),
    (lambda: StructureTensor((V, V), V, {(0,): {0: 1}}), ShapeMismatch,
     "multi-index arity mismatch"),
    (lambda: StructureTensor((V, V), V, {(0, 2): {0: 1}}), ShapeMismatch,
     "index 2 out of range in slot 1"),
    (lambda: StructureTensor((V,), V, {(1,): {2: 1}}), ShapeMismatch,
     "codomain index out of range"),
    (lambda: StructureTensor.from_matrix(SparseMatrix(2, 3), (V, V), V), ShapeMismatch,
     "matrix does not fit the given spaces"),
    (lambda: StructureTensor((V, V), V).apply({0: 1}), ShapeMismatch, "arity mismatch"),
], ids=["duplicate-labels", "arity", "slot-index", "codomain-index", "from-matrix-shape",
        "apply-arity"])
def test_malformed_input_raises_with_its_message(call, exc, message):
    with pytest.raises(exc) as e:
        call()
    assert str(e.value) == message


# A structure tensor of arity 0..3 on small spaces, built from its entries
# (zeros and Fractions included) or around a matrix, checked against a dense
# oracle: the value at every input multi-index and codomain index.

cells = st.one_of(st.just(0), st.integers(-3, 3), st.builds(
    Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3])))


@st.composite
def tensors(draw):
    dims = draw(st.lists(st.integers(1, 3), max_size=3))
    cdim = draw(st.integers(1, 3))
    domains = [BasedSpace(["s%d_%d" % (k, i) for i in range(d)]) for k, d in enumerate(dims)]
    codomain = BasedSpace(["c%d" % j for j in range(cdim)])
    dense = {idx: [draw(cells) for _ in range(cdim)] for idx in product(*map(range, dims))}
    if draw(st.booleans()):
        # some input tuples are left out, some given with explicit zeros
        entries = {idx: {j: x for j, x in enumerate(col) if x or draw(st.booleans())}
                   for idx, col in dense.items() if any(col) or draw(st.booleans())}
        t = StructureTensor(domains, codomain, entries)
    else:
        flat = {idx: f for f, idx in enumerate(dense)}      # product() is left major
        t = StructureTensor.from_matrix(
            SparseMatrix(cdim, len(dense), {(j, flat[idx]): x for idx, col in dense.items()
                                            for j, x in enumerate(col)}), domains, codomain)
    vectors = [draw(st.dictionaries(st.integers(0, d - 1), cells)) for d in dims]
    return t, dims, cdim, dense, vectors


@settings(max_examples=200, deadline=None)
@given(tensors())
def test_structure_tensor_agrees_with_the_dense_oracle(case):
    t, dims, cdim, dense, vectors = case
    nonzero = {idx: {j: x for j, x in enumerate(col) if x} for idx, col in dense.items()}
    assert t.arity == len(dims)
    assert t.entries == {idx: col for idx, col in nonzero.items() if col}
    assert (t.matrix.rows, t.matrix.cols) == (cdim, prod(dims))
    read = list(t.entries.values())
    for f, idx in enumerate(dense):
        read += [t.value(idx), t.matrix.column(f)]
        assert read[-2] == read[-1] == nonzero[idx]
    expected = {}
    for idx, col in dense.items():
        c = prod(v.get(i, 0) for v, i in zip(vectors, idx))
        for j, x in enumerate(col):
            expected[j] = expected.get(j, 0) + c * x
    read.append(t.apply(*vectors))
    assert read[-1] == {j: x for j, x in expected.items() if x}
    # an integral Fraction comes back as an int
    assert all(type(x) is int for col in read for x in col.values() if x == int(x))
