import pytest

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
