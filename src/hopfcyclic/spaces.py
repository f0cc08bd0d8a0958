"""Finitely based vector spaces, multi-indices and structure tensors.

A BasedSpace is just a named basis.  Tensor powers are ordered
lexicographically with the LEFT factor major, globally: the flat index of
(i_1, ..., i_k) in V_1 (x) ... (x) V_k is i_1*d_2*...*d_k + ... + i_k.
All higher modules rely on this one convention.

A StructureTensor stores a multilinear map (product, coproduct, action,
coaction...) as its matrix on that flat index, before any axiom checking:
the column of (i_1, ..., i_k) is the image of that basis tensor.  The
builders read the matrix's columns (its plan) as their structure tables.
"""

from __future__ import annotations

from math import prod

from .linalg import SparseMatrix, ShapeMismatch, vec_acc


class BasedSpace:

    __slots__ = ("dim", "labels")

    def __init__(self, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        self.labels = labels
        self.dim = len(labels)

    def __eq__(self, other):
        return isinstance(other, BasedSpace) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "BasedSpace(%d: %s)" % (self.dim, ",".join(self.labels[:6]) + ("..." if self.dim > 6 else ""))


GROUND = BasedSpace(("1",))   # the ground field Q as a based space


def tensor_space(*spaces):
    if not spaces:
        return GROUND
    if len(spaces) == 1:
        return spaces[0]
    labels = spaces[0].labels
    for s in spaces[1:]:
        labels = tuple(a + "|" + b for a in labels for b in s.labels)
    return BasedSpace(labels)


def tensor_power(space, n):
    if n == 0:
        return GROUND
    return tensor_space(*([space] * n))


class MultiIndex:
    """Flat-index arithmetic for a fixed tuple of dimensions (left major)."""

    __slots__ = ("dims", "strides", "size")

    def __init__(self, dims):
        self.dims = tuple(dims)
        strides = []
        s = 1
        for d in reversed(self.dims):
            strides.append(s)
            s *= d
        self.strides = tuple(reversed(strides))
        self.size = s

    def flat(self, idx):
        return sum(i * s for i, s in zip(idx, self.strides))

    def unflat(self, f):
        out = []
        for s in self.strides:
            out.append(f // s)
            f %= s
        return tuple(out)


class StructureTensor:
    """Multilinear map as its matrix, from the tensor product of the
    domains (flat index, left major) to the codomain.  Arity 0 is allowed
    (a distinguished codomain vector, e.g. a unit; one column).

    Built from the structure constants {input multi-index tuple: sparse
    codomain vector}, every index range-checked, or around a matrix
    (from_matrix).  entries is that dict, built on each read.
    """

    __slots__ = ("domains", "codomain", "matrix")

    def __init__(self, domains, codomain, entries=None):
        self.domains = tuple(domains)
        self.codomain = codomain
        cols = [()] * prod(s.dim for s in self.domains)
        for idx, vec in (entries or {}).items():
            idx = tuple(idx)
            if len(idx) != len(self.domains):
                raise ShapeMismatch("multi-index arity mismatch")
            for k, (i, s) in enumerate(zip(idx, self.domains)):
                if not (0 <= i < s.dim):
                    raise ShapeMismatch("index %d out of range in slot %d" % (i, k))
            for j, x in vec.items():
                if x and not (0 <= j < codomain.dim):
                    raise ShapeMismatch("codomain index out of range")
            cols[self._flat(idx)] = vec
        self.matrix = SparseMatrix.from_columns(cols, codomain.dim)

    @staticmethod
    def from_matrix(matrix, domains, codomain):
        domains = tuple(domains)
        if matrix.cols != prod(s.dim for s in domains) or matrix.rows != codomain.dim:
            raise ShapeMismatch("matrix does not fit the given spaces")
        t = object.__new__(StructureTensor)
        t.domains, t.codomain, t.matrix = domains, codomain, matrix
        return t

    @property
    def arity(self):
        return len(self.domains)

    @property
    def entries(self):
        mi = MultiIndex(tuple(s.dim for s in self.domains))
        return {mi.unflat(c): dict(col) for c, col in enumerate(self.matrix.plan) if col}

    def _flat(self, idx):
        f = 0
        for i, s in zip(idx, self.domains):
            f = f * s.dim + i
        return f

    def value(self, idx):
        return dict(self.matrix.plan[self._flat(idx)])

    def apply(self, *vectors):
        """Apply to sparse vectors, one per domain slot; an index out of its
        slot's range is skipped."""
        if len(vectors) != self.arity:
            raise ShapeMismatch("arity mismatch")
        flat = {0: 1}
        for v, s in zip(vectors, self.domains):
            flat = {f * s.dim + i: c * x for f, c in flat.items() for i, x in v.items()
                    if 0 <= i < s.dim}
        out = {}
        plan = self.matrix.plan
        for f, c in flat.items():
            for r, x in plan[f]:
                vec_acc(out, r, c * x)
        return out
