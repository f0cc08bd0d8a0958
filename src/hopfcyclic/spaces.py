"""Finitely based vector spaces, multi-indices and structure tensors.

A BasedSpace is just a named basis.  Tensor powers are ordered
lexicographically with the LEFT factor major, globally: the flat index of
(i_1, ..., i_k) in V_1 (x) ... (x) V_k is i_1*d_2*...*d_k + ... + i_k.
All higher modules rely on this one convention.

A StructureTensor stores a multilinear map (product, coproduct, action,
coaction...) as raw structure constants before any axiom checking.
"""

from __future__ import annotations

from .linalg import SparseMatrix, ShapeMismatch, scal, vec_acc


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

    def index(self, label):
        return self.labels.index(label)


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
    """Multilinear map as structure constants.

    entries: dict {input multi-index tuple: sparse codomain vector}.
    Arity 0 is allowed (a distinguished codomain vector, e.g. a unit).
    """

    __slots__ = ("domains", "codomain", "entries", "_mi")

    def __init__(self, domains, codomain, entries=None):
        self.domains = tuple(domains)
        self.codomain = codomain
        self._mi = MultiIndex(tuple(s.dim for s in self.domains))
        ent = {}
        if entries:
            for idx, vec in entries.items():
                idx = tuple(idx)
                if len(idx) != len(self.domains):
                    raise ShapeMismatch("multi-index arity mismatch")
                for k, (i, s) in enumerate(zip(idx, self.domains)):
                    if not (0 <= i < s.dim):
                        raise ShapeMismatch("index %d out of range in slot %d" % (i, k))
                vec = {j: scal(x) for j, x in vec.items() if x}
                for j in vec:
                    if not (0 <= j < codomain.dim):
                        raise ShapeMismatch("codomain index out of range")
                if vec:
                    ent[idx] = vec
        self.entries = ent

    @property
    def arity(self):
        return len(self.domains)

    def value(self, idx):
        return self.entries.get(tuple(idx), {})

    def as_matrix(self):
        """Matrix from the tensor product of the domains to the codomain."""
        cols = [()] * self._mi.size
        for idx, vec in self.entries.items():
            cols[self._mi.flat(idx)] = vec
        return SparseMatrix.from_columns(cols, self.codomain.dim)

    @staticmethod
    def from_matrix(matrix, domains, codomain):
        mi = MultiIndex(tuple(s.dim for s in domains))
        if matrix.cols != mi.size or matrix.rows != codomain.dim:
            raise ShapeMismatch("matrix does not fit the given spaces")
        ent = {}
        for c, col in enumerate(matrix.plan):
            if col:
                ent[mi.unflat(c)] = dict(col)
        return StructureTensor(domains, codomain, ent)

    def apply(self, *vectors):
        """Apply to sparse vectors, one per domain slot."""
        if len(vectors) != self.arity:
            raise ShapeMismatch("arity mismatch")
        out = {}
        from itertools import product
        for combo in product(*[list(v.items()) for v in vectors]):
            idx = tuple(i for i, _ in combo)
            c = 1
            for _, x in combo:
                c *= x
            val = self.entries.get(idx)
            if val:
                for r, x in val.items():
                    vec_acc(out, r, c * x)
        return out
