"""Finite-dimensional (co)algebra and Hopf algebra data with machine-checked axioms.

Every axiom is an exact identity sum(sign * A @ B) = 0 between structure
maps, checked column by column by linalg.residuals without building either
side (ValidationReport.law); a validation report lists every violating basis
tuple with its residual vector, never just the first.
"""

from __future__ import annotations

from .linalg import (SparseMatrix, compose, first_residual, invert_matrix, residuals,
                     tensor_kron, vector_to_text)
from .spaces import GROUND, MultiIndex, StructureTensor


class BracketingMismatch(ValueError):
    """Iterated coproduct differs between bracketings; coassociativity is
    broken.  The witness is the first basis column where the two differ and
    the residual leftmost - rightmost there."""

    def __init__(self, message, column=None, residual=None):
        super().__init__(message)
        self.column = column
        self.residual = residual


class Violation:
    __slots__ = ("law", "where", "residual")

    def __init__(self, law, where, residual):
        self.law = law
        self.where = tuple(where)
        self.residual = residual

    def __repr__(self):
        return "Violation(%s at %s: %s)" % (self.law, self.where, vector_to_text(self.residual))

    def __str__(self):
        return "%s at (%s): %s" % (self.law, ",".join(self.where), vector_to_text(self.residual))


class ValidationReport:
    """Exhaustive list of axiom violations, sorted by (law, basis tuple)."""

    def __init__(self, subject=""):
        self.subject = subject
        self.violations = []

    @property
    def ok(self):
        return not self.violations

    def law(self, name, domains, *terms):
        """Record one violation per basis tuple of domains at which the
        identity sum(sign * A @ B) = 0 fails, with the residual there.  Each
        term is (sign, A, B) with matrices, None standing for the identity;
        the source columns are the flat basis tuples of domains."""
        mi = MultiIndex(tuple(s.dim for s in domains))
        plans = [(sign, None if a is None else a.plan, None if b is None else b.plan)
                 for sign, a, b in terms]
        for c, residual in residuals(plans, mi.size):
            labels = tuple(s.labels[i] for s, i in zip(domains, mi.unflat(c)))
            self.violations.append(Violation(name, labels, residual))

    def merge(self, other):
        self.violations.extend(other.violations)
        return self

    def sort(self):
        self.violations.sort(key=lambda v: (v.law, v.where))
        return self

    def lines(self):
        if self.ok:
            return ["ok"]
        out = ["VIOLATIONS (%d):" % len(self.violations)]
        for v in self.violations:
            out.append("  %s" % v)
        return out

    def __repr__(self):
        return "ValidationReport(%s: %s)" % (self.subject, "ok" if self.ok else "%d violations" % len(self.violations))


# ---------------------------------------------------------------------------
# data bundles

class AlgebraData:
    """Associative unital algebra as structure constants."""

    def __init__(self, space, mul, unit):
        self.space = space
        self.mul = mul        # StructureTensor, arity 2
        self.unit = dict(unit)

    def unit_matrix(self):
        return SparseMatrix(self.space.dim, 1, {(i, 0): x for i, x in self.unit.items()})


class CoalgebraData:
    """Coassociative counital coalgebra as structure constants."""

    def __init__(self, space, comul, counit):
        self.space = space
        self.comul = comul    # StructureTensor, arity 1, codomain space (x) space
        self.counit = dict(counit)

    def counit_matrix(self):
        return SparseMatrix(1, self.space.dim, {(0, i): x for i, x in self.counit.items()})


class HopfData:
    """Bialgebra with invertible antipode; validity via validate_hopf."""

    def __init__(self, alg, coalg, antipode, antipode_inv=None):
        if alg.space != coalg.space:
            raise ValueError("algebra and coalgebra live on different spaces")
        self.alg = alg
        self.coalg = coalg
        self.space = alg.space
        self.antipode = antipode
        if antipode_inv is None:
            antipode_inv = invert_matrix(antipode)
        self.antipode_inv = antipode_inv
        self.tables = None      # complexes.HopfTables, built on first use

    @property
    def dim(self):
        return self.space.dim


# ---------------------------------------------------------------------------
# validators

def validate_algebra(a: AlgebraData) -> ValidationReport:
    rep = ValidationReport("algebra")
    I = SparseMatrix.identity(a.space.dim)
    mul = a.mul.matrix
    eta = a.unit_matrix()
    # (xy)z = x(yz)
    rep.law("associativity", (a.space,) * 3,
            (1, mul, tensor_kron(mul, I)), (-1, mul, tensor_kron(I, mul)))
    # 1x = x and x1 = x
    rep.law("left-unit", (a.space,), (1, mul, tensor_kron(eta, I)), (-1, None, None))
    rep.law("right-unit", (a.space,), (1, mul, tensor_kron(I, eta)), (-1, None, None))
    return rep.sort()


def validate_coalgebra(c: CoalgebraData) -> ValidationReport:
    rep = ValidationReport("coalgebra")
    I = SparseMatrix.identity(c.space.dim)
    com = c.comul.matrix
    eps = c.counit_matrix()
    rep.law("coassociativity", (c.space,),
            (1, tensor_kron(com, I), com), (-1, tensor_kron(I, com), com))
    rep.law("left-counit", (c.space,), (1, tensor_kron(eps, I), com), (-1, None, None))
    rep.law("right-counit", (c.space,), (1, tensor_kron(I, eps), com), (-1, None, None))
    return rep.sort()


def swap_matrix(d1, d2):
    """V (x) W -> W (x) V on flat indices."""
    ent = {}
    for i in range(d1):
        for j in range(d2):
            ent[(j * d1 + i, i * d2 + j)] = 1
    return SparseMatrix(d1 * d2, d1 * d2, ent)


def validate_hopf(h: HopfData) -> ValidationReport:
    rep = ValidationReport("hopf")
    rep.merge(validate_algebra(h.alg))
    rep.merge(validate_coalgebra(h.coalg))
    d = h.dim
    I = SparseMatrix.identity(d)
    mul, eta = h.alg.mul.matrix, h.alg.unit_matrix()
    com, eps = h.coalg.comul.matrix, h.coalg.counit_matrix()
    sw = swap_matrix(d, d)
    # comultiplication and counit are algebra maps
    rep.law("comul-multiplicative", (h.space, h.space), (1, com, mul),
            (-1, tensor_kron(mul, mul),
             compose(tensor_kron(I, tensor_kron(sw, I)), tensor_kron(com, com))))
    rep.law("comul-unital", (GROUND,), (1, com, eta), (-1, tensor_kron(eta, eta), None))
    rep.law("counit-multiplicative", (h.space, h.space),
            (1, eps, mul), (-1, tensor_kron(eps, eps), None))
    rep.law("counit-unital", (GROUND,), (1, eps, eta), (-1, None, None))
    # antipode: S(h1)h2 = eps(h)1 = h1 S(h2)
    S = h.antipode
    rep.law("antipode-left", (h.space,),
            (1, mul, compose(tensor_kron(S, I), com)), (-1, eta, eps))
    rep.law("antipode-right", (h.space,),
            (1, mul, compose(tensor_kron(I, S), com)), (-1, eta, eps))
    Sinv = h.antipode_inv
    if Sinv is None:
        rep.violations.append(Violation("antipode-invertible", ("*",), {}))
    else:
        rep.law("antipode-inverse", (h.space,), (1, Sinv, S), (-1, None, None))
        rep.law("inverse-antipode", (h.space,), (1, S, Sinv), (-1, None, None))
    return rep.sort()


# ---------------------------------------------------------------------------
# iterated coproducts

def iterated_coproduct(c: CoalgebraData, n: int) -> StructureTensor:
    """Map space -> space^(x n): identity for n=1, comul for n=2, etc.

    Checks the leftmost bracketing against the rightmost one, column by
    column, so broken coassociativity cannot silently propagate.
    """
    if n < 1:
        raise ValueError("n must be positive")
    d = c.space.dim
    I = SparseMatrix.identity(d)
    com = c.comul.matrix
    if n == 1:
        return StructureTensor.from_matrix(I, (c.space,), c.space)
    left = com
    for k in range(2, n):
        left = compose(tensor_kron(com, SparseMatrix.identity(d ** (k - 1))), left)
    if n > 2:
        # the rightmost bracketing up to n - 1 legs; its last comultiplication
        # is the left factor of the residual term, so that product is not built
        alt = com
        for k in range(2, n - 1):
            alt = compose(tensor_kron(SparseMatrix.identity(d ** (k - 1)), com), alt)
        hit = first_residual([(1, left.plan, None),
                              (-1, tensor_kron(SparseMatrix.identity(d ** (n - 2)), com).plan,
                               alt.plan)], d)
        if hit is not None:
            raise BracketingMismatch("iterated coproduct depends on bracketing", *hit)
    from .spaces import tensor_power
    return StructureTensor.from_matrix(left, (c.space,), tensor_power(c.space, n))


# ---------------------------------------------------------------------------
# modular pairs and the twisted antipode

class ModularPair:
    """Character delta plus group-like sigma on a Hopf algebra."""

    def __init__(self, hopf, delta, sigma):
        self.hopf = hopf
        self.delta = dict(delta)     # functional on the space
        self.sigma = dict(sigma)     # vector in the space

    def delta_matrix(self):
        return SparseMatrix(1, self.hopf.dim, {(0, i): x for i, x in self.delta.items()})

    def sigma_matrix(self):
        return SparseMatrix(self.hopf.dim, 1, {(i, 0): x for i, x in self.sigma.items()})


def validate_modular_pair(mp: ModularPair) -> ValidationReport:
    rep = ValidationReport("modular-pair")
    h = mp.hopf
    dm = mp.delta_matrix()
    sm = mp.sigma_matrix()
    mul, eta = h.alg.mul.matrix, h.alg.unit_matrix()
    com, eps = h.coalg.comul.matrix, h.coalg.counit_matrix()
    rep.law("character-multiplicative", (h.space, h.space),
            (1, dm, mul), (-1, tensor_kron(dm, dm), None))
    rep.law("character-unital", (GROUND,), (1, dm, eta), (-1, None, None))
    rep.law("grouplike-comul", (GROUND,), (1, com, sm), (-1, tensor_kron(sm, sm), None))
    rep.law("grouplike-counit", (GROUND,), (1, eps, sm), (-1, None, None))
    rep.law("delta-of-sigma", (GROUND,), (1, dm, sm), (-1, None, None))
    return rep.sort()


def twisted_antipode(mp: ModularPair) -> SparseMatrix:
    """h -> delta(h^(1)) S(h^(2))."""
    h = mp.hopf
    S = h.antipode
    com = h.coalg.comul.matrix
    return compose(tensor_kron(mp.delta_matrix(), S), com)


def involution_flags(mp: ModularPair):
    """(twisted antipode == Ad_sigma, its square == Ad_sigma) as booleans.

    Reported as data only: coefficient validity is decided by the SAYD check,
    not by either identity.
    """
    h = mp.hopf
    d = h.dim
    St = twisted_antipode(mp)
    mul = h.alg.mul.matrix
    sm = mp.sigma_matrix()
    sinv = _grouplike_inverse(h, mp.sigma)
    if sinv is None:
        return (False, False)
    sinv_m = SparseMatrix(d, 1, {(i, 0): x for i, x in sinv.items()})
    # Ad_sigma(x) = sigma x sigma^{-1}
    left = compose(mul, tensor_kron(sm, SparseMatrix.identity(d)))      # d x d
    minus_ad = (-1, mul.plan, tensor_kron(left, sinv_m).plan)
    literal = first_residual([(1, St.plan, None), minus_ad], d) is None
    squared = first_residual([(1, St.plan, St.plan), minus_ad], d) is None
    return (literal, squared)


def _grouplike_inverse(h, sigma):
    """Inverse of a group-like element, if it exists in the span.

    In finite dimension sigma * y = 1 has a solution exactly when left
    multiplication by sigma is invertible, and the solution is unique."""
    d = h.dim
    mul = h.alg.mul.matrix
    left = compose(mul, tensor_kron(SparseMatrix(d, 1, {(i, 0): x for i, x in sigma.items()}),
                                    SparseMatrix.identity(d)))
    inv = invert_matrix(left)
    return None if inv is None else inv.apply(dict(h.alg.unit))
