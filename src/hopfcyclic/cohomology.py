"""Hochschild coboundary, the degree-lowering boundary, the mixed bicomplex
and dimension computation for Hochschild, cyclic and truncated periodic
cohomology.

The degree-lowering operator is assembled as norm . extra-degeneracy .
(1 - signed cyclic operator); its square and its anticommutator with b are
certified to vanish, and the reading is recorded in reports.  A complex
builds its two families here on first read of CocyclicComplex.b and .B and
keeps them; everything below reads them from the complex.  Degrees within
one of the truncation are flagged untrusted in reports.
"""

from __future__ import annotations

from itertools import chain

from .linalg import (SparseMatrix, compose, image_rank, kernel_of_rows, first_residual,
                     linear_combination)
from .complexes import CocyclicComplex, CertificateFailure


class NotAComplex(CertificateFailure):
    """A square or anticommutator failed to vanish; the degree, column and
    residual attributes carry the first failing column."""


def _certify_zero(message, n, terms, ncols):
    """Raise NotAComplex(message % n) at the first column where
    sum(sign * A @ B) does not vanish."""
    hit = first_residual(terms, ncols)
    if hit is not None:
        raise NotAComplex(message % n, n, *hit)


def lam(cx, n):
    """Signed cyclic operator (-1)^n tau_n."""
    t = cx.tau(n)
    return t if n % 2 == 0 else t.scale(-1)


def norm_operator(cx, n):
    """1 + lam + ... + lam^n = sum over k <= n of (-1)^(nk) tau_n^k, each
    power read from the complex's table (CocyclicComplex.tau_power), which
    check_cocyclic fills too; summed column by column in one pass."""
    terms = [(1, SparseMatrix.identity(cx.dim(n)))]
    for k in range(1, n + 1):
        power = cx.tau_power(n, k)
        terms.append((-1 if n * k % 2 else 1, power))
    return linear_combination(terms)


def hochschild_b(cx: CocyclicComplex):
    """Alternating-sum coboundaries b_n for 0 <= n <= N, each summed column
    by column in one pass; b.b = 0 is asserted."""
    bs = [linear_combination([(-1 if i % 2 else 1, cx.face(n, i)) for i in range(n + 2)])
          for n in range(cx.N + 1)]
    for n in range(cx.N):
        _certify_zero("b.b != 0 at degree %d", n, [(1, bs[n + 1].plan, bs[n].plan)], cx.dim(n))
    return bs


_B_VARIANTS = ("norm.degen.tau.(1-lam)",)


def connes_B(cx: CocyclicComplex):
    """(per-degree matrices B_n: n -> n-1, reading name).

    B_n = N_{n-1} . b0_n with b0_n = s_{n-1} tau_n (1 - lam_n) =
    s_{n-1} (tau_n - (-1)^n tau_n^2); tau_n^2 and the powers in the norm
    N_{n-1} (norm_operator) come from the complex's table of tau powers, so
    none that check_cocyclic composed is composed again.  B_n is the last
    reader of the powers of tau_{n-1}, so they are dropped once it is
    built, and the top degree's after the last.  Certifies B.B = 0 and
    bB + Bb = 0, the latter against cx.b on degrees 1..N, and raises
    NotAComplex otherwise.
    """
    bs = cx.b
    Bs = [SparseMatrix.zeros(0, cx.dim(0))]   # degree 0 -> nothing, by convention
    for n in range(1, cx.top + 1):
        t, t2 = cx.tau(n), cx.tau_power(n, 2)
        b0 = compose(cx.degen(n, n - 1), t + t2 if n % 2 else t - t2)
        Bs.append(compose(norm_operator(cx, n - 1), b0))
        cx.drop_tau_powers(n - 1)
    cx.drop_tau_powers(cx.top)
    B_plans = [B.plan for B in Bs]
    for n in range(2, cx.top + 1):
        _certify_zero("B.B != 0 at degree %d", n, [(1, B_plans[n - 1], B_plans[n])], cx.dim(n))
    b_plans = [b.plan for b in bs]
    for n in range(1, cx.N + 1):
        _certify_zero("bB + Bb != 0 at degree %d", n,
                      [(1, b_plans[n - 1], B_plans[n]), (1, B_plans[n + 1], b_plans[n])],
                      cx.dim(n))
    return Bs, _B_VARIANTS[0]


class CohomologyReport:
    """Per-degree dimensions with trust flags and a truncated periodic summary."""

    def __init__(self, hh, hc, hp_even, hp_odd):
        self.hh = hh                  # list of (degree, dim)
        self.hc = hc                  # list of (degree, dim, trusted)
        self.hp_even = hp_even        # (value, stable) or None
        self.hp_odd = hp_odd

    def lines(self):
        out = []
        for n, d in self.hh:
            out.append("HH %d %d" % (n, d))
        for n, d, t in self.hc:
            out.append("HC %d %d %s" % (n, d, "trusted" if t else "untrusted"))
        for label, hp in (("even", self.hp_even), ("odd", self.hp_odd)):
            if hp is None:
                out.append("HP %s - unstable" % label)
            else:
                out.append("HP %s %d %s" % (label, hp[0], "stable" if hp[1] else "unstable"))
        return out


def total_differential(cx, n):
    """(b+B) from total degree n to n+1 of the first-quadrant bicomplex.

    Total degree n holds the column pieces C^{n-2k}; the block entering
    target column k is b from source column k plus B from source column k-1.
    """
    src = [n - 2 * k for k in range(n // 2 + 1)]
    tgt = [n + 1 - 2 * k for k in range((n + 1) // 2 + 1)]
    src_off = []
    off = 0
    for d in src:
        src_off.append(off)
        off += cx.dim(d)
    src_total = off
    tgt_off = []
    off = 0
    for d in tgt:
        tgt_off.append(off)
        off += cx.dim(d)
    tgt_total = off
    plan = []
    bs, Bs = cx.b, cx.B
    for k, d in enumerate(src):
        # b stays in column k; B moves to column k+1 (target degree d-1),
        # whose rows follow
        lo = tgt_off[k]
        if d >= 1 and k + 1 < len(tgt):
            hi = tgt_off[k + 1]
            plan += [tuple([(lo + r, x) for r, x in bcol] + [(hi + r, x) for r, x in Bcol])
                     for bcol, Bcol in zip(bs[d].plan, Bs[d].plan)]
        else:
            plan += [tuple([(lo + r, x) for r, x in bcol]) for bcol in bs[d].plan]
    return SparseMatrix.of_plan(tgt_total, src_total, plan)


def cyclic_cocycles(cx, n):
    """Basis of cochains with b phi = 0 and (1 - lam) phi = 0."""
    cyc = SparseMatrix.identity(cx.dim(n)) - lam(cx, n)
    return kernel_of_rows(chain(cx.b[n].row_vectors(), cyc.row_vectors()), cx.dim(n))


def compute_cohomology(cx: CocyclicComplex) -> CohomologyReport:
    """Dimension tables of cx from ranks alone.

    With r_n the rank of b_n, dim HH^n = dim C^n - r_n - r_{n-1}; with R_n
    the rank of the total differential D_n, dim HC^n = dim Tot^n - R_n -
    R_{n-1}.  Each operator is reduced once."""
    N = cx.N
    hh, hc = [], []
    rank_prev = 0
    for n in range(N):
        rank = image_rank(cx.b[n])
        hh.append((n, cx.dim(n) - rank - rank_prev))
        rank_prev = rank
    rank_prev = 0
    for n in range(N):
        Dn = total_differential(cx, n)
        rank = image_rank(Dn)
        hc.append((n, Dn.cols - rank - rank_prev, n <= N - 2))
        rank_prev = rank
    # truncated periodic summary: the last two trusted values of each parity
    def hp(parity):
        vals = [d for n, d, t in hc if t and n % 2 == parity]
        if len(vals) >= 2 and vals[-1] == vals[-2]:
            return (vals[-1], True)
        if vals:
            return (vals[-1], False)
        return None
    return CohomologyReport(hh, hc, hp(0), hp(1))
