"""Shuffle permutations and the bounded-degree formal expansion oracle for
the shuffle decomposition of crossed-product differential forms.

A (q,p)-shuffle is monotone on {1..q} and on {q+1..q+p}; shuffle_set
enumerates them lexicographically by the first block's image with parity
signs.

The oracle expands theta^n = (a0 >< b0) d(a1 >< b1) ... d(an >< bn) in the
bigraded crossed differential algebra using only the Leibniz rule, the
crossed multiplication with formal coaction legs, and Koszul signs, then
compares the (q,p)-component with the signed shuffle sum.  Words are kept in
the causal normal form: every algebra letter records the set of coalgebra
letters whose coaction legs act on it (depth labels are forced by position
and therefore omitted).
"""

from __future__ import annotations

from itertools import combinations

from .linalg import vec_acc


class DegreeCapExceeded(Exception):
    pass


class ShufflePermutation:
    """sigma in Sh(q,p): values as a 1-indexed tuple, with parity sign."""

    __slots__ = ("q", "p", "values", "sign")

    def __init__(self, q, p, values):
        self.q = q
        self.p = p
        self.values = tuple(values)
        inv = 0
        n = len(self.values)
        for i in range(n):
            for j in range(i + 1, n):
                if self.values[i] > self.values[j]:
                    inv += 1
        self.sign = -1 if inv % 2 else 1

    def first_block(self):
        return self.values[:self.q]

    def second_block(self):
        return self.values[self.q:]

    def __repr__(self):
        return "Sh(%d,%d)%s sign %+d" % (self.q, self.p, self.values, self.sign)


def shuffle_set(q, p):
    """All binomial(p+q, q) block-monotone permutations, lexicographic in the
    first block's image."""
    if q < 0 or p < 0:
        raise ValueError("block sizes must be nonnegative")
    n = p + q
    out = []
    for first in combinations(range(1, n + 1), q):
        second = tuple(v for v in range(1, n + 1) if v not in first)
        out.append(ShufflePermutation(q, p, first + second))
    return out


# ---------------------------------------------------------------------------
# formal words in the crossed differential algebra

# omega item: (a_index, is_d, legs)   legs = sorted tuple of b indices
# gamma item: (b_index, is_d)
# word: (tuple of omega items, tuple of gamma items)

def _degree(items):
    return sum(1 for it in items if it[1])


def _mul_words(w1, c1, w2, c2):
    """Crossed multiplication of two normal-form words."""
    om1, ga1 = w1
    om2, ga2 = w2
    sign = -1 if (_degree(ga1) * _degree(om2)) % 2 else 1
    legs = tuple(b for b, _ in ga1)
    new_om2 = tuple((a, d, tuple(sorted(set(l) | set(legs)))) for a, d, l in om2)
    return (om1 + new_om2, ga1 + ga2), c1 * c2 * sign


def expand_theta(n):
    """theta^n as a dict {word: coeff}."""
    terms = {(((0, False, ()),), ((0, False),)): 1}
    # generator factors: d(a_i >< b_i) = (da_i >< b_i) + (a_i >< d b_i)
    for i in range(1, n + 1):
        factor = [((((i, True, ()),), ((i, False),)), 1),
                  ((((i, False, ()),), ((i, True),)), 1)]
        nxt = {}
        for w1, c1 in terms.items():
            for w2, c2 in factor:
                w, c = _mul_words(w1, c1, w2, c2)
                vec_acc(nxt, w, c)
        terms = nxt
    return terms


def component(terms, q, p):
    """Words with exactly p differentiated algebra letters and q
    differentiated coalgebra letters."""
    out = {}
    for w, c in terms.items():
        om, ga = w
        if _degree(om) == p and _degree(ga) == q:
            out[w] = c
    return out


def shuffle_component_words(n, q, p):
    """The signed shuffle-sum prediction for the (q,p)-component.

    Reading (see ledger): sigma runs over Sh(p,q); the first block's values
    start the d-groups on the algebra side, the second block's values start
    the d-groups on the coalgebra side; the letter acted on by the coaction
    legs of b_t is every algebra letter with larger index (causal ranges).
    """
    out = {}
    for sig in shuffle_set(p, q):
        astarts = sorted(sig.first_block())
        bstarts = sorted(sig.second_block())

        def groups(starts):
            gs = []
            for k, s in enumerate(starts):
                end = starts[k + 1] - 1 if k + 1 < len(starts) else n
                gs.append((s, end))
            return gs

        a_items_all = [(k, False, tuple(range(k))) for k in range(n + 1)]
        b_items_all = [(k, False) for k in range(n + 1)]

        a_groups = groups(astarts)
        b_groups = groups(bstarts)

        # Leibniz expansion: one differentiated letter per group
        def expansions(items, grps, mark):
            prefix_end = grps[0][0] if grps else n + 1
            base = [list(items[:prefix_end])]
            for s, e in grps:
                new = []
                for k in range(s, e + 1):
                    seg = [mark(items[j], j == k) for j in range(s, e + 1)]
                    new.append(seg)
                base.append(new)
            # base[0] fixed prefix, base[j] list of alternatives per group
            outw = [tuple(base[0])]
            for alts in base[1:]:
                outw = [w + tuple(seg) for w in outw for seg in alts]
            return outw

        a_words = expansions(a_items_all, a_groups,
                             lambda it, dd: (it[0], dd, it[2]))
        b_words = expansions(b_items_all, b_groups,
                             lambda it, dd: (it[0], dd))
        for aw in a_words:
            for bw in b_words:
                vec_acc(out, (aw, bw), sig.sign)
    return out


def dg_expand_oracle(p, q):
    """Compare the (q,p)-component of theta^(p+q) against the shuffle sum.

    Returns (match, first_difference) where first_difference is None or a
    (word, lhs_coeff, rhs_coeff) triple.
    """
    if p + q > 3:
        raise DegreeCapExceeded("expansion oracle is capped at total degree 3")
    n = p + q
    lhs = component(expand_theta(n), q, p)
    rhs = shuffle_component_words(n, q, p)
    keys = sorted(set(lhs) | set(rhs))
    for w in keys:
        if lhs.get(w, 0) != rhs.get(w, 0):
            return False, (w, lhs.get(w, 0), rhs.get(w, 0))
    return True, None
