from itertools import permutations
from math import comb

import pytest

import hopfcyclic.shuffles as shuffles
from hopfcyclic.shuffles import (ShufflePermutation, shuffle_set, dg_expand_oracle,
                                 expand_theta, component, DegreeCapExceeded)


def brute_force_shuffles(q, p):
    """Independent oracle: filter all permutations of {1..p+q} for block
    monotonicity and compute parity by counting inversions."""
    n = p + q
    out = []
    for perm in permutations(range(1, n + 1)):
        if list(perm[:q]) == sorted(perm[:q]) and list(perm[q:]) == sorted(perm[q:]):
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            out.append((perm, -1 if inv % 2 else 1))
    return out


def test_counts_match_binomial():
    for total in range(7):
        for q in range(total + 1):
            p = total - q
            assert len(shuffle_set(q, p)) == comb(total, q)

def test_against_brute_force_enumeration():
    for total in range(6):
        for q in range(total + 1):
            p = total - q
            got = [(s.values, s.sign) for s in shuffle_set(q, p)]
            assert sorted(got) == sorted(brute_force_shuffles(q, p))

def test_degenerate_blocks():
    single = shuffle_set(0, 3)
    assert len(single) == 1 and single[0].sign == 1
    assert single[0].values == (1, 2, 3)

def test_sh11():
    got = [(s.values, s.sign) for s in shuffle_set(1, 1)]
    assert got == [((1, 2), 1), ((2, 1), -1)]

def test_sh21_signs_lexicographic():
    got = [s.sign for s in shuffle_set(2, 1)]
    assert got == [1, -1, 1]

def test_block_reversal_sign():
    # reversing the two blocks multiplies the sign by (-1)^(pq)
    for total in range(7):
        for q in range(total + 1):
            p = total - q
            flip = (-1) ** (p * q)
            rev = {}
            for s in shuffle_set(p, q):
                # the reversed shuffle sends the first block to the old second
                key = (tuple(sorted(s.second_block())), tuple(sorted(s.first_block())))
                rev[(s.first_block(), s.second_block())] = s.sign
            for s in shuffle_set(q, p):
                partner = rev[(s.second_block(), s.first_block())]
                assert partner == flip * s.sign


# -- the formal expansion oracle -----------------------------------------------

def test_oracle_confirms_all_bounded_degrees():
    for p in range(4):
        for q in range(4 - p):
            ok, diff = dg_expand_oracle(p, q)
            assert ok, (p, q, diff)

def test_oracle_names_the_first_word_that_differs(monkeypatch):
    # the shuffle-sum prediction with one coefficient moved: the oracle
    # returns the first word in order where the two sides differ
    real = shuffles.shuffle_component_words
    word = min(real(2, 1, 1))
    coeff = real(2, 1, 1)[word]

    def perturbed(n, q, p):
        out = real(n, q, p)
        if (n, q, p) == (2, 1, 1):
            out[word] += 1
        return out
    monkeypatch.setattr(shuffles, "shuffle_component_words", perturbed)
    assert dg_expand_oracle(1, 1) == (False, (word, coeff, coeff + 1))
    assert dg_expand_oracle(2, 1) == (True, None)

def test_oracle_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        dg_expand_oracle(2, 2)

def test_theta_component_sizes():
    # theta^n has 2^n raw words; the (q,p)-component has binomial(n, q)
    for n in range(4):
        terms = expand_theta(n)
        assert len(terms) == 2 ** n
        for q in range(n + 1):
            assert len(component(terms, q, n - q)) == comb(n, q)

def test_theta_trivial_component():
    terms = expand_theta(0)
    comp = component(terms, 0, 0)
    (word, coeff), = comp.items()
    assert coeff == 1
    om, ga = word
    assert om == ((0, False, ()),) and ga == ((0, False),)


@pytest.mark.parametrize("q,p", [(-1, 2), (2, -1)])
def test_shuffle_set_refuses_a_negative_block(q, p):
    with pytest.raises(ValueError) as e:
        shuffle_set(q, p)
    assert str(e.value) == "block sizes must be nonnegative"
