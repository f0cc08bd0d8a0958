import pytest

from hopfcyclic.linalg import vec_sub, SpanSolver, KernelCoords
from hopfcyclic.complexes import build_hopf_complex, CocyclicComplex
from hopfcyclic.cohomology import cyclic_cocycles, hochschild_b
from hopfcyclic.actions import trivial_sayd, mpi_coefficients
from hopfcyclic.cup import (CoalgebraCupContext, RelativeCupContext, CrossedCupContext,
                            aw_cup, cup_explicit_coalgebra, cup_explicit_crossed,
                            char_map, cotrace_cup, shuffle_cup_traces,
                            validate_trace, MismatchWithAW, NotACocycle,
                            NotInvariantTrace, ChainMapFailure, certify_chain_map)
from hopfcyclic.fixtures import (trivial_hopf, group_algebra, swap_module_algebra,
                                 self_module_coalgebra, self_comodule_algebra,
                                 trivial_module_algebra, trivial_comodule_algebra,
                                 trivial_module_coalgebra, counit_coalgebra_action,
                                 module_action_as_coalgebra_action, mpi_trivial,
                                 mpi_kz2_sigma_g, kz4_with_kz2, unit_subhopf,
                                 permutation_module_algebra, sum_trace)

N = 3


import functools

@functools.lru_cache(maxsize=None)
def kz2_coalgebra_ctx():
    h = group_algebra(2)
    ca = module_action_as_coalgebra_action(self_module_coalgebra(h), swap_module_algebra())
    return CoalgebraCupContext(ca, trivial_sayd(h), N=N)

@functools.lru_cache(maxsize=None)
def kz2_crossed_ctx():
    h = group_algebra(2)
    return CrossedCupContext(swap_module_algebra(), self_comodule_algebra(h),
                             trivial_sayd(h), N=N)

@functools.lru_cache(maxsize=None)
def kz2_sigma_g_ctx():
    h = group_algebra(2)
    ca = module_action_as_coalgebra_action(self_module_coalgebra(h), swap_module_algebra())
    return CoalgebraCupContext(ca, mpi_coefficients(mpi_kz2_sigma_g()), N=N)

@functools.lru_cache(maxsize=None)
def trivial_ctx():
    h = trivial_hopf()
    ca = counit_coalgebra_action(trivial_module_coalgebra(h),
                                 trivial_module_algebra(h, h.alg))
    return CoalgebraCupContext(ca, trivial_sayd(h), N=2)


def cocycle_pairs(ctx, max_total=3):
    phi_cx = ctx.phi_complex().complex
    x_cx = ctx.x_complex()
    cap = min(max_total, phi_cx.N)
    out = []
    for p in range(cap + 1):
        for q in range(cap + 1 - p):
            for fa in cyclic_cocycles(phi_cx, p):
                for fx in cyclic_cocycles(x_cx, q):
                    out.append((fa, p, fx, q))
    return out


# -- chain-map certificates ----------------------------------------------------------

def test_psi_c_certificate_trivial():
    ctx = trivial_ctx()
    mats = ctx.psi_c_matrices()
    assert mats[0].rows == mats[0].cols == 1

def test_psi_c_and_psi_certificates_kz2():
    ctx = kz2_coalgebra_ctx()
    ctx.psi_c_matrices()
    ctx.psi_matrices()

def test_psi_certificates_sigma_g():
    ctx = kz2_sigma_g_ctx()
    ctx.psi_matrices()

def test_psi_cross_certificate():
    kz2_crossed_ctx().psi_cross_matrices()

def test_psi_r_certificate_kz4():
    h4, k = kz4_with_kz2()
    rctx = RelativeCupContext(permutation_module_algebra(4), k, trivial_sayd(h4), N=2)
    rctx.psi_r_matrices()

def test_psi_r_unit_subhopf_equals_psi():
    h = group_algebra(2)
    rctx = RelativeCupContext(swap_module_algebra(), unit_subhopf(h), trivial_sayd(h), N=2)
    ca = module_action_as_coalgebra_action(self_module_coalgebra(h), swap_module_algebra())
    ctx = CoalgebraCupContext(ca, trivial_sayd(h), N=2)
    assert all(a == b for a, b in zip(rctx.psi_r_matrices(), ctx.psi_matrices()))


# -- natural embedding ----------------------------------------------------------------

@pytest.mark.parametrize("key,message", [
    (("face", 0, 1), "convolution pairing: face 1 at degree 0"),
    (("degen", 1, 0), "convolution pairing: degeneracy 0 at degree 1"),
    (("tau", 1, 0), "convolution pairing: cyclic operator at degree 1"),
])
def test_chain_map_certificate_names_the_failing_operator(key, message):
    # the real pairing, certified against a target with one map's sign flipped
    ctx = kz2_coalgebra_ctx()
    mats = ctx.psi_c_matrices()
    tgt = ctx.conv_cx.complex
    broken = CocyclicComplex.assemble(
        tgt.N, tgt.spaces, lambda *k: tgt.op(*k).scale(-1) if k == key else tgt.op(*k))
    certify_chain_map(ctx.diag, tgt, mats, "convolution pairing")
    with pytest.raises(ChainMapFailure) as e:
        certify_chain_map(ctx.diag, broken, mats, "convolution pairing")
    assert str(e.value) == message

def test_natural_map_unital_multiplicative():
    ctx = kz2_coalgebra_ctx()
    nat = ctx.natural_map()
    assert nat.apply(dict(ctx.ca.ma.alg.unit)) == dict(ctx.conv.algebra.unit)

def test_natural_map_trivial_context():
    ctx = trivial_ctx()
    nat = ctx.natural_map()
    assert nat.rows == nat.cols == 1


# -- composed cup ------------------------------------------------------------------------

def test_aw_cup_closed_and_cyclic_on_all_pairs():
    for ctx in (trivial_ctx(), kz2_coalgebra_ctx(), kz2_crossed_ctx()):
        pairs = cocycle_pairs(ctx)
        assert pairs
        for fa, p, fx, q in pairs:
            r = aw_cup(ctx, fa, p, fx, q)
            assert r.b_closed
            assert r.cyclic

def test_aw_cup_rejects_non_cocycle():
    ctx = kz2_coalgebra_ctx()
    bs = hochschild_b(ctx.alg.complex)
    bad = None
    for p in range(ctx.N + 1):
        for k in range(ctx.alg.complex.dim(p)):
            if bs[p].apply({k: 1}) != {}:
                bad, deg = {k: 1}, p
                break
        if bad:
            break
    assert bad is not None
    with pytest.raises(NotACocycle):
        aw_cup(ctx, bad, deg, cyclic_cocycles(ctx.x_complex(), 0)[0], 0)

def test_aw_cup_sigma_g_closed_but_not_cyclic_at_1_1():
    # twisted coefficients expose that the front/back-face cup is a chain map
    # for b only: closure always holds, chain-level cyclicity does not
    ctx = kz2_sigma_g_ctx()
    fa = cyclic_cocycles(ctx.alg.complex, 1)[0]
    fx = cyclic_cocycles(ctx.x_complex(), 1)[0]
    r = aw_cup(ctx, fa, 1, fx, 1)
    assert r.b_closed
    assert not r.cyclic


# -- explicit coalgebra formula (calibration) ----------------------------------------------

def test_explicit_equals_composed_on_trivially_coacting_fixtures():
    for ctx in (trivial_ctx(), kz2_coalgebra_ctx()):
        for fa, p, fx, q in cocycle_pairs(ctx):
            r = cup_explicit_coalgebra(ctx, fa, p, fx, q)
            assert r.b_closed

def test_explicit_mismatch_surfaced_for_twisted_coefficients():
    ctx = kz2_sigma_g_ctx()
    fa = cyclic_cocycles(ctx.alg.complex, 1)[0]
    fx = cyclic_cocycles(ctx.x_complex(), 1)[0]
    with pytest.raises(MismatchWithAW) as exc:
        cup_explicit_coalgebra(ctx, fa, 1, fx, 1)
    assert exc.value.difference


# -- explicit crossed formula -----------------------------------------------------------------

def test_crossed_explicit_candidate_flags():
    ctx = kz2_crossed_ctx()
    for fa, p, fx, q in cocycle_pairs(ctx):
        norm, cand, match = cup_explicit_crossed(ctx, fa, p, fx, q)
        assert norm.b_closed
        assert match

def test_crossed_explicit_trivial_b():
    # B = ground field: the cup reduces to evaluation scaled by psi(1)
    h = group_algebra(2)
    ctx = CrossedCupContext(swap_module_algebra(), trivial_comodule_algebra(h),
                            trivial_sayd(h), N=2)
    for fa, p, fx, q in cocycle_pairs(ctx, max_total=2):
        norm, cand, match = cup_explicit_crossed(ctx, fa, p, fx, q)
        assert match

def test_crossed_explicit_trivial_a():
    h = group_algebra(2)
    ctx = CrossedCupContext(trivial_module_algebra(h, trivial_hopf().alg),
                            self_comodule_algebra(h), trivial_sayd(h), N=2)
    for fa, p, fx, q in cocycle_pairs(ctx, max_total=2):
        norm, cand, match = cup_explicit_crossed(ctx, fa, p, fx, q)
        assert match


# -- characteristic map ---------------------------------------------------------------------

def test_char_map_certified_and_degree_zero():
    h = group_algebra(2)
    mp = mpi_trivial(h)
    ma = swap_module_algebra()
    mats, power, a_cx = char_map(mp, ma, sum_trace(2), N=2)
    # degree 0: chi() is the trace itself
    assert mats[0].column(0) == {0: 1, 1: 1}

def test_char_map_explicit_values_degree_one():
    # chi(g)(a0 (x) a1) = trace(a0 . swap(a1)): frozen 4-entry table
    h = group_algebra(2)
    mats, _, _ = char_map(mpi_trivial(h), swap_module_algebra(), sum_trace(2), N=2)
    col = mats[1].column(1)   # h-tuple (g,)
    # basis of A (x) A: (p0,p0) -> trace(p0 p1) = 0, (p0,p1) -> trace(p0 p0) = 1
    assert col == {1: 1, 2: 1}

def test_char_map_rejects_bad_trace():
    h = group_algebra(2)
    with pytest.raises(NotInvariantTrace):
        char_map(mpi_trivial(h), swap_module_algebra(), {0: 1}, N=2)

def test_trace_is_invariant():
    assert validate_trace(mpi_trivial(group_algebra(2)), swap_module_algebra(), sum_trace(2)) == []

@pytest.mark.parametrize("mp,trace,expected", [
    # tr(g.a) - eps(g) tr(a) with tr = (1, 0) and g swapping p0, p1
    (mpi_trivial(group_algebra(2)), {0: 1},
     ["delta-invariance at (g,p0): -1*0", "delta-invariance at (g,p1): 1*0"]),
    # tr(ab) - tr(b (g.a)) with tr = (1, 1): the twist by sigma = g breaks every pair
    (mpi_kz2_sigma_g(), sum_trace(2),
     ["sigma-trace at (p0,p0): 1*0", "sigma-trace at (p0,p1): -1*0",
      "sigma-trace at (p1,p0): -1*0", "sigma-trace at (p1,p1): 1*0"]),
], ids=["delta-invariance", "sigma-trace"])
def test_trace_violations_carry_their_pair_and_residual(mp, trace, expected):
    assert [str(v) for v in validate_trace(mp, swap_module_algebra(), trace)] == expected


def test_degenerate_cup_equals_char_map():
    # the trace, seen as the degree-0 algebra cochain, cups with any class of
    # the coalgebra side to the characteristic map value, entrywise
    h = group_algebra(2)
    mp = mpi_trivial(h)
    ctx = kz2_coalgebra_ctx()
    hd = build_hopf_complex(mp, N)
    mats, _, _ = char_map(mp, swap_module_algebra(), sum_trace(2), N=N)
    tr = KernelCoords(ctx.alg.bases[0]).solve({a: c for a, c in sum_trace(2).items()})
    for q in range(3):
        for x in cyclic_cocycles(ctx.coalg.complex, q):
            cup = aw_cup(ctx, tr, 0, x, q)
            chi = mats[q].apply(hd.iso[q].apply(x))
            assert vec_sub(cup.vector, chi) == {}


# -- shuffle cups -------------------------------------------------------------------------------

def test_shuffle_cup_traces_closed_cyclic():
    ctx = kz2_crossed_ctx()
    for fa, p, fx, q in cocycle_pairs(ctx):
        r = shuffle_cup_traces(ctx, fa, p, fx, q)
        assert r.b_closed
        assert r.cyclic

def test_shuffle_cup_agrees_with_composed_on_degenerate_pairs():
    ctx = kz2_crossed_ctx()
    for fa, p, fx, q in cocycle_pairs(ctx):
        if p and q:
            continue
        sh = shuffle_cup_traces(ctx, fa, p, fx, q)
        awr = aw_cup(ctx, fa, p, fx, q)
        assert vec_sub(sh.vector, awr.vector) == {}

def test_shuffle_cup_cohomologous_to_composed():
    ctx = kz2_crossed_ctx()
    bs = hochschild_b(ctx.target().complex)
    for fa, p, fx, q in cocycle_pairs(ctx):
        n = p + q
        sh = shuffle_cup_traces(ctx, fa, p, fx, q)
        awr = aw_cup(ctx, fa, p, fx, q)
        d = vec_sub(sh.vector, awr.vector)
        if n == 0:
            assert d == {}
            continue
        sol = SpanSolver()
        for col in bs[n - 1].columns():
            sol.add(col)
        assert sol.reduce(d) == {}

def test_cotrace_cup_closed_and_degenerate_agreement():
    ctx = kz2_coalgebra_ctx()
    tr = KernelCoords(ctx.alg.bases[0]).solve({a: c for a, c in sum_trace(2).items()})
    for q in range(3):
        for x in cyclic_cocycles(ctx.coalg.complex, q):
            r = cotrace_cup(ctx, x, q, tr, 0)
            assert r.b_closed and r.cyclic
            awr = aw_cup(ctx, tr, 0, x, q)
            assert vec_sub(r.vector, awr.vector) == {}

def test_cotrace_cup_general_pairs_closed():
    ctx = kz2_coalgebra_ctx()
    for fa, p, fx, q in cocycle_pairs(ctx):
        r = cotrace_cup(ctx, fx, q, fa, p)
        assert r.b_closed
