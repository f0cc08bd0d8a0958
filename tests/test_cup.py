import pytest

import hopfcyclic.cup as cup_module
from hopfcyclic.linalg import vec_sub, SpanSolver, KernelCoords, compose, tensor_kron
from hopfcyclic.spaces import StructureTensor
from hopfcyclic.complexes import (build_hopf_complex, CocyclicComplex, ProductComplex,
                                  tensor_bicocyclic, diagonal, same_complex)
from hopfcyclic.cohomology import cyclic_cocycles, hochschild_b
from hopfcyclic.actions import (trivial_sayd, mpi_coefficients, CoalgebraAction, SubHopf,
                                ActionNotDescended)
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
                                 permutation_module_algebra, sum_trace, sweedler_h4,
                                 adjoint_module_algebra, mpi_h4)

N = 3


import functools

def kz2_coalgebra(n=N):
    h = group_algebra(2)
    ca = module_action_as_coalgebra_action(self_module_coalgebra(h), swap_module_algebra())
    return CoalgebraCupContext(ca, trivial_sayd(h), N=n)

@functools.lru_cache(maxsize=None)
def kz2_coalgebra_ctx():
    return kz2_coalgebra()

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
def trivial_ctx(n=2):
    h = trivial_hopf()
    ca = counit_coalgebra_action(trivial_module_coalgebra(h),
                                 trivial_module_algebra(h, h.alg))
    return CoalgebraCupContext(ca, trivial_sayd(h), N=n)

@functools.lru_cache(maxsize=None)
def kz3_coalgebra_ctx():
    h = group_algebra(3)
    ca = module_action_as_coalgebra_action(self_module_coalgebra(h),
                                           permutation_module_algebra(3))
    return CoalgebraCupContext(ca, trivial_sayd(h), N=N)


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

@pytest.mark.parametrize("make,x_side", [
    (kz2_coalgebra_ctx, "coalg"),
    (kz2_crossed_ctx, "comod"),
    (lambda: RelativeCupContext(permutation_module_algebra(4), kz4_with_kz2()[1],
                                trivial_sayd(kz4_with_kz2()[0]), N=2), "coalg"),
], ids=["coalgebra", "crossed", "relative"])
def test_a_context_diagonal_is_the_bicocyclic_module_of_its_complexes(make, x_side):
    ctx = make()
    alg, x = ctx.alg.complex, getattr(ctx, x_side).complex
    assert isinstance(ctx.diag, ProductComplex)
    assert ctx.diag.c1 is alg and ctx.diag.c2 is x
    assert same_complex(ctx.diag, diagonal(tensor_bicocyclic(alg, x)))

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
    tgt = ctx.conv_cx
    broken = CocyclicComplex.assemble(
        tgt.N, tgt.dims(), lambda *k: tgt.op(*k).scale(-1) if k == key else tgt.op(*k))
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

def pulled_back(ctx):
    """The convolution pairing pulled back through nat^(x)(n+1) at every
    degree: the algebra pairing by way of the convolution algebra."""
    nat = ctx.natural_map()
    mats = []
    for n, m in enumerate(ctx.psi_c_matrices()):
        pull = nat
        for _ in range(n):
            pull = tensor_kron(pull, nat)
        mats.append(compose(pull.transpose(), m))
    return mats

def kz2_counit_on_q3():
    # C = kZ2 acting by its counit on Q^3: the one context where the
    # coalgebra and the algebra differ in dimension
    h = group_algebra(2)
    ca = counit_coalgebra_action(self_module_coalgebra(h),
                                 trivial_module_algebra(h, permutation_module_algebra(3).alg))
    return CoalgebraCupContext(ca, trivial_sayd(h), N=N)

@pytest.mark.parametrize("make", [kz2_coalgebra_ctx, kz2_sigma_g_ctx, kz3_coalgebra_ctx,
                                  lambda: trivial_ctx(3), kz2_counit_on_q3],
                         ids=["kz2", "kz2-sigma-g", "kz3", "trivial", "kz2-counit-on-q3"])
def test_algebra_pairing_is_the_pulled_back_convolution_pairing(make):
    ctx = make()
    assert ctx.N == 3
    assert ctx.psi_matrices() == pulled_back(ctx)


# -- what the cup path builds --------------------------------------------------------------

def test_coalgebra_cup_path_builds_no_convolution_algebra(monkeypatch):
    def refuse(ca):
        raise AssertionError("convolution algebra built")
    monkeypatch.setattr(cup_module, "convolution_algebra", refuse)
    ctx = kz2_coalgebra(2)
    ctx.pairing()
    fa = cyclic_cocycles(ctx.alg.complex, 0)[0]
    fx = cyclic_cocycles(ctx.x_complex(), 2)[0]
    assert aw_cup(ctx, fa, 0, fx, 2).b_closed
    assert "conv" not in vars(ctx) and "conv_cx" not in vars(ctx) and ctx._nat is None

def test_coalgebra_pairing_is_certified_in_one_walk(monkeypatch):
    targets = []
    intertwines = cup_module.intertwines
    def counted(src, tgt, mats):
        targets.append(tgt)
        return intertwines(src, tgt, mats)
    monkeypatch.setattr(cup_module, "intertwines", counted)
    ctx = kz2_coalgebra(2)
    ctx.pairing()
    ctx.pairing()
    assert targets == [ctx.a_cx]

@pytest.mark.parametrize("make,method,target", [
    (lambda: kz2_coalgebra(2), "psi_matrices", "a_cx"),
    (lambda: kz2_coalgebra(2), "psi_c_matrices", "conv_cx"),
    (lambda: CrossedCupContext(swap_module_algebra(), self_comodule_algebra(group_algebra(2)),
                               trivial_sayd(group_algebra(2)), N=2),
     "psi_cross_matrices", "ab_cx"),
    (lambda: RelativeCupContext(permutation_module_algebra(4), kz4_with_kz2()[1],
                                trivial_sayd(kz4_with_kz2()[0]), N=2),
     "psi_r_matrices", "ak_cx"),
], ids=["algebra", "convolution", "crossed", "relative"])
def test_a_failed_pairing_certificate_is_not_kept(make, method, target):
    # the pairing against its target with the face 0 at degree 1 negated
    ctx = make()
    tgt = getattr(ctx, target)
    key = ("face", 1, 0)
    broken = CocyclicComplex.assemble(
        tgt.N, tgt.dims(), lambda *k: tgt.op(*k).scale(-1) if k == key else tgt.op(*k))
    setattr(ctx, target, broken)
    for _ in range(2):
        with pytest.raises(ChainMapFailure):
            getattr(ctx, method)()


# -- what validation refuses in place of the natural embedding's checks ---------------------

# kZ2 acting on Q^2 through C = kZ2 by an action that breaks one law alone:
# c.a = eps(c) a against the swap (not h-linear, where nat would not be
# equivariant); both group-likes acting as the projection onto p0 (not
# unital); both acting by p0 -> 2p0 + p1, p1 -> -p0 (unital, not
# multiplicative)
@pytest.mark.parametrize("law,swap,values", [
    ("h-linearity", True, [{0: 1}, {1: 1}]),
    ("action-on-unit", False, [{0: 1}, {}]),
    ("action-multiplicative", False, [{0: 2, 1: 1}, {0: -1}]),
], ids=["h-linearity", "action-on-unit", "action-multiplicative"])
def test_context_refuses_an_action_that_breaks_a_natural_map_law(law, swap, values):
    h = group_algebra(2)
    ma = swap_module_algebra() if swap else trivial_module_algebra(h, swap_module_algebra().alg)
    act = StructureTensor((h.space, ma.space), ma.space,
                          {(c, a): v for c in range(2) for a, v in enumerate(values) if v})
    with pytest.raises(ValueError) as e:
        CoalgebraCupContext(CoalgebraAction(self_module_coalgebra(h), ma, act),
                            trivial_sayd(h), N=1)
    assert str(e.value) == "cup context components failed validation: coalgebra-action (%s)" % law


def test_relative_action_leaving_the_invariants_is_refused():
    # Sweedler's H4 acting adjointly on itself, relative to K = span{1, g}
    h = sweedler_h4()
    with pytest.raises(ActionNotDescended) as e:
        RelativeCupContext(adjoint_module_algebra(h), SubHopf(h, [{0: 1}, {1: 1}]),
                           mpi_coefficients(mpi_h4()), N=1)
    assert str(e.value) == "relative action leaves the invariant subalgebra: class 1 on invariant 1"


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
    x = cyclic_cocycles(ctx.x_complex(), 0)[0]
    with pytest.raises(NotACocycle):
        aw_cup(ctx, bad, deg, x, 0)
    # the same cup with both inputs closed goes through
    assert aw_cup(ctx, cyclic_cocycles(ctx.alg.complex, 0)[0], 0, x, 0).b_closed

def non_closed(cx):
    """The first basis vector of cx that b does not kill, with its degree."""
    return next(({k: 1}, p) for p in range(cx.N + 1) for k in range(cx.dim(p))
                if cx.b[p].apply({k: 1}))

# each cup's inputs, as (phi or x side) pairs, and the one left open
@pytest.mark.parametrize("cup,make,sides,open_side,error", [
    (aw_cup, kz2_coalgebra_ctx, "phi x", 1, NotACocycle),
    (shuffle_cup_traces, kz2_crossed_ctx, "phi x", 0, NotACocycle),
    (shuffle_cup_traces, kz2_crossed_ctx, "phi x", 1, NotACocycle),
    (cotrace_cup, kz2_coalgebra_ctx, "x phi", 0, NotACocycle),
    (cotrace_cup, kz2_coalgebra_ctx, "x phi", 1, NotACocycle),
    (cup_explicit_coalgebra, kz2_crossed_ctx, "phi x", None, TypeError),
    (cup_explicit_crossed, kz2_coalgebra_ctx, "phi x", None, TypeError),
], ids=["aw-second", "shuffle-first", "shuffle-second", "cotrace-first", "cotrace-second",
        "explicit-coalgebra-on-crossed", "explicit-crossed-on-coalgebra"])
def test_cups_reject_an_open_input_or_the_wrong_context(cup, make, sides, open_side, error):
    ctx = make()
    cxs = {"phi": ctx.phi_complex().complex, "x": ctx.x_complex()}
    args, closed = [], []
    for k, side in enumerate(sides.split()):
        cx = cxs[side]
        closed += (cyclic_cocycles(cx, 0)[0], 0)
        args += non_closed(cx) if k == open_side else closed[-2:]
    with pytest.raises(error):
        cup(ctx, *args)
    if open_side is not None:
        # the same cup with both inputs closed goes through
        cup(ctx, *closed)

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
    bs = hochschild_b(ctx.target())
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
