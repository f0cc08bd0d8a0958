"""The builders eliminate their condition systems row by row.

The equivariant, colinear and coinvariant-quotient conditions are fed
straight into the echelon solver.  The stacked condition matrices the
builders used to assemble are kept here as oracles: the RREF is unique, so
every basis must come out the same, in the same order and key order.  A
coinvariant quotient of H over itself is built through Phi instead, and
must give the oracle's free columns and projections.  The complex on
tensor powers once built per basis tuple is kept too, as the oracle of
the flat-index builder."""

import functools
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct

import pytest

from hopfcyclic.linalg import SparseMatrix, compose, invert_matrix, kernel_basis, vec_acc, vec_axpy
from hopfcyclic.actions import (QuotientSpace, trivial_sayd, crossed_product,
                                invariant_subalgebra, convolution_algebra)
from hopfcyclic.complexes import (HopfTables, _acting_on, action_table, _by_degree,
                                  split_table, build_algebra_complex,
                                  build_coalgebra_complex, build_comodule_algebra_complex,
                                  build_hopf_complex, build_power_complex,
                                  plain_cyclic_complex, phi_degrees, acts_on_itself,
                                  CocyclicComplex, complex_to_text,
                                  ConjugationFailure, IllDefined)
from hopfcyclic.fixtures import (fixture_file_texts, group_algebra, mpi_h4, mpi_kz2_sigma_g,
                                 mpi_trivial, swap_module_algebra, sweedler_h4, trivial_hopf,
                                 trivial_module_algebra)
from hopfcyclic.hopf import ModularPair
from hopfcyclic.specfile import parse_spec


# -- the stacked-matrix oracles ------------------------------------------------------------

def equivariant_oracle(ma, sayd, N):
    """Per degree, the kernel of the whole (h, m, a~) condition matrix."""
    h = ma.hopf
    tabs = HopfTables.of(h)
    mract = action_table(sayd.raction)
    mdim, adim = sayd.space.dim, ma.space.dim
    bases = []
    for n, moved_by in enumerate(tabs.diag_act_degrees(_acting_on(ma.action), adim, N + 1)):
        S = adim ** (n + 1)
        rows = {}
        for t in range(S):
            moved = moved_by(t)
            for hh in range(h.dim):
                for m in range(mdim):
                    row = {}
                    if tabs.eps.get(hh, 0):
                        row[m * S + t] = -tabs.eps[hh]
                    for (h1, h2), x in tabs.comul[hh]:
                        tw = {}
                        for u, c in tabs.S[h2].items():
                            if u in moved:
                                vec_axpy(tw, c, moved[u])
                        for mj, x1 in mract.get((m, h1), ()):
                            for k, x2 in tw.items():
                                vec_acc(row, mj * S + k, x * x1 * x2)
                    r = (hh * mdim + m) * S + t
                    for f, c in row.items():
                        rows[(r, f)] = c
        bases.append(kernel_basis(SparseMatrix(h.dim * mdim * S, mdim * S, rows)))
    return bases


def colinear_oracle(ba, sayd, N):
    """Per degree, the kernel of the whole (w, h, m') condition matrix."""
    h = ba.hopf
    tabs = HopfTables.of(h)
    coact = split_table(ba.coaction)
    mco = split_table(sayd.lcoaction)
    mdim, bdim = sayd.space.dim, ba.space.dim

    def step(prev, head, v):
        out = {}
        for (hp, bp), x in prev(head).items():
            for (hh, b0), y in coact.get(v, ()):
                for k, z in tabs.mul.get((hp, hh), ()):
                    vec_acc(out, (k, bp * bdim + b0), x * y * z)
        return out

    first = [{key: x for key, x in coact.get(v, ())} for v in range(bdim)]
    bases = []
    for n, coact_of in enumerate(_by_degree(first.__getitem__, step, bdim, N + 1)):
        S = bdim ** (n + 1)
        rows, rowindex = {}, {}
        for w in range(S):
            for m in range(mdim):
                for (hh, mj), x in mco[m]:
                    r = rowindex.setdefault((w, hh, mj), len(rowindex))
                    vec_acc(rows, (r, m * S + w), x)
            for (hh, bouts), x in coact_of(w).items():
                for mj in range(mdim):
                    r = rowindex.setdefault((w, hh, mj), len(rowindex))
                    vec_acc(rows, (r, mj * S + bouts), -x)
        bases.append(kernel_basis(SparseMatrix(len(rowindex), mdim * S, rows)))
    return bases


def quotient_oracle(mc, sayd, N):
    """Per degree, the quotient of the full sorted relation list."""
    h = mc.hopf
    tabs = HopfTables.of(h)
    mract = action_table(sayd.raction)
    mdim, cdim = sayd.space.dim, mc.space.dim
    quotients = []
    for n, moved_by in enumerate(tabs.diag_act_degrees(_acting_on(mc.action), cdim, N + 1)):
        S = cdim ** (n + 1)
        buckets = {}
        for t in range(S):
            moved = moved_by(t)
            for m in range(mdim):
                for hh in range(h.dim):
                    rel = {mj * S + t: x for mj, x in mract.get((m, hh), ())}
                    for k, x in moved.get(hh, {}).items():
                        vec_acc(rel, m * S + k, -x)
                    if rel:
                        buckets.setdefault((m, hh), []).append(rel)
        quotients.append(QuotientSpace(mdim * S, [rel for key in sorted(buckets)
                                                  for rel in buckets[key]]))
    return quotients


def items(basis):
    return [list(v.items()) for v in basis]


@pytest.mark.parametrize("fixture", sorted(fixture_file_texts()))
def test_streamed_conditions_match_the_stacked_matrix_oracle(fixture):
    spec = parse_spec(fixture_file_texts()[fixture])
    N = 3
    checked = 0
    for name, (kind, args) in spec.complexes.items():
        sayd = spec.coefficients[args[-1]]
        if kind == "algebra":
            ma = spec.module_algebras[args[0]]
            got = build_algebra_complex(ma, sayd, N).bases
            assert list(map(items, got)) == list(map(items, equivariant_oracle(ma, sayd, N)))
        elif kind == "comodule":
            ba = spec.comodule_algebras[args[0]]
            got = build_comodule_algebra_complex(ba, sayd, N).bases
            assert list(map(items, got)) == list(map(items, colinear_oracle(ba, sayd, N)))
        elif kind == "coalgebra":
            mc = spec.module_coalgebras[args[0]]
            got = build_coalgebra_complex(mc, sayd, N).quotients
            ref = quotient_oracle(mc, sayd, N)
            assert [q.free for q in got] == [q.free for q in ref]
            # the projection of every ambient basis vector: Phi_F^-1 Phi through Phi
            if acts_on_itself(mc, mc.hopf):
                got = [compose(deg.inv, SparseMatrix.from_columns([dict(c) for c in deg.phi],
                                                                   deg.iso.rows))
                       for deg in phi_degrees(mc, sayd, N + 1)]
            else:
                got = [q.projection_matrix() for q in got]
            assert got == [q.projection_matrix() for q in ref]
        else:
            continue
        checked += 1
    assert checked == sum(kind != "hopf" for kind, _ in spec.complexes.values())


# -- memory: no condition matrix is held ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def h4_spec():
    spec = parse_spec(fixture_file_texts()["h4.hcy"])
    HopfTables.of(spec.module_algebras["H"].hopf)      # built once per Hopf algebra
    return spec


def traced_peak_mb(build):
    tracemalloc.start()
    try:
        data = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del data
    return peak / 1e6


@pytest.mark.parametrize("kind", ["algebra", "comodule"])
def test_subspace_builders_hold_no_condition_matrix(kind):
    # h4 at N=3: about 1.9 MB when the whole condition matrix was stacked
    # before elimination, about 0.9 MB when its rows are eliminated as made
    spec = h4_spec()
    sayd = spec.coefficients["taft"]
    if kind == "algebra":
        peak = traced_peak_mb(lambda: build_algebra_complex(spec.module_algebras["H"], sayd, 3))
    else:
        peak = traced_peak_mb(
            lambda: build_comodule_algebra_complex(spec.comodule_algebras["B"], sayd, 3))
    assert peak < 1.3, peak


def test_built_quotients_hold_no_column_index():
    # h4 coalgebra complex at N=4: about 4.2 MB stays allocated once built
    # while every quotient keeps its solver's column index, which only
    # adding a relation reads; about 3.3 MB once the index is dropped
    spec = h4_spec()
    tracemalloc.start()
    try:
        cx = build_coalgebra_complex(spec.module_coalgebras["H"], spec.coefficients["taft"], 4)
        held = tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()
    assert cx.complex.dims()[:3] == [1, 4, 16]
    assert held < 3.75, held


@functools.lru_cache(maxsize=None)
def kz4_relative_spec():
    spec = parse_spec(fixture_file_texts()["kz4_relative.hcy"])
    HopfTables.of(spec.module_coalgebras["H"].hopf)
    return spec


def test_hopf_build_through_phi_peaks_below_the_relation_elimination():
    # h4 at N=4: the build that eliminated the relations of every degree
    # and kept their echelon forms peaked at 5.04-5.25 MB; through Phi,
    # which holds Phi for three degrees at a time, at about 4.2 MB
    spec = h4_spec()
    peak = traced_peak_mb(lambda: build_hopf_complex(spec.modular_pair("taft"), 4))
    assert peak <= 5.04, peak


def test_coalgebra_build_through_phi_peaks_below_the_relation_elimination():
    # kz4_relative's coalg_triv at N=4: 3.61-3.77 MB with the relations
    # eliminated, about 3.5 MB through Phi
    spec = kz4_relative_spec()
    peak = traced_peak_mb(lambda: build_coalgebra_complex(spec.module_coalgebras["H"],
                                                          spec.coefficients["triv"], 4))
    assert peak <= 3.61, peak


# -- the Hopf normalization map ------------------------------------------------------------

def test_singular_normalization_map_fails_with_its_degree(monkeypatch):
    import hopfcyclic.complexes as complexes
    normalization_map = complexes._normalization_map

    def singular_at_two(n, *args):
        plan = normalization_map(n, *args)
        if n != 2:
            return plan
        # no column reaches the last coordinate: rank drops by one, and the
        # relations are still killed
        last = max(r for col in plan for r, _ in col)
        return [[(r, x) for r, x in col if r != last] for col in plan]

    monkeypatch.setattr(complexes, "_normalization_map", singular_at_two)
    with pytest.raises(ConjugationFailure) as e:
        build_hopf_complex(mpi_kz2_sigma_g(), 2)
    assert str(e.value) == "normalization map is not invertible at degree 2"
    assert e.value.degree == 2
    assert e.value.column is None and e.value.residual is None


def test_relations_are_checked_at_the_top_degree(monkeypatch):
    # Phi doubled on the ambient column e (x) e (x) e of the top degree
    # (N = 1) no longer kills the relation g (x) e~ - e (x) g.e~ at t = 0,
    # the generator (0*1 + 0)*2 + 1; its image is 2 Phi(e_0) - Phi(e_7)
    import hopfcyclic.complexes as complexes
    from hopfcyclic.actions import trivial_sayd
    from hopfcyclic.fixtures import group_algebra, self_module_coalgebra
    normalization_map = complexes._normalization_map

    def doubled_at_top(n, *args):
        plan = normalization_map(n, *args)
        if n == 2:
            plan[0] = [(r, 2 * x) for r, x in plan[0]]
        return plan

    monkeypatch.setattr(complexes, "_normalization_map", doubled_at_top)
    h = group_algebra(2)
    with pytest.raises(IllDefined) as e:
        build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 1)
    err = e.value
    assert str(err) == "coalgebra normalization map does not kill the relations at degree 2"
    assert (err.degree, err.column, err.residual) == (2, 1, {0: 1})


# -- the plain cyclic complex: the full ambient, no restriction ----------------------------

def test_plain_cyclic_complex_is_the_ambient_cyclic_module():
    alg = swap_module_algebra().alg
    d = alg.space.dim
    cx = plain_cyclic_complex(alg, 2)

    def matrix(n_src, n_tgt, image):
        """(op psi)(v) = psi(image(v)) for v a basis tuple of degree n_tgt."""
        ent = {}
        src = list(iproduct(range(d), repeat=n_src + 1))
        for r, v in enumerate(iproduct(range(d), repeat=n_tgt + 1)):
            for w, x in image(v).items():
                vec_acc(ent, (r, src.index(w)), x)
        return SparseMatrix(d ** (n_tgt + 1), d ** (n_src + 1), ent)

    def times(a, b):
        return alg.mul.value((a, b))

    for n in range(cx.N + 1):
        for i in range(n + 1):
            assert cx.face(n, i) == matrix(n, n + 1, lambda v: {
                v[:i] + (k,) + v[i + 2:]: x for k, x in times(v[i], v[i + 1]).items()})
        assert cx.face(n, n + 1) == matrix(n, n + 1, lambda v: {
            (k,) + v[1:-1]: x for k, x in times(v[-1], v[0]).items()})
    for n in range(1, cx.top + 1):
        for j in range(n):
            assert cx.degen(n, j) == matrix(n, n - 1, lambda v: {
                v[:j + 1] + (k,) + v[j + 1:]: x for k, x in alg.unit.items()})
    for n in range(cx.top + 1):
        assert cx.tau(n) == matrix(n, n, lambda v: {v[-1:] + v[:-1]: 1})


@functools.lru_cache(maxsize=None)
def cup_target_algebras():
    """The algebras the shipped cup contexts land in."""
    kz2 = parse_spec(fixture_file_texts()["kz2.hcy"])
    kz3 = parse_spec(fixture_file_texts()["kz3.hcy"])
    rel = kz4_relative_spec()
    return {
        "kz2-A": kz2.module_algebras["A"].alg,
        "kz2-A#B": crossed_product(kz2.module_algebras["A"], kz2.comodule_algebras["B"]),
        "kz4_relative-A^K": invariant_subalgebra(rel.module_algebras["A"],
                                                 rel.subhopfs["K"])[0],
        "kz3-convolution": convolution_algebra(kz3.actions["ca"]).algebra,
    }


def plain_complex_oracle(alg, N):
    """The plain cyclic complex of alg built per basis tuple from alg.mul
    and alg.unit: (op psi)(v) = sum x psi(w) over the terms {w: x} of the
    image of the target tuple v.  The faces multiply neighbouring slots, the
    last face multiplies the last slot into the first, the degeneracies
    insert the unit and tau moves the last slot to the front."""
    from hopfcyclic.spaces import MultiIndex
    d = alg.space.dim
    mis = [MultiIndex((d,) * (n + 1)) for n in range(N + 2)]

    def image(kind, n, i, v):
        if kind == "face" and i <= n:
            return {v[:i] + (k,) + v[i + 2:]: x for k, x in alg.mul.value(v[i:i + 2]).items()}
        if kind == "face":
            return {(k,) + v[1:-1]: x for k, x in alg.mul.value((v[-1], v[0])).items()}
        if kind == "degen":
            return {v[:i + 1] + (k,) + v[i + 1:]: x for k, x in alg.unit.items()}
        return {v[-1:] + v[:-1]: 1}

    def make(kind, n, i):
        tgt = n + {"face": 1, "degen": -1, "tau": 0}[kind]
        ent = {}
        for v in iproduct(range(d), repeat=tgt + 1):
            for w, x in image(kind, n, i, v).items():
                vec_acc(ent, (mis[tgt].flat(v), mis[n].flat(w)), x)
        return SparseMatrix(mis[tgt].size, mis[n].size, ent)

    return CocyclicComplex.assemble(N, [mi.size for mi in mis], make, "cyclic")


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("which", ["kz2-A", "kz2-A#B", "kz4_relative-A^K", "kz3-convolution"])
def test_plain_cyclic_complex_is_the_per_tuple_builder(which, N):
    alg = cup_target_algebras()[which]
    cx = plain_cyclic_complex(alg, N)
    assert cx.name == "cyclic"
    assert complex_to_text(cx) == complex_to_text(plain_complex_oracle(alg, N))
    # over the one-dimensional Hopf algebra with trivial coefficients the
    # equivariance conditions all cancel: the algebra complex keeps the
    # standard bases, so the plain complex is the dual of A^(x)(n+1) on its
    # standard basis
    h = trivial_hopf()
    equivariant = build_algebra_complex(trivial_module_algebra(h, alg), trivial_sayd(h), N)
    assert equivariant.bases == [[{k: 1} for k in range(cx.dim(n))] for n in range(cx.top + 1)]


# -- the power complex: the per-tuple builder as the oracle --------------------------------

def power_complex_oracle(mp, N):
    """The complex of (H, delta, sigma) on H^(x)n built per basis tuple, as
    it once was: every column is a dict over tuples, tau_n(h1 (x) h~) sums
    S~(h1)_(1) h2 (x) ... (x) S~(h1)_(n) sigma over the legs of
    iterated_coproduct, and the tuples are flattened at the end."""
    from hopfcyclic.hopf import iterated_coproduct, twisted_antipode
    from hopfcyclic.spaces import MultiIndex
    h = mp.hopf
    d, top = h.dim, N + 1
    mis = [MultiIndex((d,) * n) for n in range(top + 1)]
    St = twisted_antipode(mp).columns()
    coproducts = {n: iterated_coproduct(h.coalg, n) for n in range(1, top + 1)}

    def column(kind, n, i, ht):
        if kind == "face" and i == 0:
            return {(k,) + ht: x for k, x in h.alg.unit.items()}
        if kind == "face" and i <= n:
            return {ht[:i - 1] + divmod(f, d) + ht[i:]: x
                    for f, x in h.coalg.comul.value((ht[i - 1],)).items()}
        if kind == "face":
            return {ht + (k,): x for k, x in mp.sigma.items()}
        if kind == "degen":
            e = h.coalg.counit.get(ht[i], 0)
            return {ht[:i] + ht[i + 1:]: e} if e else {}
        if n == 0:
            return {(): 1}
        slots = [{v: 1} for v in ht[1:]] + [mp.sigma]
        out = {}
        for u, c in St[ht[0]].items():
            for f, x in coproducts[n].value((u,)).items():
                terms = {(): c * x}
                for leg, slot in zip(mis[n].unflat(f), slots):
                    images = {}
                    for v, y in slot.items():
                        for k, z in h.alg.mul.value((leg, v)).items():
                            vec_acc(images, k, y * z)
                    terms = {key + (k,): y * z for key, y in terms.items()
                             for k, z in images.items()}
                for key, y in terms.items():
                    vec_acc(out, key, y)
        return out

    def make(kind, n, i):
        mi = mis[n + {"face": 1, "degen": -1, "tau": 0}[kind]]
        return SparseMatrix.from_columns(
            [{mi.flat(key): x for key, x in column(kind, n, i, ht).items()}
             for ht in iproduct(range(d), repeat=n)], mi.size)

    return CocyclicComplex.assemble(N, [mi.size for mi in mis], make, "hopf-power")


def basis_changed_h4():
    """mpi_h4 transported through T = diag(2, 1/2, -1, 1) + 1/2 at (1, 2):
    delta to delta o T and sigma to T^-1 sigma."""
    from test_cohomology import change_basis_hopf
    mp = mpi_h4()
    T = SparseMatrix(4, 4, {(0, 0): 2, (1, 1): Fraction(1, 2), (2, 2): -1, (3, 3): 1,
                            (1, 2): Fraction(1, 2)})
    delta = {}
    for (i, j), x in T.entries.items():
        vec_acc(delta, j, mp.delta.get(i, 0) * x)
    return ModularPair(change_basis_hopf(mp.hopf, T), delta, invert_matrix(T).apply(mp.sigma))


POWER_PAIRS = {
    "h4": mpi_h4,
    "kZ2-sigma-g": mpi_kz2_sigma_g,
    "kZ3": lambda: mpi_trivial(group_algebra(3)),
    "kZ4": lambda: mpi_trivial(group_algebra(4)),
    "H4": lambda: mpi_trivial(sweedler_h4()),
    "h4-basis-changed": basis_changed_h4,
}


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("which", sorted(POWER_PAIRS))
def test_power_complex_is_the_per_tuple_builder(which, N):
    mp = POWER_PAIRS[which]()
    assert complex_to_text(build_power_complex(mp, N)) == complex_to_text(power_complex_oracle(mp, N))


# -- the functional complexes: per-tuple builders as the oracles ---------------------------

def regular_sayd(h):
    """H over itself as coefficients: right multiplication, and the left
    coaction m -> S(m(3)) m(1) (x) m(2).  It is dim H dimensional, its
    action is no permutation matrix that equals its transpose, and over the
    Taft algebra its coaction has legs where S and S^-1 differ."""
    from hopfcyclic.actions import SAYDModule, validate_sayd
    from hopfcyclic.hopf import iterated_coproduct
    from hopfcyclic.spaces import BasedSpace, StructureTensor, tensor_space
    d = h.dim
    M = BasedSpace(tuple("m%d" % m for m in range(d)))
    antipode = h.antipode.columns()
    legs = iterated_coproduct(h.coalg, 3)
    lco = {}
    for m in range(d):
        out = {}
        for f, x in legs.value((m,)).items():
            m1, m2, m3 = f // (d * d), f // d % d, f % d
            for s, y in antipode[m3].items():
                for u, z in h.alg.mul.value((s, m1)).items():
                    vec_acc(out, u * d + m2, x * y * z)
        lco[(m,)] = out
    ract = {(m, u): dict(h.alg.mul.value((m, u))) for m in range(d) for u in range(d)}
    sayd = SAYDModule(h, M, StructureTensor((M, h.space), M, ract),
                      StructureTensor((M,), tensor_space(h.space, M), lco))
    assert validate_sayd(sayd).ok
    return sayd


def functional_complex_oracle(data, image, N, name):
    """The complex of SubspaceComplexData data rebuilt map by map: image(kind,
    n, i, m, v) gives the terms {(m', w): x} of the source tuples with
    (op psi)(m (x) v) = sum x psi(m' (x) w), each ambient map is the matrix
    of these on tuples, and its restriction reads every image of a basis
    vector on the target basis at its free entries, checked to add up."""
    mdim, dim = data.mdim, data.dim

    def flat(m, v):
        t = m
        for a in v:
            t = t * dim + a
        return t

    def make(kind, n, i):
        tgt = n + {"face": 1, "degen": -1, "tau": 0}[kind]
        by_source = {}
        for m in range(mdim):
            for v in iproduct(range(dim), repeat=tgt + 1):
                for (mj, w), x in image(kind, n, i, m, v).items():
                    vec_acc(by_source.setdefault(flat(mj, w), {}), flat(m, v), x)
        cols = []
        for psi in data.bases[n]:
            img = {}
            for w, c in psi.items():
                vec_axpy(img, c, by_source.get(w, {}))
            coords = {k: img[max(b)] for k, b in enumerate(data.bases[tgt]) if max(b) in img}
            back = {}
            for k, c in coords.items():
                vec_axpy(back, c, data.bases[tgt][k])
            assert back == img, (kind, n, i)
            cols.append(coords)
        return SparseMatrix.from_columns(cols, len(data.bases[tgt]))

    return CocyclicComplex.assemble(N, [len(b) for b in data.bases], make, name)


def inner_image(alg, kind, n, i, m, v):
    """The product faces and the unit degeneracies, per tuple."""
    if kind == "face":
        return {(m, v[:i] + (k,) + v[i + 2:]): x for k, x in alg.mul.value(v[i:i + 2]).items()}
    return {(m, v[:i + 1] + (k,) + v[i + 1:]): x for k, x in alg.unit.items()}


def algebra_image(ma, sayd):
    """(d_{n+1} phi)(m (x) a~) = phi(m0 (x) (Sinv(m-1).a_{n+1}) a_0 (x) a_1..a_n)
    and (t phi)(m (x) a~) = phi(m0 (x) Sinv(m-1).a_n (x) a_0..a_{n-1})."""
    mdim = sayd.space.dim
    sinv = ma.hopf.antipode_inv.columns()

    def image(kind, n, i, m, v):
        if kind != "tau" and i <= n:
            return inner_image(ma.alg, kind, n, i, m, v)
        out = {}
        for f, x in sayd.lcoaction.value((m,)).items():
            hh, mj = divmod(f, mdim)
            for u, y in sinv[hh].items():
                for b, z in ma.action.value((u, v[-1])).items():
                    if kind == "tau":
                        vec_acc(out, (mj, (b,) + v[:-1]), x * y * z)
                        continue
                    for k, w in ma.alg.mul.value((b, v[0])).items():
                        vec_acc(out, (mj, (k,) + v[1:-1]), x * y * z * w)
        return out
    return image


def comodule_image(ba, sayd):
    """(d_{n+1} psi)(v~) = psi(v_{n+1}(0) v_0, v_1..v_n).v_{n+1}(-1) and
    (t psi)(v~) = psi(v_n(0), v_0..v_{n-1}).v_n(-1), read at the M index m."""
    mdim, bdim = sayd.space.dim, ba.space.dim

    def image(kind, n, i, m, v):
        if kind != "tau" and i <= n:
            return inner_image(ba.alg, kind, n, i, m, v)
        out = {}
        for f, x in ba.coaction.value((v[-1],)).items():
            hh, b0 = divmod(f, bdim)
            for mj in range(mdim):
                y = sayd.raction.value((mj, hh)).get(m, 0)
                if not y:
                    continue
                if kind == "tau":
                    vec_acc(out, (mj, (b0,) + v[:-1]), x * y)
                    continue
                for k, z in ba.alg.mul.value((b0, v[0])).items():
                    vec_acc(out, (mj, (k,) + v[1:-1]), x * y * z)
        return out
    return image


FUNCTIONAL_CASES = [("h4.hcy", "alg_taft"), ("h4.hcy", "comod_taft"), ("kz2.hcy", "alg_triv"),
                    ("kz2.hcy", "comod_triv"), ("kz3.hcy", "alg_triv"), ("kz3.hcy", "comod_triv")]


def functional_case(fixture, name, N, coefficients=None):
    spec = parse_spec(fixture_file_texts()[fixture])
    kind, (space, coeffs) = spec.complexes[name]
    sayd = coefficients(spec.hopfs["H"]) if coefficients else spec.coefficients[coeffs]
    if kind == "algebra":
        ma = spec.module_algebras[space]
        return build_algebra_complex(ma, sayd, N), algebra_image(ma, sayd)
    ba = spec.comodule_algebras[space]
    return build_comodule_algebra_complex(ba, sayd, N), comodule_image(ba, sayd)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("fixture,name", FUNCTIONAL_CASES)
def test_functional_complexes_are_the_per_tuple_builders(fixture, name, N):
    data, image = functional_case(fixture, name, N)
    assert (complex_to_text(data.complex)
            == complex_to_text(functional_complex_oracle(data, image, N, data.complex.name)))


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("fixture,name", [("h4.hcy", "alg_taft"), ("h4.hcy", "comod_taft"),
                                          ("kz3.hcy", "alg_triv"), ("kz3.hcy", "comod_triv")])
def test_functional_complexes_with_regular_coefficients(fixture, name, N):
    # coefficients of dimension dim H with a coaction that is not grouplike:
    # every fixture's coefficients are one-dimensional
    data, image = functional_case(fixture, name, N, regular_sayd)
    assert data.mdim > 1 and data.dim > 1
    assert (complex_to_text(data.complex)
            == complex_to_text(functional_complex_oracle(data, image, N, data.complex.name)))
