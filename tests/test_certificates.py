"""The streamed certificates: residuals against the product matrices it
never builds, check_cocyclic against the compose-based check it
replaced, the witness every certificate failure carries, and what the job
process does not load or rebuild."""

import functools
import gc
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hopfcyclic
import hopfcyclic.cohomology as cohomology
from hopfcyclic.linalg import (SparseMatrix, compose, first_residual, residuals, vec_axpy,
                               vec_sub)
from hopfcyclic.complexes import (CocyclicComplex, build_coalgebra_complex, build_hopf_complex,
                                  check_cocyclic, ConjugationFailure)
from hopfcyclic.cohomology import hochschild_b, cyclic_cocycles, lam, NotAComplex
from hopfcyclic.cup import (CoalgebraCupContext, RelativeCupContext, ChainMapFailure, aw_cup,
                            certify_chain_map)
from hopfcyclic.actions import trivial_sayd
from hopfcyclic.fixtures import (trivial_hopf, group_algebra, self_module_coalgebra,
                                 swap_module_algebra, module_action_as_coalgebra_action,
                                 mpi_kz2_sigma_g, fixture_file_texts)
from hopfcyclic.spaces import StructureTensor
from hopfcyclic.specfile import parse_spec
from hopfcyclic.cli import build_declared_complex, _contexts_for


def nonzero_columns(m):
    """(column, sparse column) of every nonzero column of m, in column order."""
    cols = {}
    for (r, c), x in sorted(m.entries.items()):
        cols.setdefault(c, {})[r] = x
    return sorted(cols.items())


def first_nonzero_column(m):
    """(column, sparse column) of the first nonzero column of m, or None."""
    return next(iter(nonzero_columns(m)), None)


def apply_chain(vec, *ops):
    """ops[-1] applied first."""
    for op in reversed(ops):
        vec = op.apply(vec)
    return vec


# -- the kernel ------------------------------------------------------------------------

SCALARS = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3)])


@st.composite
def identity_terms(draw):
    """(terms, rows, cols): terms (sign, A, B) of a signed sum of products
    A @ B of random small rational matrices with rows x cols values; None is
    the identity, and some terms repeat an earlier one negated or regrouped
    so that the sum cancels."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def matrix(r, c):
        cells = draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, c - 1), SCALARS),
                              max_size=r * c))
        return SparseMatrix(r, c, {(i, j): x for i, j, x in cells})

    terms = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["AB", "A", "B", "I"] if rows == cols else ["AB", "A", "B"]))
        inner = draw(st.integers(1, 4))
        if shape == "AB":
            term = (matrix(rows, inner), matrix(inner, cols))
        elif shape == "A":
            term = (matrix(rows, cols), None)
        elif shape == "B":
            term = (None, matrix(rows, cols))
        else:
            term = (None, None)
        sign = draw(st.sampled_from([1, -1]))
        terms.append((sign,) + term)
        # forced cancellation: the same product again, negated, possibly
        # regrouped as one factor times the identity
        how = draw(st.sampled_from(["none", "negate", "regroup"]))
        if how == "negate":
            terms.append((-sign,) + term)
        elif how == "regroup":
            whole = product(*term, rows)
            terms.append((-sign, whole, None) if draw(st.booleans()) else (-sign, None, whole))
    return terms, rows, cols


def product(a, b, rows):
    """a @ b, None being the identity."""
    a = SparseMatrix.identity(rows) if a is None else a
    b = SparseMatrix.identity(a.cols) if b is None else b
    return compose(a, b)


def plans(terms):
    """The terms of matrices as the terms of their plans, which residuals
    reads."""
    return [(s, None if a is None else a.plan, None if b is None else b.plan)
            for s, a, b in terms]


def signed_sum(terms, rows, cols):
    """The materialized sum(sign * A @ B)."""
    total = SparseMatrix.zeros(rows, cols)
    for sign, a, b in terms:
        total = total + product(a, b, rows).scale(sign)
    return total


@settings(max_examples=200, deadline=None)
@given(identity_terms())
def test_first_residual_is_the_first_nonzero_column_of_the_sum(case):
    terms, rows, cols = case
    assert first_residual(plans(terms), cols) == first_nonzero_column(signed_sum(terms, rows, cols))


@settings(max_examples=200, deadline=None)
@given(identity_terms())
def test_residuals_are_every_nonzero_column_of_the_sum(case):
    terms, rows, cols = case
    assert list(residuals(plans(terms), cols)) == nonzero_columns(signed_sum(terms, rows, cols))


def test_first_residual_keeps_integral_fractions_as_int():
    half = SparseMatrix(1, 1, {(0, 0): Fraction(1, 2)}).plan
    two = SparseMatrix(1, 1, {(0, 0): 4}).plan
    c, residual = first_residual([(1, half, two)], 1)
    assert (c, residual) == (0, {0: 2}) and type(residual[0]) is int


# -- the product complex: Kronecker products of its two factors' maps ---------------------

def test_product_tau_powers_are_the_powers_of_its_tau():
    # every degree of the product of every fixture context at N=3
    kinds = set()
    for fixture, text in sorted(fixture_file_texts().items()):
        spec = parse_spec(text)
        for kind in ("coalgebra", "crossed", "relative"):
            for name, ctx, error in _contexts_for(spec, kind, 3):
                assert error is None, (fixture, name)
                kinds.add(kind)
                d = ctx.diag
                for n in range(d.top + 1):
                    power = t = d.tau(n)
                    for k in range(1, 4):
                        assert d.tau_power(n, k) == power, (fixture, name, n, k)
                        power = compose(t, power)
                assert set(vars(d)) == {"c1", "c2", "N", "top", "name"}
    assert kinds == {"coalgebra", "crossed", "relative"}


def test_relative_context_holds_no_product_operator():
    # with its product materialized, this context held 4.1 MB
    spec = parse_spec(fixture_file_texts()["kz4_relative.hcy"])
    (args,) = [args for kind, args in spec.contexts.values() if kind == "relative"]
    parts = (spec.module_algebras[args[0]], spec.subhopfs[args[1]], spec.coefficients[args[-1]])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ctx = RelativeCupContext(*parts, N=3)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert set(vars(ctx.diag)) == {"c1", "c2", "N", "top", "name"}
    assert held <= 1.0e6


# -- check_cocyclic against the compose-based check it replaced -------------------------

def compose_check_cocyclic(cx):
    """The check as it was: both sides of every identity built with compose
    and compared.  Each violation is (family, degree, indices, first
    nonzero column of lhs - rhs)."""
    bad = []
    N, top = cx.N, cx.top

    def compare(family, n, indices, lhs, rhs):
        diff = lhs - rhs
        if any(diff.plan):
            bad.append((family, n, tuple(indices), first_nonzero_column(diff)))

    for n in range(N):
        for i in range(n + 2):
            for j in range(i + 1, n + 3):
                compare("face-face", n, (i, j), compose(cx.face(n + 1, j), cx.face(n, i)),
                        compose(cx.face(n + 1, i), cx.face(n, j - 1)))
    for n in range(2, top + 1):
        for i in range(n - 1):
            for j in range(i, n - 1):
                compare("degen-degen", n, (i, j), compose(cx.degen(n - 1, j), cx.degen(n, i)),
                        compose(cx.degen(n - 1, i), cx.degen(n, j + 1)))
    for n in range(N + 1):
        for i in range(n + 2):
            for j in range(n + 1):
                lhs = compose(cx.degen(n + 1, j), cx.face(n, i))
                if i < j:
                    if n == 0:
                        continue
                    rhs = compose(cx.face(n - 1, i), cx.degen(n, j - 1))
                elif i in (j, j + 1):
                    rhs = SparseMatrix.identity(cx.dim(n))
                else:
                    if n == 0:
                        continue
                    rhs = compose(cx.face(n - 1, i - 1), cx.degen(n, j))
                compare("degen-face", n, (i, j), lhs, rhs)
    for n in range(1, top + 1):
        for i in range(1, n + 1):
            compare("cyclic-face", n, (i,), compose(cx.tau(n), cx.face(n - 1, i)),
                    compose(cx.face(n - 1, i - 1), cx.tau(n - 1)))
        compare("cyclic-face", n, (0,), compose(cx.tau(n), cx.face(n - 1, 0)), cx.face(n - 1, n))
    for n in range(N + 1):
        for i in range(1, n + 1):
            compare("cyclic-degen", n, (i,), compose(cx.tau(n), cx.degen(n + 1, i)),
                    compose(cx.degen(n + 1, i - 1), cx.tau(n + 1)))
        t2 = compose(cx.tau(n + 1), cx.tau(n + 1))
        compare("cyclic-degen", n, (0,), compose(cx.tau(n), cx.degen(n + 1, 0)),
                compose(cx.degen(n + 1, n), t2))
    for n in range(top + 1):
        t = cx.tau(n)
        power = t
        for _ in range(n):
            power = compose(t, power)
        compare("cyclic-order", n, (), power, SparseMatrix.identity(cx.dim(n)))
    return bad


def streamed(cx):
    return [(v.family, v.degree, v.indices, (v.column, v.residual)) for v in check_cocyclic(cx)]


@functools.lru_cache(maxsize=None)
def declared_complexes(fixture, N=3):
    spec = parse_spec(fixture_file_texts()[fixture])
    return [(name, build_declared_complex(spec, spec.to_text(), name, N, no_cache=True)[0])
            for name in spec.complexes]


def flipped(cx, key):
    """cx with the middle stored entry of the map key negated (a zero map
    gains the entry 1 at (0, 0))."""
    m = cx.op(*key)
    ent = dict(m.entries)
    if ent:
        at = sorted(ent)[len(ent) // 2]
        ent[at] = -ent[at]
    else:
        ent[0, 0] = 1
    broken = SparseMatrix(m.rows, m.cols, ent)
    return CocyclicComplex.assemble(cx.N, cx.dims(),
                                    lambda *k: broken if k == key else cx.op(*k))


@pytest.mark.parametrize("fixture", sorted(fixture_file_texts()))
def test_streamed_check_agrees_with_the_compose_check_on_flipped_maps(fixture):
    for name, cx in declared_complexes(fixture):
        assert streamed(cx) == compose_check_cocyclic(cx) == [], (fixture, name)
        for key in (("face", 1, 1), ("degen", 2, 1), ("tau", 2, 0)):
            broken = flipped(cx, key)
            expected = compose_check_cocyclic(broken)
            assert expected, (fixture, name, key)
            assert streamed(broken) == expected, (fixture, name, key)


# -- witnesses -----------------------------------------------------------------------------

def point_complex(N):
    h = trivial_hopf()
    return build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), N).complex


def certify(cx):
    """connes_B and then check_cocyclic on cx, both passing, which leaves
    its table of tau powers filled (connes_B empties it)."""
    cohomology.connes_B(cx)
    assert check_cocyclic(cx) == []
    assert cx._tau_powers


def test_cocyclic_violation_witness_is_the_residual_of_its_column():
    # certified first, the check must read the powers of the new tau, not
    # those kept from the one it replaced; (-tau)^2 = tau^2, so only the
    # doubled tau tells them apart
    h = group_algebra(2)
    for factor in (-1, 2):
        for certified_first in (False, True):
            cx = build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 2).complex
            if certified_first:
                certify(cx)
            cx.maps["tau", 2, 0] = cx.tau(2).scale(factor)
            v = next(v for v in check_cocyclic(cx) if v.family == "cyclic-order")
            assert v.degree == 2
            t = cx.tau(2)
            residuals = [vec_sub(apply_chain({c: 1}, t, t, t), {c: 1}) for c in range(cx.dim(2))]
            assert v.column == next(c for c, r in enumerate(residuals) if r)
            assert v.residual == residuals[v.column], (factor, certified_first)


def test_not_a_complex_witness_is_the_residual_of_its_column():
    cx = point_complex(3)
    cx.maps["face", 0, 0] = cx.face(0, 0).scale(2)
    with pytest.raises(NotAComplex) as e:
        hochschild_b(cx)
    err = e.value
    assert str(err) == "b.b != 0 at degree 0" and err.degree == 0
    b = [sum((cx.face(n, i).scale((-1) ** i) for i in range(n + 2)),
             SparseMatrix.zeros(cx.dim(n + 1), cx.dim(n))) for n in range(2)]
    assert err.column == 0 and err.residual == apply_chain({0: 1}, b[1], b[0]) == {0: 1}


@pytest.mark.parametrize("degree,message", [(2, "bB + Bb != 0 at degree 2"),
                                            (3, "B.B != 0 at degree 4")])
def test_not_a_complex_witness_of_the_boundary(degree, message):
    # a doubled tau keeps every face, hence b, but breaks the B certificates;
    # certified first, B must read the powers of the new tau
    h = group_algebra(2)
    for certified_first in (False, True):
        cx = build_coalgebra_complex(self_module_coalgebra(h), trivial_sayd(h), 3).complex
        if certified_first:
            certify(cx)
        cx.maps["tau", degree, 0] = cx.tau(degree).scale(2)
        bs = hochschild_b(cx)
        with pytest.raises(NotAComplex) as e:
            cx.B
        err = e.value
        assert str(err) == message

        def B(n, v):
            # norm_{n-1} . s_{n-1} . tau_n . (1 - lam_n), on one vector, with
            # the norm sum_{k < n} lam_{n-1}^k applied power by power
            v = apply_chain(vec_sub(v, lam(cx, n).apply(v)), cx.degen(n, n - 1), cx.tau(n))
            total = v
            for _ in range(n - 1):
                v = lam(cx, n - 1).apply(v)
                total = vec_axpy(dict(total), 1, v)
            return total

        n = err.degree
        if message.startswith("B.B"):
            residual = lambda c: B(n - 1, B(n, {c: 1}))
        else:
            residual = lambda c: vec_axpy(dict(bs[n - 1].apply(B(n, {c: 1}))), 1,
                                          B(n + 1, bs[n].apply({c: 1})))
        residuals = [residual(c) for c in range(cx.dim(n))]
        assert err.column == next(c for c, r in enumerate(residuals) if r)
        assert err.residual == residuals[err.column], certified_first


def kz2_ctx():
    h = group_algebra(2)
    ca = module_action_as_coalgebra_action(self_module_coalgebra(h), swap_module_algebra())
    return CoalgebraCupContext(ca, trivial_sayd(h), N=2)


def test_chain_map_failure_witness_is_the_residual_of_its_column():
    ctx = kz2_ctx()
    mats = ctx.psi_c_matrices()
    tgt = ctx.conv_cx
    key = ("face", 1, 2)
    broken = flipped(tgt, key)
    with pytest.raises(ChainMapFailure) as e:
        certify_chain_map(ctx.diag, broken, mats, "convolution pairing")
    err = e.value
    assert str(err) == "convolution pairing: face 2 at degree 1" and err.degree == 1
    assert err.column > 0       # the flipped entry is not met by the first column
    residuals = [vec_sub(apply_chain({c: 1}, mats[2], ctx.diag.op(*key)),
                            apply_chain({c: 1}, broken.op(*key), mats[1]))
                 for c in range(ctx.diag.dim(1))]
    assert err.column == next(c for c, r in enumerate(residuals) if r)
    assert err.residual == residuals[err.column]


def test_chain_map_failure_on_the_product_view_is_that_of_the_built_product():
    # a pairing with one entry of degree 2 negated, certified on the product
    # view and on the same product with every operator built
    ctx = kz2_ctx()
    mats = list(ctx.psi_c_matrices())
    ent = dict(mats[2].entries)
    at = sorted(ent)[len(ent) // 2]
    ent[at] = -ent[at]
    mats[2] = SparseMatrix(mats[2].rows, mats[2].cols, ent)
    view = ctx.diag
    built = CocyclicComplex.assemble(view.N, view.dims(), view.op)
    failures = []
    for src in (view, built):
        with pytest.raises(ChainMapFailure) as e:
            certify_chain_map(src, ctx.conv_cx, mats, "convolution pairing")
        failures.append((str(e.value), e.value.degree, e.value.column, e.value.residual))
    assert failures[0] == failures[1]
    assert failures[0][2] is not None and failures[0][3]


def test_the_product_view_has_the_checks_and_boundaries_of_the_built_product():
    # the view reads its tau powers from its factors' tables and keeps none
    ctx = kz2_ctx()
    view = ctx.diag
    built = CocyclicComplex.assemble(view.N, view.dims(), view.op)
    assert check_cocyclic(view) == check_cocyclic(built) == []
    assert view.B == built.B
    assert set(vars(view)) == {"c1", "c2", "N", "top", "name", "b", "B", "boundary_reading"}


def tampered(tensor, key, value):
    """tensor with the entry at key replaced by value."""
    return StructureTensor(tensor.domains, tensor.codomain, {**tensor.entries, key: value})


@pytest.mark.parametrize("broken", ["unit", "product"])
def test_natural_map_failure_witness_is_the_residual_of_its_column(broken):
    # the convolution algebra's unit or product is tampered with after the
    # context validated: the natural embedding of the algebra is then not
    # unital, or not multiplicative at its first failing pair (i, j)
    ctx = kz2_ctx()
    nat = ctx.natural_map()
    alg, conv = ctx.ca.ma.alg, ctx.conv.algebra
    ctx._nat = None
    adim = alg.space.dim
    if broken == "unit":
        conv.unit = vec_axpy(dict(conv.unit), 1, {0: 1})
        expected = ("natural embedding is not unital", 0,
                    vec_sub(nat.apply(alg.unit), conv.unit))
    else:
        key = sorted(conv.mul.entries)[0]
        conv.mul = tampered(conv.mul, key, vec_axpy(dict(conv.mul.entries[key]), 1, {0: 1}))
        diffs = [vec_sub(nat.apply(alg.mul.apply({i: 1}, {j: 1})),
                         conv.mul.apply(nat.column(i), nat.column(j)))
                 for i in range(adim) for j in range(adim)]
        c = next(c for c, r in enumerate(diffs) if r)
        expected = ("natural embedding is not multiplicative at (%d,%d)" % divmod(c, adim),
                    c, diffs[c])
    with pytest.raises(ChainMapFailure) as e:
        ctx.natural_map()
    assert (str(e.value), e.value.column, e.value.residual) == expected
    assert e.value.residual and e.value.column == {"unit": 0, "product": 3}[broken]


def test_natural_map_refuses_an_evaluation_that_is_not_equivariant():
    # the action is replaced by the counit action after the context
    # validated: c -> c.a = a then fails f(g.c) = g.f(c) against the swap
    ctx = kz2_ctx()
    C, A = ctx.ca.mc.space, ctx.ca.ma.space
    ctx.ca.action = StructureTensor((C, A), A, {(c, a): {a: 1} for c in range(C.dim)
                                                for a in range(A.dim)})
    with pytest.raises(ChainMapFailure) as e:
        ctx.natural_map()
    assert str(e.value) == "evaluation against a basis element is not equivariant"


def test_conjugation_failure_witness_is_the_residual_of_its_column(monkeypatch):
    import hopfcyclic.complexes as complexes
    hd = build_hopf_complex(mpi_kz2_sigma_g(), 2)
    key = ("tau", 2, 0)
    build_power = complexes.build_power_complex

    broken = flipped(build_power(mpi_kz2_sigma_g(), 2), key)
    monkeypatch.setattr(complexes, "build_power_complex", lambda mp, N: broken)
    with pytest.raises(ConjugationFailure) as e:
        build_hopf_complex(mpi_kz2_sigma_g(), 2)
    err = e.value
    assert str(err) == "cyclic operator at degree 2" and err.degree == 2
    assert err.column > 0       # the flipped entry is not met by the first column
    quot, iso = hd.quot.complex, hd.iso
    residuals = [vec_sub(apply_chain({c: 1}, iso[2], quot.tau(2)),
                            apply_chain({c: 1}, broken.tau(2), iso[2]))
                 for c in range(quot.dim(2))]
    assert err.column == next(c for c, r in enumerate(residuals) if r)
    assert err.residual == residuals[err.column]


# -- what the job process does not load or rebuild -------------------------------------

def test_audit_runs_without_openssl(tmp_path):
    (tmp_path / "kz2.hcy").write_text(fixture_file_texts()["kz2.hcy"])
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfcyclic.__file__)))
    script = ("import sys\n"
              "from hopfcyclic.cli import main\n"
              "code = main(['audit', 'kz2.hcy', '--max-degree', '2'])\n"
              "assert '_hashlib' not in sys.modules, 'hashlib loaded OpenSSL'\n"
              "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=src)
    p = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr


def test_cups_of_one_context_build_each_b_family_once(monkeypatch):
    ctx = kz2_ctx()
    calls = []

    def counting(cx):
        calls.append(cx)
        return hochschild_b(cx)

    monkeypatch.setattr(cohomology, "hochschild_b", counting)
    acx, xcx = ctx.diag.c1, ctx.diag.c2
    pairs = 0
    for p in range(3):
        for q in range(3 - p):
            for phi in cyclic_cocycles(acx, p):
                for x in cyclic_cocycles(xcx, q):
                    assert aw_cup(ctx, phi, p, x, q).b_closed
                    pairs += 1
    assert pairs > 1
    assert calls == [acx, xcx, ctx.target]
