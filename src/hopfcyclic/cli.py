"""Operator-facing command line.

Subcommands: validate, identities, cohomology, cup, fixtures, audit.
Reports are deterministic text (no timestamps, no paths), keyed by a content
hash of the canonically re-serialized input, so identical inputs give
byte-identical reports.  Exit codes: 0 all certificates passed, 1 a
certificate or validation failed, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile

from . import __version__
from .linalg import SparseMatrix, SpanSolver, image_rank, kernel_basis, vector_to_text
from .specfile import parse_spec, ParseError, UnresolvedName, DimensionMismatch
from .hopf import validate_hopf, validate_modular_pair, involution_flags
from .actions import (validate_module_algebra, validate_module_coalgebra,
                      validate_comodule_algebra, validate_sayd,
                      validate_coalgebra_action, validate_subhopf,
                      mpi_coefficients)
from .complexes import (build_coalgebra_complex, build_algebra_complex,
                        build_comodule_algebra_complex, build_hopf_complex,
                        check_cocyclic, complex_to_text, complex_from_text,
                        content_hash, same_complex, CertificateFailure, IllDefined,
                        ConjugationFailure)
from .cohomology import BBData, compute_cohomology, cyclic_cocycles, NotAComplex
from .cup import (CoalgebraCupContext, CrossedCupContext, RelativeCupContext,
                  aw_cup, cup_explicit_coalgebra, cup_explicit_crossed,
                  shuffle_cup_traces, cotrace_cup, char_map, validate_trace,
                  ChainMapFailure, NotACocycle, MismatchWithAW)
from .shuffles import shuffle_set, dg_expand_oracle

CACHE_DIR = ".hopfcyclic-cache"


class Failure(Exception):
    pass


class CacheReadBackMismatch(Exception):
    """A cache entry just written does not read back as the complex built."""


class Report:
    """Report lines and the failed flag; without input text, a headless
    buffer of sections to be merged into a report later."""

    def __init__(self, input_text=None):
        self.lines = [] if input_text is None else [
            "hopfcyclic %s" % __version__, "input %s" % content_hash(input_text)]
        self.failed = False

    def section(self, title):
        self.lines.append("== %s" % title)

    def add(self, *lines):
        self.lines.extend(lines)

    def fail(self, line):
        self.failed = True
        self.lines.append(line)

    def merge(self, part):
        self.lines.extend(part.lines)
        self.failed = self.failed or part.failed

    def text(self):
        return "\n".join(self.lines) + "\n"


def _load(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise Failure("cannot read %s: %s" % (path, e))


def _emit(report_text, out):
    if out:
        with open(out, "w") as f:
            f.write(report_text)
    sys.stdout.write(report_text)


# ---------------------------------------------------------------------------
# complex construction with the content-addressed cache

def _complex_key(spec_text, name, kind, args, N):
    return content_hash(spec_text + "::" + repr((name, kind, args, N, __version__)))


def build_declared_complex(spec, spec_text, name, N, no_cache=False, cache_dir=CACHE_DIR,
                           quotients=None):
    """(complex, "cached" or "built").  quotients, when given, is the run's
    QuotientSlot: a hopf build leaves its coinvariant quotient there and a
    coalgebra build of the same structure takes it instead of rebuilding."""
    kind, args = spec.complexes[name]
    key = _complex_key(spec_text, name, kind, args, N)
    path = os.path.join(cache_dir, key + ".cx")
    if not no_cache:
        cx = _read_cache_entry(path, key)
        if cx is not None:
            return cx, "cached"
    sayd = spec.coefficients[args[-1]]
    if kind == "hopf":
        mp = spec.modular_pair(args[-1])
        hd = build_hopf_complex(mp, N)
        cx = hd.power
        if quotients is not None:
            quotients.keep(mp, hd.quot.complex)
        del hd      # the quotient spaces and the isomorphism are not needed
    elif kind == "coalgebra":
        mc = spec.module_coalgebras[args[0]]
        cx = quotients.take(mc, sayd, N) if quotients is not None else None
        if cx is None:
            cx = build_coalgebra_complex(mc, sayd, N).complex
    elif kind == "algebra":
        cx = build_algebra_complex(spec.module_algebras[args[0]], sayd, N).complex
    else:
        cx = build_comodule_algebra_complex(spec.comodule_algebras[args[0]], sayd, N).complex
    if not no_cache:
        # a complete entry or none: write aside, then rename over the entry
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(complex_to_text(cx, key))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return cx, "built"


def _read_cache_entry(path, key):
    """The complex cached at path, or None when the entry is missing,
    unreadable, cut short, edited or stored under another key: such an
    entry is a miss and gets rebuilt."""
    try:
        with open(path) as f:
            cx = complex_from_text(f.read())
    except (OSError, ValueError):
        return None
    return cx if cx.content_hash == key else None


def _tables(t):
    """A StructureTensor's shape and structure constants."""
    return tuple(s.dim for s in t.domains), t.codomain.dim, t.entries


def _same_hopf(a, b):
    return (_tables(a.alg.mul) == _tables(b.alg.mul) and a.alg.unit == b.alg.unit
            and _tables(a.coalg.comul) == _tables(b.coalg.comul)
            and a.coalg.counit == b.coalg.counit and a.antipode == b.antipode)


class QuotientSlot:
    """At most one coinvariant-quotient complex of H over itself, left by a
    hopf(H, M) build for a later coalgebra(H, M) of the same run.  A take
    releases it and a later keep replaces it."""

    def __init__(self):
        self.mp = self.complex = None

    def keep(self, mp, complex):
        self.mp, self.complex = mp, complex

    def take(self, mc, sayd, N):
        """The held complex when coalgebra(mc, sayd) at degree N is it, by
        structure tables: H acting on itself by left multiplication over
        its own coalgebra, with the coefficients mpi(mp); else None."""
        mp, cx = self.mp, self.complex
        if cx is None or cx.N != N:
            return None
        h = mp.hopf
        coeff = mpi_coefficients(mp)
        if not (_same_hopf(mc.hopf, h)
                and _tables(mc.coalg.comul) == _tables(h.coalg.comul)
                and mc.coalg.counit == h.coalg.counit
                and _tables(mc.action) == _tables(h.alg.mul)
                and _tables(sayd.raction) == _tables(coeff.raction)
                and _tables(sayd.lcoaction) == _tables(coeff.lcoaction)):
            return None
        self.mp = self.complex = None
        return cx


def _get_declared_complex(spec, spec_text, name, flags, quotients):
    """The declared complex, got once: read from the cache, or built.  A
    complex built in cached mode is read back from the entry just written
    and must equal it; the parsed complex is the one returned."""
    args = (spec, spec_text, name, flags.max_degree)
    cx, how = build_declared_complex(*args, no_cache=flags.no_cache, quotients=quotients)
    if how == "built" and not flags.no_cache:
        parsed, how = build_declared_complex(*args, quotients=quotients)
        if how != "cached" or not same_complex(cx, parsed):
            raise CacheReadBackMismatch(
                "the cache entry written for %s does not read back as the built complex" % name)
        cx = parsed
    return cx


# ---------------------------------------------------------------------------
# subcommands

# declaration category -> (validator, SpecFile attribute holding the objects)
_VALIDATORS = {
    "hopf": (validate_hopf, "hopfs"),
    "sayd": (validate_sayd, "sayds"),
    "module_algebra": (validate_module_algebra, "module_algebras"),
    "module_coalgebra": (validate_module_coalgebra, "module_coalgebras"),
    "comodule_algebra": (validate_comodule_algebra, "comodule_algebras"),
    "action": (validate_coalgebra_action, "actions"),
    "subhopf": (validate_subhopf, "subhopfs"),
}


def cmd_validate(spec, spec_text, rep, flags, witnesses=True):
    """Validate every declaration.  A trace that is not invariant under a
    coefficient pair is reported with its count of violations and, when
    witnesses is set, the first of them."""
    for cat, name in spec.order:
        if cat in _VALIDATORS:
            validator, pool = _VALIDATORS[cat]
            r = validator(getattr(spec, pool)[name])
            rep.section("validate %s %s" % (cat, name))
            rep.add(*r.lines())
            if not r.ok:
                rep.failed = True
        elif cat == "coefficients":
            mp = spec.modular_pair(name)
            r1 = validate_modular_pair(mp)
            r2 = validate_sayd(spec.coefficients[name])
            rep.section("validate coefficients %s" % name)
            rep.add(*r1.lines())
            rep.add("sayd: " + ("ok" if r2.ok else "; ".join(r2.lines())))
            lit, sq = involution_flags(mp)
            rep.add("involution identity literal=%s squared=%s (reported, not enforced)" % (lit, sq))
            if not (r1.ok and r2.ok):
                rep.failed = True
        elif cat == "trace":
            # a trace targets one coefficient pair; report per-pair invariance
            # and fail only when no declared pair accepts it
            sname, tr = spec.traces[name]
            rep.section("validate trace %s" % name)
            if sname in spec.module_algebras:
                ma = spec.module_algebras[sname]
                outcomes = []
                for cname in sorted(spec.coefficients):
                    if cname in spec._pairs and spec._pairs[cname].hopf is ma.hopf:
                        bad = validate_trace(spec._pairs[cname], ma, tr)
                        outcomes.append(not bad)
                        status = "not invariant (%d instances)" % len(bad) if bad else "invariant"
                        if bad and witnesses:
                            status += ", first %s" % bad[0]
                        rep.add("against %s: %s" % (cname, status))
                if outcomes and not any(outcomes):
                    rep.fail("trace is invariant for no declared coefficient pair")
                if not outcomes:
                    rep.add("no coefficient pair on the same symmetry; skipped")
            else:
                rep.add("no module algebra on %s; skipped" % sname)


def cmd_identities(spec, spec_text, rep, flags):
    _complex_sections(spec, spec_text, rep, flags, identities=True, cohomology=False)


def cmd_cohomology(spec, spec_text, rep, flags):
    _complex_sections(spec, spec_text, rep, flags, identities=False, cohomology=True)


def _complex_sections(spec, spec_text, rep, flags, identities, cohomology):
    """The identities sections, then the cohomology sections, of every
    declared complex, in one pass: each complex is got once, certified once
    and dropped before the next.  The sections are buffered so that each
    kind keeps its place in the report; a kind not asked for is not
    computed beyond the shared certificates, and its buffer is dropped."""
    ident, cohom = Report(), Report()
    quotients = QuotientSlot()
    for name in spec.complexes:
        ident.section("identities %s" % name)
        cohom.section("cohomology %s" % name)
        try:
            cx = _get_declared_complex(spec, spec_text, name, flags, quotients)
        except (IllDefined, ConjugationFailure, ValueError, CacheReadBackMismatch) as e:
            ident.fail("build failed: %s" % e)
            cohom.fail("failed: %s" % e)
            continue
        ident.add("dims %s" % " ".join(str(d) for d in cx.dims()))
        if identities:
            bad = check_cocyclic(cx)
            for v in bad:
                ident.fail("violated %s at degree %d indices %s" % (v.family, v.degree, v.indices))
            if not bad:
                ident.add("cocyclic identities: ok")
        try:
            bb = BBData(cx)
        except NotAComplex as e:
            ident.fail("coboundary certificates FAILED: %s" % e)
            cohom.fail("failed: %s" % e)
            continue
        ident.add("coboundary certificates: ok (boundary reading: %s)" % bb.variant)
        if cohomology:
            cohom.add(*compute_cohomology(cx, bb).lines())
        del cx, bb      # dropped before the next complex is got
    if identities:
        rep.merge(ident)
    if cohomology:
        rep.merge(cohom)


def _contexts_for(spec, kind, N):
    """(name, context, None) for each declared context of this kind, built
    one at a time; (name, None, error) for one whose components fail
    validation or whose complexes cannot be built."""
    for name, (k, args) in spec.contexts.items():
        if k != kind:
            continue
        sayd = spec.coefficients[args[-1]]
        try:
            if k == "coalgebra":
                ctx = CoalgebraCupContext(spec.actions[args[0]], sayd, N=N)
            elif k == "crossed":
                ctx = CrossedCupContext(spec.module_algebras[args[0]],
                                        spec.comodule_algebras[args[1]], sayd, N=N)
            else:
                ctx = RelativeCupContext(spec.module_algebras[args[0]],
                                         spec.subhopfs[args[1]], sayd, N=N)
        except ValueError as e:
            yield name, None, e
            continue
        yield name, ctx, None


def _report_cup_result(rep, label, res, extra=""):
    cls = "b-closed=%s cyclic=%s" % (res.b_closed, res.cyclic)
    rep.add("%s: %s%s" % (label, cls, extra))
    rep.add("  cochain: %s" % vector_to_text(res.vector))
    if not res.b_closed:
        rep.failed = True


def _coboundaries(bs, n):
    """A solver over the coboundaries of degree n of the complex whose
    hochschild_b family is bs, None at n = 0."""
    if n == 0:
        return None
    sol = SpanSolver()
    for col in bs[n - 1].columns():
        sol.add(col)
    return sol


def _class_info(coboundaries, vec):
    if coboundaries is None:
        return "b-nontrivial" if vec else "zero"
    return "b-coboundary" if coboundaries.reduce(vec) == {} else "b-nontrivial"


def cmd_cup(spec, spec_text, rep, flags):
    p, q = flags.p, flags.q
    N = max(p + q, 2)
    if flags.kind in ("coalgebra", "crossed", "relative"):
        pairs_kinds = [flags.kind]
    else:
        pairs_kinds = ["crossed", "coalgebra"]   # trace-formula kinds
    any_ctx = False
    for kind in pairs_kinds:
        for name, ctx, error in _contexts_for(spec, kind, N):
            any_ctx = True
            rep.section("cup %s kind=%s p=%d q=%d" % (name, flags.kind, p, q))
            if error is not None:
                rep.fail("context build failed: %s" % error)
                continue
            try:
                phis = cyclic_cocycles(ctx.phi_complex().complex, p, ctx.phi_b)
                xs = cyclic_cocycles(ctx.x_complex(), q, ctx.x_b)
            except NotAComplex as e:
                rep.fail("cocycle search failed: %s" % e)
                continue
            if not phis or not xs:
                rep.add("no cyclic cocycle pair at (p,q)=(%d,%d); counts %d,%d"
                        % (p, q, len(phis), len(xs)))
                continue
            coboundaries = _coboundaries(ctx.target_b, p + q)
            for i, phi in enumerate(phis):
                for j, x in enumerate(xs):
                    try:
                        if flags.kind == "traces":
                            if kind == "crossed":
                                res = shuffle_cup_traces(ctx, phi, p, x, q)
                            else:
                                res = cotrace_cup(ctx, x, q, phi, p)
                            _report_cup_result(rep, "pair (%d,%d) shuffle" % (i, j), res,
                                               " class=" + _class_info(coboundaries, res.vector))
                        else:
                            res = aw_cup(ctx, phi, p, x, q)
                            extra = " class=" + _class_info(coboundaries, res.vector)
                            if kind == "coalgebra":
                                try:
                                    cup_explicit_coalgebra(ctx, phi, p, x, q)
                                    extra += " explicit-match=True"
                                except MismatchWithAW:
                                    extra += " explicit-match=False"
                                    rep.failed = True
                            elif kind == "crossed":
                                _, _, match = cup_explicit_crossed(ctx, phi, p, x, q)
                                extra += " closed-formula-match=%s" % match
                            _report_cup_result(rep, "pair (%d,%d)" % (i, j), res, extra)
                    except (NotACocycle, ChainMapFailure) as e:
                        rep.fail("pair (%d,%d) failed: %s" % (i, j, e))
    if not any_ctx:
        rep.section("cup")
        rep.add("no matching context declared")


def cmd_fixtures(rep, flags):
    from .fixtures import fixture_file_texts
    outdir = flags.out or "fixtures"
    os.makedirs(outdir, exist_ok=True)
    rep.section("fixtures")
    for name, text in sorted(fixture_file_texts().items()):
        path = os.path.join(outdir, name)
        with open(path, "w") as f:
            f.write(text)
        rep.add("wrote %s (%d bytes)" % (name, len(text)))
    return rep


def cmd_audit(spec, spec_text, rep, flags):
    # the audit report is pinned byte for byte by perfbench/references.json,
    # which predates the trace witness
    cmd_validate(spec, spec_text, rep, flags, witnesses=False)
    _complex_sections(spec, spec_text, rep, flags, identities=True, cohomology=True)
    # context certificates and a small cup sweep
    for kind in ("coalgebra", "crossed", "relative"):
        for name, ctx, error in _contexts_for(spec, kind, 2):
            rep.section("audit context %s (%s)" % (name, kind))
            if error is not None:
                rep.fail("context build failed: %s" % error)
                continue
            try:
                ctx.pairing()
                rep.add("chain-map certificate: ok")
            except ChainMapFailure as e:
                rep.fail("chain-map certificate FAILED: %s" % e)
                continue
            bad = check_cocyclic(ctx.diag)
            if bad:
                for v in bad:
                    rep.fail("diagonal violated %s at degree %d %s" % (v.family, v.degree, v.indices))
            else:
                rep.add("diagonal cocyclic identities: ok")
            acx, xcx = ctx.phi_complex().complex, ctx.x_complex()
            phis = [cyclic_cocycles(acx, p, ctx.phi_b) for p in range(3)]
            xs = [cyclic_cocycles(xcx, q, ctx.x_b) for q in range(3)]
            for p in range(3):
                for q in range(3 - p):
                    for i, phi in enumerate(phis[p]):
                        for j, x in enumerate(xs[q]):
                            res = aw_cup(ctx, phi, p, x, q)
                            status = "ok" if res.b_closed else "NOT CLOSED"
                            if not res.b_closed:
                                rep.failed = True
                            rep.add("cup p=%d q=%d pair(%d,%d): %s cyclic=%s"
                                    % (p, q, i, j, status, res.cyclic))
    # characteristic-map certificates for declared invariant traces
    for tname, (sname, tr) in sorted(spec.traces.items()):
        if sname not in spec.module_algebras:
            continue
        ma = spec.module_algebras[sname]
        for cname in sorted(spec.coefficients):
            if cname in spec._pairs and spec._pairs[cname].hopf is ma.hopf:
                mp = spec._pairs[cname]
                if validate_trace(mp, ma, tr):
                    continue
                rep.section("audit characteristic map %s against %s" % (tname, cname))
                try:
                    char_map(mp, ma, tr, N=2)
                    rep.add("cocyclic-map certificate: ok")
                except ChainMapFailure as e:
                    rep.fail("cocyclic-map certificate FAILED: %s" % e)
                except ValueError as e:
                    rep.fail("build failed: %s" % e)
    rep.section("audit shuffle sets")
    for total in range(7):
        counts = [len(shuffle_set(qq, total - qq)) for qq in range(total + 1)]
        rep.add("|Sh(q,%d-q)| = %s" % (total, counts))
    rep.section("audit expansion oracle")
    for pp in range(4):
        for qq in range(4 - pp):
            ok, diff = dg_expand_oracle(pp, qq)
            if ok:
                rep.add("(p,q)=(%d,%d): match" % (pp, qq))
            else:
                rep.fail("(p,q)=(%d,%d): MISMATCH %r" % (pp, qq, diff))
    rep.section("audit exact kernel self-check seed=%d" % flags.seed)
    rng = random.Random(flags.seed)
    for t in range(5):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        ent = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.5:
                    v = rng.randint(-4, 4)
                    if v:
                        ent[(i, j)] = v
        m = SparseMatrix(rows, cols, ent)
        ok = image_rank(m) + len(kernel_basis(m)) == cols
        rep.add("trial %d: rank+nullity == cols: %s" % (t, ok))
        if not ok:
            rep.failed = True


def main(argv=None):
    parser = argparse.ArgumentParser(prog="hopfcyclic",
                                     description="exact Hopf-cyclic cohomology engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="structure-constant input file")
        p.add_argument("--max-degree", type=int, default=5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-cache", action="store_true")
        p.add_argument("--out", default=None)

    common(sub.add_parser("validate", help="run every axiom validator"))
    common(sub.add_parser("identities", help="cocyclic identities and coboundary certificates"))
    common(sub.add_parser("cohomology", help="dimension tables"))
    pc = sub.add_parser("cup", help="cup products on declared contexts")
    common(pc)
    pc.add_argument("--kind", choices=["coalgebra", "crossed", "relative", "traces"],
                    required=True)
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--q", type=int, required=True)
    common(sub.add_parser("fixtures", help="write the shipped fixture files"), needs_file=False)
    common(sub.add_parser("audit", help="every certificate in one run"))

    flags = parser.parse_args(argv)

    if flags.command == "fixtures":
        rep = Report("fixtures")
        cmd_fixtures(rep, flags)
        _emit(rep.text(), None)
        return 0

    try:
        spec_text_raw = _load(flags.file)
        spec = parse_spec(spec_text_raw)
    except (ParseError, UnresolvedName, DimensionMismatch, Failure) as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2

    rep = run(spec, flags.command, flags)
    _emit(rep.text(), flags.out)
    return 1 if rep.failed else 0


def run(spec, command, flags):
    """Dispatch one subcommand over a parsed input; returns the Report."""
    spec_text = spec.to_text()
    rep = Report(spec_text)
    handlers = {"validate": cmd_validate, "identities": cmd_identities,
                "cohomology": cmd_cohomology, "cup": cmd_cup, "audit": cmd_audit}
    try:
        handlers[command](spec, spec_text, rep, flags)
    except CertificateFailure as e:
        rep.fail("fatal certificate failure: %s" % e)
    return rep


if __name__ == "__main__":
    sys.exit(main())
