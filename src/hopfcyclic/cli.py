"""Operator-facing command line.

Subcommands: validate, identities, cohomology, cup, fixtures, audit.
Reports are deterministic text (no timestamps, no paths), keyed by a content
hash of the canonically re-serialized input, so identical inputs give
byte-identical reports.  Exit codes: 0 all certificates passed, 1 a
certificate or validation failed, 2 input error.
"""

from __future__ import annotations

import argparse
import gc
import marshal
import os
import random
import sys
import tempfile

from . import __version__
from .linalg import SparseMatrix, SpanSolver, image_rank, kernel_basis, vector_to_text
from .specfile import parse_spec, InputError
from .hopf import validate_hopf, validate_modular_pair, involution_flags
from .actions import (validate_module_algebra, validate_module_coalgebra,
                      validate_comodule_algebra, validate_sayd,
                      validate_coalgebra_action, validate_subhopf,
                      mpi_coefficients)
from .complexes import (build_coalgebra_complex, build_algebra_complex,
                        build_comodule_algebra_complex, build_hopf_complex,
                        check_cocyclic, complex_to_text, complex_from_text,
                        content_hash, same_complex, CertificateFailure, IllDefined,
                        ConjugationFailure, acts_on_itself, structure_tables)
from .cohomology import compute_cohomology, cyclic_cocycles, NotAComplex
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
    """The text of the input file, read as UTF-8: a byte that is not
    UTF-8 is an InputError at its line."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise Failure("cannot read %s: %s" % (path, e))
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputError("not UTF-8: byte 0x%02x (%s)" % (data[e.start], e.reason),
                         data.count(b"\n", 0, e.start) + 1)


def _cannot_write(path, e):
    sys.stderr.write("input error: cannot write %s: %s\n" % (path, e))
    return 2


def _emit(report_text, out):
    """Print the report, then write it to out when given: exit status 0,
    or 2 when out cannot be written."""
    sys.stdout.write(report_text)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as f:
                f.write(report_text)
        except OSError as e:
            return _cannot_write(out, e)
    return 0


# ---------------------------------------------------------------------------
# complex construction with the content-addressed cache

def _complex_key(spec_text, name, kind, args, N):
    return content_hash(spec_text + "::" + repr((name, kind, args, N, __version__)))


def build_declared_complex(spec, spec_text, name, N, no_cache=False, cache_dir=CACHE_DIR,
                           quotients=None):
    """(complex, "cached", "built" or "unwritten"): unwritten when the
    cache entry cannot be written, a miss served by the complex built.
    quotients, when given, is a list that a group of _groups passes along:
    a hopf build appends its coinvariant quotient, and the coalgebra build
    after it takes that in place of building it."""
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
            quotients.append(hd.quot.complex)
        del hd      # the quotient spaces and the isomorphism are not needed
    elif kind == "coalgebra":
        if quotients:
            cx = quotients.pop()
        else:
            cx = build_coalgebra_complex(spec.module_coalgebras[args[0]], sayd, N).complex
    elif kind == "algebra":
        cx = build_algebra_complex(spec.module_algebras[args[0]], sayd, N).complex
    else:
        cx = build_comodule_algebra_complex(spec.comodule_algebras[args[0]], sayd, N).complex
    if not no_cache:
        # a complete entry or none: write aside, then rename over the entry
        try:
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    f.write(complex_to_text(cx, key))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return cx, "unwritten"
    return cx, "built"


def _read_cache_entry(path, key):
    """The complex cached at path, or None when the entry is missing,
    unreadable, cut short, edited or stored under another key: such an
    entry is a miss and gets rebuilt."""
    try:
        with open(path, encoding="utf-8") as f:
            cx = complex_from_text(f.read())
    except (OSError, ValueError):
        return None
    return cx if cx.content_hash == key else None


def _is_hopf_quotient(mp, mc, sayd):
    """Whether coalgebra(mc, sayd) is the coinvariant quotient of hopf(H, mp),
    by structure tables: H acting on itself by left multiplication over its
    own coalgebra (acts_on_itself), with the coefficients mpi(mp)."""
    coeff = mpi_coefficients(mp)
    return (acts_on_itself(mc, mp.hopf)
            and structure_tables(sayd.raction) == structure_tables(coeff.raction)
            and structure_tables(sayd.lcoaction) == structure_tables(coeff.lcoaction))


def _get_declared_complex(spec, spec_text, name, flags, quotients):
    """The declared complex, got once: read from the cache, or built.  A
    complex built in cached mode is read back from the entry just written
    and must equal it; the parsed complex is the one returned.  One whose
    entry could not be written is returned as built."""
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
                for cname, mp in spec.pairs_on(ma.hopf):
                    bad = validate_trace(mp, ma, tr)
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


def _complex_sections(spec, spec_text, rep, flags, identities, cohomology, tail=None):
    """The identities sections, then the cohomology sections, of every
    declared complex, then the sections of tail when given: each complex is
    got once, certified once and dropped before the next.  A complex's
    sections are buffered in its two parts (_run_groups), merged in
    declaration order, so that each kind keeps its place in the report; a
    kind not asked for is not computed beyond the shared certificates, and
    its buffer is dropped.  tail adds its sections to the Report it is
    given; unless the worker sent them, it runs here, into rep, so that an
    exception it raises escapes after the lines it added."""
    parts, tail_part = _run_groups(spec, spec_text, flags, identities, cohomology, tail)
    ident, cohom = Report(), Report()
    for name in spec.complexes:
        ident.merge(parts[name][0])
        cohom.merge(parts[name][1])
    if identities:
        rep.merge(ident)
    if cohomology:
        rep.merge(cohom)
    if tail_part is not None:
        rep.merge(tail_part)
    elif tail is not None:
        tail(rep)


def _complex_part(spec, spec_text, name, flags, quotients, identities, cohomology):
    """The identities and the cohomology section of one declared complex,
    as two headless Reports."""
    ident, cohom = Report(), Report()
    ident.section("identities %s" % name)
    cohom.section("cohomology %s" % name)
    try:
        cx = _get_declared_complex(spec, spec_text, name, flags, quotients)
    except (IllDefined, ConjugationFailure, ValueError, CacheReadBackMismatch) as e:
        ident.fail("build failed: %s" % e)
        cohom.fail("failed: %s" % e)
        return ident, cohom
    ident.add("dims %s" % " ".join(str(d) for d in cx.dims()))
    if identities:
        bad = check_cocyclic(cx)
        for v in bad:
            ident.fail("violated %s at degree %d indices %s" % (v.family, v.degree, v.indices))
        if not bad:
            ident.add("cocyclic identities: ok")
    try:
        cx.B        # b and B built and certified here, kept on cx
    except NotAComplex as e:
        ident.fail("coboundary certificates FAILED: %s" % e)
        cohom.fail("failed: %s" % e)
        return ident, cohom
    ident.add("coboundary certificates: ok (boundary reading: %s)" % cx.boundary_reading)
    if cohomology:
        cohom.add(*compute_cohomology(cx).lines())
    return ident, cohom


# ---------------------------------------------------------------------------
# the declared complexes in groups, and audit's tail, some of them on a
# worker process

def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _groups(spec):
    """The declared complexes in groups that run apart, each in declaration
    order.  A coalgebra complex joins the group of the last hopf complex
    before it when it is that complex's coinvariant quotient
    (_is_hopf_quotient) and no coalgebra complex joined it first: the group
    hands it the quotient that the hopf build left.  Every other complex is
    a group of its own."""
    groups, held = [], None        # held: (pair, group) of a hopf complex no coalgebra joined
    for name, (kind, args) in spec.complexes.items():
        if (kind == "coalgebra" and held is not None
                and _is_hopf_quotient(held[0], spec.module_coalgebras[args[0]],
                                      spec.coefficients[args[-1]])):
            held[1].append(name)
            held = None
            continue
        groups.append([name])
        if kind == "hopf":
            held = spec.modular_pair(args[-1]), groups[-1]
    return groups


def _deal(groups, weights):
    """(this process's groups, the worker's groups) by Graham's LPT rule:
    heaviest first, each to the less-loaded side, this process on a tie, so
    that it takes the heaviest group.  Each side keeps declaration order."""
    load, side = [0, 0], {}
    for k in sorted(range(len(groups)), key=lambda k: -weights[k]):
        side[k] = 0 if load[0] <= load[1] else 1
        load[side[k]] += weights[k]
    return ([g for k, g in enumerate(groups) if side[k] == 0],
            [g for k, g in enumerate(groups) if side[k] == 1])


def _worker_share(spec, flags, groups, tail):
    """(this process's groups, the worker's groups, or None when no worker
    is forked).  The units of work are the groups and, for audit, its tail;
    a worker is forked when there are two usable CPUs, os.fork and at least
    two units, warm or cold.  It takes the tail, and _deal gives it a share
    of the groups, weighed by the top ambient dimensions of their complexes.
    No least share is asked of the worker.  Per warm audit at N=4 on a
    2-core VM with Python 3.11 (medians of 12 runs), it took h4 from 0.42
    to 0.30 s and kz4_relative, one group beside the tail, from 0.21 to
    0.18 s; kz2 went from 0.13 to 0.14 s, as the deal does not count the
    tail's load, which there equals that of all the groups.  Both processes
    together hold more memory than one: 36 MB resident against 20 MB for
    the warm h4 audit, 38 against 21 MB cold."""
    if _usable_cpus() < 2 or not hasattr(os, "fork") or len(groups) + (tail is not None) < 2:
        return groups, None
    N = flags.max_degree
    return _deal(groups, [sum(spec.top_ambient(name, N) for name in g) for g in groups])


def _run_group(spec, spec_text, group, flags, identities, cohomology, parts, raised):
    """Add the parts of a group's complexes to parts, in order; a hopf build
    hands its coinvariant quotient to the coalgebra complex after it.  An
    exception that escapes a complex ends its group and is appended to
    raised with the complex's name."""
    quotients = []
    for name in group:
        try:
            parts[name] = _complex_part(spec, spec_text, name, flags, quotients,
                                        identities, cohomology)
        except Exception as e:
            raised.append((name, e))
            return


def _worker_reply(spec, spec_text, groups, tail, flags, identities, cohomology):
    """The worker's share, run in the forked child, marshalled as [parts,
    closing]: parts is {name: [identities lines, failed, cohomology lines,
    failed]} of its groups' complexes, and closing is [lines, failed] of the
    tail's sections.  A complex whose group raised is missing from parts,
    and closing is None when there is no tail or it raised; the parent runs
    what is missing again."""
    parts = {}
    for group in groups:
        _run_group(spec, spec_text, group, flags, identities, cohomology, parts, [])
    closing = None
    if tail is not None:
        part = Report()
        try:
            tail(part)
            closing = [part.lines, part.failed]
        except Exception:
            pass
    return marshal.dumps([{name: [i.lines, i.failed, c.lines, c.failed]
                           for name, (i, c) in parts.items()}, closing])


def _terminated(signum, frame):
    raise SystemExit(1)     # so that a cache write in progress removes its temporary file


def _fork_worker(work):
    """(pid, read end of its pipe) of a forked child that writes the bytes
    of work() to the pipe and leaves by os._exit: status 0 when it wrote
    them, 1 when work raised or SIGTERM stopped it.  The child ignores
    SIGINT (the parent stops it) and never returns from here, so nothing of
    the parent's runs twice."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        import signal
        os.close(r)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, _terminated)
        reply = work()
        # from here a SIGTERM ends the child at once; a pending one is dropped
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        with open(w, "wb") as out:
            out.write(reply)
        status = 0
    finally:
        os._exit(status)


def _stop(pid):
    """Stop the worker by SIGTERM, after which a cache write in progress
    removes its temporary file, and reap it."""
    import signal
    os.kill(pid, signal.SIGTERM)
    os.waitpid(pid, 0)


def _headless(lines, failed):
    """A headless Report read from a worker's reply."""
    if not (isinstance(lines, list) and all(isinstance(x, str) for x in lines)
            and isinstance(failed, bool)):
        raise ValueError("not a report part")
    part = Report()
    part.lines, part.failed = lines, failed
    return part


def _worker_failed(reason, rerun):
    sys.stderr.write("hopfcyclic: the worker process failed (%s); "
                     "%s were computed here\n" % (reason, rerun))


def _beside_worker(here, work, groups, tail):
    """Run here() in this process beside a forked worker that computes
    work(), and return the parts that the worker sent for the complexes of
    groups and its tail part, None if it sent none.  A worker that cannot
    start, fails, dies or sends a reply that does not parse costs one line
    on stderr, which names what is computed here again: the complexes of
    groups, and audit's closing sections when the worker had the tail.  It
    gives no parts.  If here() raises, the worker is stopped and reaped."""
    rerun = " and ".join(what for what, has in (("its complexes", groups),
                                                ("audit's closing sections", tail)) if has)
    try:
        pid, fd = _fork_worker(work)
    except OSError as e:
        _worker_failed(e, rerun)
        here()
        return {}, None
    status = None
    try:
        with open(fd, "rb") as reader:
            here()
            reply = reader.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        if status is None:
            _stop(pid)
    try:
        if status != 0:
            raise ValueError("exit status %d" % status)
        got, closing = marshal.loads(reply)
        parts = {name: (_headless(*got[name][:2]), _headless(*got[name][2:]))
                 for g in groups for name in g if name in got}
        return parts, None if closing is None else _headless(*closing)
    except (ValueError, TypeError, EOFError) as e:
        _worker_failed(e, rerun)
        return {}, None


def _run_groups(spec, spec_text, flags, identities, cohomology, tail):
    """({name: (identities part, cohomology part)} of every declared complex,
    the tail's part or None), run group by group (_groups): the worker's
    share (_worker_share) in a forked worker process, the rest here, and
    whatever groups the worker did not send here after it.  The tail's part
    is the one the worker sent; None tells the caller to run the tail.  An
    exception that escapes a complex ends its group, and the other groups
    still run; then the exception of the first such complex in declaration
    order escapes, and no tail part is returned."""
    parts, raised = {}, []

    def run(groups):
        for group in groups:
            _run_group(spec, spec_text, group, flags, identities, cohomology, parts, raised)

    mine, theirs = _worker_share(spec, flags, _groups(spec), tail)
    tail_part = None
    if theirs is None:
        run(mine)
    else:
        done, tail_part = _beside_worker(lambda: run(mine), lambda: _worker_reply(
            spec, spec_text, theirs, tail, flags, identities, cohomology), theirs, tail is not None)
        parts.update(done)
        for group in theirs:
            if not all(name in parts for name in group):
                run([group])
    if raised:
        order = list(spec.complexes)
        raise min(raised, key=lambda r: order.index(r[0]))[1]
    return parts, tail_part


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


def _coboundaries(cx, n):
    """A solver over the coboundaries of degree n of cx, None at n = 0."""
    if n == 0:
        return None
    sol = SpanSolver()
    for col in cx.b[n - 1].plan:
        sol.add(col)
    sol.rref()
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
                phis = cyclic_cocycles(ctx.phi_complex().complex, p)
                xs = cyclic_cocycles(ctx.x_complex(), q)
            except NotAComplex as e:
                rep.fail("cocycle search failed: %s" % e)
                continue
            if not phis or not xs:
                rep.add("no cyclic cocycle pair at (p,q)=(%d,%d); counts %d,%d"
                        % (p, q, len(phis), len(xs)))
                continue
            coboundaries = _coboundaries(ctx.target(), p + q)
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
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        rep.add("wrote %s (%d bytes)" % (name, len(text)))
    return rep


def cmd_audit(spec, spec_text, rep, flags):
    # the audit report is pinned byte for byte by perfbench/references.json,
    # which predates the trace witness
    cmd_validate(spec, spec_text, rep, flags, witnesses=False)
    _complex_sections(spec, spec_text, rep, flags, identities=True, cohomology=True,
                      tail=lambda part: _audit_tail(spec, flags, part))


def _audit_tail(spec, flags, rep):
    """The closing sections of an audit, added to rep: the context
    certificates and a small cup sweep, the characteristic maps of the
    invariant traces, the shuffle sets, the expansion oracle and the exact
    kernel self-check."""
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
            phis = [cyclic_cocycles(acx, p) for p in range(3)]
            xs = [cyclic_cocycles(xcx, q) for q in range(3)]
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
        for cname, mp in spec.pairs_on(ma.hopf):
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


def nonnegative_int(text):
    """A degree given on the command line: argparse refuses any other
    value with exit status 2."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(prog="hopfcyclic",
                                     description="exact Hopf-cyclic cohomology engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="structure-constant input file")
        p.add_argument("--max-degree", type=nonnegative_int, default=5)
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
    pc.add_argument("--p", type=nonnegative_int, required=True)
    pc.add_argument("--q", type=nonnegative_int, required=True)
    common(sub.add_parser("fixtures", help="write the shipped fixture files"), needs_file=False)
    common(sub.add_parser("audit", help="every certificate in one run"))

    flags = parser.parse_args(argv)

    if flags.command == "fixtures":
        rep = Report("fixtures")
        try:
            cmd_fixtures(rep, flags)
        except OSError as e:
            return _cannot_write(flags.out or "fixtures", e)
        return _emit(rep.text(), None)

    try:
        spec_text_raw = _load(flags.file)
        spec = parse_spec(spec_text_raw)
    except (InputError, Failure) as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2

    rep = run(spec, flags.command, flags)
    return _emit(rep.text(), flags.out) or (1 if rep.failed else 0)


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


def entry():
    """main() as the whole life of a process: ``python -m hopfcyclic.cli``
    and the ``hopfcyclic`` script.  The cyclic collector is off, because a
    job leaves no cyclic garbage but argparse's parser, the same for every
    job.  Once main returns and stdout and stderr are flushed, the process
    leaves by os._exit, as the forked worker does, so the interpreter's
    teardown is skipped; if a flush fails, it leaves by sys.exit, whose
    teardown reports the failure as it always has.  A caller of main in its
    own process keeps the normal lifecycle."""
    gc.disable()
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    entry()
