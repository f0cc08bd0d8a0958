"""Plain-text structure-constant format.

One structure constant per line inside keyword blocks; comments with '#'.
Vectors are written  c*label [+ c*label ...]  (or 0), tensor-pair terms as
c*label|label, scalars as integers or fractions p/q.

    space H = e g
    algebra H
      unit = 1*e
      mul e e = 1*e
    coalgebra H
      counit e = 1
      comul e = 1*e|e
    hopf H
      antipode e = 1*e
    character delta on H = 1 -1
    grouplike sigma in H = 1*e
    coefficients M = mpi(delta, sigma)
    module_algebra A over H
      act g p0 = 1*p1
    action ca : H on A
      cact g p0 = 1*p1
    subhopf K of H = 1*e ; 1*g2
    trace tr on A = 1 1
    complex main = hopf(H, M)
    context cup1 = coalgebra(ca, M)

parse_spec returns a SpecFile whose canonical to_text() round-trips.
"""

from __future__ import annotations

from .linalg import parse_scalar, format_scalar, vec_acc
from .spaces import BasedSpace, StructureTensor, tensor_space
from .hopf import AlgebraData, CoalgebraData, HopfData, ModularPair
from .actions import (ModuleAlgebra, ModuleCoalgebra, ComoduleAlgebra, SAYDModule,
                      CoalgebraAction, SubHopf, mpi_coefficients)


class ParseError(Exception):
    def __init__(self, msg, line_no=None):
        super().__init__("line %s: %s" % (line_no, msg) if line_no else msg)
        self.line_no = line_no


class UnresolvedName(Exception):
    def __init__(self, msg, line_no=None):
        super().__init__("line %s: %s" % (line_no, msg) if line_no else msg)
        self.line_no = line_no


class DimensionMismatch(Exception):
    def __init__(self, msg, line_no=None):
        super().__init__("line %s: %s" % (line_no, msg) if line_no else msg)
        self.line_no = line_no


class SpecFile:
    """Parsed declarations, resolution results and canonical serialization."""

    def __init__(self):
        self.spaces = {}            # name -> BasedSpace
        self.algebras = {}          # space name -> AlgebraData
        self.coalgebras = {}        # space name -> CoalgebraData
        self.hopfs = {}             # name -> HopfData
        self.characters = {}        # name -> (hopf name, dict)
        self.grouplikes = {}        # name -> (hopf name, dict)
        self.coefficients = {}      # name -> ("mpi", char, grp) or SAYDModule
        self.sayds = {}             # name -> SAYDModule
        self.module_algebras = {}   # space name -> ModuleAlgebra
        self.module_coalgebras = {}
        self.comodule_algebras = {}
        self.actions = {}           # name -> CoalgebraAction
        self.subhopfs = {}          # name -> SubHopf
        self.traces = {}            # name -> (space name, dict)
        self.complexes = {}         # name -> (kind, args tuple)
        self.contexts = {}          # name -> (kind, args tuple)
        self.order = []             # declaration order of (category, name)

    def modular_pair(self, name):
        return self._pairs[name]

    def to_text(self):
        out = []
        seen_blocks = set()
        for cat, name in self.order:
            if (cat, name) in seen_blocks:
                continue
            seen_blocks.add((cat, name))
            out.extend(self._emit(cat, name))
        return "\n".join(out) + "\n"

    def _emit(self, cat, name):
        L = []
        if cat == "space":
            s = self.spaces[name]
            L.append("space %s = %s" % (name, " ".join(s.labels)))
        elif cat == "algebra":
            a = self.algebras[name]
            s = a.space
            L.append("algebra %s" % name)
            L.append("  unit = %s" % _fmt_vec(a.unit, s))
            for (i, j) in sorted(a.mul.entries):
                L.append("  mul %s %s = %s" % (s.labels[i], s.labels[j],
                                               _fmt_vec(a.mul.entries[(i, j)], s)))
        elif cat == "coalgebra":
            c = self.coalgebras[name]
            s = c.space
            L.append("coalgebra %s" % name)
            for i in sorted(c.counit):
                L.append("  counit %s = %s" % (s.labels[i], format_scalar(c.counit[i])))
            for (i,) in sorted(c.comul.entries):
                L.append("  comul %s = %s" % (s.labels[i], _fmt_pvec(c.comul.entries[(i,)], s, s)))
        elif cat == "hopf":
            h = self.hopfs[name]
            s = h.space
            L.append("hopf %s" % name)
            for i in range(s.dim):
                L.append("  antipode %s = %s" % (s.labels[i], _fmt_vec(h.antipode.column(i), s)))
        elif cat == "character":
            hname, vals = self.characters[name]
            s = self.hopfs[hname].space
            L.append("character %s on %s = %s" % (name, hname,
                     " ".join(format_scalar(vals.get(i, 0)) for i in range(s.dim))))
        elif cat == "grouplike":
            hname, vec = self.grouplikes[name]
            s = self.hopfs[hname].space
            L.append("grouplike %s in %s = %s" % (name, hname, _fmt_vec(vec, s)))
        elif cat == "coefficients":
            kind, c, g = self._coef_decl[name]
            L.append("coefficients %s = mpi(%s, %s)" % (name, c, g))
        elif cat == "sayd":
            m = self.sayds[name]
            hname = self._sayd_decl[name][0]
            sname = self._sayd_decl[name][1]
            ms = m.space
            hs = m.hopf.space
            L.append("sayd %s over %s space %s" % (name, hname, sname))
            for (i, j) in sorted(m.raction.entries):
                L.append("  ract %s %s = %s" % (ms.labels[i], hs.labels[j],
                                                _fmt_vec(m.raction.entries[(i, j)], ms)))
            for (i,) in sorted(m.lcoaction.entries):
                L.append("  lcoact %s = %s" % (ms.labels[i],
                                               _fmt_pvec(m.lcoaction.entries[(i,)], hs, ms)))
        elif cat == "module_algebra":
            ma = self.module_algebras[name]
            hname = self._mod_decl[("module_algebra", name)]
            L.append("module_algebra %s over %s" % (name, hname))
            L.extend(_emit_action_lines("act", ma.action, ma.hopf.space, ma.space))
        elif cat == "module_coalgebra":
            mc = self.module_coalgebras[name]
            hname = self._mod_decl[("module_coalgebra", name)]
            L.append("module_coalgebra %s over %s" % (name, hname))
            L.extend(_emit_action_lines("act", mc.action, mc.hopf.space, mc.space))
        elif cat == "comodule_algebra":
            ba = self.comodule_algebras[name]
            hname = self._mod_decl[("comodule_algebra", name)]
            s = ba.space
            L.append("comodule_algebra %s over %s" % (name, hname))
            for (i,) in sorted(ba.coaction.entries):
                L.append("  coact %s = %s" % (s.labels[i],
                                              _fmt_pvec(ba.coaction.entries[(i,)], ba.hopf.space, s)))
        elif cat == "action":
            ca = self.actions[name]
            cs, as_ = ca.mc.space, ca.ma.space
            cname, aname = self._action_decl[name]
            L.append("action %s : %s on %s" % (name, cname, aname))
            L.extend(_emit_action_lines("cact", ca.action, cs, as_))
        elif cat == "subhopf":
            k = self.subhopfs[name]
            hname = self._subhopf_decl[name]
            s = k.hopf.space
            L.append("subhopf %s of %s = %s" % (name, hname,
                     " ; ".join(_fmt_vec(v, s) for v in k.spanning)))
        elif cat == "trace":
            sname, vals = self.traces[name]
            s = self.spaces[sname]
            L.append("trace %s on %s = %s" % (name, sname,
                     " ".join(format_scalar(vals.get(i, 0)) for i in range(s.dim))))
        elif cat == "complex":
            kind, args = self.complexes[name]
            L.append("complex %s = %s(%s)" % (name, kind, ", ".join(args)))
        elif cat == "context":
            kind, args = self.contexts[name]
            L.append("context %s = %s(%s)" % (name, kind, ", ".join(args)))
        return L


def _emit_action_lines(keyword, tensor, s1, s2):
    L = []
    for (i, j) in sorted(tensor.entries):
        L.append("  %s %s %s = %s" % (keyword, s1.labels[i], s2.labels[j],
                                      _fmt_vec(tensor.entries[(i, j)], tensor.codomain)))
    return L


def _fmt_vec(vec, space):
    if not vec:
        return "0"
    return " + ".join("%s*%s" % (format_scalar(x), space.labels[i])
                      for i, x in sorted(vec.items()))


def _fmt_pvec(vec, s1, s2):
    if not vec:
        return "0"
    d2 = s2.dim
    terms = []
    for f, x in sorted(vec.items()):
        i, j = divmod(f, d2)
        terms.append("%s*%s|%s" % (format_scalar(x), s1.labels[i], s2.labels[j]))
    return " + ".join(terms)


def _scalar(text, line_no):
    try:
        return parse_scalar(text)
    except ValueError:
        raise ParseError("bad scalar %r" % text.strip(), line_no)


def _parse_terms(text, line_no, form, key):
    """Sum of the terms coef*rest of text, keyed by key(rest); terms that
    cancel leave no entry."""
    text = text.strip()
    out = {}
    if text == "0":
        return out
    for term in text.split("+"):
        term = term.strip()
        if "*" not in term:
            raise ParseError("expected %s, got %r" % (form, term), line_no)
        coef, rest = term.split("*", 1)
        k = key(rest.strip())
        vec_acc(out, k, _scalar(coef, line_no))
    return out


def _parse_vec(text, space, line_no):
    return _parse_terms(text, line_no, "coef*label",
                        lambda label: _label(space, label, line_no))


def _parse_pvec(text, s1, s2, line_no):
    def key(pair):
        if "|" not in pair:
            raise ParseError("expected coef*label|label, got %r" % pair, line_no)
        l1, l2 = pair.split("|", 1)
        return _label(s1, l1.strip(), line_no) * s2.dim + _label(s2, l2.strip(), line_no)
    return _parse_terms(text, line_no, "coef*label|label", key)


def parse_spec(text) -> SpecFile:
    spec = SpecFile()
    spec._pairs = {}
    spec._coef_decl = {}
    spec._sayd_decl = {}
    spec._mod_decl = {}
    spec._action_decl = {}
    spec._subhopf_decl = {}
    # raw block collection first, then resolution in declaration order
    block = None                # (kind, header fields, line_no, lines)
    blocks = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0] in " \t"
        line = line.strip()
        head = line.split()[0]
        if head in _LINE_FORMS or (indented and block is not None):
            if block is None:
                raise ParseError("structure line outside any block", ln)
            lhs = line.split("=", 1)[0].split()
            form = _LINE_FORMS.get(lhs[0] if lhs else None, "NAME LABELS = ...")
            if "=" not in line or not lhs or (lhs[0] in _LINE_FORMS and
                                              len(lhs) != len(form.split("=")[0].split())):
                raise ParseError("expected '%s'" % form, ln)
            block[3].append((ln, line))
            continue
        form = _HEADER_FORMS.get(head)
        if form:
            toks = _header_tokens(line)
            n = len(form.split("=")[0].split())
            if len(toks) < n or ("=" in form and (len(toks) == n or toks[n] != "=")):
                raise ParseError("expected '%s'" % form, ln)
        block = (head, line, ln, [])
        blocks.append(block)
    for head, header, ln, lines in blocks:
        _resolve_block(spec, head, header, ln, lines)
    return spec


# the leading tokens of each declaration header and structure line: a
# shorter line, or one without its "=", is an input error at its line
_HEADER_FORMS = {
    "algebra": "algebra NAME", "coalgebra": "coalgebra NAME", "hopf": "hopf NAME",
    "character": "character NAME on HOPF = ...", "grouplike": "grouplike NAME in HOPF = ...",
    "coefficients": "coefficients NAME = ...", "sayd": "sayd NAME over HOPF space SPACE",
    "module_algebra": "module_algebra NAME over HOPF",
    "module_coalgebra": "module_coalgebra NAME over HOPF",
    "comodule_algebra": "comodule_algebra NAME over HOPF",
    "action": "action NAME : COALGEBRA on ALGEBRA", "subhopf": "subhopf NAME in HOPF = ...",
    "trace": "trace NAME on SPACE = ...", "complex": "complex NAME = ...",
    "context": "context NAME = ...",
}
_LINE_FORMS = {
    "unit": "unit = ...", "mul": "mul L1 L2 = ...", "counit": "counit L = ...",
    "comul": "comul L = ...", "antipode": "antipode L = ...", "act": "act H L = ...",
    "coact": "coact L = ...", "cact": "cact C L = ...", "ract": "ract M H = ...",
    "lcoact": "lcoact M = ...",
}


def _header_tokens(header):
    return header.replace("=", " = ").replace(":", " : ").split()


def _resolve_block(spec, head, header, ln, lines):
    toks = _header_tokens(header)
    if head == "space":
        # space NAME = l1 l2 ...
        if len(toks) < 4 or toks[2] != "=":
            raise ParseError("space NAME = labels...", ln)
        name = toks[1]
        labels = toks[3:]
        if len(set(labels)) != len(labels):
            raise ParseError("duplicate basis labels", ln)
        spec.spaces[name] = BasedSpace(tuple(labels))
        spec.order.append(("space", name))
    elif head == "algebra":
        name = toks[1]
        s = _space(spec, name, ln)
        unit = {}
        ent = {}
        for l_no, line in lines:
            parts = line.split("=", 1)
            lhs = parts[0].split()
            if lhs[0] == "unit":
                unit = _parse_vec(parts[1], s, l_no)
            elif lhs[0] == "mul":
                i, j = _label(s, lhs[1], l_no), _label(s, lhs[2], l_no)
                ent[(i, j)] = _parse_vec(parts[1], s, l_no)
            else:
                raise ParseError("unexpected %r in algebra block" % lhs[0], l_no)
        spec.algebras[name] = AlgebraData(s, StructureTensor((s, s), s, ent), unit)
        spec.order.append(("algebra", name))
    elif head == "coalgebra":
        name = toks[1]
        s = _space(spec, name, ln)
        counit = {}
        ent = {}
        for l_no, line in lines:
            parts = line.split("=", 1)
            lhs = parts[0].split()
            if lhs[0] == "counit":
                counit[_label(s, lhs[1], l_no)] = _scalar(parts[1], l_no)
            elif lhs[0] == "comul":
                ent[(_label(s, lhs[1], l_no),)] = _parse_pvec(parts[1], s, s, l_no)
            else:
                raise ParseError("unexpected %r in coalgebra block" % lhs[0], l_no)
        spec.coalgebras[name] = CoalgebraData(
            s, StructureTensor((s,), tensor_space(s, s), ent), counit)
        spec.order.append(("coalgebra", name))
    elif head == "hopf":
        name = toks[1]
        s = _space(spec, name, ln)
        if name not in spec.algebras or name not in spec.coalgebras:
            raise UnresolvedName("hopf %r needs algebra and coalgebra blocks first" % name, ln)
        from .linalg import SparseMatrix
        ent = {}
        for l_no, line in lines:
            parts = line.split("=", 1)
            lhs = parts[0].split()
            if lhs[0] != "antipode":
                raise ParseError("unexpected %r in hopf block" % lhs[0], l_no)
            j = _label(s, lhs[1], l_no)
            for i, x in _parse_vec(parts[1], s, l_no).items():
                ent[(i, j)] = x
        S = SparseMatrix(s.dim, s.dim, ent)
        spec.hopfs[name] = HopfData(spec.algebras[name], spec.coalgebras[name], S)
        spec.order.append(("hopf", name))
    elif head == "character":
        # character NAME on HOPF = s1 ... sd
        name, hname = toks[1], toks[3]
        h = _hopf(spec, hname, ln)
        vals = toks[5:]
        if len(vals) != h.dim:
            raise DimensionMismatch("character needs %d values" % h.dim, ln)
        vals = [_scalar(v, ln) for v in vals]
        spec.characters[name] = (hname, {i: x for i, x in enumerate(vals) if x})
        spec.order.append(("character", name))
    elif head == "grouplike":
        name, hname = toks[1], toks[3]
        h = _hopf(spec, hname, ln)
        vec = _parse_vec(header.split("=", 1)[1], h.space, ln)
        spec.grouplikes[name] = (hname, vec)
        spec.order.append(("grouplike", name))
    elif head == "coefficients":
        # coefficients NAME = mpi(CHAR, GRP)
        name = toks[1]
        rest = header.split("=", 1)[1].strip()
        args = [t.strip() for t in rest[4:-1].split(",")]
        if not (rest.startswith("mpi(") and rest.endswith(")")) or len(args) != 2:
            raise ParseError("expected 'coefficients NAME = mpi(CHARACTER, GROUPLIKE)'", ln)
        cname, gname = args
        if cname not in spec.characters:
            raise UnresolvedName("unknown character %r" % cname, ln)
        if gname not in spec.grouplikes:
            raise UnresolvedName("unknown grouplike %r" % gname, ln)
        hname, delta = spec.characters[cname]
        hname2, sigma = spec.grouplikes[gname]
        if hname != hname2:
            raise UnresolvedName("character and grouplike live on different Hopf algebras", ln)
        mp = ModularPair(spec.hopfs[hname], delta, sigma)
        spec._pairs[name] = mp
        spec.coefficients[name] = mpi_coefficients(mp)
        spec._coef_decl[name] = ("mpi", cname, gname)
        spec.order.append(("coefficients", name))
    elif head == "sayd":
        # sayd NAME over HOPF space SPACE
        name, hname, sname = toks[1], toks[3], toks[5]
        h = _hopf(spec, hname, ln)
        s = _space(spec, sname, ln)
        ract, lco = {}, {}
        for l_no, line in lines:
            parts = line.split("=", 1)
            lhs = parts[0].split()
            if lhs[0] == "ract":
                i, j = _label(s, lhs[1], l_no), _label(h.space, lhs[2], l_no)
                ract[(i, j)] = _parse_vec(parts[1], s, l_no)
            elif lhs[0] == "lcoact":
                lco[(_label(s, lhs[1], l_no),)] = _parse_pvec(parts[1], h.space, s, l_no)
            else:
                raise ParseError("unexpected %r in sayd block" % lhs[0], l_no)
        m = SAYDModule(h, s,
                       StructureTensor((s, h.space), s, ract),
                       StructureTensor((s,), tensor_space(h.space, s), lco))
        spec.sayds[name] = m
        spec.coefficients[name] = m
        spec._sayd_decl[name] = (hname, sname)
        spec.order.append(("sayd", name))
    elif head in ("module_algebra", "module_coalgebra"):
        name, hname = toks[1], toks[3]
        h = _hopf(spec, hname, ln)
        s = _space(spec, name, ln)
        ent = {}
        for l_no, line in lines:
            parts = line.split("=", 1)
            lhs = parts[0].split()
            if lhs[0] != "act":
                raise ParseError("expected act lines", l_no)
            i, j = _label(h.space, lhs[1], l_no), _label(s, lhs[2], l_no)
            ent[(i, j)] = _parse_vec(parts[1], s, l_no)
        action = StructureTensor((h.space, s), s, ent)
        if head == "module_algebra":
            if name not in spec.algebras:
                raise UnresolvedName("module_algebra %r needs its algebra block" % name, ln)
            spec.module_algebras[name] = ModuleAlgebra(h, spec.algebras[name], action)
        else:
            if name not in spec.coalgebras:
                raise UnresolvedName("module_coalgebra %r needs its coalgebra block" % name, ln)
            spec.module_coalgebras[name] = ModuleCoalgebra(h, spec.coalgebras[name], action)
        spec._mod_decl[(head, name)] = hname
        spec.order.append((head, name))
    elif head == "comodule_algebra":
        name, hname = toks[1], toks[3]
        h = _hopf(spec, hname, ln)
        s = _space(spec, name, ln)
        if name not in spec.algebras:
            raise UnresolvedName("comodule_algebra %r needs its algebra block" % name, ln)
        ent = {}
        for l_no, line in lines:
            parts = line.split("=", 1)
            lhs = parts[0].split()
            if lhs[0] != "coact":
                raise ParseError("expected coact lines", l_no)
            ent[(_label(s, lhs[1], l_no),)] = _parse_pvec(parts[1], h.space, s, l_no)
        spec.comodule_algebras[name] = ComoduleAlgebra(
            h, spec.algebras[name], StructureTensor((s,), tensor_space(h.space, s), ent))
        spec._mod_decl[(head, name)] = hname
        spec.order.append((head, name))
    elif head == "action":
        # action NAME : C on A
        name, cname, aname = toks[1], toks[3], toks[5]
        if cname not in spec.module_coalgebras:
            raise UnresolvedName("unknown module coalgebra %r" % cname, ln)
        if aname not in spec.module_algebras:
            raise UnresolvedName("unknown module algebra %r" % aname, ln)
        mc = spec.module_coalgebras[cname]
        ma = spec.module_algebras[aname]
        if mc.hopf is not ma.hopf:
            raise UnresolvedName("module coalgebra %r and module algebra %r live on different "
                                 "Hopf algebras" % (cname, aname), ln)
        ent = {}
        for l_no, line in lines:
            parts = line.split("=", 1)
            lhs = parts[0].split()
            if lhs[0] != "cact":
                raise ParseError("expected cact lines", l_no)
            i, j = _label(mc.space, lhs[1], l_no), _label(ma.space, lhs[2], l_no)
            ent[(i, j)] = _parse_vec(parts[1], ma.space, l_no)
        spec.actions[name] = CoalgebraAction(
            mc, ma, StructureTensor((mc.space, ma.space), ma.space, ent))
        spec._action_decl[name] = (cname, aname)
        spec.order.append(("action", name))
    elif head == "subhopf":
        name, hname = toks[1], toks[3]
        h = _hopf(spec, hname, ln)
        vecs = [_parse_vec(v, h.space, ln)
                for v in header.split("=", 1)[1].split(";")]
        spec.subhopfs[name] = SubHopf(h, vecs)
        spec._subhopf_decl[name] = hname
        spec.order.append(("subhopf", name))
    elif head == "trace":
        name, sname = toks[1], toks[3]
        s = _space(spec, sname, ln)
        vals = header.split("=", 1)[1].split()
        if len(vals) != s.dim:
            raise DimensionMismatch("trace needs %d values" % s.dim, ln)
        vals = [_scalar(v, ln) for v in vals]
        spec.traces[name] = (sname, {i: x for i, x in enumerate(vals) if x})
        spec.order.append(("trace", name))
    elif head in ("complex", "context"):
        name = toks[1]
        rest = header.split("=", 1)[1].strip()
        kind, args = _parse_call(rest, ln)
        _check_refs(spec, head, kind, args, ln)
        if head == "complex":
            spec.complexes[name] = (kind, args)
        else:
            spec.contexts[name] = (kind, args)
        spec.order.append((head, name))
    else:
        raise ParseError("unknown declaration %r" % head, ln)


def _parse_call(text, ln):
    if "(" not in text or not text.endswith(")"):
        raise ParseError("expected kind(arg, ...)", ln)
    kind, inner = text[:-1].split("(", 1)
    args = tuple(a.strip() for a in inner.split(",")) if inner.strip() else ()
    return kind.strip(), args


# the SpecFile pools of the entities each declaration kind names before its
# coefficients, with the word for an unknown name
_REFS = {
    "complex": {kind: [(pool, "%s entity" % kind)] for kind, pool in (
        ("hopf", "hopfs"), ("coalgebra", "module_coalgebras"),
        ("algebra", "module_algebras"), ("comodule", "comodule_algebras"))},
    "context": {"coalgebra": [("actions", "action")],
                "crossed": [("module_algebras", "module algebra"),
                            ("comodule_algebras", "comodule algebra")],
                "relative": [("module_algebras", "module algebra"), ("subhopfs", "subhopf")]},
}


def _check_refs(spec, head, kind, args, ln):
    """Every name resolves, and every entity is over the Hopf algebra of the
    coefficients; hopf(H, M) takes coefficients declared as mpi(...)."""
    refs = _REFS[head].get(kind)
    if refs is None:
        raise ParseError("unknown %s kind %r" % (head, kind), ln)
    if len(args) != len(refs) + 1:
        raise ParseError("%s(%s) takes %d arguments" % (kind, ",".join(args), len(refs) + 1), ln)
    coef = args[-1]
    if coef not in spec.coefficients:
        raise UnresolvedName("unknown coefficients %r" % coef, ln)
    for name, (pool, word) in zip(args, refs):
        if name not in getattr(spec, pool):
            raise UnresolvedName("unknown %s %r" % (word, name), ln)
    if kind == "hopf" and coef not in spec._pairs:
        raise UnresolvedName("hopf(%s, %s) needs coefficients declared as mpi(...)" % args, ln)
    for name, (pool, _) in zip(args, refs):
        entity = getattr(spec, pool)[name]
        if (entity if pool == "hopfs" else entity.hopf) is not spec.coefficients[coef].hopf:
            raise UnresolvedName("%r and coefficients %r live on different Hopf algebras"
                                 % (name, coef), ln)


def _space(spec, name, ln):
    if name not in spec.spaces:
        raise UnresolvedName("unknown space %r" % name, ln)
    return spec.spaces[name]


def _hopf(spec, name, ln):
    if name not in spec.hopfs:
        raise UnresolvedName("unknown hopf algebra %r" % name, ln)
    return spec.hopfs[name]


def _label(space, label, ln):
    try:
        return space.labels.index(label)
    except ValueError:
        raise UnresolvedName("unknown basis label %r" % label, ln)
