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

The structure lines of every block kind are described once, in LINES: the
reader (_read_lines), the writer (structure_lines) and the shipped fixture
files all follow it.  parse_spec returns a SpecFile whose canonical
to_text() round-trips.
"""

from __future__ import annotations

from .linalg import SparseMatrix, parse_scalar, format_scalar, vec_acc
from .spaces import BasedSpace, StructureTensor, tensor_space
from .hopf import AlgebraData, CoalgebraData, HopfData, ModularPair
from .actions import (ModuleAlgebra, ModuleCoalgebra, ComoduleAlgebra, SAYDModule,
                      CoalgebraAction, SubHopf, mpi_coefficients)


class InputError(Exception):
    """An input that cannot be read, with the line at fault when known."""

    def __init__(self, msg, line_no=None):
        super().__init__("line %s: %s" % (line_no, msg) if line_no else msg)
        self.line_no = line_no


class ParseError(InputError):
    pass


class UnresolvedName(InputError):
    pass


class DimensionMismatch(InputError):
    pass


# The structure lines of each block kind, in the order they are written:
# keyword -> (roles of its labels, roles of its value).  A role names a
# space: S the block's own, H its Hopf algebra's, C and A the coalgebra and
# the algebra of an action.  A value with no role is a scalar, with one a
# vector (coef*label terms), with two a vector on their tensor product
# (coef*label|label terms).
LINES = {
    "algebra": {"unit": ("", "S"), "mul": ("SS", "S")},
    "coalgebra": {"counit": ("S", ""), "comul": ("S", "SS")},
    "hopf": {"antipode": ("S", "S")},
    "sayd": {"ract": ("SH", "S"), "lcoact": ("S", "HS")},
    "module_algebra": {"act": ("HS", "S")},
    "module_coalgebra": {"act": ("HS", "S")},
    "comodule_algebra": {"coact": ("S", "HS")},
    "action": {"cact": ("CA", "A")},
}


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
        # (category, name) -> canonical header line of its latest declaration,
        # in the order of the first one
        self.headers = {}
        self._pairs = {}            # mpi coefficients name -> ModularPair

    def modular_pair(self, name):
        return self._pairs[name]

    def pairs_on(self, hopf):
        """(name, ModularPair) of every coefficient pair declared on hopf,
        in name order."""
        return [(name, mp) for name, mp in sorted(self._pairs.items()) if mp.hopf is hopf]

    def top_ambient(self, name, N):
        """mdim · dim^(N+2), the ambient size of the top degree of the
        declared complex name at degree bound N, read from the declarations
        alone: dim is that of the entity it is built on (H, C, A or B) and
        mdim that of its coefficients, 1 for a hopf complex."""
        kind, args = self.complexes[name]
        (pool, _), = _REFS["complex"][kind]
        dim = getattr(self, pool)[args[0]].space.dim
        mdim = 1 if kind == "hopf" else self.coefficients[args[-1]].space.dim
        return mdim * dim ** (N + 2)

    def to_text(self):
        out = []
        for (cat, name), header in self.headers.items():
            out.append(header)
            if cat in LINES:
                obj = getattr(self, cat + "s")[name]
                out.extend(structure_lines(cat, _roles(obj), obj))
        return "\n".join(out) + "\n"


def _roles(obj):
    """The spaces a declared object's structure lines name, by role."""
    if isinstance(obj, CoalgebraAction):
        return {"C": obj.mc.space, "A": obj.ma.space}
    if hasattr(obj, "hopf"):
        return {"S": obj.space, "H": obj.hopf.space}
    return {"S": obj.space}


def _entries(kind, obj):
    """{keyword: {label indices: value}} of an object declared by a block of
    this kind: what _read_lines reads back from its structure lines."""
    if kind == "algebra":
        return {"unit": {(): obj.unit}, "mul": obj.mul.entries}
    if kind == "coalgebra":
        return {"counit": {(i,): x for i, x in obj.counit.items()},
                "comul": obj.comul.entries}
    if kind == "hopf":
        return {"antipode": {(i,): obj.antipode.column(i) for i in range(obj.dim)}}
    if kind == "sayd":
        return {"ract": obj.raction.entries, "lcoact": obj.lcoaction.entries}
    if kind == "comodule_algebra":
        return {"coact": obj.coaction.entries}
    return {keyword: obj.action.entries for keyword in LINES[kind]}     # act, cact


def structure_lines(kind, roles, obj):
    """The structure lines of obj, declared by a block of this kind: each
    keyword in table order, its entries sorted by label indices.  roles maps
    each role of the kind to the space whose labels are written."""
    out = []
    entries = _entries(kind, obj)
    for keyword, (lab, val) in LINES[kind].items():
        target = tensor_space(*(roles[r] for r in val))
        got = entries[keyword]
        for idx in sorted(got):
            labels = "".join(" " + roles[r].labels[i] for r, i in zip(lab, idx))
            value = _fmt_vec(got[idx], target) if val else format_scalar(got[idx])
            out.append("  %s%s = %s" % (keyword, labels, value))
    return out


def _read_lines(kind, lines, roles):
    """{keyword: {label indices: value}} of a block's structure lines; a
    later line for the same labels replaces an earlier one.  A kind not in
    LINES takes no structure line."""
    table = LINES.get(kind, {})
    got = {keyword: {} for keyword in table}
    for ln, line in lines:
        lhs, rhs = line.split("=", 1)
        keyword, *labels = lhs.split()
        if keyword not in table:
            raise ParseError("unexpected %r in %s block" % (keyword, kind), ln)
        lab, val = table[keyword]
        idx = tuple(_label(roles[r], label, ln) for r, label in zip(lab, labels))
        got[keyword][idx] = _parse_value(rhs, [roles[r] for r in val], ln)
    return got


def _tensor(kind, keyword, roles, got):
    """The StructureTensor of a keyword's lines: its labels index the
    domains, its values the tensor product of the codomain spaces."""
    lab, val = LINES[kind][keyword]
    return StructureTensor([roles[r] for r in lab], tensor_space(*(roles[r] for r in val)),
                           got[keyword])


def _fmt_vec(vec, space):
    if not vec:
        return "0"
    return " + ".join("%s*%s" % (format_scalar(x), space.labels[i])
                      for i, x in sorted(vec.items()))


def _scalar(text, line_no):
    try:
        return parse_scalar(text)
    except ValueError:
        raise ParseError("bad scalar %r" % text.strip(), line_no)


def _scalars(text, dim, word, line_no):
    """The dim whitespace-separated scalars of text."""
    vals = text.split()
    if len(vals) != dim:
        raise DimensionMismatch("%s needs %d values" % (word, dim), line_no)
    return [_scalar(v, line_no) for v in vals]


def _parse_value(text, spaces, line_no):
    """A scalar when spaces is empty, else the sum of the terms
    coef*label|...|label of text on the tensor product of spaces; terms
    that cancel leave no entry."""
    if not spaces:
        return _scalar(text, line_no)
    text = text.strip()
    out = {}
    if text == "0":
        return out
    for term in text.split("+"):
        term = term.strip()
        coef, star, rest = term.partition("*")
        labels = rest.split("|", len(spaces) - 1)
        if not star or len(labels) != len(spaces):
            raise ParseError("expected coef*%s, got %r"
                             % ("|".join(["label"] * len(spaces)), term), line_no)
        f = 0
        for space, label in zip(spaces, labels):
            f = f * space.dim + _label(space, label.strip(), line_no)
        vec_acc(out, f, _scalar(coef, line_no))
    return out


def parse_spec(text) -> SpecFile:
    spec = SpecFile()
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
    "action": "action NAME : COALGEBRA on ALGEBRA", "subhopf": "subhopf NAME of HOPF = ...",
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
    """Resolve one declaration into its SpecFile pool and record its
    canonical header."""
    toks = _header_tokens(header)
    rest = header.split("=", 1)[1] if "=" in header else ""
    if head == "space":
        # space NAME = l1 l2 ...
        if len(toks) < 4 or toks[2] != "=":
            raise ParseError("space NAME = labels...", ln)
        labels = toks[3:]
        if len(set(labels)) != len(labels):
            raise ParseError("duplicate basis labels", ln)
        spec.spaces[toks[1]] = BasedSpace(tuple(labels))
        header = "space %s = %s" % (toks[1], " ".join(labels))
    elif head in LINES:
        obj, header = _structure_block(spec, head, toks, ln, lines)
        getattr(spec, head + "s")[toks[1]] = obj
        if head == "sayd":
            spec.coefficients[toks[1]] = obj
    elif head == "character":
        # character NAME on HOPF = s1 ... sd
        hname = toks[3]
        vals = _scalars(rest, _need(spec.hopfs, hname, "unknown hopf algebra %r", ln).dim,
                        "character", ln)
        spec.characters[toks[1]] = (hname, {i: x for i, x in enumerate(vals) if x})
        header = "character %s on %s = %s" % (toks[1], hname, " ".join(map(format_scalar, vals)))
    elif head == "grouplike":
        hname = toks[3]
        h = _need(spec.hopfs, hname, "unknown hopf algebra %r", ln)
        vec = _parse_value(rest, [h.space], ln)
        spec.grouplikes[toks[1]] = (hname, vec)
        header = "grouplike %s in %s = %s" % (toks[1], hname, _fmt_vec(vec, h.space))
    elif head == "coefficients":
        # coefficients NAME = mpi(CHAR, GRP)
        name = toks[1]
        rest = rest.strip()
        args = [t.strip() for t in rest[4:-1].split(",")]
        if not (rest.startswith("mpi(") and rest.endswith(")")) or len(args) != 2:
            raise ParseError("expected 'coefficients NAME = mpi(CHARACTER, GROUPLIKE)'", ln)
        cname, gname = args
        hname, delta = _need(spec.characters, cname, "unknown character %r", ln)
        hname2, sigma = _need(spec.grouplikes, gname, "unknown grouplike %r", ln)
        if hname != hname2:
            raise UnresolvedName("character and grouplike live on different Hopf algebras", ln)
        mp = ModularPair(spec.hopfs[hname], delta, sigma)
        spec._pairs[name] = mp
        spec.coefficients[name] = mpi_coefficients(mp)
        header = "coefficients %s = mpi(%s, %s)" % (name, cname, gname)
    elif head == "subhopf":
        hname = toks[3]
        h = _need(spec.hopfs, hname, "unknown hopf algebra %r", ln)
        k = SubHopf(h, [_parse_value(v, [h.space], ln) for v in rest.split(";")])
        spec.subhopfs[toks[1]] = k
        header = "subhopf %s of %s = %s" % (toks[1], hname,
                                            " ; ".join(_fmt_vec(v, h.space) for v in k.spanning))
    elif head == "trace":
        sname = toks[3]
        vals = _scalars(rest, _need(spec.spaces, sname, "unknown space %r", ln).dim, "trace", ln)
        spec.traces[toks[1]] = (sname, {i: x for i, x in enumerate(vals) if x})
        header = "trace %s on %s = %s" % (toks[1], sname, " ".join(map(format_scalar, vals)))
    elif head in ("complex", "context"):
        kind, args = _parse_call(rest.strip(), ln)
        _check_refs(spec, head, kind, args, ln)
        getattr(spec, "complexes" if head == "complex" else "contexts")[toks[1]] = (kind, args)
        header = "%s %s = %s(%s)" % (head, toks[1], kind, ", ".join(args))
    else:
        raise ParseError("unknown declaration %r" % head, ln)
    if head not in LINES:
        _read_lines(head, lines, {})        # no structure line is expected
    spec.order.append((head, toks[1]))
    spec.headers[(head, toks[1])] = header


def _structure_block(spec, head, toks, ln, lines):
    """The object a block with structure lines declares, and its canonical
    header.  Names in the header are resolved before the lines are read,
    except that a module (co)algebra finds its (co)algebra block after."""
    name = toks[1]
    if head == "action":
        # action NAME : C on A
        cname, aname = toks[3], toks[5]
        mc = _need(spec.module_coalgebras, cname, "unknown module coalgebra %r", ln)
        ma = _need(spec.module_algebras, aname, "unknown module algebra %r", ln)
        if mc.hopf is not ma.hopf:
            raise UnresolvedName("module coalgebra %r and module algebra %r live on different "
                                 "Hopf algebras" % (cname, aname), ln)
        roles = {"C": mc.space, "A": ma.space}
        got = _read_lines(head, lines, roles)
        return (CoalgebraAction(mc, ma, _tensor(head, "cact", roles, got)),
                "action %s : %s on %s" % (name, cname, aname))
    if head in ("algebra", "coalgebra", "hopf"):
        s = _need(spec.spaces, name, "unknown space %r", ln)
        roles = {"S": s}
        if head == "hopf":
            needs = "hopf %r needs algebra and coalgebra blocks first"
            alg = _need(spec.algebras, name, needs, ln)
            coalg = _need(spec.coalgebras, name, needs, ln)
    else:
        # sayd NAME over HOPF space SPACE, or KIND NAME over HOPF
        h = _need(spec.hopfs, toks[3], "unknown hopf algebra %r", ln)
        s = _need(spec.spaces, toks[5] if head == "sayd" else name, "unknown space %r", ln)
        roles = {"S": s, "H": h.space}
        if head == "comodule_algebra":
            alg = _need(spec.algebras, name, "comodule_algebra %r needs its algebra block", ln)
    got = _read_lines(head, lines, roles)
    if head == "algebra":
        unit = got["unit"].get((), {})
        return AlgebraData(s, _tensor(head, "mul", roles, got), unit), "algebra %s" % name
    if head == "coalgebra":
        counit = {i: x for (i,), x in got["counit"].items()}
        return CoalgebraData(s, _tensor(head, "comul", roles, got), counit), "coalgebra %s" % name
    if head == "hopf":
        antipode = SparseMatrix(s.dim, s.dim, {(i, j): x for (j,), col in got["antipode"].items()
                                               for i, x in col.items()})
        return HopfData(alg, coalg, antipode), "hopf %s" % name
    if head == "sayd":
        return (SAYDModule(h, s, _tensor(head, "ract", roles, got),
                           _tensor(head, "lcoact", roles, got)),
                "sayd %s over %s space %s" % (name, toks[3], toks[5]))
    header = "%s %s over %s" % (head, name, toks[3])
    if head == "comodule_algebra":
        return ComoduleAlgebra(h, alg, _tensor(head, "coact", roles, got)), header
    action = _tensor(head, "act", roles, got)
    if head == "module_algebra":
        alg = _need(spec.algebras, name, "module_algebra %r needs its algebra block", ln)
        return ModuleAlgebra(h, alg, action), header
    coalg = _need(spec.coalgebras, name, "module_coalgebra %r needs its coalgebra block", ln)
    return ModuleCoalgebra(h, coalg, action), header


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
    hopf = _need(spec.coefficients, coef, "unknown coefficients %r", ln).hopf
    entities = [_need(getattr(spec, pool), name, "unknown %s %%r" % word, ln)
                for name, (pool, word) in zip(args, refs)]
    if kind == "hopf" and coef not in spec._pairs:
        raise UnresolvedName("hopf(%s, %s) needs coefficients declared as mpi(...)" % args, ln)
    for name, (pool, _), entity in zip(args, refs, entities):
        if (entity if pool == "hopfs" else entity.hopf) is not hopf:
            raise UnresolvedName("%r and coefficients %r live on different Hopf algebras"
                                 % (name, coef), ln)


def _need(pool, name, message, ln):
    """pool[name]; an unknown name is an UnresolvedName with message % name."""
    if name not in pool:
        raise UnresolvedName(message % (name,), ln)
    return pool[name]


def _label(space, label, ln):
    try:
        return space.labels.index(label)
    except ValueError:
        raise UnresolvedName("unknown basis label %r" % label, ln)
