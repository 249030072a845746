"""Textual formats: s-expression terms and signature/parameter files.

Type syntax:      TY ::= NAME | 'NAME | (NAME TY*) | (-> TY TY)
Term syntax:      T  ::= (lam TY T) | (db N TY) | (sym NAME (TY*) (T*) T*)
                       | (var NAME TY T*)
Terms are normalized (beta, then eta-long) on parse.

A signature file is one s-expression:

    (signature
      (types (NAME ARITY) ...)
      (symbols (NAME (TYVAR*) (TY*) TY) ...)        ; name, foralls, params, body
      (weights (NAME ORD) ...)                      ; default 1
      (wlam ORD) (wdb ORD)
      (coeffs ((NAME INDEX) ORD) ...)               ; 1-based argument index
      (precedence NAME ...)                         ; increasing
      (tyweights (NAME ORD) ...)
      (typrecedence NAME ...)                       ; increasing
      (watershed NAME)                              ; LPO only
      (ordinal-weights))                            ; opt in to transfinite weights

Ordinal literals follow ordinal.parse_ord: ``3``, ``w``, ``w^2*3+w+1``; forms
with spaces can be double-quoted.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .lambda_order import OrderParams
from .ordinal import Ord, parse_ord
from . import term as tm
from .term import (Db, Lam, Preterm, Signature, Sym, TyCon, TyVar, Type,
                   TypeDecl, Var, normalize)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


class Atom:
    __slots__ = ("text", "line", "col", "quoted")

    def __init__(self, text: str, line: int, col: int, quoted: bool = False):
        self.text = text
        self.line = line
        self.col = col
        self.quoted = quoted

    def __repr__(self):
        return self.text


class SList:
    __slots__ = ("items", "line", "col")

    def __init__(self, items: List, line: int, col: int):
        self.items = items
        self.line = line
        self.col = col

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]


SExpr = Union[Atom, SList]


def _tokenize(text: str):
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield (c, line, col, False)
            col += 1
            i += 1
        elif c == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise ParseError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            yield ("".join(buf), start_line, start_col, True)
        else:
            start_line, start_col = line, col
            buf = []
            while i < n and not text[i].isspace() and text[i] not in '();"':
                buf.append(text[i])
                i += 1
                col += 1
            yield ("".join(buf), start_line, start_col, False)


def read_sexprs(text: str) -> List[SExpr]:
    stack: List[SList] = []
    top: List[SExpr] = []
    for tok, line, col, quoted in _tokenize(text):
        if tok == "(" and not quoted:
            stack.append(SList([], line, col))
        elif tok == ")" and not quoted:
            if not stack:
                raise ParseError("unbalanced )", line, col)
            done = stack.pop()
            (stack[-1].items if stack else top).append(done)
        else:
            node = Atom(tok, line, col, quoted)
            (stack[-1].items if stack else top).append(node)
    if stack:
        raise ParseError("unbalanced (", stack[-1].line, stack[-1].col)
    return top


def read_one(text: str) -> SExpr:
    exprs = read_sexprs(text)
    if len(exprs) != 1:
        raise ParseError("expected exactly one expression, found %d" % len(exprs), 1, 1)
    return exprs[0]


def _expect_atom(e: SExpr, what: str) -> Atom:
    if not isinstance(e, Atom):
        raise ParseError("expected %s" % what, e.line, e.col)
    return e


def _expect_list(e: SExpr, what: str) -> SList:
    if not isinstance(e, SList):
        raise ParseError("expected %s" % what, e.line, e.col)
    return e


def _expect_pair(e: SExpr, what: str) -> SList:
    lst = _expect_list(e, what)
    if len(lst) != 2:
        raise ParseError("expected %s" % what, lst.line, lst.col)
    return lst


def _parse_nat(e: SExpr, what: str) -> int:
    if not isinstance(e, Atom) or not e.text.isdecimal():
        raise ParseError("%s must be a natural number" % what, e.line, e.col)
    return int(e.text)


# ---------------------------------------------------------------------------
# Types and terms
# ---------------------------------------------------------------------------

def parse_type(e: SExpr, sig: Optional[Signature] = None) -> Type:
    if isinstance(e, Atom):
        if e.text.startswith("'"):
            return TyVar(e.text[1:])
        _check_tycon(e, e.text, 0, sig)
        return TyCon(e.text)
    lst = _expect_list(e, "a type")
    if not lst.items:
        raise ParseError("empty type", lst.line, lst.col)
    head = _expect_atom(lst[0], "a type constructor name")
    args = tuple(parse_type(x, sig) for x in lst.items[1:])
    _check_tycon(head, head.text, len(args), sig)
    return TyCon(head.text, args)


def _check_tycon(e: SExpr, name: str, arity: int, sig: Optional[Signature]) -> None:
    if sig is None:
        return
    declared = sig.type_constructors.get(name)
    if declared is None:
        raise ParseError("unknown type constructor %s" % name, e.line, e.col)
    if declared != arity:
        raise ParseError("type constructor %s expects %d arguments, got %d"
                         % (name, declared, arity), e.line, e.col)


def parse_raw_term(e: SExpr, sig: Signature) -> Preterm:
    lst = _expect_list(e, "a term")
    if not lst.items:
        raise ParseError("empty term", lst.line, lst.col)
    head = _expect_atom(lst[0], "a term keyword")
    kw = head.text
    if kw == "lam":
        if len(lst) != 3:
            raise ParseError("(lam TY T) takes two arguments", lst.line, lst.col)
        return Lam(parse_type(lst[1], sig), parse_raw_term(lst[2], sig))
    if kw == "db":
        if len(lst) < 3:
            raise ParseError("(db N TY T*) needs an index and a type", lst.line, lst.col)
        idx = _parse_nat(lst[1], "index")
        args = tuple(parse_raw_term(x, sig) for x in lst.items[3:])
        return Db(idx, parse_type(lst[2], sig), args)
    if kw == "var":
        if len(lst) < 3:
            raise ParseError("(var NAME TY T*) needs a name and a type", lst.line, lst.col)
        name = _expect_atom(lst[1], "a variable name").text
        ty = parse_type(lst[2], sig)
        args = tuple(parse_raw_term(x, sig) for x in lst.items[3:])
        return Var(name, ty, args)
    if kw == "sym":
        if len(lst) < 4:
            raise ParseError("(sym NAME (TY*) (T*) T*) needs name, type and "
                             "parameter lists", lst.line, lst.col)
        name_atom = _expect_atom(lst[1], "a symbol name")
        if name_atom.text not in sig.symbols:
            raise ParseError("unknown symbol %s" % name_atom.text,
                             name_atom.line, name_atom.col)
        ty_args = tuple(parse_type(x, sig) for x in _expect_list(lst[2], "type arguments").items)
        params = tuple(parse_raw_term(x, sig) for x in _expect_list(lst[3], "parameters").items)
        args = tuple(parse_raw_term(x, sig) for x in lst.items[4:])
        return Sym(name_atom.text, ty_args, params, args)
    raise ParseError("unknown term keyword %s" % kw, head.line, head.col)


def parse_term(text: str, sig: Signature) -> Preterm:
    """Parse, type-check and normalize one term."""
    e = read_one(text)
    raw = parse_raw_term(e, sig)
    try:
        t = normalize(raw, sig)
        tm.check_types(t, sig)
    except tm.TermError as exc:
        raise ParseError(str(exc), e.line, e.col) from exc
    return t


def parse_term_file(path: str, sig: Signature) -> Preterm:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_term(fh.read(), sig)


# ---------------------------------------------------------------------------
# Signature files
# ---------------------------------------------------------------------------

def _parse_ord_atom(e: SExpr) -> Ord:
    a = _expect_atom(e, "an ordinal literal")
    try:
        return parse_ord(a.text)
    except ValueError as exc:
        raise ParseError(str(exc), a.line, a.col) from exc


_SECTIONS = ("types", "symbols", "weights", "tyweights", "coeffs", "wlam", "wdb",
             "precedence", "typrecedence", "watershed", "ordinal-weights")


def parse_signature(text: str, kind: str,
                    strict_leaks: bool = False) -> Tuple[Signature, OrderParams]:
    """Parse the signature plus order-parameter file and validate every
    constraint the orders rely on.  Violations are reported by name."""
    root = _expect_list(read_one(text), "(signature ...)")
    if not root.items or not isinstance(root[0], Atom) or root[0].text != "signature":
        raise ParseError("expected (signature ...)", root.line, root.col)
    sig = Signature()
    sections = {}
    for entry in root.items[1:]:
        lst = _expect_list(entry, "a signature section")
        if not lst.items:
            raise ParseError("empty section", lst.line, lst.col)
        key = _expect_atom(lst[0], "a section name")
        if key.text not in _SECTIONS:
            raise ParseError("unknown section %s" % key.text, key.line, key.col)
        if key.text in sections:
            raise ParseError("repeated section %s" % key.text, key.line, key.col)
        sections[key.text] = lst

    for item in sections.get("types", SList([None], 0, 0)).items[1:]:
        lst = _expect_pair(item, "(NAME ARITY)")
        name = _expect_atom(lst[0], "a type name").text
        arity = _parse_nat(lst[1], "arity")
        try:
            sig.add_type(name, arity)
        except tm.TermError as exc:
            raise ParseError(str(exc), lst.line, lst.col) from exc

    if "symbols" not in sections:
        raise ParseError("missing (symbols ...) section", root.line, root.col)
    for item in sections["symbols"].items[1:]:
        lst = _expect_list(item, "(NAME (TYVAR*) (TY*) TY)")
        if len(lst) != 4:
            raise ParseError("symbol declaration takes name, type variables, "
                             "parameter types and a body type", lst.line, lst.col)
        name = _expect_atom(lst[0], "a symbol name").text
        ty_vars = tuple(_expect_atom(x, "a type variable").text
                        for x in _expect_list(lst[1], "type variables").items)
        # tyvars may be written with or without the quote
        ty_vars = tuple(v[1:] if v.startswith("'") else v for v in ty_vars)
        param_tys = tuple(parse_type(x, None) for x in _expect_list(lst[2], "parameter types").items)
        body = parse_type(lst[3], None)
        try:
            sig.add_symbol(name, TypeDecl(ty_vars, param_tys, body))
        except tm.TermError as exc:
            raise ParseError(str(exc), lst.line, lst.col) from exc

    weights = {}
    for item in sections.get("weights", SList([None], 0, 0)).items[1:]:
        lst = _expect_pair(item, "(NAME ORD)")
        weights[_expect_atom(lst[0], "a symbol").text] = _parse_ord_atom(lst[1])
    ty_weights = {}
    for item in sections.get("tyweights", SList([None], 0, 0)).items[1:]:
        lst = _expect_pair(item, "(NAME ORD)")
        ty_weights[_expect_atom(lst[0], "a type constructor").text] = _parse_ord_atom(lst[1])
    coeffs = {}
    for item in sections.get("coeffs", SList([None], 0, 0)).items[1:]:
        lst = _expect_pair(item, "((NAME INDEX) ORD)")
        key = _expect_pair(lst[0], "(NAME INDEX)")
        name = _expect_atom(key[0], "a symbol").text
        idx = _parse_nat(key[1], "index")
        coeffs[(name, idx)] = _parse_ord_atom(lst[1])

    prec = None
    if "precedence" in sections:
        prec = [_expect_atom(x, "a symbol").text
                for x in sections["precedence"].items[1:]]
    ty_prec = None
    if "typrecedence" in sections:
        ty_prec = [_expect_atom(x, "a type constructor").text
                   for x in sections["typrecedence"].items[1:]]
    watershed = None
    if "watershed" in sections:
        entry = _expect_pair(sections["watershed"], "(watershed SYMBOL)")
        watershed = _expect_atom(entry[1], "a symbol").text
    ordinal_weights = "ordinal-weights" in sections

    from .lambda_order import OrderError
    kwargs = dict(weights=weights, coeffs=coeffs, prec=prec,
                  ty_weights=ty_weights, ty_prec=ty_prec, watershed=watershed,
                  strict_leaks=strict_leaks, ordinal_weights=ordinal_weights)
    for key, arg in (("wlam", "w_lam"), ("wdb", "w_db")):
        if key in sections:
            kwargs[arg] = _parse_ord_atom(_expect_pair(sections[key], "(%s ORD)" % key)[1])
    try:
        params = OrderParams(sig, kind, **kwargs)
    except OrderError as exc:
        raise ParseError("invalid order parameters: %s" % exc, root.line, root.col) from exc
    return sig, params


def parse_signature_file(path: str, kind: str,
                         strict_leaks: bool = False) -> Tuple[Signature, OrderParams]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_signature(fh.read(), kind, strict_leaks)


# ---------------------------------------------------------------------------
# Rendering (round-trip support and debugging)
# ---------------------------------------------------------------------------

def render_type(ty: Type) -> str:
    if isinstance(ty, TyVar):
        return "'" + ty.name
    if not ty.args:
        return ty.name
    return "(%s %s)" % (ty.name, " ".join(render_type(a) for a in ty.args))


def render_term(t: Preterm) -> str:
    if isinstance(t, Lam):
        return "(lam %s %s)" % (render_type(t.arg_ty), render_term(t.body))
    if isinstance(t, Db):
        parts = ["db", str(t.index), render_type(t.ty)] + [render_term(a) for a in t.args]
        return "(%s)" % " ".join(parts)
    if isinstance(t, Var):
        parts = ["var", t.name, render_type(t.ty)] + [render_term(a) for a in t.args]
        return "(%s)" % " ".join(parts)
    assert isinstance(t, Sym)
    parts = ["sym", t.name,
             "(%s)" % " ".join(render_type(a) for a in t.ty_args),
             "(%s)" % " ".join(render_term(p) for p in t.params)]
    parts += [render_term(a) for a in t.args]
    return "(%s)" % " ".join(parts)
