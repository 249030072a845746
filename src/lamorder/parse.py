"""Textual formats: s-expression terms and signature/parameter files.

Type syntax:      TY ::= NAME | 'NAME | (NAME TY*) | (-> TY TY)
Term syntax:      T  ::= (lam TY T) | (db N TY) | (sym NAME (TY*) (T*) T*)
                       | (var NAME TY T*)
A term is read in one pass, each node built at its closing parenthesis on an
explicit stack, then typed by ``term.type_of``, which checks only the nodes
its signature has not typed; it is normalized only on an under-applied spine.
Positions are character offsets until a ParseError gives line and column.

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

import functools
import itertools
import re
from collections import namedtuple
from typing import List, Optional, Tuple, Union

from .lambda_order import OrderError, OrderParams
from .ordinal import Ord, parse_ord
from . import term as tm
from .term import (Db, Lam, Preterm, Signature, Sym, TyCon, TyVar, Type,
                   TypeDecl, Var, normalize)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


class _Fault(Exception):
    """A fault at a character offset of the text being read."""

    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.at = at


def _positioned(read):
    """Let ``read(text, ...)`` report a fault as a ParseError at the line
    and column of its offset in ``text``."""

    @functools.wraps(read)
    def reader(text: str, *args, **kwargs):
        try:
            return read(text, *args, **kwargs)
        except _Fault as fault:
            raise ParseError(fault.args[0], *_line_col(text, fault.at)) from fault.__cause__

    return reader


def _line_col(text: str, at: int) -> Tuple[int, int]:
    """The line and column, from 1, of the offset ``at`` in ``text``."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _read_file(path: str) -> str:
    """The text of a UTF-8 file, its newlines read as ``open`` reads them; a
    byte that is not UTF-8 is a ParseError at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        raise ParseError("byte 0x%02x is not UTF-8" % data[exc.start],
                         *_line_col(before, len(before))) from None


# One token, after any blanks and comments: an opening parenthesis, an empty
# list, a closing parenthesis, an atom, a string (its content), or a quote
# that opens a string not closed on its line.  A comment must run to the end
# of its line, so that no backtracking can split it into an atom.
_TOKEN = re.compile(r'(?:\s|;[^\n]*(?![^\n]))*'
                    r'(?:(\()(?!\s*\))|(\(\s*\))|(\))|([^\s();"]+)|"([^"\n]*)"|("))')
_OPEN, _EMPTY, _CLOSE, _WORD, _STRING = 1, 2, 3, 4, 5


def _tokens(text: str, at: int = 0):
    """The tokens of ``text`` from offset ``at``.  Every character but blanks
    and comments starts a token, so they end where only those are left."""
    return iter(_TOKEN.scanner(text, at).match, None)

Atom = namedtuple("Atom", "text at")
SList = namedtuple("SList", "items at")
SExpr = Union[Atom, SList]


@_positioned
def read_sexprs(text: str) -> List[SExpr]:
    """Every s-expression of ``text``, each read from its first token on."""
    tokens = _tokens(text)
    return [_read(itertools.chain((m,), tokens), None, _SEXPR)[0] for m in tokens]


def _expect_atom(e: SExpr, what: str) -> str:
    if not isinstance(e, Atom):
        raise _Fault("expected %s" % what, e.at)
    return e.text


def _expect_list(e: SExpr, what: str) -> List[SExpr]:
    if not isinstance(e, SList):
        raise _Fault("expected %s" % what, e.at)
    return e.items


def _expect_pair(e: SExpr, what: str) -> List[SExpr]:
    items = _expect_list(e, what)
    if len(items) != 2:
        raise _Fault("expected %s" % what, e.at)
    return items


def _parse_nat(e: SExpr, what: str) -> int:
    if not isinstance(e, Atom) or not e.text.isdecimal():
        raise _Fault("%s must be a natural number" % what, e.at)
    return int(e.text)


# ---------------------------------------------------------------------------
# Types and terms
# ---------------------------------------------------------------------------

# The role of each child of a list, by position; the last role is that of
# every later child.  Lists fill the first five roles, atoms the others.
(_SEXPR, _TERM, _TYPE, _TYPES, _TERMS, _KEYWORD, _TYCON, _INDEX, _VARNAME,
 _SYMBOL, _EXTRA) = range(11)
_SLOTS = 5
_LIST_SLOTS = {_SEXPR: (_SEXPR,) * 5, _TERM: (_KEYWORD,) + (_TERM,) * 4,
               _TYPE: (_TYCON,) + (_TYPE,) * 4, _TYPES: (_TYPE,) * 5,
               _TERMS: (_TERM,) * 5}
_LAM_ARITY = "(lam TY T) takes two arguments"
# Each term keyword: the roles of its list's children, the fewest children
# the list takes, the fault when it has fewer, and the preterm it builds.
_FORMS = {
    "lam": ((_KEYWORD, _TYPE, _TERM, _EXTRA, _EXTRA), 3, _LAM_ARITY,
            lambda x: Lam(x[1], x[2])),
    "db": ((_KEYWORD, _INDEX, _TYPE, _TERM, _TERM), 3,
           "(db N TY T*) needs an index and a type",
           lambda x: Db(x[1], x[2], tuple(x[3:]))),
    "var": ((_KEYWORD, _VARNAME, _TYPE, _TERM, _TERM), 3,
            "(var NAME TY T*) needs a name and a type",
            lambda x: Var(x[1], x[2], tuple(x[3:]))),
    "sym": ((_KEYWORD, _SYMBOL, _TYPES, _TERMS, _TERM), 4,
            "(sym NAME (TY*) (T*) T*) needs name, type and parameter lists",
            lambda x: Sym(x[1], x[2], x[3], tuple(x[4:]))),
}
# the fault of an atom in a role lists fill, or of a list in one atoms fill
_MISPLACED = {_TERM: "expected a term", _TYPES: "expected type arguments",
              _TERMS: "expected parameters", _KEYWORD: "expected a term keyword",
              _TYCON: "expected a type constructor name",
              _INDEX: "index must be a natural number",
              _VARNAME: "expected a variable name", _SYMBOL: "expected a symbol name"}


def _close(kind: int, at: int, items: list, sig: Signature):
    """The value of a list, built at its closing parenthesis.  A type list's
    offset is that of its head, where its faults point; a constructor atom
    reads as the list of itself."""
    if kind == _SEXPR:
        return SList(items, at)
    if kind == _TERM:
        if not items:
            raise _Fault("empty term", at)
        _, need, fault, build = _FORMS[items[0]]
        if len(items) < need:
            raise _Fault(fault, at)
        return build(items)
    if kind == _TYPE:
        if not items:
            raise _Fault("empty type", at)
        name, args = items[0], tuple(items[1:])
        declared = sig.type_constructors.get(name)
        if declared is None:
            raise _Fault("unknown type constructor %s" % name, at)
        if declared != len(args):
            raise _Fault("type constructor %s expects %d arguments, got %d"
                         % (name, declared, len(args)), at)
        return TyCon(name, args)
    return tuple(items)


def _read(tokens, sig: Optional[Signature], role: int):
    """Read the one s-expression, type or term (``role``) whose first token
    ``tokens`` yields next, leaving ``tokens`` after its last; return it and
    its offset.  Each open list is a frame ``[kind, offset, children,
    roles]``."""
    stack: list = []
    for m in tokens:
        kind = m.lastindex
        if kind == _CLOSE:
            if not stack:
                raise _Fault("unbalanced )", m.start(kind))
            role, at, items, _ = stack.pop()
            value = _close(role, at, items, sig)
        else:
            if stack:
                frame = stack[-1]
                n = len(frame[2])
                role = frame[3][n if n < _SLOTS else -1]
                if role == _EXTRA:
                    raise _Fault(_LAM_ARITY, frame[1])
            if kind <= _EMPTY:
                at = m.start(kind)
                if role > _TERMS:
                    raise _Fault(_MISPLACED[role], at)
                if kind == _OPEN:
                    stack.append([role, at, [], _LIST_SLOTS[role]])
                    continue
                value = _close(role, at, [], sig)
            else:
                if kind > _STRING:
                    raise _Fault("unterminated string", m.start(kind))
                value, at = m.group(kind), m.start(kind) - (kind == _STRING)
                if role == _KEYWORD:
                    if value not in _FORMS:
                        raise _Fault("unknown term keyword %s" % value, at)
                    frame[3] = _FORMS[value][0]
                elif role == _SYMBOL:
                    if value not in sig.symbols:
                        raise _Fault("unknown symbol %s" % value, at)
                elif role == _TYPE:
                    value = (TyVar(value[1:]) if value.startswith("'")
                             else _close(_TYPE, at, [value], sig))
                elif role == _TYCON:
                    frame[1] = at
                elif role == _INDEX:
                    if not value.isdecimal():
                        raise _Fault("index must be a natural number", at)
                    value = int(value)
                elif role == _SEXPR:
                    value = Atom(value, at)
                elif role != _VARNAME:
                    raise _Fault(_MISPLACED[role], at)
        if not stack:
            return value, at
        stack[-1][2].append(value)
    if stack:
        raise _Fault("unbalanced (", stack[-1][1])
    raise _Fault("expected exactly one expression, found 0", 0)


@_positioned
def parse_term(text: str, sig: Signature) -> Preterm:
    """Read and type one term; normalize it only if a spine is under-applied."""
    tokens = _tokens(text)
    t, at = _read(tokens, sig, _TERM)
    if next(tokens, None) is not None:
        raise _Fault("expected exactly one expression, found %d"
                     % len(read_sexprs(text)), 0)
    try:
        try:
            tm.type_of(t, sig)
        except tm.UnderApplied:
            # eta-expand the under-applied spines; any other fault is the first
            t = normalize(t, sig)
            tm.type_of(t, sig)
    except tm.TermError as exc:
        raise _Fault(str(exc), at) from exc
    return t


def parse_term_file(path: str, sig: Signature) -> Preterm:
    return parse_term(_read_file(path), sig)


# ---------------------------------------------------------------------------
# Signature files
# ---------------------------------------------------------------------------

def _parse_ord_atom(e: SExpr) -> Ord:
    try:
        return parse_ord(_expect_atom(e, "an ordinal literal"))
    except ValueError as exc:
        raise _Fault(str(exc), e.at) from exc


_SECTIONS = ("types", "symbols", "weights", "tyweights", "coeffs", "wlam", "wdb",
             "precedence", "typrecedence", "watershed", "ordinal-weights")


@_positioned
def parse_signature(text: str, kind: str,
                    strict_leaks: bool = False) -> Tuple[Signature, OrderParams]:
    """Parse the signature plus order-parameter file and validate every
    constraint the orders rely on.  Violations are reported by name."""
    exprs = read_sexprs(text)
    if len(exprs) != 1:
        raise _Fault("expected exactly one expression, found %d" % len(exprs), 0)
    root = exprs[0]
    entries = _expect_list(root, "(signature ...)")
    if not entries or not isinstance(entries[0], Atom) or entries[0].text != "signature":
        raise _Fault("expected (signature ...)", root.at)
    sig = Signature()
    sections = {}
    for entry in entries[1:]:
        items = _expect_list(entry, "a signature section")
        if not items:
            raise _Fault("empty section", entry.at)
        key = _expect_atom(items[0], "a section name")
        if key not in _SECTIONS:
            raise _Fault("unknown section %s" % key, items[0].at)
        if key in sections:
            raise _Fault("repeated section %s" % key, items[0].at)
        sections[key] = entry

    def section(name: str) -> List[SExpr]:
        return sections[name].items[1:] if name in sections else []

    def parse_type(e: SExpr) -> Type:
        return _read(_tokens(text, e.at), sig, _TYPE)[0]

    for item in section("types"):
        name, arity = _expect_pair(item, "(NAME ARITY)")
        name = _expect_atom(name, "a type name")
        arity = _parse_nat(arity, "arity")
        try:
            sig.add_type(name, arity)
        except tm.TermError as exc:
            raise _Fault(str(exc), item.at) from exc

    if "symbols" not in sections:
        raise _Fault("missing (symbols ...) section", root.at)
    for item in section("symbols"):
        decl = _expect_list(item, "(NAME (TYVAR*) (TY*) TY)")
        if len(decl) != 4:
            raise _Fault("symbol declaration takes name, type variables, "
                         "parameter types and a body type", item.at)
        name = _expect_atom(decl[0], "a symbol name")
        ty_vars = tuple(_expect_atom(x, "a type variable")
                        for x in _expect_list(decl[1], "type variables"))
        # tyvars may be written with or without the quote
        ty_vars = tuple(v[1:] if v.startswith("'") else v for v in ty_vars)
        param_tys = tuple(map(parse_type, _expect_list(decl[2], "parameter types")))
        body = parse_type(decl[3])
        try:
            sig.add_symbol(name, TypeDecl(ty_vars, param_tys, body))
        except tm.TermError as exc:
            raise _Fault(str(exc), item.at) from exc

    def table(name: str, what: str, read_key) -> dict:
        out = {}
        for item in section(name):
            key, value = _expect_pair(item, what)
            key = read_key(key)
            if key in out:
                raise _Fault("repeated entry in (%s ...)" % name, item.at)
            out[key] = _parse_ord_atom(value)
        return out

    def coeff_key(e: SExpr) -> Tuple[str, int]:
        name, idx = _expect_pair(e, "(NAME INDEX)")
        return _expect_atom(name, "a symbol"), _parse_nat(idx, "index")

    weights = table("weights", "(NAME ORD)", lambda e: _expect_atom(e, "a symbol"))
    ty_weights = table("tyweights", "(NAME ORD)",
                       lambda e: _expect_atom(e, "a type constructor"))
    coeffs = table("coeffs", "((NAME INDEX) ORD)", coeff_key)

    prec = None
    if "precedence" in sections:
        prec = [_expect_atom(x, "a symbol") for x in section("precedence")]
    ty_prec = None
    if "typrecedence" in sections:
        ty_prec = [_expect_atom(x, "a type constructor") for x in section("typrecedence")]
    watershed = None
    if "watershed" in sections:
        watershed = _expect_atom(
            _expect_pair(sections["watershed"], "(watershed SYMBOL)")[1], "a symbol")
    extra = section("ordinal-weights")
    if extra:
        raise _Fault("(ordinal-weights) takes no arguments", extra[0].at)
    ordinal_weights = "ordinal-weights" in sections

    kwargs = dict(weights=weights, coeffs=coeffs, prec=prec,
                  ty_weights=ty_weights, ty_prec=ty_prec, watershed=watershed,
                  strict_leaks=strict_leaks, ordinal_weights=ordinal_weights)
    for key, arg in (("wlam", "w_lam"), ("wdb", "w_db")):
        if key in sections:
            kwargs[arg] = _parse_ord_atom(_expect_pair(sections[key], "(%s ORD)" % key)[1])
    try:
        params = OrderParams(sig, kind, **kwargs)
    except OrderError as exc:
        raise _Fault("invalid order parameters: %s" % exc, root.at) from exc
    return sig, params


def parse_signature_file(path: str, kind: str,
                         strict_leaks: bool = False) -> Tuple[Signature, OrderParams]:
    return parse_signature(_read_file(path), kind, strict_leaks)


# ---------------------------------------------------------------------------
# Rendering (round-trip support and debugging)
# ---------------------------------------------------------------------------

def _list(*parts) -> list:
    return ["(", *tm.interleave(" ", parts), ")"]


# the table of the term syntax: a type is written as ``repr`` writes it, a
# tuple of types or preterms as the list of its members
_SYNTAX = {
    TyVar: tm.REPR[TyVar],
    TyCon: tm.REPR[TyCon],
    Lam: lambda x: _list("lam", x.arg_ty, x.body),
    Db: lambda x: _list("db", str(x.index), x.ty, *x.args),
    Var: lambda x: _list("var", x.name, x.ty, *x.args),
    Sym: lambda x: _list("sym", x.name, x.ty_args, x.params, *x.args),
    tuple: lambda x: _list(*x),
}


def render_term(x) -> str:
    """The text of a preterm or a type."""
    return tm.write(x, _SYNTAX)

