"""Textual formats: s-expression terms and signature/parameter files.

Type syntax:      TY ::= NAME | 'NAME | (NAME TY*) | (-> TY TY)
Term syntax:      T  ::= (lam TY T) | (db N TY) | (sym NAME (TY*) (T*) T*)
                       | (var NAME TY T*)
A text is split into one list of tokens, its comments dropped: by str
methods when it holds no string, no comment and no blank pair ``( )``, else
by the regex ``_TOKEN``, which defines a token either way.  A term is read
in one pass over that list, each node built at its closing parenthesis on
an explicit stack, a declared constant ``(sym NAME () ())`` in one step,
then typed by ``term.type_of``, which checks only the nodes its signature
has not typed; it is normalized only on an under-applied spine.  A fault
names its token by number; only a ParseError finds that token in the text
again, for its line and column.

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
      (watershed NAME)                              ; required for LPO
      (ordinal-weights))                            ; opt in to transfinite weights

Ordinal literals follow ordinal.parse_ord: ``3``, ``w``, ``w^2*3+w+1``; forms
with spaces can be double-quoted.
"""

from __future__ import annotations

import functools
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
    """A fault at a token of the text being read, named by its number in
    the text's tokens; None is the start of the text."""

    def __init__(self, message: str, at: Optional[int]):
        super().__init__(message)
        self.at = at


def _positioned(read):
    """Let ``read(text, ...)`` report a fault as a ParseError at the line
    and column of its token in ``text``."""

    @functools.wraps(read)
    def reader(text: str, *args, **kwargs):
        try:
            return read(text, *args, **kwargs)
        except _Fault as fault:
            at = 0 if fault.at is None else _token_starts(text)[fault.at]
            raise ParseError(fault.args[0], *_line_col(text, at)) from fault.__cause__

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


# One token: an empty list, a parenthesis, an atom, a string (a quote that
# opens a string not closed on its line stops at its end), or a comment.
# Only blanks start no token, so the tokens of a text hold all of it but them.
_TOKEN = re.compile(r'\(\s*\)|[()]|[^\s();"]+|"[^"\n]*"?|;[^\n]*')


# A parenthesis pair with only blanks between: one ``_TOKEN``, two words.
_BLANK_PAIR = re.compile(r"\(\s+\)")


def _tokens(text: str) -> List[str]:
    """The tokens of ``text`` but its comments.  A text with no string, no
    comment and no blank pair is split by str methods, which give the same
    tokens as ``_TOKEN``: a blank is what both call whitespace, and every
    empty list, written ``()``, is padded to ``(  )`` and joined again."""
    if '"' in text or ";" in text or _BLANK_PAIR.search(text):
        tokens = _TOKEN.findall(text)
        return [tok for tok in tokens if tok[0] != ";"] if ";" in text else tokens
    return text.replace("(", " ( ").replace(")", " ) ").replace("(  )", "()").split()


def _token_starts(text: str) -> List[int]:
    """The offset in ``text`` of each of its tokens but its comments."""
    return [m.start() for m in _TOKEN.finditer(text) if m.group()[0] != ";"]


Atom = namedtuple("Atom", "text at")
SList = namedtuple("SList", "items at")
SExpr = Union[Atom, SList]


def _sexprs(tokens: List[str]) -> List[SExpr]:
    """Every s-expression of ``tokens``, each read from its first token on."""
    exprs, i = [], 0
    while i < len(tokens):
        e, _, i = _read(tokens, i, None, _SEXPR)
        exprs.append(e)
    return exprs


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
_SYM_SLOTS = (_KEYWORD, _SYMBOL, _TYPES, _TERMS, _TERM)
_ARGS = (_TERM,) * 5        # a spine entered in one step; see ``_read``
# Each term keyword: the roles of its list's children, the fewest children
# the list takes, the fault when it has fewer, and the preterm it builds;
# ``_read`` builds a symbol's itself, the list it closes most often.
_FORMS = {
    "lam": ((_KEYWORD, _TYPE, _TERM, _EXTRA, _EXTRA), 3, _LAM_ARITY,
            lambda x: Lam(x[1], x[2])),
    "db": ((_KEYWORD, _INDEX, _TYPE, _TERM, _TERM), 3,
           "(db N TY T*) needs an index and a type",
           lambda x: Db(x[1], x[2], tuple(x[3:]))),
    "var": ((_KEYWORD, _VARNAME, _TYPE, _TERM, _TERM), 3,
            "(var NAME TY T*) needs a name and a type",
            lambda x: Var(x[1], x[2], tuple(x[3:]))),
    "sym": (_SYM_SLOTS, 4,
            "(sym NAME (TY*) (T*) T*) needs name, type and parameter lists", None),
}
# the fault of an atom in a role lists fill, or of a list in one atoms fill
_MISPLACED = {_TERM: "expected a term", _TYPES: "expected type arguments",
              _TERMS: "expected parameters", _KEYWORD: "expected a term keyword",
              _TYCON: "expected a type constructor name",
              _INDEX: "index must be a natural number",
              _VARNAME: "expected a variable name", _SYMBOL: "expected a symbol name"}


def _close(kind: int, at: int, items: list, sig: Signature):
    """The value of a list, built at its closing parenthesis.  A type list's
    token is its head, where its faults point; a constructor atom reads as
    the list of itself."""
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


def _read(tokens: List[str], i: int, sig: Optional[Signature], role: int):
    """Read the one s-expression, type or term (``role``) whose first token
    is number ``i`` of ``tokens``; return it, that number, and the number of
    the token after its last.  The innermost open list is held in locals, its
    kind, token number, children and their roles; the lists around it wait
    on a stack.  A term that opens with ``(sym NAME () ()``, NAME declared
    and written bare, is entered in one step, and a constant ``(sym NAME ()
    ())`` is closed in that step too: none of those tokens can fault.  A
    spine so entered holds only its arguments, its roles are ``_ARGS`` and
    its kind is NAME."""
    stack: list = []
    kind = start = roles = None
    items: Optional[list] = None      # the innermost open list's children
    symbols = sig.symbols if sig is not None else {}
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok == ")":
            if items is None:
                raise _Fault("unbalanced )", i)
            if roles is _ARGS:
                value = Sym(kind, (), (), tuple(items))
            elif roles is _SYM_SLOTS and len(items) >= 4:  # see _FORMS
                value = Sym(items[1], items[2], items[3], tuple(items[4:]))
            else:
                value = _close(kind, start, items, sig)
            if not stack:
                return value, start, i + 1
            kind, start, items, roles = stack.pop()
            items.append(value)
            i += 1
            continue
        if roles is _ARGS:
            role = _TERM
        elif items is not None:
            k = len(items)
            role = roles[k if k < _SLOTS else -1]
            if role == _EXTRA:
                raise _Fault(_LAM_ARITY, start)
        if tok == "(":
            if (role == _TERM and i + 4 < n and tokens[i + 1] == "sym"
                    and tokens[i + 3] == "()" and tokens[i + 4] == "()"
                    and tokens[i + 2] in symbols and tokens[i + 2][0] not in "()"):
                if i + 5 < n and tokens[i + 5] == ")":
                    value = Sym(tokens[i + 2], (), (), ())
                    if items is None:
                        return value, i, i + 6
                    items.append(value)
                    i += 6
                    continue
                if items is not None:
                    stack.append((kind, start, items, roles))
                kind, start, items, roles = tokens[i + 2], i, [], _ARGS
                i += 5
                continue
            if role > _TERMS:
                raise _Fault(_MISPLACED[role], i)
            if items is not None:
                stack.append((kind, start, items, roles))
            kind, start, items, roles = role, i, [], _LIST_SLOTS[role]
            i += 1
            continue
        first = tok[0]
        if first == "(":
            # an empty list, of type arguments or parameters most often
            if role > _TERMS:
                raise _Fault(_MISPLACED[role], i)
            value = () if role >= _TYPES else _close(role, i, [], sig)
        else:
            if first == '"':
                if len(tok) == 1 or tok[-1] != '"':
                    raise _Fault("unterminated string", i)
                tok = tok[1:-1]
            value = tok
            if role == _KEYWORD:
                if value not in _FORMS:
                    raise _Fault("unknown term keyword %s" % value, i)
                roles = _FORMS[value][0]
            elif role == _SYMBOL:
                if value not in symbols:
                    raise _Fault("unknown symbol %s" % value, i)
            elif role == _TYPE:
                value = (TyVar(value[1:]) if value.startswith("'")
                         else _close(_TYPE, i, [value], sig))
            elif role == _TYCON:
                start = i
            elif role == _INDEX:
                if not value.isdecimal():
                    raise _Fault("index must be a natural number", i)
                value = int(value)
            elif role == _SEXPR:
                value = Atom(value, i)
            elif role != _VARNAME:
                raise _Fault(_MISPLACED[role], i)
        if items is None:
            return value, i, i + 1
        items.append(value)
        i += 1
    if items is not None:
        raise _Fault("unbalanced (", start)
    raise _Fault("expected exactly one expression, found 0", None)


@_positioned
def parse_term(text: str, sig: Signature) -> Preterm:
    """Read and type one term; normalize it only if a spine is under-applied."""
    tokens = _tokens(text)
    t, at, end = _read(tokens, 0, sig, _TERM)
    if end < len(tokens):
        # at the first expression too many
        raise _Fault("expected exactly one expression, found %d"
                     % len(_sexprs(tokens)), end)
    read = t
    try:
        try:
            tm.type_of(t, sig)
        except tm.UnderApplied:
            # eta-expand the under-applied spines; any other fault is the first
            t = normalize(t, sig)
            tm.type_of(t, sig)
    except tm.TermError as exc:
        raise _Fault(str(exc), _fault_token(tokens, read, exc, at)) from exc
    return t


def _fault_token(tokens: List[str], t: Preterm, fault: tm.TermError, root: int) -> int:
    """The token of a typing fault in the term ``t`` read from ``tokens``:
    the first occurrence of the node that ``fault`` names, or of its named
    child there (identical subterms fail alike); ``root`` when ``t`` holds
    no such node, as when the fault lies in a spine that normalizing
    repaired.  Reads the tokens again, as s-expressions, and walks them
    with ``t`` in text order."""
    if fault.node is None:
        return root
    stack = [(t, _read(tokens, root, None, _SEXPR)[0])]
    while stack:
        u, e = stack.pop()
        items = e.items
        if isinstance(u, Sym):
            kids = items[3].items + items[4:]
        else:
            kids = items[2:] if isinstance(u, Lam) else items[3:]
        if u is fault.node:
            return (e if fault.child is None else kids[fault.child]).at
        stack += reversed(list(zip(tm.children(u), kids)))
    return root


def parse_term_file(path: str, sig: Signature) -> Preterm:
    return parse_term(_read_file(path), sig)


# ---------------------------------------------------------------------------
# Signature files
# ---------------------------------------------------------------------------

def _parse_ord_atom(e: SExpr, transfinite: bool) -> Ord:
    try:
        v = parse_ord(_expect_atom(e, "an ordinal literal"))
    except ValueError as exc:
        raise _Fault(str(exc), e.at) from exc
    # transfinite values are opt-in; the common configuration is finite
    if not (transfinite or v.is_natural()) and v.is_ordinal():
        raise _Fault("%s is transfinite; add (ordinal-weights) to use it" % e.text, e.at)
    return v


_SECTIONS = ("types", "symbols", "weights", "tyweights", "coeffs", "wlam", "wdb",
             "precedence", "typrecedence", "watershed", "ordinal-weights")


@_positioned
def parse_signature(text: str, kind: str) -> Tuple[Signature, OrderParams]:
    """Parse the signature plus order-parameter file and validate every
    constraint the orders rely on.  Violations are reported by name."""
    tokens = _tokens(text)
    exprs = _sexprs(tokens)
    if len(exprs) != 1:
        # at the first expression too many, or at the start of an empty text
        raise _Fault("expected exactly one expression, found %d" % len(exprs),
                     exprs[1].at if exprs else None)
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
        return _read(tokens, e.at, sig, _TYPE)[0]

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

    transfinite = "ordinal-weights" in sections

    def table(name: str, what: str, read_key) -> dict:
        out = {}
        for item in section(name):
            key, value = _expect_pair(item, what)
            key = read_key(key)
            if key in out:
                raise _Fault("repeated entry in (%s ...)" % name, item.at)
            out[key] = _parse_ord_atom(value, transfinite)
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

    kwargs = dict(weights=weights, coeffs=coeffs, prec=prec,
                  ty_weights=ty_weights, ty_prec=ty_prec, watershed=watershed)
    for key, arg in (("wlam", "w_lam"), ("wdb", "w_db")):
        if key in sections:
            kwargs[arg] = _parse_ord_atom(_expect_pair(sections[key], "(%s ORD)" % key)[1],
                                          transfinite)
    try:
        params = OrderParams(sig, kind, **kwargs)
    except OrderError as exc:
        raise _Fault("invalid order parameters: %s" % exc, root.at) from exc
    return sig, params


def parse_signature_file(path: str, kind: str) -> Tuple[Signature, OrderParams]:
    return parse_signature(_read_file(path), kind)


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

