"""Typed higher-order terms in locally nameless, eta-long beta-normal spine form.

A preterm is one of four mutually exclusive shapes:

* ``Var(name, ty, args)``   -- a fully applied free variable,
* ``Sym(name, ty_args, params, args)`` -- a fully applied symbol; ``params``
  are its mandatory parenthesized arguments, which are *not* subterms,
* ``Db(index, ty, args)``   -- a fully applied De Bruijn index (``ty`` is the
  type of the index itself, i.e. of the variable the binder introduced),
* ``Lam(arg_ty, body)``     -- a lambda abstraction.

No preterm holds a beta-redex: ``app`` applies by hereditary substitution,
so every preterm is beta-normal by construction.  "Fully applied" means the
spine as a whole has non-arrow type, so terms of function type are always
lambdas; ``normalize`` establishes it by eta-expansion.  De Bruijn indices may
"leak" (point beyond all binders); substitution ignores them.

Preterms and types, which are also the first-order terms of ``fo_order``,
are hash-consed through ``Interned``, the base this module also gives the
weight indeterminates (``poly``) and the oracle's symbol keys (``oracle``):
each class's constructor returns the one value that exists for its
fields, so structurally equal values are the same object, and equality and
hash are identity.  A node is shared by every signature, so it carries only
facts that hold in all, set once from its children alone: its serial, how
many binders above it its indices reach (``loose``), the sets of the
variables it holds (``all_vars``, ``arg_vars``), its ``size``, and whether
every variable in it takes steady arguments only (``rigid``); a signature
keeps its nodes' types, a declaration its instances.
The one table keeps every distinct value for the life of the process.
"""

from __future__ import annotations

from types import FunctionType
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

ARROW = "->"


class TermError(Exception):
    """Ill-formed or ill-typed term input.  ``check_types`` names in ``node``
    the node whose rule failed and, for a child of the wrong type, in
    ``child`` that child's position in ``children(node)``."""

    def __init__(self, message: str, child: Optional[int] = None):
        super().__init__(message)
        self.node: Optional[Preterm] = None
        self.child = child


class UnderApplied(TermError):
    """A spine of arrow type: the one fault that normalizing repairs."""


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------

# The one table of interned values, keyed on each value's class and fields.
# Entries are kept for the life of the process: a workload that parses the
# same text again finds its nodes still there.
# Single-threaded use only: two threads could build one key twice.
TABLE: Dict[tuple, "Interned"] = {}


# The constructors, one per number of fields: a hit costs one key tuple and
# one lookup.  Each class takes a copy of one, with its own defaults.
def _new1(cls, a):
    key = (cls, a)
    return TABLE.get(key) or cls.intern(key)


def _new2(cls, a, b):
    key = (cls, a, b)
    return TABLE.get(key) or cls.intern(key)


def _new3(cls, a, b, c):
    key = (cls, a, b, c)
    return TABLE.get(key) or cls.intern(key)


def _new4(cls, a, b, c, d):
    key = (cls, a, b, c, d)
    return TABLE.get(key) or cls.intern(key)


class Interned:
    """A hash-consed value.  A subclass declares only its fields, in
    ``__slots__``, and in ``defaults`` the values of its omitted trailing
    fields.  Its constructor, a copy of the one in ``constructors`` for its
    number of fields, takes the fields positionally, in ``__slots__`` order,
    and returns the one value for the key ``(cls, *fields)``: the class is
    the tag, so values of two classes never share a key.  A base declared
    ``abstract`` (``Type``, ``Preterm``, ``Indet``) is never built, and its
    slots, if any, are facts its subclasses share.  ``serial`` is the
    creation number, unique since the table never drops a value.  Equality
    and hash are the object's identity."""

    __slots__ = ("serial",)
    defaults: tuple = ()
    constructors = (None, _new1, _new2, _new3, _new4)

    def __init_subclass__(cls, abstract: bool = False):
        super().__init_subclass__()
        if not abstract:
            # a copy shares the code object, so making a class compiles nothing
            new = Interned.constructors[len(cls.__slots__)]
            cls.__new__ = FunctionType(new.__code__, new.__globals__, new.__name__,
                                       cls.defaults or None)
            cls.__new__.__qualname__ = cls.__qualname__ + ".__new__"

    def __reduce__(self):
        # copies and unpickled values go through the constructor, so they intern
        return type(self), tuple(getattr(self, f) for f in type(self).__slots__)

    @classmethod
    def intern(cls, key: tuple):
        """Build and register the value for a key the table does not hold."""
        node = object.__new__(cls)
        for i, name in enumerate(cls.__slots__, 1):     # key[0] is the class
            setattr(node, name, key[i])
        node.serial = len(TABLE)
        TABLE[key] = node
        return node


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Type(Interned, abstract=True):
    __slots__ = ()

    def __repr__(self):
        return write(self, REPR)


class TyVar(Type):
    __slots__ = ("name",)
    args = ()           # a leaf, so that ``nodes`` walks types


class TyCon(Type):
    __slots__ = ("name", "args")
    defaults = ((),)


def arrow(a: Type, b: Type) -> Type:
    return TyCon(ARROW, (a, b))


def arrows(arg_tys: Sequence[Type], result: Type) -> Type:
    for a in reversed(arg_tys):
        result = arrow(a, result)
    return result


def is_arrow(ty: Type) -> bool:
    return isinstance(ty, TyCon) and ty.name == ARROW


def split_arrows(ty: Type) -> Tuple[List[Type], Type]:
    """All leading arrow argument types, and the remaining tail."""
    args: List[Type] = []
    while is_arrow(ty):
        args.append(ty.args[0])
        ty = ty.args[1]
    return args, ty


def arrow_count(ty: Type) -> int:
    n = 0
    while is_arrow(ty):
        n += 1
        ty = ty.args[1]
    return n


def type_is_ground(ty: Type) -> bool:
    return not any(isinstance(u, TyVar) for u, _ in nodes(ty))


def type_vars(ty: Type) -> set:
    return {u.name for u, _ in nodes(ty) if isinstance(u, TyVar)}


def subst_type(ty: Type, mapping: Dict[str, Type]) -> Type:
    def rule(u, d, kids):
        if isinstance(u, TyVar):
            return mapping.get(u.name, u)
        return TyCon(u.name, kids) if kids else u
    return rebuild(ty, rule)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

class TypeDecl:
    """Symbol typing: forall ty_vars, param_types => body."""

    __slots__ = ("ty_vars", "param_types", "body", "instances")

    def __init__(self, ty_vars: Sequence[str], param_types: Sequence[Type], body: Type):
        self.ty_vars = tuple(ty_vars)
        self.param_types = tuple(param_types)
        declared = set(self.ty_vars)
        repeated = sorted(v for v in declared if self.ty_vars.count(v) > 1)
        if repeated:
            raise TermError("type variables %s repeated" % repeated)
        used = set().union(*map(type_vars, self.param_types + (body,)))
        if not used <= declared:
            raise TermError("type variables %s not declared" % sorted(used - declared))
        self.body = body
        # a declaration without type variables has one instance, its own types
        self.instances = {} if self.ty_vars else {(): (self.param_types, body)}

    def instantiate(self, ty_args: Tuple[Type, ...]) -> Tuple[Tuple[Type, ...], Type]:
        """The parameter types and body at ``ty_args``, each instance built
        once and kept in ``instances``."""
        got = self.instances.get(ty_args)
        if got is None:
            if len(ty_args) != len(self.ty_vars):
                raise TermError("expected %d type arguments, got %d"
                                % (len(self.ty_vars), len(ty_args)))
            m = dict(zip(self.ty_vars, ty_args))
            got = self.instances[ty_args] = (
                tuple(subst_type(p, m) for p in self.param_types), subst_type(self.body, m))
        return got


class Signature:
    def __init__(self):
        self.type_constructors: Dict[str, int] = {ARROW: 2}
        self.symbols: Dict[str, TypeDecl] = {}
        self.types: Dict[Preterm, Type] = {}    # each checked node's type
        self.index_types: Dict[Preterm, tuple] = {}    # see _index_types
        self.checked_types: Set[Type] = set()    # each type check_type passed

    def add_type(self, name: str, arity: int) -> None:
        if name in self.symbols:
            raise TermError("type constructor name %s clashes with a symbol" % name)
        if name in self.type_constructors and self.type_constructors[name] != arity:
            raise TermError("type constructor %s redeclared" % name)
        self.type_constructors[name] = arity

    def add_symbol(self, name: str, decl: TypeDecl) -> None:
        if name in self.type_constructors:
            raise TermError("symbol name %s clashes with a type constructor" % name)
        if name in self.symbols:
            # ``types`` holds types derived from it, so a declaration is final
            raise TermError("symbol %s redeclared" % name)
        for ty in decl.param_types + (decl.body,):
            check_type(ty, self)
        self.symbols[name] = decl

    def base_types(self) -> List[Type]:
        """The nullary type constructors, in declaration order."""
        return [TyCon(n) for n, a in self.type_constructors.items() if a == 0]

    def decl(self, name: str) -> TypeDecl:
        try:
            return self.symbols[name]
        except KeyError:
            raise TermError("unknown symbol %s" % name) from None


def check_type(ty: Type, sig: Signature) -> None:
    """Raise TermError unless every constructor in ``ty`` is declared in
    ``sig`` with as many arguments as ``ty`` gives it.  Types are interned,
    so each subtype ``sig`` has checked, ``ty`` itself included, is passed
    at once, and so is a repeat within ``ty``; the subtypes visited join
    ``sig.checked_types`` only once all of ``ty`` passes."""
    checked, seen = sig.checked_types, set()
    stack = [ty]
    while stack:
        u = stack.pop()
        if u in checked or u in seen:
            continue
        seen.add(u)
        if isinstance(u, TyCon):
            arity = sig.type_constructors.get(u.name)
            if arity is None:
                raise TermError("unknown type constructor %s" % u.name)
            if arity != len(u.args):
                raise TermError("type constructor %s expects %d arguments, got %d"
                                % (u.name, arity, len(u.args)))
            stack += u.args
    checked |= seen


# ---------------------------------------------------------------------------
# Preterms
# ---------------------------------------------------------------------------

_NO_VARS: FrozenSet[Tuple[str, Type]] = frozenset()


class Preterm(Interned, abstract=True):
    """``loose`` is the number of binders above the node that its indices
    reach, parameters included (0 on a closed node), so shifting or
    substituting at ``n`` or more binders above a node with ``loose <= n``
    leaves it as it is.  ``all_vars`` is the set of the ``(name, ty)`` of
    every variable in the node, ``arg_vars`` of those outside every symbol's
    parameters, the variables of ``nodes(u, params=False)``; a De Bruijn
    index is not a variable.  ``size`` is the number of nodes in
    ``nodes(u)``.  ``rigid`` says whether every variable of the node takes
    steady arguments only.  All five are set once, in one pass over the
    children (over the arguments alone for ``arg_vars``), and a variable
    set is a child's own when it holds the whole."""

    __slots__ = ("loose", "all_vars", "arg_vars", "size", "rigid")

    __repr__ = Type.__repr__

    @classmethod
    def intern(cls, key: tuple):
        node = super().intern(key)
        size, loose, rigid, all_vars = 1, 0, True, _NO_VARS
        if cls is Lam:
            kids = args = (node.body,)
        else:
            kids = args = node.args
            if cls is Var:
                all_vars = frozenset(((node.name, node.ty),))
                rigid = _takes_steady_args(node.ty)
            elif cls is Sym and node.params:
                kids = node.params + args
        arg_vars = all_vars
        for u in kids:
            size += u.size
            if u.loose > loose:
                loose = u.loose
            if not u.rigid:
                rigid = False
            vs = u.all_vars
            if vs and not vs <= all_vars:
                all_vars = vs if all_vars <= vs else all_vars | vs
        for u in args:
            vs = u.arg_vars
            if vs and not vs <= arg_vars:
                arg_vars = vs if arg_vars <= vs else arg_vars | vs
        if cls is Db and node.index >= loose:
            loose = node.index + 1
        elif cls is Lam and loose:
            loose -= 1
        node.loose, node.all_vars, node.arg_vars, node.size, node.rigid = (
            loose, all_vars, arg_vars, size, rigid)
        return node


def _takes_steady_args(ty: Type) -> bool:
    """Whether every argument type of ``ty`` is steady.  An arrow with the
    wrong number of arguments, which typing rejects, takes its last one as
    its result."""
    while type(ty) is TyCon and ty.name == ARROW and ty.args:
        *arg_tys, ty = ty.args
        if not all(map(is_steady_type, arg_tys)):
            return False
    return True


class Var(Preterm):
    __slots__ = ("name", "ty", "args")
    defaults = ((),)


class Sym(Preterm):
    __slots__ = ("name", "ty_args", "params", "args")
    defaults = ((), (), ())


class Db(Preterm):
    __slots__ = ("index", "ty", "args")
    defaults = ((),)


class Lam(Preterm):
    __slots__ = ("arg_ty", "body")


# ---------------------------------------------------------------------------
# Walking, rebuilding and writing, on explicit stacks: no limit on a term's depth
# ---------------------------------------------------------------------------

def children(u: Preterm, params: bool = True) -> Tuple[Preterm, ...]:
    """The children of ``u``, left to right: its parameters (skipped when
    ``params`` is false) and its arguments; a lambda's body.  A type's
    children are its arguments."""
    if isinstance(u, Lam):
        return (u.body,)
    if params and isinstance(u, Sym):
        return u.params + u.args
    return u.args


def nodes(t: Preterm, params: bool = True) -> Iterator[Tuple[Preterm, int]]:
    """Every node of ``t``, a preterm or a type, in pre-order, with the
    number of lambdas above it: a node, then the nodes of each of its
    ``children``."""
    stack, d = [t], 0
    while stack:
        u = stack.pop()
        if u is None:           # the end of a lambda's body
            d -= 1
            continue
        yield u, d
        if isinstance(u, Lam):
            stack.append(None)
            d += 1
        stack += reversed(children(u, params))


def rebuild(t: Preterm, rule: Callable[[Preterm, int, tuple], object],
            params: bool = True):
    """The post-order map of ``t``: the image of a node ``u`` with ``d``
    lambdas above it is ``rule(u, d, kids)``, where ``kids`` are the images
    of ``children(u, params)``.  An image may be any value."""
    images: list = []       # reversed pre-order leaves a first child's image on top
    for u, d in reversed(list(nodes(t, params))):
        kids = tuple(images.pop() for _ in children(u, params))
        images.append(rule(u, d, kids))
    return images[0]


def remake(u: Preterm, kids: Tuple[Preterm, ...]) -> Preterm:
    """``u`` with its children replaced by ``kids``, listed as
    ``children(u)`` lists them; a spine's arguments are the members of
    ``kids`` after its parameters, so extra members are extra arguments."""
    if isinstance(u, Lam):
        return Lam(u.arg_ty, *kids)
    if isinstance(u, Sym):
        return Sym(u.name, u.ty_args, kids[:len(u.params)], kids[len(u.params):])
    if isinstance(u, Var):
        return Var(u.name, u.ty, kids)
    return Db(u.index, u.ty, kids)


def node_types(u: Preterm) -> Tuple[Type, ...]:
    """The types written in the node ``u`` itself: a lambda's binder type, a
    symbol's type arguments, a variable's or an index's type."""
    if isinstance(u, Lam):
        return (u.arg_ty,)
    if isinstance(u, Sym):
        return u.ty_args
    return (u.ty,)


def write(x, pieces: Dict[type, Callable[..., list]]) -> str:
    """The text of ``x``.  ``pieces[type(v)](v)`` lists the text of a value
    ``v``: strings, written as they are, and values, each written in its turn
    through the same table."""
    out: List[str] = []
    stack = [x]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        else:
            stack += reversed(pieces[type(x)](x))
    return "".join(out)


def interleave(sep: str, xs: Sequence) -> list:
    """The members of ``xs`` with ``sep`` between each two."""
    out = [sep] * (2 * len(xs) - 1)
    out[::2] = xs
    return out


def _spine(head: list, args: Tuple[Preterm, ...]) -> list:
    return head if not args else ["(", *head, " ", *interleave(" ", args), ")"]


def _group(opening: str, xs: tuple, closing: str) -> list:
    return [opening, *interleave(",", xs), closing] if xs else []


# the table of ``repr``: ``(-> k k)``, ``(\k. #0)``, ``(f<k,'A>(p,q) a)``
REPR: Dict[type, Callable[..., list]] = {
    TyVar: lambda x: ["'" + x.name],
    TyCon: lambda x: _spine([str(x.name)], x.args),
    Var: lambda x: _spine([x.name], x.args),
    Db: lambda x: _spine(["#%d" % x.index], x.args),
    Sym: lambda x: _spine([str(x.name), *_group("<", x.ty_args, ">"),
                           *_group("(", x.params, ")")], x.args),
    Lam: lambda x: ["(\\", x.arg_ty, ". ", x.body, ")"],
}


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------

def head_type(t: Preterm, sig: Signature) -> Type:
    """Type of the head of a spine before consuming its arguments."""
    if isinstance(t, Var) or isinstance(t, Db):
        return t.ty
    if isinstance(t, Sym):
        decl = sig.decl(t.name)
        param_tys, body = decl.instantiate(t.ty_args)
        if len(t.params) != len(param_tys):
            raise TermError("symbol %s expects %d parameters, got %d"
                            % (t.name, len(param_tys), len(t.params)))
        return body
    raise TermError("not a spine head: %r" % t)


def spine_rule(u: Preterm, sig: Signature) -> Tuple[List[Type], Type]:
    """The types the children of the spine ``u`` must have, in the order of
    ``children(u)``, and the type of ``u``: its head's less one arrow per
    argument.  Raises TermError on an argument the head does not take."""
    ty = head_type(u, sig)
    wants = list(sig.decl(u.name).instantiate(u.ty_args)[0]) if isinstance(u, Sym) else []
    for i in range(len(u.args)):
        if not is_arrow(ty):
            raise TermError("type mismatch at argument %d of %r" % (i + 1, u))
        wants.append(ty.args[0])
        ty = ty.args[1]
    return wants, ty


def type_of(t: Preterm, sig: Signature) -> Type:
    """The type of ``t`` in ``sig``: one lookup if ``t`` is typed there."""
    return sig.types.get(t) or check_types(t, sig)


def check_types(t: Preterm, sig: Signature) -> Type:
    """The one typing pass: check each node of ``t`` not typed in ``sig``,
    children first on an explicit stack, and enter it in ``sig.types`` once
    it passes; return the type of ``t``.  Each rule is local: a node's own
    types, index and head (``spine_rule``) on its first visit, its children's
    types on the second, where a lambda reads its body's ``index_types``.
    Raises TermError at the first fault, UnderApplied on an arrow-typed spine,
    naming the node whose rule failed."""
    types, index_types = sig.types, sig.index_types
    stack: list = [t]
    try:
        while stack:
            u = stack.pop()
            if type(u) is not tuple:
                if u not in types:
                    for ty in node_types(u):
                        check_type(ty, sig)
                    if isinstance(u, Db) and u.index < 0:
                        raise TermError("index must be a natural number")
                    rule = ((), None) if isinstance(u, Lam) else spine_rule(u, sig)
                    stack.append((u, *rule))
                    stack += reversed(children(u))
                continue
            u, wants, ty = u            # the second visit: the children are typed
            kids = children(u)
            if isinstance(u, Lam):
                ty = arrow(u.arg_ty, types[u.body])
                layers, offset = index_types.get(u.body, ((), 0))
                for got, n in (pair for layer in layers for pair in layer.get(offset, ())):
                    if got is not u.arg_ty:
                        raise TermError("bound index #%d annotated %r but binder has %r"
                                        % (n, got, u.arg_ty))
            else:
                np = len(kids) - len(u.args)
                for i, want in enumerate(wants):
                    got = types[kids[i]]
                    if got is not want:
                        at = ("parameter of %s" % u.name if i < np
                              else "argument %d of %r" % (i - np + 1, u))
                        raise TermError("%s has type %r, expected %r" % (at, got, want), i)
                if is_arrow(ty):
                    raise UnderApplied("not a normalized term (normalize it first): "
                                       "a spine has arrow type %r" % (ty,))
            if u.loose:
                index_types[u] = _index_types(u, kids, index_types)
            types[u] = ty
    except TermError as exc:
        exc.node = u
        raise
    return types[t]


def _index_types(u: Preterm, kids: Tuple[Preterm, ...],
                 index_types: Dict[Preterm, tuple]) -> tuple:
    """The types of the loose indices of ``u``: layers of maps from an
    index's number at ``u`` plus ``offset`` to each type it is written with,
    paired with a number it is written as; and the offset.  A lambda keeps
    its body's layers with the offset one up, so the index it binds falls
    out.  A spine adds its other parts' entries to its largest part's layers
    as a new layer, merging the last two while the last is at least half the
    one before: O(log n) layers, and each entry is copied O(log n) times."""
    if isinstance(u, Lam):
        layers, offset = index_types[u.body]
        return layers, offset + 1
    parts = [index_types[k] for k in kids if k.loose]
    if isinstance(u, Db):
        parts.append((({u.index: ((u.ty, u.index),)},), 0))
    base = max(parts, key=lambda part: sum(map(len, part[0])))
    layers, offset = base
    new: Dict[int, tuple] = {}
    for part in parts:
        if part is not base:
            for layer in part[0]:
                _add_index_types(new, layer, offset - part[1], offset)
    layers += (new,) if new else ()
    while len(layers) > 1 and 2 * len(layers[-1]) >= len(layers[-2]):
        last = dict(layers[-2])
        _add_index_types(last, layers[-1], 0, offset)
        layers = layers[:-2] + (last,)
    return layers, offset


def _add_index_types(into: Dict[int, tuple], layer: Dict[int, tuple], shift: int,
                     low: int) -> None:
    """Add each entry of ``layer``, its key plus ``shift``, to ``into``, each
    type once, and drop the keys below ``low``: indices a lambda bound."""
    for key, pairs in layer.items():
        if key + shift >= low:
            have = into.get(key + shift, ())
            into[key + shift] = have + tuple(p for p in pairs if p[0] not in dict(have))


# ---------------------------------------------------------------------------
# Shifting and substitution on indices
# ---------------------------------------------------------------------------

def shift(t: Preterm, n: int) -> Preterm:
    """Add ``n`` to every loose De Bruijn index of ``t``."""
    if n == 0 or t.loose == 0:
        return t

    def rule(u, d, kids):
        if isinstance(u, Db) and u.index >= d:
            if u.index + n < 0:
                raise TermError("shift would make index #%d negative" % u.index)
            return Db(u.index + n, u.ty, kids)
        return remake(u, kids)
    return rebuild(t, rule)


def db_subst(t: Preterm, j: int, s: Preterm) -> Preterm:
    """Replace index ``j`` by ``s`` (shifted past crossed binders) and
    decrement every index above ``j``.  A replaced index's arguments are
    applied to the image with ``app``, so the result is beta-normal."""
    if t.loose <= j:
        return t

    def rule(u, d, kids):
        if isinstance(u, Db) and u.index == j + d:
            return app(shift(s, j + d), *kids)
        if isinstance(u, Db) and u.index > j + d:
            return Db(u.index - 1, u.ty, kids)
        return remake(u, kids)
    return rebuild(t, rule)


def app(fn: Preterm, *args: Preterm) -> Preterm:
    """The beta-normal application of ``fn`` to ``args`` (hereditary
    substitution): a lambda takes an argument by ``db_subst``, a spine takes
    the rest as extra arguments."""
    for i, a in enumerate(args):
        if not isinstance(fn, Lam):
            return remake(fn, children(fn) + args[i:])
        fn = db_subst(fn.body, 0, a)
    return fn


# ---------------------------------------------------------------------------
# Normalization: eta-expand to the long form
# ---------------------------------------------------------------------------

def normalize(t: Preterm, sig: Signature) -> Preterm:
    """The eta-long form of ``t``, which is beta-normal like every preterm.
    Idempotent; the one constructor of valid order inputs from under-applied
    terms.  It checks nothing: an untyped spine's type is its ``spine_rule``."""
    def eta(u, d, kids):
        u = remake(u, kids)
        ty = None if isinstance(u, Lam) or u in sig.types else spine_rule(u, sig)[1]
        if not is_arrow(ty):
            return u
        # an under-applied spine takes one eta-long index per missing argument
        args = eta_args(ty)
        return eta_lams(ty, app(shift(u, len(args)), *args))
    return rebuild(t, eta)


def eta_lams(ty: Type, body: Preterm) -> Preterm:
    """``body`` under one lambda per argument type of ``ty``."""
    for a in reversed(split_arrows(ty)[0]):
        body = Lam(a, body)
    return body


def eta_args(ty: Type) -> Tuple[Preterm, ...]:
    """The eta-long indices that eta-expansion applies a spine of type ``ty``
    to, one per argument type, the first bound by the outermost lambda.
    One post-order map over the type, so no limit on its depth: the image
    of ``A -> R`` is the index for ``A`` followed by the image of ``R``, and
    that index is ``A``'s own lambdas around an index of type ``A`` applied
    to the image of ``A``; every other type's image is empty."""
    def rule(u, d, kids):
        if not is_arrow(u):
            return ()
        inner, rest = kids
        a = u.args[0]
        return (eta_lams(a, Db(len(rest) + len(inner), a, inner)),) + rest
    return rebuild(ty, rule)


def eta_expansion_count(ty: Type) -> int:
    """Number of lambdas introduced when a head of this ground type is brought
    into eta-long form: one per expected argument, plus the expansions of each
    appended index.  One post-order map over the type, as ``eta_args``: the
    image of ``A -> R`` is 1 + image(A) + image(R), of a type variable an error."""
    def rule(u, d, kids):
        if isinstance(u, TyVar):
            raise TermError("eta expansion count needs a ground type")
        return 1 + kids[0] + kids[1] if is_arrow(u) else 0
    return rebuild(ty, rule)


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

class Substitution:
    """Finite mapping of type variables to types and term variables to terms.

    Term images must be closed with respect to De Bruijn indices and already
    typed in the codomain world (after the type mapping).
    """

    __slots__ = ("ty_map", "term_map")

    def __init__(self, ty_map: Optional[Dict[str, Type]] = None,
                 term_map: Optional[Dict[Tuple[str, Type], Preterm]] = None):
        self.ty_map = dict(ty_map or {})
        # keyed by (name, type-after-ty_map): variable identity includes type
        self.term_map = dict(term_map or {})

    def is_empty(self) -> bool:
        return not self.ty_map and not self.term_map

    def lookup_var(self, name: str, ty_after: Type) -> Optional[Preterm]:
        return self.term_map.get((name, ty_after))


def apply_subst(t: Preterm, sub: Substitution, sig: Signature) -> Preterm:
    """Capture-avoiding instantiation: a variable's image takes its
    arguments through ``app``, and the result is eta-expanded again."""
    if sub.is_empty():
        return t
    m = sub.ty_map

    def rule(u, d, kids):
        if isinstance(u, Var):
            ty = subst_type(u.ty, m)
            image = sub.lookup_var(u.name, ty)
            return app(Var(u.name, ty) if image is None else image, *kids)
        if isinstance(u, Sym):
            n = len(u.params)
            return Sym(u.name, tuple(subst_type(a, m) for a in u.ty_args), kids[:n], kids[n:])
        if isinstance(u, Db):
            return Db(u.index, subst_type(u.ty, m), kids)
        return Lam(subst_type(u.arg_ty, m), *kids)
    return normalize(rebuild(t, rule), sig)


def truncating_apply(t: Preterm, sub: Substitution, sig: Signature) -> Preterm:
    """Like apply_subst, but the outermost lambdas introduced by eta-expansion
    at the head are omitted (introduced indices are kept, so the result may
    have leaking indices).  Only sensible for type-only substitutions."""
    if sub.term_map:
        raise TermError("truncating application expects a type-only substitution")
    full = apply_subst(t, sub, sig)
    if isinstance(t, Lam):
        return full
    introduced = arrow_count(subst_type(type_of(t, sig), sub.ty_map))
    out = full
    for _ in range(introduced):
        if not isinstance(out, Lam):
            raise TermError("expected %d introduced lambdas on %r" % (introduced, full))
        out = out.body
    return out


def strip_lams(t: Preterm) -> Preterm:
    while isinstance(t, Lam):
        t = t.body
    return t


# ---------------------------------------------------------------------------
# Structural predicates and helpers
# ---------------------------------------------------------------------------

def is_steady_type(ty: Type) -> bool:
    """True iff the type is a constructor other than the arrow: arguments of
    such a type behave first-orderly under substitution."""
    return isinstance(ty, TyCon) and ty.name != ARROW


def is_steady(t: Preterm, sig: Signature) -> bool:
    return is_steady_type(type_of(t, sig))


def steady_split(args: Sequence[Preterm], sig: Signature) -> Tuple[Tuple[Preterm, ...], Tuple[Preterm, ...]]:
    """(prefix, suffix): suffix is the longest all-steady tail."""
    cut = len(args)
    while cut > 0 and is_steady(args[cut - 1], sig):
        cut -= 1
    return tuple(args[:cut]), tuple(args[cut:])


def is_closed(t: Preterm) -> bool:
    return not t.all_vars


def is_monomorphic(t: Preterm) -> bool:
    return all(type_is_ground(ty) for u, _ in nodes(t) for ty in node_types(u))


def is_ground(t: Preterm) -> bool:
    return is_closed(t) and is_monomorphic(t)


def refers_to_outer_binders(t: Preterm, k: int) -> bool:
    """True iff some index of t points into the first k binders enclosing it.
    Subterms for which this is false are exactly the images of shift(., k)."""
    return any(isinstance(u, Db) and d <= u.index < d + k for u, d in nodes(t))


def size(t: Preterm) -> int:
    """Head and each parameter or argument occurrence count 1; lambdas count 1."""
    return t.size


# ---------------------------------------------------------------------------
# Accessible positions (through arguments and lambda bodies, not parameters)
# ---------------------------------------------------------------------------
#
# These are the positions the superposition machinery may rewrite under: a
# term is accessible in itself, in any spine argument of a symbol or index
# head, and under a lambda.  Each position carries the number of lambdas in
# scope above it.

Position = Tuple[Tuple[str, int], ...]


def accessible_positions(t: Preterm) -> List[Tuple[Position, int]]:
    out: List[Tuple[Position, int]] = []
    stack: List[Tuple[Preterm, Position, int]] = [(t, (), 0)]
    while stack:
        u, path, depth = stack.pop()
        out.append((path, depth))
        if isinstance(u, Lam):
            stack.append((u.body, path + (("body", 0),), depth + 1))
        elif isinstance(u, (Sym, Db)):
            stack += reversed([(a, path + (("arg", i),), depth)
                               for i, a in enumerate(u.args)])
        # Var spines do not occur in ground terms; parameters are skipped.
    return out


def subterm_at(t: Preterm, path: Position) -> Preterm:
    for step, i in path:
        if step == "body":
            t = t.body  # type: ignore[union-attr]
        else:
            t = t.args[i]  # type: ignore[union-attr]
    return t


def replace_at(t: Preterm, path: Position, s: Preterm) -> Preterm:
    """Plug ``s`` into the hole at ``path``, shifting its leaking indices by
    the hole depth first."""
    above = []
    for step, i in path:
        above.append(t)
        t = t.body if step == "body" else t.args[i]
    s = shift(s, sum(isinstance(u, Lam) for u in above))
    for u, (step, i) in zip(reversed(above), reversed(path)):
        kids = list(children(u))
        # the arguments are the last children; a body is the only one
        kids[i - len(u.args) if step == "arg" else 0] = s
        s = remake(u, tuple(kids))
    return s
