"""Exact symbolic expressions over a small closed grammar.

Trees are built from variables, rational constants, the four arithmetic
operations, integer powers and the unary functions sin, cos, exp, log.
Constants are exact rationals (fractions.Fraction); evaluation is plain
float arithmetic.  There is no general simplification: construction only
folds constant subtrees and absorbs 0/1 identities, so two mathematically
equal expressions usually remain different trees.  Tests should compare
values, not trees.

One derivative: `diff` builds the exact derivative tree.  The identities
read it as a tree (d∘d = 0, bracket tables, the constant partials that
decide Jacobi, Hamiltonian vector fields), and a value at a point, such
as a point bracket, is that tree evaluated there.

Expressions are DAGs of interned nodes (hash-consing, Filliâtre &
Conchon 2006): a node class returns the live node with the same fields
from a weak table, so structurally equal subtrees are one immutable node,
and `ZERO`, `ONE` and `MINUS_ONE` are the only constants with their
values, tested with `is`.  Every pass over them (`evaluate`,
`eval_exact`, `diff`, `subs`, `_tape`) is a loop over one iterative walk,
`_postorder`, which lists each reachable node once with its operands
before it, the left operand first except that a quotient lists its
denominator before its numerator.  A pass fills one dict in that order, so the depth of an
expression costs no recursion.  Errors follow the walk: `evaluate`,
`eval_exact` and a compiled map all raise the error of the
first node of the walk that fails, named by one translation,
`domain_error`, which the flow loop of `dynamics` uses too: a float
failure, overflow included, is one DomainError wherever it happens.
Printing (`to_str`) walks the tree, not the DAG: it prints a shared
subtree at every use, since a memo of printed strings would hold every
intermediate string.  It keeps its pending pieces on an explicit stack,
so it does not recurse either.  `parse` recurses, at most seven frames
per level, but rejects input nested deeper than 100 levels of
parentheses, function calls and unary minus signs with an ExprSyntaxError.

One table, `_BINARY`, names each binary operator's text, precedence,
folding constructor and arithmetic.  The printer, the parser (one
precedence-climbing loop for `expr` and `term` below), `subs`, evaluation
and the tape's `_OPS` all read it.

One lowering, `_tape`, turns the walk into steps (op, in, in, out) over
one register list, a numbered temporary for each node that is computed,
so a structurally equal subtree, being one node, is computed once.  A
temporary is taken again once its last reader has one, the outputs'
excepted, so only as many values are alive at once as the walk needs.
A compiled map keeps one list of steps, and one op table, `_OPS`,
decides what each step runs and how it prints.  `compile_exprs` runs
the steps in one loop, with no generated source: on floats for a point,
and on numpy rows for N points given as the columns of a 2-D array.
A power or function op runs the scalar `math` function (or `pow`) on a
float and applies it element by element to a row, so a column's values
are the scalar call's bit for bit.  numpy is imported only on the first
such call.  `emit` prints the same steps as straight-line Python, which
`dynamics` inlines into a whole generated integration loop, where the
speed of each scalar step matters: a `+`, `-` or `*` step read once is
nested into its reader's line, and every other step is an assignment.

Structural zeros and linear combinations have one owner each.
`is_zero(e)` is `e is ZERO`: a constant 0 is the only zero the
constructors know; `x - x` is not one.  `dot(xs, ys)` builds
`x0*y0 + x1*y1 + ...` by folding `add` and `mul` from `ZERO`, so a zero
term drops out and an all-zero or empty sum is a constant 0.  The other
modules build their linear combinations with `dot` and test structural
zeros with `is_zero`, so normalizing the core later changes both
decisions in one place.

Every node fixes its set of free variable names when it is built, from
its operands' sets (it shares an operand's set that already holds every
name), so `free_vars` does no walk.  `diff` uses it to skip work: the
derivative of an expression without the variable is `ZERO` at once, and
the walk never enters a subtree without it.  That is the tree the full
walk builds, whose derivatives of variable-free subtrees fold to value-0
constants anyway.

`diff` keeps each derivative it builds on its node, in the node's `_d`
slot, by variable name, and does not enter a node whose derivative by
that variable is kept: the forms of verify's three connections of one
pair share every slot but phi's, so a later walk often ends at kept
nodes.  Nodes are interned, so a kept derivative is the very node a
fresh walk would build.  The cache goes with its node; there is no
module table of derivatives.  The intern table keys an operand by its
id, not by reference, so a derivative that refers back to its node
(exp's does) is a cycle the garbage collector frees with the node.

Grammar (EBNF), also the canonical serialization used in config files::

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" integer ] ;
    atom    = number | name | func "(" expr ")" | "(" expr ")" ;
    func    = "sin" | "cos" | "exp" | "log" ;
    name    = letter { letter | digit | "_" } ;
    number  = digits [ "." digits ] ;
    integer = [ "-" ] digits ;
    digits  = digit { digit } ;
    letter  = "A" | ... | "Z" | "a" | ... | "z" ;
    digit   = "0" | ... | "9" ;

One compiled regex, built from `NAME` and the number pattern, splits the
text into tokens; a token's line and column come from its offset.
Decimal literals are converted to exact rationals, so `0.25` parses to the
constant 1/4 and prints back as `1/4`.  log takes its argument as written:
there is no implicit absolute value.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from ._numpy import np

__all__ = [
    "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Fun",
    "Environment", "parse", "evaluate", "eval_exact", "diff", "subs",
    "free_vars", "to_str", "compile_exprs", "as_expr", "is_zero", "dot",
    "ExprSyntaxError", "EvalError", "DomainError", "UnboundVariableError",
    "ZERO", "ONE", "MINUS_ONE", "NAME",
]

Environment = Mapping[str, float]


class ExprSyntaxError(ValueError):
    """Parse failure with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalError(ValueError):
    pass


class UnboundVariableError(EvalError):
    pass


class DomainError(EvalError):
    """Division by zero, 0 to a negative power, log of a value <= 0, sin or
    cos of ±inf, or an `exp` or `**` that overflows a float."""


def _checked_log(x: float) -> float:
    if x <= 0.0:
        raise DomainError("log of a non-positive value")
    return math.log(x)


_UNARY = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": _checked_log}


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

# every live node by (class, *fields), with an operand keyed by its id and
# any other field by value.  A key holds no node: an entry goes with its
# node, which holds its operands, so an id in a key names a live operand.
# A key that held its operands would keep alive a node reachable from a
# derivative cached on it, such as exp's, which refers back to the node
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NO_VARS: frozenset[str] = frozenset()
_init = object.__setattr__


def _interned(key: tuple, fv: frozenset[str], *fields):
    """The live node under key, (class, *fields with operands by id), else a
    new one of that class with these fields and free variables fv."""
    n = _NODES.get(key)
    if n is None:
        cls = key[0]
        n = _NODES[key] = object.__new__(cls)
        for name, v in zip(cls._fields, fields):
            _init(n, name, v)
        _init(n, "_fv", fv)
    return n


class Frozen:
    """Refuses attribute assignment and deletion, for the nodes here and
    the immutable records of the other modules.  A subclass sets its
    fields once, in its constructor, through `_init` or its instance
    `__dict__`, where a `functools.cached_property` keeps its value too."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class Expr(Frozen):
    """An immutable node: its constructor returns the live node with the
    same fields if there is one, so structurally equal is identical."""

    # _fv: free variable names; _d: derivatives by variable name, set by diff
    __slots__ = ("_fv", "_d", "__weakref__")

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, n):
        return pow_(self, n)

    def __neg__(self):
        return mul(MINUS_ONE, self)

    def __str__(self):
        return to_str(self)

    def __repr__(self):
        s = to_str(self)
        return s if len(s) <= 120 else s[:117] + "..."


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __new__(cls, value):
        value = value if type(value) is Fraction else Fraction(value)
        return _interned((cls, value), _NO_VARS, value)


class Var(Expr):
    __slots__ = _fields = ("name",)

    def __new__(cls, name):
        return _interned((cls, name), frozenset((name,)), name)


class _Binary(Expr):
    __slots__ = _fields = ("a", "b")

    def __new__(cls, a, b):
        fa, fb = a._fv, b._fv
        fv = fa if fb <= fa else fb if fa <= fb else fa | fb
        return _interned((cls, id(a), id(b)), fv, a, b)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = _fields = ("base", "n")

    def __new__(cls, base, n):
        return _interned((cls, id(base), n), base._fv, base, n)


class Fun(Expr):
    __slots__ = _fields = ("name", "arg")  # name: sin | cos | exp | log

    def __new__(cls, name, arg):
        return _interned((cls, name, id(arg)), arg._fv, name, arg)


# the only nodes with these values
ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not an expression")
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    if isinstance(x, float):
        return Const(Fraction(x))  # exact binary value
    if isinstance(x, str):
        return parse(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Expr")


# ---------------------------------------------------------------------------
# smart constructors: constant folding and 0/1 absorption only
# ---------------------------------------------------------------------------

def is_zero(e: Expr) -> bool:
    """True exactly for `ZERO`, the one constant 0 and the structural zero
    the constructors absorb.

    `x - x` is not one: there is no simplification, so it is not a constant.
    """
    return e is ZERO


def add(a: Expr, b: Expr) -> Expr:
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if b is ZERO:
        return a
    if a is ZERO:
        return mul(MINUS_ONE, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    # fold constants through an existing leading constant: c1*(c2*x) -> (c1*c2)*x
    if isinstance(a, Const) and isinstance(b, Mul) and isinstance(b.a, Const):
        return mul(Const(a.value * b.a.value), b.b)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if b is ZERO:
        raise DomainError("division by zero constant")
    if a is ZERO:
        return ZERO
    if b is ONE:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    return Div(a, b)


def dot(xs: Iterable, ys: Iterable) -> Expr:
    """x0*y0 + x1*y1 + ..., folded left from ZERO through `add` and `mul`.

    Operands go through `as_expr` and keep their order in each product;
    the two sequences must have one length.  A zero term drops out, since
    `mul` and `add` absorb it.
    """
    acc = ZERO
    for x, y in zip(xs, ys, strict=True):
        acc = add(acc, mul(as_expr(x), as_expr(y)))
    return acc


def pow_(base: Expr, n: int) -> Expr:
    if not isinstance(n, int):
        raise TypeError("exponent must be an int")
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Const):
        if base is ZERO and n < 0:
            raise DomainError("zero to a negative power")
        return Const(base.value ** n)
    return Pow(base, n)


_EXACT_FUN = {("sin", ZERO): ZERO, ("cos", ZERO): ONE, ("exp", ZERO): ONE, ("log", ONE): ZERO}


def fun(name: str, arg: Expr) -> Expr:
    if name not in _UNARY:
        raise ValueError(f"unknown function {name!r}")
    if isinstance(arg, Const):
        exact = _EXACT_FUN.get((name, arg))
        if exact is not None:
            return exact
        if name == "log" and arg.value <= 0:
            raise DomainError("log of a non-positive constant")
    return Fun(name, arg)


def sin(x) -> Expr:
    return fun("sin", as_expr(x))


def cos(x) -> Expr:
    return fun("cos", as_expr(x))


def exp(x) -> Expr:
    return fun("exp", as_expr(x))


def log(x) -> Expr:
    return fun("log", as_expr(x))


# ---------------------------------------------------------------------------
# the binary operators
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_NEG, _PREC_MUL, _PREC_POW, _PREC_ATOM = 10, 15, 20, 30, 40

# the one table of binary operators: each node type's printed text, its
# precedence (left-associative, so a right operand must bind tighter), its
# folding constructor, and its arithmetic on floats, Fractions and numpy
# rows.  The printer, the parser, `subs`, evaluation and the tape read it
_BINARY = {Add: (" + ", _PREC_ADD, add, operator.add),
           Sub: (" - ", _PREC_ADD, sub, operator.sub),
           Mul: ("*", _PREC_MUL, mul, operator.mul),
           Div: ("/", _PREC_MUL, div, operator.truediv)}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# the grammar's `name`, and one token at a time: blanks, a `number` with an
# unfinished fraction allowed, which the tokenizer refuses as malformed, a
# name, an operator or parenthesis, else the one character it refuses
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"[ \t\r\n]+|(?P<num>[0-9]+(?:\.[0-9]*)?)|(?P<name>{NAME.pattern})"
                    r"|(?P<op>[-+*/^()])|(?P<char>.)", re.DOTALL)
# a binary operator's token: its precedence and constructor
_BY_SYMBOL = {text.strip(): (prec, build) for text, prec, build, _ in _BINARY.values()}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, offset)
        for m in _TOKEN.finditer(text):
            kind, val, at = m.lastgroup, m.group(), m.start()
            if kind == "char":
                raise self.error(f"unexpected character {val!r}", at)
            if kind == "num" and val.endswith("."):
                raise self.error("malformed number", at)
            if kind is not None:
                self.tokens.append((kind, val, at))
        self.tokens.append(("end", "", len(text)))
        self.i = 0
        self.depth = 0  # nesting levels open, bounded by _MAX_DEPTH

    def error(self, message: str, at: int) -> ExprSyntaxError:
        """The syntax error at text offset `at`, by its line and column."""
        line_start = self.text.rfind("\n", 0, at) + 1
        return ExprSyntaxError(message, self.text.count("\n", 0, at) + 1, at - line_start + 1)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


# levels of parentheses, function calls and unary minus signs open at
# once; the recursive descent spends up to seven frames per level, as in
# `x+y*(`: `_parse_binary` at precedence 0, then for the right operands of
# `+` and of `*`, then `_parse_factor`, `_parse_power`, `_parse_atom` and
# `_nested`
_MAX_DEPTH = 100

# a constant power is refused once its numerator or denominator must pass
# this many bits, before it is computed; every float needs fewer.  A
# variable power is refused from this exponent on: it overflows a float for
# every base of magnitude 2 or more (1/2 or less, if negative)
_MAX_POWER_BITS = 1100


def parse(text: str) -> Expr:
    """Parse the grammar above; raises ExprSyntaxError with line/column.

    Nesting is bounded by _MAX_DEPTH levels of parentheses, function calls
    and unary minus signs, so a deep input is a syntax error, not a
    RecursionError.  Constants are bounded too: a literal `int()` refuses,
    a constant power `c^n` with |n| * (bit length of c's numerator or
    denominator - 1) >= _MAX_POWER_BITS, whose result would pass that many
    bits, and a literal or folded constant whose float overflows are each
    a syntax error at their token.  So is any other power with
    |n| >= _MAX_POWER_BITS, at its exponent.
    """
    tz = _Tokenizer(text)
    e = _parse_binary(tz)
    kind, val, at = tz.peek()
    if kind != "end":
        raise tz.error(f"unexpected {val!r} after expression", at)
    return e


def _nested(tz: _Tokenizer, parse_inner, at: int) -> Expr:
    """parse_inner(tz) one nesting level down, the level opened at offset at."""
    if tz.depth == _MAX_DEPTH:
        raise tz.error(f"nested deeper than {_MAX_DEPTH} levels", at)
    tz.depth += 1
    e = parse_inner(tz)
    tz.depth -= 1
    return e


def _int(tz: _Tokenizer, val: str, at: int) -> int:
    try:
        return int(val)
    except ValueError:  # more digits than int() converts
        raise tz.error("number has too many digits", at) from None


def _fold(tz: _Tokenizer, at: int, build: Callable, *args) -> Expr:
    """build(*args), the node folded at the token at offset at: a
    DomainError, or a constant whose float overflows, is a syntax error
    there."""
    try:
        e = build(*args)
        if type(e) is Const:
            float(e.value)
    except DomainError as err:
        raise tz.error(str(err), at) from None
    except OverflowError:
        raise tz.error("constant too large for a float", at) from None
    return e


def _parse_binary(tz: _Tokenizer, min_prec: int = 0) -> Expr:
    """Factors joined by binary operators of precedence min_prec or more,
    left-associative (precedence climbing over `_BINARY`)."""
    e = _parse_factor(tz)
    while True:
        _, val, at = tz.peek()
        row = _BY_SYMBOL.get(val)
        if row is None or row[0] < min_prec:
            return e
        tz.next()
        prec, build = row
        e = _fold(tz, at, build, e, _parse_binary(tz, prec + 1))


def _parse_factor(tz: _Tokenizer) -> Expr:
    _, val, at = tz.peek()
    if val == "-":
        tz.next()
        return mul(MINUS_ONE, _nested(tz, _parse_factor, at))
    return _parse_power(tz)


def _parse_power(tz: _Tokenizer) -> Expr:
    base = _parse_atom(tz)
    if tz.peek()[1] != "^":
        return base
    tz.next()
    sign = 1
    kind, val, at = tz.next()
    if val == "-":
        sign = -1
        kind, val, at = tz.next()
    if kind != "num" or "." in val:
        raise tz.error("exponent must be an integer", at)
    n = sign * _int(tz, val, at)
    if type(base) is Const:
        v = base.value
        bits = max(abs(v.numerator).bit_length(), v.denominator.bit_length()) - 1
        if abs(n) * bits >= _MAX_POWER_BITS:
            raise tz.error(f"constant power of over {_MAX_POWER_BITS} bits", at)
    elif abs(n) >= _MAX_POWER_BITS:
        raise tz.error(f"exponent of a variable power must be below {_MAX_POWER_BITS}", at)
    return _fold(tz, at, pow_, base, n)


def _parse_atom(tz: _Tokenizer) -> Expr:
    kind, val, at = tz.next()
    if kind == "num":
        if "." in val:
            whole, frac = val.split(".")
            denom = 10 ** len(frac)
            value = Fraction(_int(tz, whole, at) * denom + _int(tz, frac, at), denom)
        else:
            value = _int(tz, val, at)
        return _fold(tz, at, Const, value)
    if kind == "name":
        if tz.peek()[1] != "(":
            return Var(val)
        if val not in _UNARY:
            raise tz.error(f"unknown function {val!r}", at)
        tz.next()
    elif val != "(":
        raise tz.error(f"unexpected {val or 'end of input'!r}", at)
    # a function call's argument or a parenthesized expression
    e = _nested(tz, _parse_binary, at)
    _, close, close_at = tz.next()
    if close != ")":
        raise tz.error("expected ')'", close_at)
    return e if val == "(" else _fold(tz, at, fun, val, e)


# ---------------------------------------------------------------------------
# printing (canonical serialization)
# ---------------------------------------------------------------------------

def _layout(e: Expr) -> tuple[int, tuple]:
    """A node's precedence and its pieces in print order: text, or an
    operand with the precedence it must reach to go unparenthesized."""
    t = type(e)
    if t is Var:
        return _PREC_ATOM, (e.name,)
    if t is Const:
        v = e.value
        a = -v if v < 0 else v
        s = str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        if v < 0:
            return _PREC_NEG, ("-" + s,)
        return (_PREC_ATOM if a.denominator == 1 else _PREC_MUL), (s,)
    if t is Mul and e.a is MINUS_ONE:
        # after '-', the parser consumes a single power/atom
        return _PREC_NEG, ("-", (e.b, _PREC_POW))
    if t in _BINARY:
        op, prec, _, _ = _BINARY[t]
        return prec, ((e.a, prec), op, (e.b, prec + 1))
    if t is Pow:
        return _PREC_POW, ((e.base, _PREC_POW + 1), f"^{e.n}")
    if t is Fun:
        return _PREC_ATOM, (e.name + "(", (e.arg, 0), ")")
    raise TypeError(f"not an Expr: {e!r}")


def to_str(e: Expr) -> str:
    """The canonical serialization, with as few parentheses as parse needs.

    A node's precedence is known before its operands are printed, so the
    text is emitted left to right from an explicit stack: depth costs no
    recursion, and the pieces are joined once.  Shared subtrees are
    printed at every use.
    """
    out: list[str] = []
    todo: list = [(e, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        n, need = item
        prec, pieces = _layout(n)
        if prec < need:
            pieces = ("(", *pieces, ")")
        todo += reversed(pieces)
    return "".join(out)


# ---------------------------------------------------------------------------
# the walk shared by every DAG pass
# ---------------------------------------------------------------------------

def _postorder(roots: Iterable[Expr], enter: Callable[[Expr], bool] | None = None) -> list[Expr]:
    """Every node reachable from roots, once, operands before the node.

    The one walk of the module.  Roots are walked in order; a node lists
    its left operand before its right one, except that a quotient lists its
    denominator before its numerator.  A node for which `enter(node)` is
    false is neither listed nor entered.  Iterative: a `None` on the stack
    marks that the node below it is finished, so depth costs no recursion.
    """
    order: list[Expr] = []
    emit = order.append
    seen: set[Expr] = set()
    mark = seen.add
    stack = list(roots)
    stack.reverse()
    push = stack.append
    pop = stack.pop
    while stack:
        n = pop()
        if n is None:
            emit(pop())
            continue
        if n in seen or (enter is not None and not enter(n)):
            continue
        mark(n)
        t = type(n)
        if t is Const or t is Var:
            emit(n)
            continue
        push(n)
        push(None)
        if t is Div:
            push(n.a)
            push(n.b)
        elif t is Pow:
            push(n.base)
        elif t is Fun:
            push(n.arg)
        else:
            push(n.b)
            push(n.a)
    return order


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _forward(e: Expr, env: Mapping, exact: bool = False) -> float | Fraction:
    """The value of e, from the value of every node it reaches, filled in
    walk order.

    A float, or an exact Fraction when `exact` (a transcendental node is
    then an EvalError).  The first node of the walk that fails raises, as
    `domain_error` names it.
    """
    val = {}
    try:
        for n in _postorder((e,)):
            t = type(n)
            row = _BINARY.get(t)
            if row is not None:
                v = row[3](val[n.a], val[n.b])
            elif t is Var:
                if n.name not in env:
                    raise UnboundVariableError(f"unknown name {n.name!r}")
                v = Fraction(env[n.name]) if exact else float(env[n.name])
            elif t is Const:
                # float(Fraction) rounds numerator / denominator too, but slower
                v = n.value if exact else n.value.numerator / n.value.denominator
            elif t is Pow:
                base = val[n.base]
                if base == 0 and n.n < 0:  # Fraction(0) ** -1 reports Fraction(1, 0)
                    raise DomainError("zero to a negative power")
                v = base ** n.n
            elif exact:
                raise EvalError(f"{n.name} has no exact rational value")
            else:
                v = _UNARY[n.name](val[n.arg])
            val[n] = v
    except (ArithmeticError, ValueError) as err:
        if type(n) is Var:  # an input that does not convert is no domain failure
            raise
        raise domain_error(err) from None
    return val[e]


def evaluate(e: Expr, env: Environment) -> float:
    """Float evaluation; raises UnboundVariableError, or `domain_error`'s
    DomainError (overflow included) for the first node that fails."""
    return _forward(e, env)


def eval_exact(e: Expr, env: Mapping[str, Fraction]) -> Fraction:
    """Exact rational evaluation; raises EvalError on transcendental nodes."""
    return _forward(e, env, exact=True)


# ---------------------------------------------------------------------------
# differentiation and substitution
# ---------------------------------------------------------------------------

def diff(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to the named variable."""
    if var not in e._fv:
        return ZERO
    # a subtree without var is never entered and its derivative is ZERO; a
    # node whose derivative by var is cached is not entered either
    d: dict[Expr, Expr] = {}
    dof = d.get

    def enter(n: Expr) -> bool:
        if var not in n._fv:
            return False
        cached = getattr(n, "_d", None)
        if cached is None or var not in cached:
            return True
        d[n] = cached[var]
        return False

    for n in _postorder((e,), enter):
        t = type(n)
        if t is Var:
            r = ONE
        elif t is Add:
            r = add(dof(n.a, ZERO), dof(n.b, ZERO))
        elif t is Sub:
            r = sub(dof(n.a, ZERO), dof(n.b, ZERO))
        elif t is Mul:
            r = add(mul(dof(n.a, ZERO), n.b), mul(n.a, dof(n.b, ZERO)))
        elif t is Div:
            r = div(sub(mul(dof(n.a, ZERO), n.b), mul(n.a, dof(n.b, ZERO))), pow_(n.b, 2))
        elif t is Pow:
            r = mul(mul(Const(Fraction(n.n)), pow_(n.base, n.n - 1)), d[n.base])
        else:
            da = d[n.arg]
            if n.name == "sin":
                r = mul(fun("cos", n.arg), da)
            elif n.name == "cos":
                r = mul(MINUS_ONE, mul(fun("sin", n.arg), da))
            elif n.name == "exp":
                r = mul(n, da)
            else:  # log
                r = div(da, n.arg)
        d[n] = r
        cached = getattr(n, "_d", None)
        if cached is None:
            _init(n, "_d", {var: r})
        else:
            cached[var] = r
    return d[e]


def subs(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Substitute expressions for variables, refolding constants."""
    r: dict[Expr, Expr] = {}
    for n in _postorder((e,)):
        t = type(n)
        if t is Const:
            v = n
        elif t is Var:
            v = mapping.get(n.name, n)
        elif t in _BINARY:
            v = _BINARY[t][2](r[n.a], r[n.b])
        elif t is Pow:
            v = pow_(r[n.base], n.n)
        else:
            v = fun(n.name, r[n.arg])
        r[n] = v
    return r[e]


def free_vars(e: Expr) -> frozenset[str]:
    """Names of the variables in e, fixed when e was built."""
    return e._fv


# ---------------------------------------------------------------------------
# compilation (fast repeated evaluation; semantics match `evaluate`)
# ---------------------------------------------------------------------------

def _operands(n: Expr) -> tuple[Expr, ...]:
    t = type(n)
    if t is Pow:
        return (n.base,)
    if t is Fun:
        return (n.arg,)
    if t is Const or t is Var:
        return ()
    return (n.a, n.b)


def _each(fn: Callable, nargs: int) -> Callable:
    """fn as a tape op: fn on a number, and fn element by element on a
    numpy row, so a row rounds as the scalar call (numpy's own exp, log and
    power may not).  `np.frompyfunc` is built on the first row only."""
    vec = None

    def op(a, *rest):
        nonlocal vec
        if not getattr(a, "ndim", 0):
            return fn(a, *rest)
        if vec is None:
            vec = np.frompyfunc(fn, nargs, 1)
        return vec(a, *rest).astype(float)
    return op


# the one op table: the op a tape step of each node type (a function, by
# its name) runs, on floats and on numpy rows alike, and how `emit` prints
# it, with its inputs' text; a binary operator's comes from `_BINARY`
_OPS = {**{t: (apply, f"{{}} {text.strip()} {{}}") for t, (text, _, _, apply) in _BINARY.items()},
        Pow: (_each(pow, 2), "_pow({}, {})"),
        **{name: (_each(fn, 1), f"_{name}({{}})") for name, fn in _UNARY.items()}}
_PRINTED = dict(_OPS.values())


def _tape(exprs: Sequence[Expr], names: Sequence[str]) -> tuple[list[tuple], list, list[int]]:
    """The walk of exprs as steps (op, in, in, out) over one register list:
    the one lowering, which `compile_exprs` runs and `emit` prints.

    The registers hold the values of `names`, in order, then the
    constants, then the temporaries, the k-th at register -(k + 1), so
    they count back from the end.  Every node but a variable and a
    constant with a float value is a step, in walk order, running its
    node's op from `_OPS`: an arithmetic operator, the power with its
    integer exponent's register, or a function with None for its second
    input.  A constant past the float range is the quotient of its integer
    numerator and denominator, which overflows where it runs.  A
    temporary is free again once its last reader has been given one, and
    the next step takes the most recently freed one, else a new one; a
    node that reads one operand twice (`x * x`) frees it once.  The
    temporaries of `exprs` themselves are never freed, so they hold their
    values after the last step, and only as many values are alive at once
    as the walk needs.  Returns (the steps, the registers with only the
    constants filled in, the register of each output).
    """
    order = _postorder(exprs)
    last = {o: i for i, n in enumerate(order) for o in _operands(n)}
    pinned = set(exprs)
    at = {name: i for i, name in enumerate(names)}
    regs: list = [None] * len(names)
    reg: dict[Expr, int] = {}
    freeable: set[Expr] = set()  # temporaries not among the outputs
    free: list[int] = []
    temps = 0
    steps = []

    def const(v) -> int:
        regs.append(v)
        return len(regs) - 1

    for i, n in enumerate(order):
        t = type(n)
        if t is Var:
            if n.name not in at:
                raise UnboundVariableError(f"unknown name {n.name!r}")
            reg[n] = at[n.name]
            continue
        if t is Const:
            try:
                reg[n] = const(float(n.value))
                continue
            except OverflowError:
                step = (_OPS[Div][0], const(n.value.numerator), const(n.value.denominator))
        elif t is Pow:
            step = (_OPS[t][0], reg[n.base], const(n.n))
        elif t is Fun:
            step = (_OPS[n.name][0], reg[n.arg], None)
        else:
            step = (_OPS[t][0], reg[n.a], reg[n.b])
        if free:
            reg[n] = free.pop()
        else:
            temps += 1
            reg[n] = -temps
        steps.append((*step, reg[n]))
        if n not in pinned:
            freeable.add(n)
        for o in _operands(n):
            if last[o] == i and o in freeable:
                freeable.remove(o)  # once, though x * x reads x twice
                free.append(reg[o])
    return steps, regs + [None] * temps, [reg[e] for e in exprs]


# ops a step may be nested into its reader with: on floats they cannot raise
_NESTED = {_OPS[t][0] for t in (Add, Sub, Mul)}
# the most nested parentheses `emit` writes around inner steps; CPython
# refuses more than 200 in one line
_NEST_DEPTH = 16


def emit(exprs: Sequence[Expr], inputs: Mapping[str, str], temp: str,
         indent: str = "    ") -> tuple[list[str], list[str]]:
    """Straight-line Python computing `exprs`: (assignment lines, id of each).

    The code generator of `dynamics`' flow loop, which inlines the lines
    into one generated function.  It prints `_tape`'s steps in walk order,
    so a structurally equal subtree, being one node, is computed once.  A
    `+`, `-` or `*` step that is not an output and whose value exactly one
    operand slot of a later step reads is nested, in parentheses, into
    that reader's line, at most _NEST_DEPTH deep; every other step is an
    assignment line at `indent`.  So each division, power, function, node
    read twice and output keeps its own line and temporary, and since a
    nested step cannot raise, the first line that fails is the first node
    of the walk that fails, as in `evaluate`.  A nested step whose
    temporaries are written again before its reader runs is printed on its
    own line just before that write.  Nesting moves no rounding: each
    operator still applies to the values the tape gives it.

    `inputs` maps a variable name to the source text that reads its value;
    a variable outside it is an UnboundVariableError.  A register prints as
    its input text, as the `repr` of its constant (a float literal, an
    exponent, or the integer numerator or denominator of a constant past
    the float range), or as `temp` plus the temporary's number.  An op
    prints as `_OPS` gives it: its operator symbol, an integer power as a
    call `_pow(base, n)` and a function as `_sin(a)` and so on; the lines
    run in the namespace `build` gives them, so that namespace decides how
    powers round.
    """
    steps, regs, outs = _tape(exprs, list(inputs))
    texts = list(inputs.values())
    reads = [0] * len(steps)  # operand slots reading each step's value
    writer: dict[int, int] = {}  # a temporary's register: the step whose value it holds
    for i, (op, a, b, out) in enumerate(steps):
        for r in (a, b):
            if r in writer:
                reads[writer[r]] += 1
        writer[out] = i
    final = {writer[r] for r in outs if r in writer}

    def text(r: int) -> str:
        if r < 0:
            return f"{temp}{-r - 1}"
        return texts[r] if r < len(texts) else repr(regs[r])

    lines: list[str] = []
    # a nested step's register: (its text, its depth, the temporaries it reads)
    nested: dict[int, tuple[str, int, set[int]]] = {}

    def write(out: int, rhs: str) -> None:
        for r in [r for r, (_, _, used) in nested.items() if out in used]:
            if r in nested:  # its value reads out's old one: printed first
                write(r, nested.pop(r)[0])
        lines.append(f"{indent}{text(out)} = {rhs}")

    for i, (op, a, b, out) in enumerate(steps):
        args, depth, used = [], 0, set()
        for r in (a, b):
            if r in nested:
                inner, d, u = nested.pop(r)
                args.append(f"({inner})")
                depth, used = max(depth, d + 1), used | u
            elif r is not None:
                args.append(text(r))
                if r < 0:
                    used.add(r)
        rhs = _PRINTED[op].format(*args)
        if op in _NESTED and reads[i] == 1 and i not in final and depth < _NEST_DEPTH:
            nested[out] = (rhs, depth, used)
        else:
            write(out, rhs)
    return lines, [text(r) for r in outs]


def build(src: str, name: str, **extra) -> Callable:
    """The function `name` defined by generated source over `emit`'s lines.

    The source runs in a namespace with `_UNARY`'s functions, each under
    its name after an underscore as the lines call it, `_pow` as the
    builtin `pow`, plus `extra`.
    """
    ns = {f"_{f}": fn for f, fn in _UNARY.items()} | {"_pow": pow} | extra
    exec(compile(src, "<bsymp-compiled>", "exec"), ns)
    return ns[name]


def domain_error(err: ArithmeticError | ValueError) -> EvalError:
    """The error `evaluate` raises where arithmetic raised err; the one
    translation behind `evaluate`, a compiled map's point call and the
    flow loop.

    An EvalError (log's own check, an unbound name) is returned as it is,
    and an OverflowError of `exp`, float `**` or a constant past the float
    range is a DomainError.  Float `/` by zero and `**` of 0 to a negative
    power both raise ZeroDivisionError, told apart by message.  A bare
    ValueError comes from sin or cos of ±inf.  The other ArithmeticError,
    numpy's FloatingPointError, is named by its kind ("overflow encountered
    in multiply" is "float overflow"); a compiled map never passes one
    here, since a failed column call is read again one point at a time.
    """
    if isinstance(err, EvalError):
        return err
    if isinstance(err, OverflowError):
        return DomainError("float overflow")
    if isinstance(err, ZeroDivisionError):
        return DomainError("zero to a negative power" if "negative power" in str(err)
                           else "division by zero")
    if isinstance(err, ValueError):
        return DomainError("sin or cos of an infinite value")
    return DomainError("float " + str(err).split(" encountered")[0])


def compile_exprs(exprs: Sequence[Expr], names: Sequence[str]) -> Callable:
    """Compile expressions into one function of a point or of columns.

    The map is a tape (`_tape`): the walk of `exprs` as one list of
    steps over a list of registers, with no generated source, and one
    loop runs it for every call.  Called with one value per name, in
    order, it converts each with float() (so an int runs in float
    arithmetic, as in `evaluate`, and a value that does not convert raises
    its own TypeError or ValueError), runs the steps on floats and returns
    a list of floats; any other number of values is a ValueError.  Each
    node is evaluated once, so a structurally equal subtree is too.
    Failures, overflow included, raise `domain_error`'s DomainError for
    the first node that fails, as `evaluate` does.

    Called with a 2-D array of shape (len(names), N), it reads the N columns
    as N points and returns a (len(exprs), N) float array, a constant
    output broadcast along its row.  The same steps run on the rows: the
    arithmetic is numpy's, and each power and function op of `_OPS`
    applies the scalar function element by element, so each column is
    bit for bit the scalar call's value.  A temporary's row is dropped
    once its register is taken again.  The call runs under
    `np.errstate(all="raise")`; if anything fails, the columns are read
    again one at a time in order by the scalar call, which raises the
    first failing column's DomainError, or, where numpy raised but plain
    floats do not (a `*` overflowing to inf, an underflow), gives the
    scalar values.
    """
    steps, consts, outs = _tape(exprs, names)

    def run(x) -> list:
        regs = consts.copy()
        regs[:len(names)] = x
        for op, a, b, out in steps:
            regs[out] = op(regs[a]) if b is None else op(regs[a], regs[b])
        return [regs[r] for r in outs]

    def compiled(x):
        if len(x) != len(names):
            raise ValueError(f"{len(x)} values for {len(names)} names")
        if getattr(x, "ndim", None) != 2:
            x = [float(v) for v in x]
            try:
                return run(x)
            except (ArithmeticError, ValueError) as err:
                raise domain_error(err) from None
        X = np.asarray(x, dtype=float)
        try:
            with np.errstate(all="raise"):
                rows = run(X)
        except (ArithmeticError, ValueError):
            points = [compiled(col) for col in X.T.tolist()]
            return np.array(points, dtype=float).reshape(X.shape[1], len(outs)).T
        out = np.empty((len(rows), X.shape[1]))
        for i, row in enumerate(rows):
            out[i] = row
        return out

    return compiled
