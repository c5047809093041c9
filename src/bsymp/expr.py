"""Exact symbolic expressions over a small closed grammar.

Trees are built from variables, rational constants, the four arithmetic
operations, integer powers and the unary functions sin, cos, exp, log.
Constants are exact rationals (fractions.Fraction); evaluation is plain
float arithmetic.  There is no general simplification: construction only
folds constant subtrees and absorbs 0/1 identities, so two mathematically
equal expressions usually remain different trees.  Tests should compare
values, not trees.

Two kinds of derivative: `diff` builds the exact derivative tree, for
identities whose claim is the tree itself (d∘d = 0, bracket tables,
Jacobiators, Hamiltonian vector fields); `grad` gives the float gradient
at one point by reverse mode over the DAG (one forward sweep shared with
`evaluate`, then one adjoint sweep), for values such as a point bracket.

Every node caches its set of free variable names the first time it is
asked for (one iterative walk that fills the sets of all its
descendants too; nodes are immutable, so the set never changes, and
equal sets are interned to one object).  `diff` uses it to skip work:
the derivative of an expression without the variable is `ZERO` at once,
and the walk never enters a subtree without it.  That is the tree the
full walk builds, whose derivatives of variable-free subtrees fold to
value-0 constants anyway.

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

Decimal literals are converted to exact rationals, so `0.25` parses to the
constant 1/4 and prints back as `1/4`.  log takes its argument as written:
there is no implicit absolute value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

__all__ = [
    "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Fun",
    "Environment", "parse", "evaluate", "grad", "eval_exact", "diff", "subs",
    "free_vars", "to_str", "compile_exprs", "as_expr",
    "ExprSyntaxError", "EvalError", "DomainError", "UnboundVariableError",
    "ZERO", "ONE",
]

Environment = Mapping[str, float]
Number = Union[int, Fraction, float]

_FUNCTIONS = ("sin", "cos", "exp", "log")


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
    """Division by zero, log of a non-positive value, 0 to a negative power."""


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class Expr:
    _fv = None  # free variable names, filled in by `free_vars`

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
        return mul(Const(Fraction(-1)), self)

    def __str__(self):
        return to_str(self)

    def __repr__(self):
        s = to_str(self)
        return s if len(s) <= 120 else s[:117] + "..."


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Pow(Expr):
    base: Expr
    n: int


@dataclass(frozen=True, eq=False, repr=False)
class Fun(Expr):
    name: str  # sin | cos | exp | log
    arg: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


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

def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return mul(Const(Fraction(-1)), b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    # fold constants through an existing leading constant: c1*(c2*x) -> (c1*c2)*x
    if isinstance(a, Const) and isinstance(b, Mul) and isinstance(b.a, Const):
        return mul(Const(a.value * b.a.value), b.b)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        raise DomainError("division by zero constant")
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    if _is_const(a, 0):
        return ZERO
    if _is_const(b, 1):
        return a
    return Div(a, b)


def pow_(base: Expr, n: int) -> Expr:
    if not isinstance(n, int):
        raise TypeError("exponent must be an int")
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and n < 0:
            raise DomainError("zero to a negative power")
        return Const(base.value ** n)
    return Pow(base, n)


_EXACT_FUN = {("sin", Fraction(0)): Fraction(0),
              ("cos", Fraction(0)): Fraction(1),
              ("exp", Fraction(0)): Fraction(1),
              ("log", Fraction(1)): Fraction(0)}


def fun(name: str, arg: Expr) -> Expr:
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    if isinstance(arg, Const):
        exact = _EXACT_FUN.get((name, arg.value))
        if exact is not None:
            return Const(exact)
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
# parsing
# ---------------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, str, int, int]] = []
        self._scan()
        self.i = 0

    def _advance(self, n: int):
        for ch in self.text[self.pos:self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def _scan(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            line, col = self.line, self.col
            if ch in "+-*/^()":
                self.tokens.append(("op", ch, line, col))
                self._advance(1)
            elif ch.isdigit():
                j = self.pos
                while j < len(text) and text[j].isdigit():
                    j += 1
                if j < len(text) and text[j] == ".":
                    j += 1
                    if j >= len(text) or not text[j].isdigit():
                        raise ExprSyntaxError("malformed number", line, col)
                    while j < len(text) and text[j].isdigit():
                        j += 1
                self.tokens.append(("num", text[self.pos:j], line, col))
                self._advance(j - self.pos)
            elif ch.isalpha() or ch == "_":
                j = self.pos
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[self.pos:j], line, col))
                self._advance(j - self.pos)
            else:
                raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("end", "", self.line, self.col))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


def parse(text: str) -> Expr:
    """Parse the grammar above; raises ExprSyntaxError with line/column."""
    tz = _Tokenizer(text)
    e = _parse_expr(tz)
    kind, val, line, col = tz.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {val!r} after expression", line, col)
    return e


def _parse_expr(tz: _Tokenizer) -> Expr:
    e = _parse_term(tz)
    while True:
        kind, val, _, _ = tz.peek()
        if kind == "op" and val in "+-":
            tz.next()
            rhs = _parse_term(tz)
            e = add(e, rhs) if val == "+" else sub(e, rhs)
        else:
            return e


def _parse_term(tz: _Tokenizer) -> Expr:
    e = _parse_factor(tz)
    while True:
        kind, val, line, col = tz.peek()
        if kind == "op" and val in "*/":
            tz.next()
            rhs = _parse_factor(tz)
            try:
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            except DomainError as err:
                raise ExprSyntaxError(str(err), line, col) from None
        else:
            return e


def _parse_factor(tz: _Tokenizer) -> Expr:
    kind, val, _, _ = tz.peek()
    if kind == "op" and val == "-":
        tz.next()
        return mul(Const(Fraction(-1)), _parse_factor(tz))
    return _parse_power(tz)


def _parse_power(tz: _Tokenizer) -> Expr:
    base = _parse_atom(tz)
    kind, val, _, _ = tz.peek()
    if kind == "op" and val == "^":
        tz.next()
        sign = 1
        kind, val, line, col = tz.next()
        if kind == "op" and val == "-":
            sign = -1
            kind, val, line, col = tz.next()
        if kind != "num" or "." in val:
            raise ExprSyntaxError("exponent must be an integer", line, col)
        try:
            return pow_(base, sign * int(val))
        except DomainError as err:
            raise ExprSyntaxError(str(err), line, col) from None
    return base


def _parse_atom(tz: _Tokenizer) -> Expr:
    kind, val, line, col = tz.next()
    if kind == "num":
        if "." in val:
            whole, frac = val.split(".")
            denom = 10 ** len(frac)
            return Const(Fraction(int(whole) * denom + int(frac), denom))
        return Const(Fraction(int(val)))
    if kind == "name":
        pk, pv, _, _ = tz.peek()
        if pk == "op" and pv == "(":
            if val not in _FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {val!r}", line, col)
            tz.next()
            arg = _parse_expr(tz)
            k2, v2, l2, c2 = tz.next()
            if not (k2 == "op" and v2 == ")"):
                raise ExprSyntaxError("expected ')'", l2, c2)
            try:
                return fun(val, arg)
            except DomainError as err:
                raise ExprSyntaxError(str(err), line, col) from None
        return Var(val)
    if kind == "op" and val == "(":
        e = _parse_expr(tz)
        k2, v2, l2, c2 = tz.next()
        if not (k2 == "op" and v2 == ")"):
            raise ExprSyntaxError("expected ')'", l2, c2)
        return e
    raise ExprSyntaxError(f"unexpected {val or 'end of input'!r}", line, col)


# ---------------------------------------------------------------------------
# printing (canonical serialization)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_NEG, _PREC_MUL, _PREC_POW, _PREC_ATOM = 10, 15, 20, 30, 40


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        v = e.value
        if v < 0:
            s, _ = _render(Const(-v))
            return "-" + s, _PREC_NEG
        return (str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"), \
            (_PREC_ATOM if v.denominator == 1 else _PREC_MUL)
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Mul) and _is_const(e.a, -1):
        # after '-', the parser consumes a single power/atom
        s = _wrap(e.b, _PREC_POW)
        return "-" + s, _PREC_NEG
    if isinstance(e, Add):
        return f"{_wrap(e.a, _PREC_ADD)} + {_wrap(e.b, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(e, Sub):
        return f"{_wrap(e.a, _PREC_ADD)} - {_wrap(e.b, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(e, Mul):
        return f"{_wrap(e.a, _PREC_MUL)}*{_wrap(e.b, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(e, Div):
        return f"{_wrap(e.a, _PREC_MUL)}/{_wrap(e.b, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_POW + 1)}^{e.n}", _PREC_POW
    if isinstance(e, Fun):
        s, _ = _render(e.arg)
        return f"{e.name}({s})", _PREC_ATOM
    raise TypeError(f"not an Expr: {e!r}")


def _wrap(e: Expr, need: int) -> str:
    s, prec = _render(e)
    return s if prec >= need else f"({s})"


def to_str(e: Expr) -> str:
    return _render(e)[0]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_UNARY = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _forward(e: Expr, env: Environment) -> dict[Expr, float]:
    """One iterative sweep: the value of every node reachable from e.

    Shared nodes are evaluated once.  The dict is filled in evaluation
    order, children before parents, which is the order the adjoint sweep of
    `grad` walks backwards.  A node whose operands are not ready goes back
    on the stack under them, first operand on top; a quotient waits for its
    denominator alone and checks it before its numerator is touched, so the
    first error raised is the one a recursive evaluation would hit.
    """
    val: dict[Expr, float] = {}
    ready = val.get
    stack = [e]
    push = stack.append
    pop = stack.pop
    while stack:
        n = pop()
        if n in val:
            continue
        t = type(n)
        if t is Mul or t is Add or t is Sub:
            a = ready(n.a)
            b = ready(n.b)
            if a is None or b is None:
                push(n)
                if b is None:
                    push(n.b)
                if a is None:
                    push(n.a)
                continue
            if t is Mul:
                v = a * b
            elif t is Add:
                v = a + b
            else:
                v = a - b
        elif t is Var:
            try:
                v = float(env[n.name])
            except KeyError:
                raise UnboundVariableError(f"unknown name {n.name!r}") from None
        elif t is Const:
            # float(Fraction) rounds numerator / denominator too, but slower
            v = n.value.numerator / n.value.denominator
        elif t is Div:
            b = ready(n.b)
            if b is None:
                push(n)
                push(n.b)
                continue
            if b == 0.0:
                raise DomainError("division by zero")
            a = ready(n.a)
            if a is None:
                push(n)
                push(n.a)
                continue
            v = a / b
        elif t is Pow:
            base = ready(n.base)
            if base is None:
                push(n)
                push(n.base)
                continue
            if base == 0.0 and n.n < 0:
                raise DomainError("zero to a negative power")
            v = base ** n.n
        else:
            arg = ready(n.arg)
            if arg is None:
                push(n)
                push(n.arg)
                continue
            if n.name == "log":
                if arg <= 0.0:
                    raise DomainError("log of a non-positive value")
                v = math.log(arg)
            else:
                v = _UNARY[n.name](arg)
        val[n] = v
    return val


def evaluate(e: Expr, env: Environment) -> float:
    """Float evaluation; raises UnboundVariableError / DomainError."""
    return _forward(e, env)[e]


def grad(e: Expr, names: Sequence[str], env: Environment) -> list[float]:
    """Partial derivatives of e at a point, ordered like `names`.

    Reverse mode: the forward sweep of `evaluate`, then one adjoint sweep
    over the same nodes in reverse order.  Values and errors match
    `evaluate` (every derivative rule is defined wherever its node is).
    Variables outside `names` are constants but must still be bound.
    """
    val = _forward(e, env)
    adj: dict[Expr, float] = {e: 1.0}
    out = dict.fromkeys(names, 0.0)
    for n in reversed(val):
        g = adj[n]
        t = type(n)
        if t is Mul:
            adj[n.a] = adj.get(n.a, 0.0) + g * val[n.b]
            adj[n.b] = adj.get(n.b, 0.0) + g * val[n.a]
        elif t is Add:
            adj[n.a] = adj.get(n.a, 0.0) + g
            adj[n.b] = adj.get(n.b, 0.0) + g
        elif t is Sub:
            adj[n.a] = adj.get(n.a, 0.0) + g
            adj[n.b] = adj.get(n.b, 0.0) - g
        elif t is Var:
            if n.name in out:
                out[n.name] += g
        elif t is Div:
            den = val[n.b]
            adj[n.a] = adj.get(n.a, 0.0) + g / den
            adj[n.b] = adj.get(n.b, 0.0) - g * val[n] / den
        elif t is Pow:
            k = n.n
            adj[n.base] = adj.get(n.base, 0.0) + g * (k * val[n.base] ** (k - 1))
        elif t is Fun:
            arg = val[n.arg]
            if n.name == "sin":
                d = math.cos(arg)
            elif n.name == "cos":
                d = -math.sin(arg)
            elif n.name == "exp":
                d = val[n]
            else:
                d = 1.0 / arg
            adj[n.arg] = adj.get(n.arg, 0.0) + g * d
    return [out[nm] for nm in names]


def eval_exact(e: Expr, env: Mapping[str, Fraction]) -> Fraction:
    """Exact rational evaluation; raises EvalError on transcendental nodes."""
    memo: dict[Expr, Fraction] = {}

    def go(n: Expr) -> Fraction:
        v = memo.get(n)
        if v is not None:
            return v
        if isinstance(n, Const):
            v = n.value
        elif isinstance(n, Var):
            try:
                v = Fraction(env[n.name])
            except KeyError:
                raise UnboundVariableError(f"unknown name {n.name!r}") from None
        elif isinstance(n, Add):
            v = go(n.a) + go(n.b)
        elif isinstance(n, Sub):
            v = go(n.a) - go(n.b)
        elif isinstance(n, Mul):
            v = go(n.a) * go(n.b)
        elif isinstance(n, Div):
            den = go(n.b)
            if den == 0:
                raise DomainError("division by zero")
            v = go(n.a) / den
        elif isinstance(n, Pow):
            base = go(n.base)
            if base == 0 and n.n < 0:
                raise DomainError("zero to a negative power")
            v = base ** n.n
        else:
            raise EvalError(f"{n.name} has no exact rational value")
        memo[n] = v
        return v

    return go(e)


# ---------------------------------------------------------------------------
# differentiation and substitution
# ---------------------------------------------------------------------------

def diff(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to the named variable."""
    if var not in free_vars(e):
        return ZERO
    memo: dict[Expr, Expr] = {}

    def go(n: Expr) -> Expr:
        # every node below e already has its free-variable set
        if var not in n._fv:
            return ZERO
        d = memo.get(n)
        if d is not None:
            return d
        if isinstance(n, Var):
            d = ONE
        elif isinstance(n, Add):
            d = add(go(n.a), go(n.b))
        elif isinstance(n, Sub):
            d = sub(go(n.a), go(n.b))
        elif isinstance(n, Mul):
            d = add(mul(go(n.a), n.b), mul(n.a, go(n.b)))
        elif isinstance(n, Div):
            d = div(sub(mul(go(n.a), n.b), mul(n.a, go(n.b))), pow_(n.b, 2))
        elif isinstance(n, Pow):
            d = mul(mul(Const(Fraction(n.n)), pow_(n.base, n.n - 1)), go(n.base))
        else:
            da = go(n.arg)
            if n.name == "sin":
                d = mul(fun("cos", n.arg), da)
            elif n.name == "cos":
                d = mul(Const(Fraction(-1)), mul(fun("sin", n.arg), da))
            elif n.name == "exp":
                d = mul(n, da)
            else:  # log
                d = div(da, n.arg)
        memo[n] = d
        return d

    return go(e)


def subs(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Substitute expressions for variables, refolding constants."""
    memo: dict[Expr, Expr] = {}

    def go(n: Expr) -> Expr:
        r = memo.get(n)
        if r is not None:
            return r
        if isinstance(n, Const):
            r = n
        elif isinstance(n, Var):
            r = mapping.get(n.name, n)
        elif isinstance(n, Add):
            r = add(go(n.a), go(n.b))
        elif isinstance(n, Sub):
            r = sub(go(n.a), go(n.b))
        elif isinstance(n, Mul):
            r = mul(go(n.a), go(n.b))
        elif isinstance(n, Div):
            r = div(go(n.a), go(n.b))
        elif isinstance(n, Pow):
            r = pow_(go(n.base), n.n)
        else:
            r = fun(n.name, go(n.arg))
        memo[n] = r
        return r

    return go(e)


_NO_VARS: frozenset[str] = frozenset()
_VAR_SETS: dict[frozenset[str], frozenset[str]] = {_NO_VARS: _NO_VARS}


def free_vars(e: Expr) -> frozenset[str]:
    """Names of the variables in e, cached on e and on every node below it."""
    fv = e._fv
    if fv is not None:
        return fv
    setfv = object.__setattr__
    intern = _VAR_SETS.setdefault
    stack = [e]
    while stack:
        n = stack[-1]
        if n._fv is not None:
            stack.pop()
            continue
        t = type(n)
        if t is Const:
            fv = _NO_VARS
        elif t is Var:
            fv = frozenset((n.name,))
            fv = intern(fv, fv)
        elif t is Pow or t is Fun:
            arg = n.base if t is Pow else n.arg
            fv = arg._fv
            if fv is None:
                stack.append(arg)
                continue
        else:
            fa, fb = n.a._fv, n.b._fv
            if fa is None or fb is None:
                if fb is None:
                    stack.append(n.b)
                if fa is None:
                    stack.append(n.a)
                continue
            if fb <= fa:
                fv = fa
            elif fa <= fb:
                fv = fb
            else:
                fv = fa | fb
                fv = intern(fv, fv)
        setfv(n, "_fv", fv)
        stack.pop()
    return e._fv


# ---------------------------------------------------------------------------
# compilation (fast repeated evaluation; semantics match `evaluate`)
# ---------------------------------------------------------------------------

def compile_exprs(exprs: Sequence[Expr], names: Sequence[str]) -> Callable[[Sequence[float]], list[float]]:
    """Compile expressions into one function of a coordinate tuple.

    The returned callable takes values ordered like `names` and returns a
    list of floats.  Shared subtrees are evaluated once.  Domain errors
    surface as DomainError, matching `evaluate`.
    """
    index = {name: i for i, name in enumerate(names)}
    lines: list[str] = []
    ids: dict[Expr, str] = {}
    counter = [0]

    def go(n: Expr) -> str:
        t = ids.get(n)
        if t is not None:
            return t
        if isinstance(n, Const):
            t = repr(float(n.value))
        elif isinstance(n, Var):
            if n.name not in index:
                raise UnboundVariableError(f"unknown name {n.name!r}")
            t = f"x[{index[n.name]}]"
        else:
            if isinstance(n, Add):
                rhs = f"{go(n.a)} + {go(n.b)}"
            elif isinstance(n, Sub):
                rhs = f"{go(n.a)} - {go(n.b)}"
            elif isinstance(n, Mul):
                rhs = f"{go(n.a)} * {go(n.b)}"
            elif isinstance(n, Div):
                rhs = f"{go(n.a)} / {go(n.b)}"
            elif isinstance(n, Pow):
                rhs = f"{go(n.base)} ** {n.n}"
            else:
                rhs = f"_{n.name}({go(n.arg)})"
            t = f"t{counter[0]}"
            counter[0] += 1
            lines.append(f"    {t} = {rhs}")
        ids[n] = t
        return t

    results = [go(e) for e in exprs]
    src = "def _compiled(x):\n" + "\n".join(lines) + f"\n    return [{', '.join(results)}]\n"
    ns = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp, "_log": _checked_log}
    exec(compile(src, "<bsymp-compiled>", "exec"), ns)
    raw = ns["_compiled"]

    def wrapped(x):
        try:
            return raw(x)
        except ZeroDivisionError as err:
            # float ** negative int raises it too; name it as `evaluate` does
            raise DomainError("zero to a negative power" if "negative power" in str(err)
                              else "division by zero") from None

    return wrapped


def _checked_log(x: float) -> float:
    if x <= 0.0:
        raise DomainError("log of a non-positive value")
    return math.log(x)
