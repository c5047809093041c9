import ast
import gc
import math
import sys
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from bsymp import bcalc, expr
from bsymp import dynamics as dyn
from bsymp.expr import (
    Const, Var, parse, evaluate, eval_exact, diff, subs, free_vars,
    to_str, compile_exprs, ExprSyntaxError, DomainError, UnboundVariableError,
)


# ---------------------------------------------------------------------------
# random expression generator used by the derivative oracle
# ---------------------------------------------------------------------------

VARS = ("x", "y", "z")


def random_expr(rng, depth):
    """Random tree over VARS; retries when folding hits a zero denominator."""
    while True:
        try:
            return _random_expr(rng, depth)
        except DomainError:
            continue


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(VARS[rng.randrange(len(VARS))])
        return Const(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)))
    op = rng.randrange(8)
    if op <= 1:
        return _random_expr(rng, depth - 1) + _random_expr(rng, depth - 1)
    if op == 2:
        return _random_expr(rng, depth - 1) - _random_expr(rng, depth - 1)
    if op <= 4:
        return _random_expr(rng, depth - 1) * _random_expr(rng, depth - 1)
    if op == 5:
        return _random_expr(rng, depth - 1) / _random_expr(rng, depth - 1)
    if op == 6:
        return _random_expr(rng, depth - 1) ** rng.randrange(2, 4)
    name = ("sin", "cos", "exp", "log")[rng.randrange(4)]
    return expr.fun(name, _random_expr(rng, depth - 1))


def well_conditioned_at(e, env):
    """True when every division / log / negative power is comfortably defined.

    Keeps the finite-difference oracle away from poles: denominators and log
    arguments stay bounded away from 0 at the sample point.
    """
    ok = True

    def walk(n):
        nonlocal ok
        if not ok:
            return 0.0
        if isinstance(n, Const):
            return float(n.value)
        if isinstance(n, Var):
            return env[n.name]
        if isinstance(n, expr.Add):
            return walk(n.a) + walk(n.b)
        if isinstance(n, expr.Sub):
            return walk(n.a) - walk(n.b)
        if isinstance(n, expr.Mul):
            return walk(n.a) * walk(n.b)
        if isinstance(n, expr.Div):
            num, den = walk(n.a), walk(n.b)
            if abs(den) < 0.1:
                ok = False
                return 0.0
            return num / den
        if isinstance(n, expr.Pow):
            b = walk(n.base)
            if n.n < 0 and abs(b) < 0.1:
                ok = False
                return 0.0
            return b ** n.n
        arg = walk(n.arg)
        if n.name == "log":
            if arg < 0.1:
                ok = False
                return 0.0
            return math.log(arg)
        if abs(arg) > 20:  # keep exp from overflowing the difference quotient
            ok = False
            return 0.0
        return getattr(math, n.name)(arg)

    val = walk(e)
    return ok and abs(val) < 1e6


def test_derivative_matches_central_differences():
    # oracle: (f(x+h) - f(x-h)) / 2h with h = 1e-5, tolerance 1e-6*(1+|f'|)
    import random
    rng = random.Random(42)
    h = 1e-5
    checked = 0
    while checked < 1000:
        e = random_expr(rng, 3)
        env = {v: rng.uniform(-2.0, 2.0) for v in VARS}
        if not well_conditioned_at(e, env):
            continue
        var = VARS[checked % len(VARS)]
        de = diff(e, var)
        if not well_conditioned_at(e, {**env, var: env[var] + h}):
            continue
        if not well_conditioned_at(e, {**env, var: env[var] - h}):
            continue
        try:
            exact = evaluate(de, env)
            up = evaluate(e, {**env, var: env[var] + h})
            dn = evaluate(e, {**env, var: env[var] - h})
        except DomainError:
            continue
        fd = (up - dn) / (2 * h)
        assert abs(exact - fd) <= 1e-6 * (1 + abs(exact)), (to_str(e), var, env)
        checked += 1


@pytest.mark.parametrize("text,var,expected", [
    ("sin(x)", "x", "cos(x)"),
    ("cos(x)", "x", "-sin(x)"),
    ("exp(x)", "x", "exp(x)"),
    ("log(x)", "x", "1/x"),
    ("x^3", "x", "3*x^2"),
    ("x*y", "y", "x"),
    ("x/y", "y", "-x/y^2"),
])
def test_primitive_derivatives(text, var, expected):
    got = diff(parse(text), var)
    want = parse(expected)
    for v in (0.7, -1.3, 2.1):
        env = {"x": v, "y": v + 0.5}
        assert evaluate(got, env) == pytest.approx(evaluate(want, env), abs=1e-12)


def test_derivative_of_unrelated_variable_is_zero():
    d = diff(parse("sin(x) + x^2"), "y")
    assert isinstance(d, Const) and d.value == 0


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,value", [
    ("1 + 2*3", 7.0),
    ("(1 + 2)*3", 9.0),
    ("2^3", 8.0),
    ("(x^2)^3", 64.0),  # power takes a single integer exponent; nesting needs parens
    ("-x^2", -4.0),     # unary minus binds the whole power
    ("3/4", 0.75),
    ("0.25", 0.25),
    ("x^-2", 0.25),
    ("2*-3", -6.0),
])
def test_parse_values(text, value):
    assert evaluate(parse(text), {"x": 2.0}) == pytest.approx(value)


def test_decimals_become_exact_rationals():
    e = parse("0.1")
    assert isinstance(e, Const) and e.value == Fraction(1, 10)


def test_constant_folding():
    assert parse("1 + 2").value == 3
    assert parse("x*0") is expr.ZERO
    assert parse("x*1").name == "x"
    assert parse("x + 0").name == "x"
    assert parse("x^0").value == 1
    assert to_str(parse("0 - x")) == "-x"
    # no value-level folding of transcendentals other than exact identities
    assert isinstance(parse("sin(1)"), expr.Fun)
    assert parse("sin(0)").value == 0
    assert parse("cos(0)").value == 1
    assert parse("log(1)").value == 0


@pytest.mark.parametrize("text,line,col", [
    ("1 +", 1, 4),
    ("(x + 1", 1, 7),
    ("foo(x)", 1, 1),
    ("x ^ y", 1, 5),
    ("1 @ 2", 1, 3),
    ("x +\n* y", 2, 1),
    # nesting is bounded: the level past 100 is the error, not a RecursionError
    ("(" * 400 + "x" + ")" * 400, 1, 101),
    ("-" * 1000 + "x", 1, 101),
    ("sin(" * 101 + "x" + ")" * 101, 1, 401),
    ("-(" * 51 + "x" + ")" * 51, 1, 101),
    # names and digits are ASCII, as the grammar writes them
    ("_x", 1, 1),
    ("é1", 1, 1),
    ("x²", 1, 2),
    ("٣", 1, 1),
    ("1.٣", 1, 1),
    ("²", 1, 1),
    # a line starts after each "\n"; "\r" and a tab are one column each
    ("x +\n", 2, 1),
    ("x\r\n+\ty é", 2, 5),
    ("\n\n  x)", 3, 4),
    ("x *\r\n\r\n\t5.", 3, 2),
])
def test_parse_errors_carry_position(text, line, col):
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    assert info.value.line == line
    assert info.value.col == col


@pytest.mark.parametrize("text,message", [
    ("_x", "unexpected character '_'"),
    ("é1", "unexpected character 'é'"),
    ("x²", "unexpected character '²'"),
    ("٣", "unexpected character '٣'"),
    ("²", "unexpected character '²'"),
    ("1.٣", "malformed number"),  # as "1.x": the fraction needs a digit
])
def test_only_ascii_letters_and_digits_scan(text, message):
    with pytest.raises(ExprSyntaxError, match=f"^{message} "):
        parse(text)
    assert expr.free_vars(parse("x_1*A9 + b_")) == {"x_1", "A9", "b_"}


@pytest.mark.parametrize("text,col,message", [
    ("p*3^1000", 5, "constant too large for a float"),
    ("x + 10^200*10^200", 11, "constant too large for a float"),
    ("10^308 - -10^308", 8, "constant too large for a float"),
    ("x*" + "9" * 400, 3, "constant too large for a float"),
    ("x*" + "9" * 5000, 3, "number has too many digits"),
    ("0." + "1" * 5000, 1, "number has too many digits"),
    ("x^" + "9" * 5000, 3, "number has too many digits"),
    ("(1/3)^30000000", 7, "constant power of over 1100 bits"),
    ("2^-1100", 4, "constant power of over 1100 bits"),
    ("x^99999999999", 3, "exponent of a variable power must be below 1100"),
    ("sin(x)^-1100", 9, "exponent of a variable power must be below 1100"),
], ids=["power", "product", "sum", "literal", "long-literal", "long-decimal",
        "long-exponent", "huge-power", "negative-power", "variable-power",
        "negative-variable-power"])
def test_oversized_constants_are_syntax_errors(text, col, message):
    # each is refused at its token, the huge power before it is computed
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    assert time.perf_counter() - start < 0.5
    assert str(info.value) == f"{message} (line 1, column {col})"


def test_constant_bounds_keep_every_float():
    assert parse("10^300").value == 10 ** 300
    assert parse("(1/2)^1099").value == Fraction(1, 2 ** 1099)
    assert parse("1^100000 + (-1)^-100001") is expr.ZERO
    assert float(parse("1" * 300 + "/" + "3" * 300).value) == pytest.approx(1 / 3)


@pytest.mark.parametrize("text", [
    "x + y*z",
    "x - (y + z)",
    "-x^2 + 3/4",
    "sin(x)*cos(y) - exp(z)/log(x)",
    "(x + y)^3",
    "x/(y*z)",
    "-3/4*x",
])
def test_print_parse_round_trip(text):
    canon = to_str(parse(text))
    assert to_str(parse(canon)) == canon


def test_to_str_of_deep_chain_does_not_recurse():
    e = Var("x")
    want = "x*y + 1"
    for k in range(1, 5001):
        e = e * Var("y") + Const(Fraction(1, k))
        if k > 1:
            want = f"({want})*y + 1/{k}"
    assert to_str(e) == want
    assert to_str(-e).startswith("-((((") and to_str(expr.Fun("sin", e)) == f"sin({want})"


@pytest.mark.parametrize("seed", range(200))
def test_print_parse_round_trip_random(seed):
    import random
    e = random_expr(random.Random(seed), 4)
    canon = to_str(e)
    assert to_str(parse(canon)) == canon
    # nodes are interned: the printer and the parser agree on the tree
    assert parse(canon) is e


@pytest.mark.parametrize("seed", range(200))
def test_reparsed_expression_evaluates_identically(seed):
    import random
    rng = random.Random(seed)
    e = random_expr(rng, 4)
    env = {v: rng.uniform(-2, 2) for v in VARS}
    if not well_conditioned_at(e, env):
        return
    assert evaluate(parse(to_str(e)), env) == pytest.approx(evaluate(e, env), rel=1e-12)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_unknown_name_is_reported():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x + q"), {"x": 1.0})


@pytest.mark.parametrize("text,env", [
    ("1/x", {"x": 0.0}),
    ("log(x)", {"x": 0.0}),
    ("log(x)", {"x": -1.0}),
    ("x^-1", {"x": 0.0}),
])
def test_domain_errors(text, env):
    with pytest.raises(DomainError):
        evaluate(parse(text), env)


@pytest.mark.parametrize("text,x", [
    ("sin(x)", math.inf),
    ("cos(x)", -math.inf),
    ("1 + sin(x*x)", 1e200),  # x*x overflows to inf before sin
])
def test_sin_and_cos_of_infinity_are_domain_errors(text, x):
    # math.sin and math.cos raise a bare ValueError at inf; evaluate and
    # compiled code both report it as the same DomainError
    e = parse(text)
    for run in (lambda: evaluate(e, {"x": x}), lambda: compile_exprs([e], ["x"])([x])):
        with pytest.raises(DomainError, match="^sin or cos of an infinite value$"):
            run()


def test_no_implicit_abs_in_log():
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), {"x": -2.0})


def test_eval_exact_rationals():
    e = parse("(x + 1/3)^2 - x/7")
    v = eval_exact(e, {"x": Fraction(2, 5)})
    assert v == (Fraction(2, 5) + Fraction(1, 3)) ** 2 - Fraction(2, 5) / 7


def test_eval_exact_rejects_transcendentals():
    with pytest.raises(expr.EvalError):
        eval_exact(parse("sin(x)"), {"x": Fraction(1)})


def test_compiled_matches_interpreted():
    import random
    rng = random.Random(7)
    for _ in range(50):
        e = random_expr(rng, 4)
        env = {v: rng.uniform(-2, 2) for v in VARS}
        if not well_conditioned_at(e, env):
            continue
        f = compile_exprs([e, diff(e, "x")], VARS)
        got = f([env[v] for v in VARS])
        assert got[0] == pytest.approx(evaluate(e, env), rel=1e-14, abs=1e-14)
        assert got[1] == pytest.approx(evaluate(diff(e, "x"), env), rel=1e-14, abs=1e-14)


def test_compiled_domain_error():
    f = compile_exprs([parse("1/x")], ("x",))
    with pytest.raises(DomainError):
        f([0.0])


def raising_lines(lines) -> int:
    """How many emitted lines run an op that can raise (a call or a
    division), checking that such an op is always its line's whole
    right-hand side, never nested inside other arithmetic."""
    count = 0
    for ln in lines:
        rhs = ast.parse(ln.strip()).body[0].value
        raising = [n for n in ast.walk(rhs) if isinstance(n, ast.Call)
                   or isinstance(getattr(n, "op", None), ast.Div)]
        assert raising in ([], [rhs]), ln
        count += len(raising)
    return count


def raising_nodes(exprs) -> int:
    """How many nodes of the walk of exprs can raise: divisions, powers,
    functions and constants past the float range."""
    def raises(n):
        if type(n) is Const:
            return abs(n.value) > Fraction(sys.float_info.max)
        return type(n) in (expr.Div, expr.Pow, expr.Fun)
    return sum(map(raises, expr._postorder(exprs)))


def built(lines, ids):
    """emit's lines as a function of the input list x, returning the outputs."""
    return expr.build("\n".join(["def f(x):", *lines, f"    return [{', '.join(ids)}]"])
                      + "\n", "f")


def test_equal_text_shares_a_temporary():
    # the four uses of x*y are one node, and the two of 0.738*x one; each is
    # read more than once, so emit computes it once on its own line, and
    # every raising node keeps a line of its own; the generated code and the
    # compiled map equal `evaluate` bit for bit, the error of the first
    # failing node included
    e = parse("(x*y + sin(x*y)) / (x*y - 1) + log(x*y) - 0.738*x*(1 - 0.738*x)^2")
    order = expr._postorder([e])
    assert [to_str(n) for n in order].count("x*y") == 1
    assert len({to_str(n) for n in order}) == len(order)  # no two equal subtrees
    lines, ids = expr.emit([e], {"x": "x[0]", "y": "x[1]"}, "t")
    assert lines[0] == "    t0 = x[0] * x[1]"
    assert sum(ln.count("x[0] * x[1]") for ln in lines) == 1
    assert sum(ln.count("0.738 * x[0]") for ln in lines) == 1
    assert raising_lines(lines) == raising_nodes([e]) == 4  # sin, /, log, ^2
    assert len(lines) < sum(type(n) not in (Const, Var) for n in order)
    printed = built(lines, ids)
    f = compile_exprs([e], ["x", "y"])
    outcomes = set()
    for x, y in [(0.5, 3.0), (2.0, 0.5), (0.5, -1.0), (-1.5, 0.25), (1.25, 0.8), (3.0, 0.0)]:
        env = {"x": x, "y": y}
        try:
            want = evaluate(e, env)
        except DomainError as err:
            with pytest.raises(DomainError) as got:
                f([x, y])
            assert str(got.value) == str(err)
            with pytest.raises((ArithmeticError, ValueError)) as raw:
                printed([x, y])
            assert str(expr.domain_error(raw.value)) == str(err)
            outcomes.add(str(err))
            continue
        assert f([x, y]) == printed([x, y]) == [want]
        outcomes.add("value")
    assert outcomes == {"value", "division by zero", "log of a non-positive value"}


# ---------------------------------------------------------------------------
# random DAGs; compiled errors against evaluate
# ---------------------------------------------------------------------------

def random_dag(rng, size, names=VARS):
    """Random DAG over the given variables with shared subtrees.

    Each new node takes its operands from the nodes built so far (the first
    from the latest few, so the result is deep), so most subtrees are
    reached along several paths.  Covers Div, negative powers and all four
    functions; retries when folding hits a zero denominator.
    """
    pool = [Var(v) for v in names] + [Const(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)))]
    while len(pool) < size + 4:
        a, b = rng.choice(pool[-6:]), rng.choice(pool)
        op = rng.randrange(10)
        try:
            if op == 0:
                n = a + b
            elif op == 1:
                n = a - b
            elif op <= 3:
                n = a * b
            elif op == 4:
                n = a / b
            elif op == 5:
                n = a ** rng.choice((-2, -1, 2, 3))
            else:
                n = expr.fun(("sin", "cos", "exp", "log")[op - 6], a)
        except DomainError:
            continue
        pool.append(n)
    return pool[-1]


@pytest.mark.parametrize("text,env,error", [
    ("x + q", {"x": 1.0}, UnboundVariableError),
    ("1/(x - y)", {"x": 0.5, "y": 0.5}, DomainError),
    ("log(x)", {"x": 0.0}, DomainError),
    ("log(x*y)", {"x": -1.0, "y": 2.0}, DomainError),
    ("x^-1 + y", {"x": 0.0, "y": 1.0}, DomainError),
    ("log(x)/(y - 1)", {"x": -1.0, "y": 1.0}, DomainError),
    ("log(x)/y + q", {"x": -1.0, "y": 1.0}, DomainError),
])
def test_compiled_errors_match_evaluate(text, env, error):
    e = parse(text)
    with pytest.raises(error) as from_evaluate:
        evaluate(e, env)
    # a compiled function binds its names when it is built, so an unbound
    # name fails there; any other error is raised by the first failing node
    if error is UnboundVariableError:
        with pytest.raises(error) as from_compiled:
            compile_exprs([e], list(env))
    else:
        names = sorted(free_vars(e))
        with pytest.raises(error) as from_compiled:
            compile_exprs([e], names)([env.get(n, 1.0) for n in names])
    assert str(from_compiled.value) == str(from_evaluate.value)


def test_evaluate_and_grad_do_not_recurse():
    e = Var("x")
    for k in range(1, 5001):
        e = e * Var("y") + Const(Fraction(1, k))
    env = {"x": 0.5, "y": 0.999}
    want = 0.5 * 0.999 ** 5000 + sum(0.999 ** (5000 - k) / k for k in range(1, 5001))
    assert evaluate(e, env) == pytest.approx(want, rel=1e-12)
    assert compile_exprs([diff(e, "x")], ["x", "y"])([0.5, 0.999]) == \
        [pytest.approx(0.999 ** 5000, rel=1e-12)]


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitution_composes():
    e = parse("x^2 + sin(y)")
    g = subs(e, {"x": parse("u + 1"), "y": parse("u*v")})
    env = {"u": 0.3, "v": 1.7}
    assert evaluate(g, env) == pytest.approx((0.3 + 1) ** 2 + math.sin(0.3 * 1.7))


def test_substitution_folds_constants():
    e = parse("x*y + cos(x)")
    g = subs(e, {"x": expr.ZERO})
    assert isinstance(g, Const) and g.value == 1


def test_free_vars():
    assert free_vars(parse("x*sin(y) + 3")) == {"x", "y"}


def test_free_vars_are_cached_and_interned():
    e = parse("x*sin(y) + 3*x")
    s = free_vars(e)
    assert free_vars(e) is s
    assert free_vars(parse("x*sin(y) + 3*x")) is s  # one node, one set
    assert free_vars(e.a) is s  # shared with the operand that holds every name
    assert free_vars(parse("sin(y)*x")) == s
    assert free_vars(e.b) == {"x"}  # fixed on every node when it was built
    assert free_vars(parse("3/4")) == frozenset()


# ---------------------------------------------------------------------------
# interning: one node per structure
# ---------------------------------------------------------------------------

def test_structurally_equal_expressions_are_one_node():
    assert parse("x*y + 1") is parse("x*y + 1")
    assert Const(Fraction(2, 4)) is Const(Fraction(1, 2))
    assert -Var("x") is -Var("x")
    assert Const(Fraction(2)) * Const(Fraction(1, 2)) is expr.ONE
    assert Const(0) is expr.ZERO and Const(Fraction(-1)) is expr.MINUS_ONE
    assert expr.Add(Var("x"), Var("y")) is not expr.Add(Var("y"), Var("x"))


def test_b_d_of_a_coordinate_is_the_one_constant_one():
    ch = bcalc.BChart(("z1", "z2", "z3"), 0)
    for k in (1, 2):
        assert bcalc.b_d(bcalc.BForm(ch, 0, {(): Var(ch.names[k])})).coeffs == {(k,): expr.ONE}


def test_nodes_are_immutable():
    e = parse("x + 1/2")
    for node, field in ((e, "a"), (e, "_fv"), (e.a, "name"), (e.b, "value"),
                        (parse("x^2"), "n"), (parse("sin(x)"), "arg")):
        with pytest.raises(AttributeError):
            setattr(node, field, expr.ONE)
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert e.b.value == Fraction(1, 2)


def test_dropped_nodes_leave_the_table():
    gc.collect()
    before = len(expr._NODES)
    e = Var("dropped")
    for k in range(1, 2001):
        e = e * Var("dropped") + Const(Fraction(1, k))
    diff(e, "dropped")
    assert len(expr._NODES) > before + 4000
    del e
    gc.collect()
    assert len(expr._NODES) == before
    assert all(r() is not None for r in expr._NODES.valuerefs())


# ---------------------------------------------------------------------------
# variable-aware diff against the full walk
# ---------------------------------------------------------------------------

def full_walk_diff(e, var):
    """Reference: differentiate every node, whether or not var occurs in it."""
    memo = {}

    def go(n):
        d = memo.get(n)
        if d is not None:
            return d
        if isinstance(n, Const):
            d = expr.ZERO
        elif isinstance(n, Var):
            d = expr.ONE if n.name == var else expr.ZERO
        elif isinstance(n, expr.Add):
            d = go(n.a) + go(n.b)
        elif isinstance(n, expr.Sub):
            d = go(n.a) - go(n.b)
        elif isinstance(n, expr.Mul):
            d = go(n.a) * n.b + n.a * go(n.b)
        elif isinstance(n, expr.Div):
            d = (go(n.a) * n.b - n.a * go(n.b)) / n.b ** 2
        elif isinstance(n, expr.Pow):
            d = Const(Fraction(n.n)) * n.base ** (n.n - 1) * go(n.base)
        else:
            da = go(n.arg)
            if n.name == "sin":
                d = expr.fun("cos", n.arg) * da
            elif n.name == "cos":
                d = Const(Fraction(-1)) * (expr.fun("sin", n.arg) * da)
            elif n.name == "exp":
                d = n * da
            else:
                d = da / n.arg
        memo[n] = d
        return d

    return go(e)


def test_diff_matches_full_walk_on_shared_dags():
    # the DAGs draw on a random subset of VARS, so each variable is
    # sometimes absent from the whole expression and often from subtrees
    import random
    rng = random.Random(11)
    absent = present = 0
    for k in range(600):
        used = rng.sample(VARS, rng.randrange(1, len(VARS) + 1))
        e = random_dag(rng, rng.randrange(4, 30), used)
        env = {v: rng.uniform(-2.0, 2.0) for v in VARS}
        for v in (*VARS, "w"):
            got, want = diff(e, v), full_walk_diff(e, v)
            assert to_str(got) == to_str(want), (to_str(e), v)
            if v in free_vars(e):
                present += 1
            else:
                absent += 1
                assert got is expr.ZERO
            try:
                value = evaluate(want, env)
            except DomainError as err:
                with pytest.raises(type(err)):
                    evaluate(got, env)
                continue
            assert evaluate(got, env) == value or (math.isnan(value)
                                                  and math.isnan(evaluate(got, env)))
    assert absent > 500 and present > 500


def test_cached_diff_is_the_object_an_uncached_walk_builds():
    # diff caches each node's derivative by variable on the node; nodes are
    # interned, so the cached tree is the very object a fresh walk builds.
    # Random inner nodes are differentiated first, so each root's walk
    # starts from a different set of cached nodes
    import random
    rng = random.Random(32)
    kinds = set()
    for k in range(300):
        e = random_dag(rng, rng.randrange(4, 40))
        nodes = expr._postorder((e,))
        kinds.update(n.name if isinstance(n, expr.Fun) else type(n).__name__ for n in nodes)
        for n in rng.sample(nodes, len(nodes) // 3):
            v = rng.choice(VARS)
            assert diff(n, v) is full_walk_diff(n, v)
        for v in rng.sample(VARS, len(VARS)):
            assert diff(e, v) is full_walk_diff(e, v)
            assert diff(e, v) is full_walk_diff(e, v)
    assert {"Div", "Pow", "sin", "cos", "exp", "log"} <= kinds


def test_a_dropped_node_with_cached_derivatives_is_collected():
    # exp's derivative refers back to the node through its cache: a cycle,
    # which the collector frees once nothing else holds the node
    e = expr.exp(Var("cached_x") * Var("cached_y"))
    d = diff(e, "cached_x")
    assert d is expr.Mul(e, Var("cached_y")) and diff(e, "cached_x") is d
    dead = weakref.ref(e)
    del e, d
    gc.collect()
    assert dead() is None


def test_free_vars_of_deep_chain_do_not_recurse():
    e = Var("x")
    for k in range(1, 5001):
        e = e * Var("y") + Const(Fraction(1, k))
    assert free_vars(e) == {"x", "y"}
    assert diff(e, "z") is expr.ZERO
    env = {"x": 0.5, "y": 0.999}
    want = evaluate(e, env)
    assert evaluate(diff(e, "x"), env) == pytest.approx(0.999 ** 5000, rel=1e-12)
    dy = sum((5000 - k) * 0.999 ** (4999 - k) / k for k in range(1, 5000)) \
        + 0.5 * 5000 * 0.999 ** 4999
    assert evaluate(diff(e, "y"), env) == pytest.approx(dy, rel=1e-12)
    assert evaluate(subs(e, {"x": Var("u")}), {"u": 0.5, "y": 0.999}) == want
    assert compile_exprs([e, diff(e, "y")], ["x", "y"])([0.5, 0.999]) == \
        [want, pytest.approx(dy, rel=1e-12)]
    harmonic = sum(Fraction(1, k) for k in range(1, 5001))
    assert eval_exact(e, {"x": Fraction(1, 2), "y": Fraction(1)}) == Fraction(1, 2) + harmonic
    assert eval_exact(subs(e, {"y": expr.ONE}), {"x": Fraction(0)}) == harmonic


# ---------------------------------------------------------------------------
# structural zeros and linear combinations
# ---------------------------------------------------------------------------

def test_dot_with_zero_coefficients_prints_as_the_skipped_sum():
    x, y, z = Var("x"), Var("y"), Var("z")
    full = expr.dot([0, 2, Fraction(0), "1/2"], [x, y, z, x * z])
    assert to_str(full) == to_str(expr.dot([2, "1/2"], [y, x * z])) == "2*y + 1/2*(x*z)"
    assert to_str(expr.dot([x, y, z], [expr.ZERO, Const(Fraction(3)), expr.ZERO])) == "y*3"


def test_dot_of_nothing_or_of_zeros_is_zero():
    assert expr.dot([], []) is expr.ZERO
    zero = expr.dot([0, 0.0, expr.ZERO], [Var("x"), Const(Fraction(5)), Var("y")])
    assert expr.is_zero(zero) and to_str(zero) == "0"


def test_dot_keeps_operand_order_and_folds_left():
    a, b, c, d = (Var(n) for n in "abcd")
    e = expr.dot([a, c], [b, d])
    assert to_str(e) == "a*b + c*d"
    assert isinstance(e, expr.Add) and e.a.a is a and e.a.b is b and e.b.a is c
    assert to_str(expr.dot([b, d], [a, c])) == "b*a + d*c"
    assert to_str(expr.dot([a, b, c], [1, 1, 1])) == "a + b + c"
    with pytest.raises(ValueError):
        expr.dot([1, 2], [a])


def test_is_zero_only_for_constant_zero():
    x = Var("x")
    assert expr.is_zero(expr.ZERO) and expr.is_zero(Const(Fraction(0)))
    assert expr.is_zero(parse("0*x")) and expr.is_zero(parse("3 - 3"))
    assert not expr.is_zero(x - x)
    assert not expr.is_zero(expr.ONE) and not expr.is_zero(x)
    assert evaluate(x - x, {"x": 2.0}) == 0.0


def test_parse_accepts_nesting_at_the_bound():
    assert to_str(parse("(" * 100 + "x" + ")" * 100)) == "x"
    assert evaluate(parse("-" * 100 + "x"), {"x": 2.0}) == 2.0
    assert to_str(parse("sin(" * 100 + "x" + ")" * 100)).count("sin(") == 100
    # nesting is what is open at once, not what the whole text contains
    flat = " + ".join(["(-(x))"] * 300)
    assert evaluate(parse(flat), {"x": 1.0}) == -300.0


@pytest.mark.parametrize("opener", ["x*(", "x+(", "x+y*(", "x-y/(", "x+y*sin("])
def test_nesting_bound_holds_in_right_operands(opener):
    # a right operand of mixed precedence costs the most frames per level
    assert parse(opener * 100 + "x" + ")" * 100) is not None
    with pytest.raises(ExprSyntaxError, match="^nested deeper than 100 levels "):
        parse(opener * 101 + "x" + ")" * 101)


# ---------------------------------------------------------------------------
# one contract for float failures
# ---------------------------------------------------------------------------

# name: (expression in x, a point where it fails, whether it is rational).
# None fails at point + 1 or 1/8 below it, and every failure of a row has
# the message of its point, so a midpoint flow x' = -1 from point + 1 with
# dt = 1/4 (exact steps) fails after its first step and by t = 1
FAILURES = {
    "division-by-zero": ("1/x", 0.0, True),
    "zero-to-negative-power": ("x^-1", 0.0, True),
    "log-domain": ("log(x)", 0.0, False),
    "sin-of-inf": ("sin(10^300*exp(-x))", -19.5, False),
    "cos-of-inf": ("cos(10^300*exp(-x))", -19.5, False),
    "exp-overflow": ("exp(-x)", -710.0, False),
    "power-overflow": ("x^-1024", 0.5, False),
}


ENTRIES = ("evaluate", "eval_exact", "compiled", "flow-start", "flow-mid-run",
           "flow-invariant", "columns")


def _flow_error(vf, x0, **kw):
    with pytest.raises((dyn.ChartExitError, dyn.InvariantError)) as info:
        dyn.integrate(vf, x0, 0.25, 2.0, method="midpoint", **kw)
    return info.value


def _run_entry(entry, e, point):
    """Call one evaluator at the failing point; a flow raises the DomainError
    it wraps, once its own error is checked."""
    env = {"x": point}
    if entry == "evaluate":
        return evaluate(e, env)
    if entry == "eval_exact":
        return eval_exact(e, {"x": Fraction(point)})
    if entry == "compiled":
        return compile_exprs([e], ["x"])([point])
    if entry == "columns":
        return compile_exprs([e], ["x"])(np.array([[point, point]]))
    if entry == "flow-start":
        err = _flow_error(dyn.VectorField(("x",), (e,)), [point])
        assert isinstance(err, dyn.ChartExitError) and err.time == 0.0
        prefix = "field evaluation failed at t=0: "
    elif entry == "flow-mid-run":
        err = _flow_error(dyn.VectorField(("x", "y"), (expr.MINUS_ONE, e)), [point + 1, 0.0])
        assert isinstance(err, dyn.ChartExitError) and 0.0 < err.time <= 1.0
        prefix = f"field evaluation failed at t={err.time:.6g}: "
    else:  # flow-invariant: the Casimir fails on a row after the first
        err = _flow_error(dyn.VectorField(("x",), (expr.MINUS_ONE,)), [point + 1],
                          casimirs=[e])
        # the state escaped, in a value or in sin or cos reading its inf
        if str(err.__cause__) in ("float overflow", "sin or cos of an infinite value"):
            assert isinstance(err, dyn.ChartExitError) and err.time > 0.0
            assert str(err) == f"Casimir {to_str(e)} became non-finite at t={err.time:.6g}"
            raise err.__cause__
        assert isinstance(err, dyn.InvariantError) and err.index == 1
        prefix = str(err)[:str(err).index(": ") + 2]
        assert prefix.startswith("cannot be evaluated at t=") and prefix != \
            "cannot be evaluated at t=0: "
    assert str(err) == prefix + str(err.__cause__)
    raise err.__cause__


@pytest.mark.parametrize("failure,entry", [
    (failure, entry) for failure, (_, _, rational) in FAILURES.items() for entry in ENTRIES
    if rational or entry != "eval_exact"])  # eval_exact has no value off the rationals
def test_every_evaluator_raises_the_domain_error_of_evaluate(failure, entry):
    text, point, _ = FAILURES[failure]
    e = parse(text)
    with pytest.raises(DomainError) as want:
        evaluate(e, {"x": point})
    with pytest.raises(DomainError) as got:
        _run_entry(entry, e, point)
    assert type(got.value) is DomainError
    assert str(got.value) == str(want.value)


def test_a_power_derivative_that_overflows_is_a_domain_error():
    # x^-2 is 1e240 at 1e-120, but its derivative -2 x^-3 overflows
    e = parse("x^-2")
    assert evaluate(e, {"x": 1e-120}) == pytest.approx(1e240)
    with pytest.raises(DomainError, match="^float overflow$"):
        evaluate(diff(e, "x"), {"x": 1e-120})


def test_input_conversion_errors_keep_their_type():
    # converting a value of env is not a node of the walk failing
    e = parse("x + 1")
    for run, bad, error in ((eval_exact, math.nan, ValueError),
                            (eval_exact, math.inf, OverflowError),
                            (evaluate, "one", ValueError)):
        with pytest.raises(error) as info:
            run(e, {"x": bad})
        assert not isinstance(info.value, expr.EvalError)


def test_a_point_call_reads_ints_as_floats_as_evaluate_does():
    # exact int arithmetic once gave [30, 0], where evaluate overflows
    prod, cancel = parse("x*y"), parse("x^400 - x^400")
    env = {"x": 10, "y": 3}
    got = compile_exprs([prod], ["x", "y"])([10, 3])
    assert got == [evaluate(prod, env)] == [30.0]
    assert type(got[0]) is float
    with pytest.raises(DomainError, match="^float overflow$"):
        evaluate(cancel, env)
    with pytest.raises(DomainError, match="^float overflow$"):
        compile_exprs([prod, cancel], ["x", "y"])([10, 3])
    # an input that does not convert is no node of the walk failing
    f = compile_exprs([prod], ["x", "y"])
    for bad, error in ((["one", 3], ValueError), ([None, 3], TypeError)):
        with pytest.raises(error) as info:
            f(bad)
        assert not isinstance(info.value, expr.EvalError)


def test_a_constant_past_the_float_range_fails_where_it_is_evaluated():
    # parse bounds its constants, but diff folds 2 * 10^308 out of bounded
    # ones; a compiled map builds, and when called on a point or on columns
    # fails at that constant, the first node of the walk to fail, as
    # evaluate does; so does a flow
    e = diff(parse("10^308*x^2"), "x")
    assert e.a.value == 2 * 10 ** 308
    env = {"x": 1.0, "y": 0.0}
    with pytest.raises(DomainError, match="^float overflow$"):
        evaluate(e, env)
    f = compile_exprs([e, parse("1/y")], ["x", "y"])
    for point in ([1.0, 0.0], np.array([[1.0, 2.0], [1.0, 0.0]])):
        with pytest.raises(DomainError, match="^float overflow$"):
            f(point)
    with pytest.raises(dyn.ChartExitError, match="^field evaluation failed at t=0: "
                       "float overflow$"):
        dyn.integrate(dyn.VectorField(("x",), (e,)), [1.0], 0.1, 1.0)


# ---------------------------------------------------------------------------
# the column form of a compiled map
# ---------------------------------------------------------------------------

def test_columns_give_one_row_per_output_constants_broadcast():
    f = compile_exprs([parse("x*y + 1"), parse("3/4"), Var("y"), parse("exp(2)*x")],
                      ["x", "y"])
    X = np.array([[0.5, -1.0, 2.0], [3.0, 0.25, -0.5]])
    got = f(X)
    assert got.shape == (4, 3) and got.dtype == np.float64
    assert got[1].tolist() == [0.75] * 3
    assert got.tolist() == np.array([f(col) for col in X.T.tolist()]).T.tolist()
    assert f(np.array([0.5, 3.0])) == f([0.5, 3.0])  # a 1-D array is one point


def test_columns_round_powers_and_functions_as_the_scalar_call():
    # numpy's power, exp and log may round differently from math's; the
    # column namespace applies the scalar functions element by element
    e = [parse("x^2"), parse("x^3 - y^-2"), parse("exp(x) + log(y)"),
         parse("sin(x)*cos(y)"), parse("(x*y + 1)^5/(y^2 + 1)")]
    f = compile_exprs(e, ["x", "y"])
    X = np.random.default_rng(5).uniform(0.1, 3.0, (2, 4000))
    want = np.array([f(col) for col in X.T.tolist()]).T
    assert np.array_equal(f(X), want)


@pytest.mark.parametrize("text,cols,message", [
    ("log(0 - x)", [[-1.0, 2.0, 3.0]], "log of a non-positive value"),
    ("1/x", [[1.0, 0.0, 2.0]], "division by zero"),
    ("exp(1000*x)", [[0.1, 0.5, 2.0]], "float overflow"),
    ("sin(x*10^308*10)", [[0.0, 1.0, 2.0]], "sin or cos of an infinite value"),
])
def test_a_failing_column_raises_the_scalar_loops_first_error(text, cols, message):
    f = compile_exprs([parse(text)], ["x"])
    X = np.array(cols)
    with pytest.raises(DomainError) as want:
        for col in X.T.tolist():
            f(col)
    with pytest.raises(DomainError) as got:
        f(X)
    assert type(got.value) is DomainError
    assert str(got.value) == str(want.value) == message


def test_columns_report_the_first_failing_column_not_the_first_failing_line():
    # numpy fails first on 1/x of the third column, but the scalar loop
    # fails on log(y) of the second, which is the error a column call raises
    f = compile_exprs([parse("1/x"), parse("log(y)")], ["x", "y"])
    with pytest.raises(DomainError, match="^log of a non-positive value$"):
        f(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]))


def test_a_float_product_overflows_to_inf_in_both_forms():
    f = compile_exprs([parse("x*10^308"), parse("x + 1")], ["x"])
    X = np.array([[10.0, 0.5]])
    assert f([10.0]) == [math.inf, 11.0]
    assert f(X).tolist() == [[math.inf, 0.5e308], [11.0, 1.5]]


@pytest.mark.parametrize("err,message", [
    (FloatingPointError("overflow encountered in multiply"), "float overflow"),
    (FloatingPointError("divide by zero encountered in divide"), "float divide by zero"),
    (FloatingPointError("invalid value encountered in subtract"), "float invalid value"),
    (ValueError("math domain error"), "sin or cos of an infinite value"),
])
def test_domain_error_names_the_kind_of_a_numpy_error(err, message):
    got = expr.domain_error(err)
    assert type(got) is DomainError and str(got) == message


def test_a_column_call_keeps_no_second_copy_of_the_tape():
    # a column call runs the very steps a point call runs: a map of
    # thousands of steps holds no more after its first column call than
    # before it, once the ops have built their element-wise forms
    import tracemalloc
    warm = compile_exprs([parse("sin(x)^2")], ["x"])
    warm(np.array([[0.5, 1.5]]))
    x, y = Var("x"), Var("y")
    e = x
    for k in range(600):
        e = expr.sin(e * y + Const(k)) ** 2
    steps = len(expr._tape([e], ["x", "y"])[0])
    assert steps >= 2000
    f = compile_exprs([e], ["x", "y"])
    X = np.array([[0.5, 1.5, -0.25], [0.3, -0.7, 1.1]])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = f(X)
        del got
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 8 * steps, kept


def test_emit_reuses_a_temporary_once_its_last_reader_is_written():
    # a chain of 400 products, each read once, nests into lines at most
    # _NEST_DEPTH deep that need few names; the outputs keep theirs, and the
    # lines still compute the walk's values
    x = Var("x")
    e = x
    kept = []
    for k in range(400):
        e = e * x + Const(k)
        if k in (7, 250):
            kept.append(e)
    lines, ids = expr.emit([e, *kept], {"x": "x[0]"}, "t")
    steps = sum(type(n) not in (Const, Var) for n in expr._postorder([e]))
    assert steps == 799 and len(lines) < steps // expr._NEST_DEPTH + 4
    assert max(ln.count("(") for ln in lines) == expr._NEST_DEPTH
    assert raising_lines(lines) == raising_nodes([e]) == 0
    names = {ln.split(" = ")[0].strip() for ln in lines}
    assert len(names) <= 4
    assert len(set(ids)) == 3
    # an output is never nested and its name is never taken again after its
    # line, so the function returns every output's own value; the lines
    # print the tape, whose registers are those names
    assert set(ids) <= names
    f = compile_exprs([e, *kept], ["x"])
    want = [evaluate(n, {"x": 0.5}) for n in (e, *kept)]
    assert f([0.5]) == built(lines, ids)([0.5]) == want
    steps, _, outs = expr._tape([e, *kept], ["x"])
    assert len({step[-1] for step in steps}) <= 4 and len(set(outs)) == 3


def test_emit_nesting_stops_at_its_depth_cap():
    # a chain of 400 products and a sum of 1000 single-use terms would nest
    # hundreds of parentheses deep, more than CPython compiles; capped at
    # _NEST_DEPTH, the lines build and give the tape's values bit for bit
    x = Var("x")
    chain = x
    for k in range(400):
        chain = chain * x + Const(k)
    total = Const(0)
    for k in range(1, 1001):
        total = total + Const(Fraction(k, 10**6)) * x
    for e in (chain, total):
        lines, ids = expr.emit([e], {"x": "x[0]"}, "t")
        assert len(lines) < len(expr._tape([e], ["x"])[0]) // expr._NEST_DEPTH + 4
        printed, tape = built(lines, ids), compile_exprs([e], ["x"])
        for v in (0.5, -1.25, 1.0 + 2**-40, 3e-9, 1.0001):
            assert repr(printed([v])) == repr(tape([v]))


def test_a_tape_node_reading_one_operand_twice_frees_it_once():
    # x*x reads x twice and (x*x)*(x*x) reads the output x*x twice; s*s
    # reads the temporary s = x + y twice, last: freeing its register twice
    # would hand it to both s*s + x and s*s - y, live at once
    x, y = Var("x"), Var("y")
    xx = x * x
    s = x + y
    exprs = [xx, xx * xx, (s * s + x) * (s * s - y)]
    f = compile_exprs(exprs, ["x", "y"])
    X = np.array([[0.5, -1.5, 3.0, 1e-3], [2.0, 0.25, -0.75, 7.0]])
    want = [[evaluate(e, {"x": a, "y": b}) for e in exprs] for a, b in X.T.tolist()]
    assert [f(col) for col in X.T.tolist()] == want
    assert f(X).T.tolist() == want


def test_a_compiled_map_generates_no_source(monkeypatch):
    # builds and calls, on a point and on columns, with compile and exec gone
    import builtins

    def refuse(*args, **kwargs):
        raise AssertionError("compile_exprs generated source")

    np.ones(1) + 1  # numpy is loaded before exec goes
    e = parse("sin(x)^2 + log(y)/x - exp(x*y)")
    monkeypatch.setattr(builtins, "compile", refuse)
    monkeypatch.setattr(builtins, "exec", refuse)
    f = compile_exprs([e, diff(e, "x")], ["x", "y"])
    X = np.array([[0.5, 1.5], [2.0, 0.25]])
    want = [[evaluate(n, {"x": a, "y": b}) for n in (e, diff(e, "x"))] for a, b in X.T.tolist()]
    assert [f(col) for col in X.T.tolist()] == want
    assert f(X).T.tolist() == want


def test_emit_prints_each_step_on_one_line():
    # x*y is one node, read three times, computed once into t0, which as an
    # output is never taken again; 0.5*x, read once, nests into exp's line;
    # every call and division keeps its own line.  t1 + t2 is read once too,
    # but _log's line writes t2 before its reader runs, so it is printed on
    # its own line first; 0.5 is a float literal, 10^400/7 is past the float
    # range and divides where it runs
    big = Const(Fraction(10**400, 7))
    e = parse("sin(x*y) + cos(x*y)^2 / exp(0.5*x) - log(x*y)*y") * big
    lines, ids = expr.emit([e, parse("x*y")], {"x": "x[0]", "y": "x[1]"}, "t")
    assert lines == [
        "    t0 = x[0] * x[1]",
        "    t1 = _sin(t0)",
        "    t3 = _exp((0.5 * x[0]))",
        "    t2 = _cos(t0)",
        "    t4 = _pow(t2, 2)",
        "    t2 = t4 / t3",
        "    t3 = t1 + t2",
        "    t2 = _log(t0)",
        f"    t1 = {10**400} / 7",
        "    t3 = (t3 - (t2 * x[1])) * t1",
    ]
    assert ids == ["t3", "t0"]
    assert raising_lines(lines) == raising_nodes([e]) == 7


def test_emitted_lines_compute_what_the_tape_computes():
    # `emit` prints the steps `compile_exprs` runs: built, its lines give the
    # map's values bit for bit and, read by domain_error, its first error;
    # the second output lies inside the first, so its temporary stays live
    import random
    rng = random.Random(27)
    inputs = {v: f"x[{i}]" for i, v in enumerate(VARS)}
    values = errors = 0
    for k in range(400):
        e = random_dag(rng, rng.randrange(4, 30))
        exprs = [e, rng.choice(expr._postorder([e]))]
        lines, ids = expr.emit(exprs, inputs, "t")
        printed = expr.build("\n".join(["def f(x):", *lines, f"    return [{', '.join(ids)}]"])
                             + "\n", "f")
        compiled = compile_exprs(exprs, VARS)
        for _ in range(5):
            x = [rng.uniform(-2.0, 2.0) for _ in VARS]
            try:
                want = compiled(x)
            except DomainError as err:
                with pytest.raises((ArithmeticError, ValueError)) as got:
                    printed(x)
                assert type(expr.domain_error(got.value)) is type(err)
                assert str(expr.domain_error(got.value)) == str(err)
                errors += 1
                continue
            assert repr(printed(x)) == repr(want)
            values += 1
    assert values > 1000 and errors > 400  # 1496 and 504
