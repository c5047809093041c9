"""Hamiltonian fields, fixed-step flows, and the slice diagnostics.

Closed forms used as oracles: with the transverse block {phi, p} = phi and
H = p the flow is phi' = phi, so phi(t) = phi(0) e^t; with H = p^2/2 it is
phi' = phi p with p frozen.  Everything else is a structural property of
the stepper (exact holds, drift bounds, convergence order).
"""

import ast
import contextlib
import errno
import io
import math
import os
import random
import signal
from array import array

import pytest

import bsymp.expr as ex
from bsymp.expr import Const, Var
from bsymp import _fork, dynamics as dyn, lie, reduction as red, verify

GROUPS = ["se2", "heisenberg_q(1)", "galilean"]
BUILTINS = ["se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean"]


def reduced_field(name, H):
    rp = red.reduced_poisson(lie.builtin(name))
    m = len(rp.names) - 2
    return rp, dyn.hamiltonian_vf(rp, H, phi_slot=m), m


def random_quadratic(rng, names):
    acc = ex.as_expr(rng.uniform(-0.5, 0.5))
    for _ in range(4):
        t = ex.as_expr(rng.uniform(-1, 1))
        for _ in range(rng.randrange(1, 3)):
            t = t * Var(rng.choice(names))
        acc = acc + t
    return acc


# ---------------------------------------------------------------------------
# hamiltonian_vf


def test_field_of_transverse_momentum():
    rp, vf, m = reduced_field("se2", Var("p"))
    # phi' = phi as an expression, p' = 0, dual block untouched
    assert isinstance(vf.components[m], Var)
    assert vf.components[m].name == "phi"
    for i, c in enumerate(vf.components):
        if i != m:
            assert isinstance(c, Const) and c.value == 0


def test_field_of_constant_is_zero():
    rp, vf, m = reduced_field("se2", ex.as_expr(3))
    assert all(isinstance(c, Const) and c.value == 0 for c in vf.components)


def test_field_of_quadratic_keeps_structural_factor():
    H = ex.parse("p^2 / 2")
    rp, vf, m = reduced_field("se2", H)
    # phi-component is phi * p as a product node: tangency is structural
    f = ex.compile_exprs([vf.components[m]], list(rp.names))
    for p in (0.0, 0.7, -1.3):
        assert f([0.1, 0.2, 0.0, p])[0] == 0.0
        assert abs(f([0.1, 0.2, 2.0, p])[0] - 2.0 * p) < 1e-15
    assert isinstance(vf.components[m + 1], Const)


def test_field_matches_bracket_numerically():
    rng = random.Random(5)
    for name in GROUPS:
        rp = red.reduced_poisson(lie.builtin(name))
        H = random_quadratic(rng, list(rp.names))
        vf = dyn.hamiltonian_vf(rp, H)
        f = ex.compile_exprs(list(vf.components), list(vf.names))
        for _ in range(5):
            x = [rng.uniform(-1, 1) for _ in rp.names]
            vx = f(x)
            env = dict(zip(rp.names, x))
            for i, n in enumerate(rp.names):
                want = ex.evaluate(rp.bracket(Var(n), H), env)
                assert abs(vx[i] - want) <= 1e-12


# ---------------------------------------------------------------------------
# integrate: closed-form flow, order, exact holds


def test_exponential_flow_endpoint():
    rp, vf, m = reduced_field("se2", Var("p"))
    tr = dyn.integrate(vf, [0.0, 0.0, 1.0, 0.4], 1e-3, 1.0)
    assert abs(tr.final[m] - math.e) <= 1e-6
    assert tr.energy_drift <= 1e-9          # p' = 0 exactly
    assert len(tr.times) == 1001
    assert tr.final[m + 1] == 0.4


def test_rk4_order_factor():
    rp, vf, m = reduced_field("se2", Var("p"))
    errs = []
    for dt in (0.1, 0.05):
        tr = dyn.integrate(vf, [0.0, 0.0, 1.0, 0.0], dt, 1.0)
        errs.append(abs(tr.final[m] - math.e))
    factor = errs[0] / errs[1]
    assert 8.0 <= factor <= 32.0


def test_midpoint_order_factor():
    rp, vf, m = reduced_field("se2", Var("p"))
    errs = []
    for dt in (0.1, 0.05):
        tr = dyn.integrate(vf, [0.0, 0.0, 1.0, 0.0], dt, 1.0,
                           method="midpoint")
        errs.append(abs(tr.final[m] - math.e))
    factor = errs[0] / errs[1]
    assert 2.5 <= factor <= 6.5


def test_slice_hold_is_exact():
    rng = random.Random(9)
    for name in GROUPS:
        rp = red.reduced_poisson(lie.builtin(name))
        m = len(rp.names) - 2
        H = random_quadratic(rng, list(rp.names))
        vf = dyn.hamiltonian_vf(rp, H, phi_slot=m)
        x0 = [rng.uniform(-1, 1) for _ in rp.names]
        x0[m] = 0.0
        tr = dyn.integrate(vf, x0, 1e-2, 2.0)
        assert all(v == 0.0 for v in tr.column(m)), name
        assert tr.phi_floor == 0.0


def test_sign_never_flips():
    rng = random.Random(17)
    for name in GROUPS:
        rp = red.reduced_poisson(lie.builtin(name))
        m = len(rp.names) - 2
        for sgn in (1.0, -1.0):
            H = random_quadratic(rng, list(rp.names))
            vf = dyn.hamiltonian_vf(rp, H, phi_slot=m)
            x0 = [rng.uniform(-0.5, 0.5) for _ in rp.names]
            x0[m] = 0.4 * sgn
            tr = dyn.integrate(vf, x0, 1e-2, 3.0)
            assert all(v * sgn > 0.0 for v in tr.column(m)), name


def test_energy_drift_bound():
    rng = random.Random(23)
    for name in GROUPS:
        rp = red.reduced_poisson(lie.builtin(name))
        m = len(rp.names) - 2
        for _ in range(10):
            H = random_quadratic(rng, list(rp.names))
            vf = dyn.hamiltonian_vf(rp, H, phi_slot=m)
            x0 = [rng.uniform(-0.6, 0.6) for _ in rp.names]
            h0 = ex.evaluate(H, dict(zip(rp.names, x0)))
            tr = dyn.integrate(vf, x0, 1e-3, 10.0)
            assert tr.energy_drift <= 1e-6 * (1.0 + abs(h0)), name


def test_substitution_flow_is_exact_for_linear_rate():
    # u' = 1 under the substitution, so the endpoint is e to rounding
    rp, vf, m = reduced_field("se2", Var("p"))
    tr = dyn.integrate(vf, [0.0, 0.0, 1.0, 0.0], 1e-2, 1.0,
                       substitution=True)
    assert abs(tr.final[m] - math.e) <= 1e-12
    trn = dyn.integrate(vf, [0.0, 0.0, -1.0, 0.0], 1e-2, 1.0,
                        substitution=True)
    assert abs(trn.final[m] + math.e) <= 1e-12


def test_substitution_holds_slice_start():
    rp, vf, m = reduced_field("se2", Var("p"))
    tr = dyn.integrate(vf, [0.1, 0.2, 0.0, 0.3], 1e-2, 1.0,
                       substitution=True)
    assert all(v == 0.0 for v in tr.column(m))


def test_casimir_drift_reported():
    rp, vf, m = reduced_field("se2", ex.parse("p^2/2 + mu_P1"))
    tr = dyn.integrate(vf, [0.3, -0.1, 0.8, 0.2], 1e-2, 2.0,
                       casimirs=[Var("mu_P1"), Var("mu_P2")])
    assert tr.casimir_drifts == (0.0, 0.0)


# ---------------------------------------------------------------------------
# the generated loop against a plain reference loop


def reference_integrate(vf, x0, dt, T, method="rk4", casimirs=(), substitution=False):
    """Reference for `integrate`: the same fixed-step loop in plain Python,
    over the compiled field and invariants, stages as list comprehensions."""
    steps = dyn.step_count(dt, T)
    f = ex.compile_exprs(list(vf.components), list(vf.names))
    n = len(vf.names)
    x = [float(v) for v in x0]
    invariants = [ex.ZERO if vf.hamiltonian is None else vf.hamiltonian, *casimirs]
    g = ex.compile_exprs(invariants, list(vf.names))
    m = vf.phi_slot
    sub = substitution and x[m] != 0.0
    sgn = math.copysign(1.0, x[m]) if sub else 1.0

    def to_chart(state):
        if not sub:
            return state
        y = list(state)
        y[m] = sgn * math.exp(state[m])
        return y

    def rhs(state):
        if not sub:
            return f(state)
        y = to_chart(state)
        v = f(y)
        v[m] = v[m] / y[m]
        return v

    labels = [*vf.names, "H", *(f"Casimir {ex.to_str(c)}" for c in casimirs)]

    def invariants_at(xt, t):
        try:
            values = g(xt)
        except (OverflowError, ex.DomainError):
            point = dict(zip(vf.names, xt))
            for i, e in enumerate(invariants):
                try:
                    ex.evaluate(e, point)
                except (OverflowError, ex.DomainError) as err:
                    # the state escaped, in a value or in sin or cos reading its inf
                    if t > 0.0 and str(err) in ("float overflow", "sin or cos of an infinite value"):
                        raise dyn.ChartExitError(
                            f"{labels[n + i]} became non-finite at t={t:.6g}", t) from err
                    raise dyn.InvariantError(f"cannot be evaluated at t={t:.6g}: {err}", i) from err
            raise
        # not finite at the start is the invariant's fault; later, the state's
        for i, v in enumerate(values):
            if not math.isfinite(v):
                if t == 0.0:
                    raise dyn.InvariantError(f"is not finite at t=0: {v!r}", i)
                raise dyn.ChartExitError(f"{labels[n + i]} became non-finite at t={t:.6g}", t)
        return values

    rows = array("d", x)
    values = array("d", invariants_at(x, 0.0))
    state = list(x)
    if sub:
        state[m] = math.log(abs(x[m]))
    for k in range(steps):
        t = k * dt
        try:
            if method == "rk4":
                k1 = rhs(state)
                k2 = rhs([a + 0.5 * dt * b for a, b in zip(state, k1)])
                k3 = rhs([a + 0.5 * dt * b for a, b in zip(state, k2)])
                k4 = rhs([a + dt * b for a, b in zip(state, k3)])
                state = [a + dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
                         for a, b1, b2, b3, b4 in zip(state, k1, k2, k3, k4)]
            else:
                k1 = rhs(state)
                k2 = rhs([a + 0.5 * dt * b for a, b in zip(state, k1)])
                state = [a + dt * b for a, b in zip(state, k2)]
        except (OverflowError, ex.DomainError) as exc:
            raise dyn.ChartExitError(f"field evaluation failed at t={t:.6g}: {exc}", t) from exc
        xt = to_chart(state)
        for i, v in enumerate(xt):
            if not math.isfinite(v):
                t = (k + 1) * dt
                raise dyn.ChartExitError(f"{vf.names[i]} became non-finite at t={t:.6g}", t)
        values.extend(invariants_at(xt, (k + 1) * dt))
        rows.extend(xt)
    nv = len(invariants)
    drifts = [max(abs(v - values[i]) for v in values[i::nv]) for i in range(nv)]
    return dyn.Trajectory(dt=dt, names=vf.names, rows=rows, invariants=values, method=method,
                          phi_slot=m,
                          energy_drift=None if vf.hamiltonian is None else drifts[0],
                          casimir_drifts=tuple(drifts[1:]),
                          phi_floor=None if m is None else min(abs(v) for v in rows[m::n]))


def outcome(run, *args, **kwargs):
    """What a run gives, bit for bit: its arrays' bytes and scalars, or its error."""
    try:
        tr = run(*args, **kwargs)
    except (dyn.ChartExitError, dyn.InvariantError) as err:
        return (type(err), str(err), getattr(err, "time", None), getattr(err, "index", None),
                type(err.__cause__), str(err.__cause__))
    return (tr.times.tobytes(), tr.rows.tobytes(), tr.invariants.tobytes(),
            tr.energy_drift, tr.casimir_drifts, tr.phi_floor)


def assert_same_as_reference(*args, **kwargs):
    got = outcome(dyn.integrate, *args, **kwargs)
    assert got == outcome(reference_integrate, *args, **kwargs)
    return got


@pytest.mark.parametrize("name", BUILTINS)
def test_generated_loop_matches_reference(name):
    rng = random.Random(sum(map(ord, name)))
    rp = red.reduced_poisson(lie.builtin(name))
    names = list(rp.names)
    m = len(names) - 2
    vf = dyn.hamiltonian_vf(rp, random_quadratic(rng, names), phi_slot=m)
    casimirs = [random_quadratic(rng, names), Var(names[0])]
    x0 = [rng.uniform(-0.5, 0.5) for _ in names]
    for method in ("rk4", "midpoint"):
        for phi0, substitution in ((0.4, False), (0.4, True), (-0.3, True), (0.0, False),
                                   (0.0, True)):
            x0[m] = phi0
            for cas in ((), casimirs):
                kw = {"method": method, "casimirs": cas, "substitution": substitution}
                got = assert_same_as_reference(vf, x0, 1e-2, 1.5, **kw)
                assert isinstance(got[0], bytes), (method, phi0, substitution, got)
                # 8 bytes per stored value, row after row
                tr = dyn.integrate(vf, x0, 1e-2, 1.5, **kw)
                assert tr.rows.itemsize == tr.invariants.itemsize == 8
                assert len(tr.rows) == 151 * len(names)
                assert len(tr.invariants) == 151 * (1 + len(cas))


def test_errors_match_reference():
    x = ("x",)
    cases = [
        # float ** overflows: an OverflowError in the field, not an inf
        (dyn.VectorField(x, (ex.parse("x^2"),)), [1.0], 0.5, 400.0, {}),
        # a product overflows to inf: the state itself stops being finite
        (dyn.VectorField(x, (ex.parse("x*10^200"),)), [1.0], 1.0, 5.0, {}),
        # x*10^200 overflows the second stage to inf, and sin reads it there
        (dyn.VectorField(("x", "z"), (ex.parse("x*10^200"), ex.parse("sin(x)"))), [1.0, 0.0],
         1.0, 3.0, {}),
        # log leaves its domain in the second stage of a step
        (dyn.VectorField(x, (ex.parse("log(x)"),)), [0.5], 0.1, 10.0, {}),
        (dyn.VectorField(x, (ex.parse("log(x)"),)), [0.5], 0.1, 10.0, {"method": "midpoint"}),
        # a Casimir fails on row 0, and later on
        (dyn.VectorField(x, (ex.ONE,)), [0.0], 0.1, 1.0, {"casimirs": [ex.parse("log(x)")]}),
        (dyn.VectorField(x, (ex.ONE,), ex.parse("1/(x - 0.5)")), [0.0], 0.1, 1.0, {}),
        # H or a Casimir that is not finite at the start
        (dyn.VectorField(x, (ex.ONE,), ex.parse("10^200*x*10^200")), [1.0], 0.1, 1.0, {}),
        (dyn.VectorField(x, (ex.ONE,)), [1.0], 0.1, 1.0,
         {"casimirs": [ex.ONE, ex.parse("x*10^200*10^200 - 10^200*x*10^200")]}),
        # or that overflows later, on a finite row, however it is written:
        # the state escapes
        (dyn.VectorField(x, (ex.ONE,), ex.parse("x*10^200*10^200")), [0.0], 0.1, 1.0, {}),
        (dyn.VectorField(x, (ex.ONE,)), [0.0], 0.1, 1.0,
         {"casimirs": [ex.parse("x*10^200*10^200")]}),
        (dyn.VectorField(x, (ex.ONE,), ex.parse("x^1000")), [2.0], 0.1, 1.0, {}),
        (dyn.VectorField(x, (ex.ONE,)), [1.9], 0.1, 1.0,
         {"casimirs": [ex.ONE, ex.parse("exp(355*x)")]}),
        # or that reads such an inf in sin or cos: the state escapes, but
        # not at the start
        (dyn.VectorField(x, (ex.ONE,)), [0.0], 0.1, 1.0,
         {"casimirs": [ex.parse("sin(x*10^200*10^200)")]}),
        (dyn.VectorField(x, (ex.ONE,), ex.parse("cos(x*10^200*10^200)")), [1.0], 0.1, 1.0, {}),
    ]
    for vf, x0, dt, T, kw in cases:
        got = assert_same_as_reference(vf, x0, dt, T, **kw)
        assert got[0] in (dyn.ChartExitError, dyn.InvariantError)


def test_invariant_error_names_the_failing_casimir():
    # H = phi gives p' = -phi = -1, so log(p) fails once p reaches 0 at t = 0.5
    rp = red.reduced_poisson(lie.builtin("se2"))
    vf = dyn.hamiltonian_vf(rp, Var("phi"), phi_slot=2)
    kw = {"casimirs": [Var("mu_P1"), ex.parse("log(p)")]}
    got = assert_same_as_reference(vf, [0.0, 0.0, 1.0, 0.5], 0.01, 1.0, **kw)
    assert got[:4] == (dyn.InvariantError,
                       "cannot be evaluated at t=0.5: log of a non-positive value", None, 2)


def test_substitution_underflow_is_a_chart_exit():
    # phi' = -800 phi: u = log|phi| falls by 80 a step, so exp(u) reaches 0.0 in
    # the last stage of the step from t = 0.9, and the field is divided by it;
    # the plain loop let that ZeroDivisionError out bare
    rp, vf, m = reduced_field("se2", ex.parse("-800*p"))
    with pytest.raises(ZeroDivisionError):
        reference_integrate(vf, [0.0, 0.0, 1.0, 0.0], 0.1, 2.0, substitution=True)
    with pytest.raises(dyn.ChartExitError, match=r"^field evaluation failed at t=0\.9: "
                       "division by zero$"):
        dyn.integrate(vf, [0.0, 0.0, 1.0, 0.0], 0.1, 2.0, substitution=True)


def test_substitution_overflow_is_a_chart_exit():
    # phi' = phi z, z' = z^2: u' = z grows so fast that the accepted u of the
    # first step is past the float range of exp while no stage was; the plain
    # loop let that OverflowError out bare
    vf = dyn.VectorField(("phi", "z"), (ex.parse("phi*z"), ex.parse("z^2")), phi_slot=0)
    with pytest.raises(OverflowError):
        reference_integrate(vf, [1.0, 50.0], 0.1, 2.0, substitution=True)
    with pytest.raises(dyn.ChartExitError, match=r"^phi became non-finite at t=0\.1$"):
        dyn.integrate(vf, [1.0, 50.0], 0.1, 2.0, substitution=True)


def test_flow_is_generated_once_per_field_and_options(monkeypatch):
    generated = []
    generate = dyn._generate_flow

    def counted(*args):
        generated.append(args[2:])
        return generate(*args)

    monkeypatch.setattr(dyn, "_generate_flow", counted)
    rp, vf, m = reduced_field("se2", ex.parse("p^2/2 + mu_P1"))
    cas = [Var("mu_P1")]
    for dt in (0.1, 0.05, 0.01):
        dyn.integrate(vf, [0.1, 0.2, 1.0, 0.3], dt, 1.0)
        dyn.integrate(vf, [0.3, 0.1, -0.5, 0.2], dt, 1.0, casimirs=cas, substitution=True)
    # a slice start runs the plain chart even when substitution is asked for
    dyn.integrate(vf, [0.1, 0.2, 0.0, 0.3], 0.1, 1.0, substitution=True)
    dyn.integrate(vf, [0.1, 0.2, 1.0, 0.3], 0.1, 1.0, method="midpoint")
    assert generated == [("rk4", False), ("rk4", True), ("midpoint", False)]


def galilean_loop_source(method, sub, monkeypatch) -> ast.Module:
    """The parsed source of a galilean flow loop with H and one Casimir."""
    sources = []
    build = ex.build

    def kept(src, name, **extra):
        sources.append(src)
        return build(src, name, **extra)

    monkeypatch.setattr(ex, "build", kept)
    rp, vf, m = reduced_field("galilean", ex.parse("p^2/2 + 0.3*s*mu_P1 + mu_K2*mu_P2"))
    dyn._generate_flow(vf, [vf.hamiltonian, ex.parse("mu_P1^2 + mu_P2^2")], method, sub)
    return ast.parse(sources[0])


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("sub", [False, True])
def test_generated_loop_multiplies_no_int_literal(method, sub, monkeypatch):
    # an int operand makes CPython leave its specialised float arithmetic
    # for the generic path, though 2 and 2.0 give the same product; only
    # _pow's exponent, a call argument, is an int
    tree = galilean_loop_source(method, sub, monkeypatch)
    binops = [n for n in ast.walk(tree) if isinstance(n, ast.BinOp)]
    assert len(binops) > 50
    for n in binops:
        for side in (n.left, n.right):
            assert not (isinstance(side, ast.Constant) and type(side.value) is int), \
                ast.unparse(n)


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("sub", [False, True])
def test_generated_loop_stores_by_packed_writes(method, sub, monkeypatch):
    # array.extend from a tuple converts each value on its own; the loop
    # packs a row, and its invariants, and adds each with one frombytes
    tree = galilean_loop_source(method, sub, monkeypatch)
    attrs = [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    assert "extend" not in attrs
    assert sorted(attrs) == ["frombytes", "frombytes"]
    calls = [n.func.id for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    # one row, and the invariants of row 0 and of each later row
    assert (calls.count("put_row"), calls.count("put_values")) == (1, 2)
    assert (calls.count("_prow"), calls.count("_pvalues")) == (1, 2)


EDGE_STARTS = [[-0.0, 5e-324, 1e300, -1e300, 0.5], [5e-324, -0.0, -1e300, 1e300, -0.25],
               [1e300, -1e300, -0.0, 5e-324, 5e-324], [-1e300, 1e300, 5e-324, -0.0, -1e300]]


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("substitution", [False, True])
@pytest.mark.parametrize("x0", EDGE_STARTS, ids=range(len(EDGE_STARTS)))
def test_packed_rows_are_the_reference_bytes(x0, method, substitution):
    # a' = a and b' = b keep a signed zero and a subnormal as they are, and
    # c' = -c/1000 keeps a value near the float range finite; the phi slot
    # holds each kind of start too, with and without its substitution
    a, b, c, d, phi = map(Var, ("a", "b", "c", "d", "phi"))
    vf = dyn.VectorField(("a", "b", "c", "d", "phi"),
                         (a, b, c * ex.parse("-1/1000"), d, phi * ex.parse("1/2")),
                         hamiltonian=a, phi_slot=4)
    casimirs = [b, c, d * ex.parse("1/2"), phi]
    got = assert_same_as_reference(vf, x0, 0.01, 0.2, method=method, casimirs=casimirs,
                                   substitution=substitution)
    rows = array("d")
    rows.frombytes(got[1])
    values = array("d")
    values.frombytes(got[2])
    assert len(rows) == 21 * 5 and len(values) == 21 * 5
    stored = [*rows[5:], *values]  # every value a packed write stored
    assert any(v == 0.0 and math.copysign(1.0, v) < 0 for v in stored)
    assert 5e-324 in stored
    assert any(abs(v) > 1e299 for v in stored)


@pytest.mark.parametrize("name,seed", [("se2", 107), ("heisenberg_q(2)", 103),
                                       ("galilean", 106)])
def test_energy_drift_halvings_still_pass(monkeypatch, name, seed):
    # at these seeds a start leaves the chart and the section halves it
    exits = []
    integrate = dyn.integrate

    def watched(*args, **kwargs):
        try:
            return integrate(*args, **kwargs)
        except dyn.ChartExitError as err:
            exits.append(err.time)
            raise

    monkeypatch.setattr(dyn, "integrate", watched)
    residual, tol = verify._sec_energy_drift(lie.builtin(name), seed)
    assert exits and residual <= tol


# ---------------------------------------------------------------------------
# chart exit and argument validation


def test_nonfinite_state_raises():
    P = red.reduced_poisson(lie.builtin("se2"))
    vf = dyn.VectorField(names=("x",), components=(ex.parse("x^2"),))
    with pytest.raises(dyn.ChartExitError):
        dyn.integrate(vf, [1.0], 0.5, 400.0)


@pytest.mark.parametrize("x0,message", [
    ([0.0, math.nan, 1.0, 0.0], "x0 has the non-finite value nan for mu_P2"),
    ([0.0, 0.0, math.inf, -math.inf], "x0 has the non-finite value inf for phi"),
    ([0.0, 0.0, 1.0, -math.inf], "x0 has the non-finite value -inf for p"),
])
def test_a_nonfinite_start_is_refused_before_the_first_step(x0, message):
    # it once surfaced as "<name> became non-finite at t=0.1", a time at
    # which nothing had happened
    rp, vf, m = reduced_field("se2", Var("p"))
    with pytest.raises(ValueError) as info:
        dyn.integrate(vf, x0, 0.1, 1.0)
    assert str(info.value) == message


def test_argument_validation():
    rp, vf, m = reduced_field("se2", Var("p"))
    with pytest.raises(ValueError):
        dyn.integrate(vf, [0, 0, 1, 0], -0.1, 1.0)
    with pytest.raises(ValueError):
        dyn.integrate(vf, [0, 0, 1, 0], 0.5, 0.1)
    with pytest.raises(ValueError):
        dyn.integrate(vf, [0, 0, 1, 0], 0.1, 1.0, method="euler")
    with pytest.raises(ValueError):
        dyn.integrate(vf, [0, 0, 1], 0.1, 1.0)
    bare = dyn.VectorField(names=("x",), components=(Var("x"),))
    with pytest.raises(ValueError):
        dyn.integrate(bare, [1.0], 0.1, 1.0, substitution=True)
    # the step cap is checked before the first step, so these cost nothing
    assert dyn.step_count(1.0, float(dyn.MAX_STEPS)) == dyn.MAX_STEPS
    for dt, T in ((1.0, dyn.MAX_STEPS + 1.0), (1e-300, 1e300)):
        with pytest.raises(ValueError, match="steps"):
            dyn.integrate(vf, [0, 0, 1, 0], dt, T)


# ---------------------------------------------------------------------------
# leaf_report and CSV


def test_leaf_report_off_slice():
    rp, vf, m = reduced_field("se2", Var("p"))
    tr = dyn.integrate(vf, [0.3, -0.1, 1.0, 0.2], 1e-2, 1.0)
    rep = dyn.leaf_report(rp, tr)
    assert rep.sign_constant and not rep.on_slice
    assert rep.energy_drift <= 1e-9
    # the dual block of the reduced se2 structure is identically zero, so
    # both dual coordinates are structural Casimirs
    assert rep.casimir_drifts == {"mu_P1": 0.0, "mu_P2": 0.0}
    assert rep.phi_floor == 1.0
    assert any(line.startswith("sign-constant:") for line in rep.lines())


def test_leaf_report_on_slice():
    rng = random.Random(31)
    rp = red.reduced_poisson(lie.builtin("heisenberg_q(1)"))
    m = len(rp.names) - 2
    H = random_quadratic(rng, list(rp.names))
    vf = dyn.hamiltonian_vf(rp, H, phi_slot=m)
    x0 = [0.4, -0.2, 0.0, 0.7]
    tr = dyn.integrate(vf, x0, 1e-2, 1.0)
    rep = dyn.leaf_report(rp, tr)
    assert rep.on_slice
    assert set(rep.casimir_drifts) == {"mu_B1", "mu_C"} or \
        set(rep.casimir_drifts) == set(rp.names[:m])
    assert all(v == 0.0 for v in rep.casimir_drifts.values())


def test_galilean_report_has_no_structural_casimirs():
    rp = red.reduced_poisson(lie.builtin("galilean"))
    m = len(rp.names) - 2
    vf = dyn.hamiltonian_vf(rp, Var("p"), phi_slot=m)
    tr = dyn.integrate(vf, [0.1] * m + [0.5, 0.1], 1e-2, 1.0)
    rep = dyn.leaf_report(rp, tr)
    assert rep.casimir_drifts == {}
    assert rep.sign_constant


def test_csv_round_trip():
    rp, vf, m = reduced_field("se2", Var("p"))
    tr = dyn.integrate(vf, [0.1, -0.2, 1.0, 0.3], 0.25, 1.0, casimirs=[Var("mu_P1")])
    buf = io.StringIO()
    dyn.write_csv(tr, buf, ["mu_P1"])
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,mu_P1,mu_P2,phi,p,H,mu_P1"
    assert len(lines) == 1 + len(tr.times)
    for ln, t, *row in zip(lines[1:], tr.times, *map(tr.column, range(4)), strict=True):
        vals = [float(v) for v in ln.split(",")]
        assert vals[0] == t
        assert vals[1:5] == [float(v) for v in row]
        assert vals[5] == row[3]            # H = p along the flow
        assert vals[6] == row[0]
    # values whose repr takes every form (a signed zero, a subnormal,
    # exponent and plain notation), in ranges around the 1024-row strings
    # `_csv_lines` formats, each from an odd start
    special = [-0.0, 5e-324, 1e16, 1e-5, -2.5e-310, 0.1, -1e16, 1 / 3, 123456.789, -1e-5]
    rng = random.Random(11)
    tr = dyn.Trajectory(dt=1e-3, names=("a", "b", "c"), method="rk4",
                        rows=array("d", (rng.choice(special) for _ in range(3 * 3001))),
                        invariants=array("d", (rng.choice(special) for _ in range(2 * 3001))))
    serial = serial_csv(tr, ("c1",))
    assert csv_text(tr, ("c1",)) == serial
    lines = serial.splitlines(keepends=True)[1:]
    for start, count in [(1, 0), (3, 1), (7, 1023), (1, 1024), (5, 1025), (951, 2049)]:
        text = "".join(dyn._csv_lines(tr, 2, start, start + count))
        assert text == "".join(lines[start:start + count])
        assert b"".join(dyn._csv_chunks(tr, 2, start, start + count)) == text.encode()


def test_times_strictly_increasing_and_shapes():
    rp, vf, m = reduced_field("se2", Var("p"))
    tr = dyn.integrate(vf, [0, 0, 1.0, 0], 0.1, 1.0)
    assert len(tr.rows) == 11 * 4 and len(tr.times) == 11
    assert all(a < b for a, b in zip(tr.times, tr.times[1:]))


# ---------------------------------------------------------------------------
# write_csv: rows formatted here, after those a flow handed off to its
# children while it ran


def serial_csv(tr, labels=()):
    """The CSV as one process writes it, row after row."""
    n, nv = len(tr.names), len(labels) + 1
    out = ["t," + ",".join([*tr.names, "H", *labels]) + "\n"]
    for k, t in enumerate(tr.times):
        out.append(",".join(map(repr, [t, *tr.rows[k * n:k * n + n],
                                       *tr.invariants[k * nv:k * nv + nv]])) + "\n")
    return "".join(out)


def counted_forks(monkeypatch) -> list[int]:
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def csv_text(tr, labels=()):
    buf = io.StringIO()
    dyn.write_csv(tr, buf, labels)
    return buf.getvalue()


def default_flow(name, dt=1e-3, T=1.0):
    rp, vf, m = reduced_field(name, Var("p"))
    return dyn.integrate(vf, [0.0] * m + [1.0, 0.0], dt, T), ()


def se2_midpoint_substitution():
    rp, vf, m = reduced_field("se2", ex.parse("p^2/2 + 0.3*phi*mu_P1 + mu_P2"))
    tr = dyn.integrate(vf, [0.4, -0.2, -0.5, 0.3], 0.01, 1.0, method="midpoint",
                       casimirs=[ex.parse("mu_P1^2"), Var("mu_P2")], substitution=True)
    return tr, ("m1", "m2")


def galilean_2000_steps(handoff=None):
    rp = red.reduced_poisson(lie.builtin("galilean"))
    m = len(rp.names) - 2
    rng = random.Random(7)
    vf = dyn.hamiltonian_vf(rp, random_quadratic(rng, rp.names), phi_slot=m)
    x0 = [rng.uniform(-0.1, 0.1) for _ in rp.names]
    return dyn.integrate(vf, x0, 1e-3, 2.0, casimirs=[ex.parse("mu_P1^2 + mu_P2^2 + mu_P3^2")],
                         handoff=handoff), ("c1",)


CSV_CASES = {
    **{f"default {g}": (lambda g=g: default_flow(g)) for g in BUILTINS},
    "se2 midpoint substitution casimirs": se2_midpoint_substitution,
    "galilean 2000 steps": galilean_2000_steps,
    "2 rows": lambda: default_flow("se2", 0.5, 0.5),
    "3 rows": lambda: default_flow("se2", 0.5, 1.0),
}


@pytest.mark.parametrize("case", CSV_CASES)
def test_forked_and_serial_csv_are_byte_identical(case, monkeypatch):
    tr, labels = CSV_CASES[case]()
    if case.endswith("rows"):
        assert len(tr.times) == int(case[0])
    forks = counted_forks(monkeypatch)
    forked = csv_text(tr, labels)
    assert len(forks) == 0
    no_child_left()
    monkeypatch.delattr(os, "fork")
    assert csv_text(tr, labels) == forked == serial_csv(tr, labels)


class FailingFile(io.StringIO):
    def __init__(self, exc, after):
        super().__init__()
        self.exc, self.left = exc, after

    def write(self, text):
        self.left -= 1
        if self.left < 0:
            raise self.exc
        return super().write(text)


# ---------------------------------------------------------------------------
# integrate with a handoff: the loop runs in blocks, and a child formats
# each finished block but the last while the next ones run

FLOW_KINDS = {"rk4": {}, "midpoint": {"method": "midpoint"},
              "substitution": {"substitution": True},
              "midpoint substitution": {"method": "midpoint", "substitution": True}}


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of at least 250 steps: galilean_2000_steps runs 8 of them."""
    monkeypatch.setattr(dyn, "BLOCK_STEPS", 250)


# (steps, BLOCK_STEPS): blocks of one step, then the constant's own blocks
BLOCKINGS = [(1, 1), (2, 1), (3, 1), (9, 1), (1003, 1),
             (1999, dyn.BLOCK_STEPS), (2500, dyn.BLOCK_STEPS), (9003, dyn.BLOCK_STEPS)]


@pytest.mark.parametrize("steps,block_steps", BLOCKINGS)
@pytest.mark.parametrize("kind", FLOW_KINDS)
def test_blocked_run_is_the_whole_run(kind, steps, block_steps, monkeypatch):
    rp, vf, m = reduced_field("se2", ex.parse("p^2/2 + 0.3*phi*mu_P1 + mu_P2"))
    args = (vf, [0.4, -0.2, -0.5, 0.3], 5e-4, steps * 5e-4)
    kw = {"casimirs": [ex.parse("mu_P1^2"), Var("mu_P2")], **FLOW_KINDS[kind]}
    whole = dyn.integrate(*args, **kw)
    monkeypatch.setattr(dyn, "BLOCK_STEPS", block_steps)
    forks = counted_forks(monkeypatch)
    with contextlib.ExitStack() as handoff:
        blocked = dyn.integrate(*args, handoff=handoff, **kw)
        parts = [(start, stop) for start, stop, _ in blocked.handed_off]
    no_child_left()
    assert whole.handed_off == [] and len(whole.rows) == 4 * (steps + 1)
    for a, b in [(blocked.rows, whole.rows), (blocked.invariants, whole.invariants)]:
        assert a.tobytes() == b.tobytes()
    assert (blocked.energy_drift, blocked.casimir_drifts, blocked.phi_floor) == \
        (whole.energy_drift, whole.casimir_drifts, whole.phi_floor)
    # contiguous parts from row 0, one per block but the last, each forked
    assert len(forks) == len(parts) == max(1, min(dyn.BLOCKS, steps // block_steps)) - 1
    assert [start for start, _ in parts] == [0, *(stop for _, stop in parts)][:len(parts)]
    assert all(start < stop <= steps for start, stop in parts)
    assert csv_text(blocked, ("m1", "m2")) == serial_csv(whole, ("m1", "m2"))


def test_blocked_run_without_fork_is_the_whole_run(small_blocks, monkeypatch):
    tr, labels = galilean_2000_steps()
    monkeypatch.delattr(os, "fork")
    with contextlib.ExitStack() as handoff:
        blocked, _ = galilean_2000_steps(handoff)
        assert len(blocked.handed_off) == dyn.BLOCKS - 1
        assert csv_text(blocked, labels) == serial_csv(tr, labels)
    assert blocked.rows.tobytes() == tr.rows.tobytes()


def test_chart_exit_after_handed_off_blocks_leaves_no_child(monkeypatch):
    # phi' = phi^2 from phi = 2 escapes near t = 1/2, at step 5002 of 8000
    # in blocks of 1000 steps: five blocks were handed off by then
    rp, vf, m = reduced_field("se2", ex.parse("phi * p"))
    args = (vf, [0.0, 0.0, 2.0, 2.0], 1e-4, 0.8)
    with pytest.raises(dyn.ChartExitError) as whole:
        dyn.integrate(*args)
    forks = counted_forks(monkeypatch)
    with pytest.raises(dyn.ChartExitError) as blocked:
        with contextlib.ExitStack() as handoff:
            dyn.integrate(*args, handoff=handoff)
    assert (str(blocked.value), blocked.value.time) == (str(whole.value), whole.value.time)
    assert whole.value.time == pytest.approx(0.5002) and len(forks) == 5
    no_child_left()


def test_interrupt_during_blocked_run_reaps_every_child(small_blocks, monkeypatch):
    # Ctrl-C in the loop, after three blocks were handed off
    entered = []

    class Interrupted(_fork.Fork):
        def __enter__(self):
            if len(entered) == 3:
                raise KeyboardInterrupt
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(_fork, "Fork", Interrupted)
    forks = counted_forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        with contextlib.ExitStack() as handoff:
            galilean_2000_steps(handoff)
    assert len(forks) == 3
    no_child_left()


def handed_off_csv(fh=None):
    """galilean_2000_steps run with a handoff, and its CSV written while
    the children are alive."""
    with contextlib.ExitStack() as handoff:
        tr, labels = galilean_2000_steps(handoff)
        fh = io.StringIO() if fh is None else fh
        dyn.write_csv(tr, fh, labels)
    return tr, labels, fh.getvalue()


@pytest.mark.parametrize("how", ["killed", "raised"])
def test_block_child_that_fails_leaves_its_rows_here(how, small_blocks, monkeypatch):
    here = os.getpid()
    lines = dyn._csv_lines

    def failing_in_child(traj, nv, start, stop):
        if os.getpid() != here and start >= 500:  # the third block on
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("in the child")
        return lines(traj, nv, start, stop)

    monkeypatch.setattr(dyn, "_csv_lines", failing_in_child)
    forks = counted_forks(monkeypatch)
    tr, labels, text = handed_off_csv()
    assert text == serial_csv(tr, labels)
    assert len(forks) == dyn.BLOCKS - 1
    no_child_left()


def test_block_child_killed_mid_copy_leaves_the_rest_here(small_blocks, monkeypatch):
    # each block is 250 steps, about 70 kB: the second child is blocked on
    # the pipe when it is killed, before its first 64 KiB are read
    here = os.getpid()
    starts = []
    lines = dyn._csv_lines

    def recorded(traj, nv, start, stop):
        if os.getpid() == here:
            starts.append(start)
        return lines(traj, nv, start, stop)

    monkeypatch.setattr(dyn, "_csv_lines", recorded)
    pids = []
    fork = os.fork

    def forked():
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", forked)

    class KillingFile(io.StringIO):
        def write(self, text):
            if self.tell() == 0:  # the header
                os.kill(pids[1], signal.SIGKILL)
            return super().write(text)

    tr, labels, text = handed_off_csv(fh=KillingFile())
    assert text == serial_csv(tr, labels)
    assert len(pids) == dyn.BLOCKS - 1
    # the first child's rows came whole; the second's from its first missing row
    assert starts[0] == 251 and 251 <= starts[1] < 501
    no_child_left()


def test_refused_block_fork_is_written_here(small_blocks, monkeypatch):
    def refused():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    tr, labels, text = handed_off_csv()
    assert text == serial_csv(tr, labels) and len(tr.handed_off) == dyn.BLOCKS - 1


@pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"),
                                 KeyboardInterrupt()])
@pytest.mark.parametrize("after", [1, 4])
def test_failed_copy_of_handed_off_blocks_reaps_every_child(exc, after, small_blocks, monkeypatch):
    # the header is one write and each 64 KiB piece a child sends is one:
    # after 1 the first piece fails, after 4 the second child's second
    forks = counted_forks(monkeypatch)
    with pytest.raises(type(exc)):
        handed_off_csv(fh=FailingFile(exc, after))
    assert len(forks) == dyn.BLOCKS - 1
    no_child_left()
