"""Cotangent-bundle layer: Liouville form, canonical form, lifted translations,
and the moment map of the lift.

The pullback helpers below re-derive form transport from first principles so
the invariance tests do not reuse the code paths they are checking.
"""

import math
import random

import pytest

import bsymp.expr as ex
from bsymp.expr import Const, Var, ONE, ZERO
from bsymp import bcalc, blift, lie

GROUPS = ["se2", "heisenberg_q(1)", "galilean"]


def make_action(name, mode="b"):
    return blift.LiftedAction(lie.builtin(name), mode=mode)


def chart_env(ch, pt):
    return {n: v for n, v in zip(ch.names, pt)}


def sample_points(ch, count, seed, mdef):
    """Random chart points, every other one pushed onto the hypersurface."""
    rng = random.Random(seed)
    pts = []
    for t in range(count):
        p = [rng.uniform(-0.9, 0.9) for _ in ch.names]
        if mdef is not None and t % 2 == 0:
            p[mdef] = 0.0
        pts.append(p)
    return pts


def pullback_1form(form, map_exprs, chart):
    """Coefficients of the pullback of a 1-form along a chart self-map.

    The map must fix the defining coordinate (our lifts do), which is what
    keeps the singular coframe slot's transport ratio equal to one.
    """
    names = chart.names
    d = chart.defining
    out = {}
    sub = {n: e for n, e in zip(names, map_exprs)}
    for j in range(len(names)):
        acc = ZERO
        for (i,), c in form.coeffs.items():
            dPhi = ex.diff(map_exprs[i], names[j])
            if isinstance(dPhi, Const) and dPhi.value == 0:
                continue
            term = ex.subs(c, sub) * dPhi
            if i == d and j == d:
                pass
            else:
                if j == d:
                    term = term * Var(names[d])
                if i == d:
                    raise AssertionError("map moved the defining coordinate")
            acc = acc + term
        out[j] = acc
    return out


def pullback_2form(form, map_exprs, chart):
    names = chart.names
    d = chart.defining
    n = len(names)
    sub = {nm: e for nm, e in zip(names, map_exprs)}
    dmat = [[ex.diff(map_exprs[i], names[j]) for j in range(n)] for i in range(n)]
    out = {}
    for j in range(n):
        for k in range(j + 1, n):
            acc = ZERO
            for (i, l), c in form.coeffs.items():
                a = dmat[i][j] * dmat[l][k] - dmat[i][k] * dmat[l][j]
                if isinstance(a, Const) and a.value == 0:
                    continue
                term = ex.subs(c, sub) * a
                scale = (j == d) + (k == d) - (i == d) - (l == d)
                if scale < 0:
                    raise AssertionError("uncancelled singular factor")
                for _ in range(scale):
                    term = term * Var(names[d])
                acc = acc + term
            if not (isinstance(acc, Const) and acc.value == 0):
                out[(j, k)] = acc
    return out


def frame_field(ch, i):
    return bcalc.BVectorField(ch, [ONE if q == i else ZERO for q in range(len(ch.names))])


# ---------------------------------------------------------------------------
# chart layout


def test_cotangent_chart_layout_se2():
    A = make_action("se2")
    ch = A.cot.chart
    assert ch.names == ("b1", "b2", "phi", "p_b1", "p_b2", "p_phi")
    assert ch.defining == 2
    assert A.cot.fiber_names == ("p_b1", "p_b2", "p_phi")
    base, fiber = A.cot.split([1, 2, 3, 4, 5, 6])
    assert list(base) == [1, 2, 3] and list(fiber) == [4, 5, 6]


def test_cotangent_chart_layout_heisenberg():
    A = make_action("heisenberg_q(1)")
    ch = A.cot.chart
    assert ch.names[: A.h_dim] == ("b1", "c")
    assert ch.names[A.h_dim] == "a1"
    assert ch.defining == A.h_dim


def test_trivialized_base_chart_modes():
    pair = lie.builtin("se2")
    b = blift.trivialized_base_chart(pair)
    assert b.defining == 2
    s = blift.trivialized_base_chart(pair, mode="classical")
    assert s.defining is None
    with pytest.raises(ValueError):
        blift.trivialized_base_chart(pair, mode="log")


# ---------------------------------------------------------------------------
# Liouville form


def test_liouville_structure():
    for name in GROUPS:
        A = make_action(name)
        lam = blift.liouville(A.cot)
        m = A.h_dim
        assert lam.degree == 1
        assert set(lam.coeffs) == {(i,) for i in range(m + 1)}
        for i in range(m + 1):
            c = lam.coeffs[(i,)]
            assert isinstance(c, Var) and c.name == A.cot.fiber_names[i]


def test_liouville_minimal_chart():
    base = bcalc.BChart(("y1",), 0, ((-1.5, 1.5),))
    c = blift.BCotangentChart(base)
    lam = blift.liouville(c)
    assert set(lam.coeffs) == {(0,)}
    c = lam.coeffs[(0,)]
    assert isinstance(c, Var) and c.name == "p_y1"


def test_liouville_frame_pairings():
    # base frame fields read off their momentum, verticals read zero,
    # and the singular slot works at phi = 0 as well
    for name in GROUPS:
        A = make_action(name)
        ch = A.cot.chart
        lam = blift.liouville(A.cot)
        m = A.h_dim
        for pt in sample_points(ch, 6, seed=5, mdef=m):
            for i in range(m + 1):
                got = bcalc.pair(lam, [frame_field(ch, i)], pt)
                assert abs(got - pt[m + 1 + i]) < 1e-12
            for i in range(m + 1, 2 * m + 2):
                assert bcalc.pair(lam, [frame_field(ch, i)], pt) == 0.0


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_structure():
    for name in GROUPS:
        A = make_action(name)
        om = blift.canonical_bsymplectic(A.cot)
        m = A.h_dim
        assert om.degree == 2
        assert set(om.coeffs) == {(i, m + 1 + i) for i in range(m + 1)}
        for c in om.coeffs.values():
            assert isinstance(c, Const) and c.value == 1


def test_canonical_is_minus_d_liouville():
    A = make_action("se2")
    lam = blift.liouville(A.cot)
    om = blift.canonical_bsymplectic(A.cot)
    dl = bcalc.b_d(lam)
    for key, c in om.coeffs.items():
        neg = dl.coeffs[key]
        assert isinstance(neg, Const) and neg.value == -c.value


def test_canonical_matches_darboux_after_relabel():
    # send each base coordinate to a y-slot and its momentum to the matching
    # x-slot; the transported coefficients agree with the model up to one
    # overall sign
    A = make_action("se2")
    om = blift.canonical_bsymplectic(A.cot)
    m = A.h_dim
    model = bcalc.bdarboux_model(m + 1)
    # cot slot -> darboux slot; phi pairs with x1/y1 because both are defining
    perm = {m: 1, 2 * m + 1: 0}
    nxt = 1
    for i in range(m + 1):
        if i == m:
            continue
        perm[i] = 2 * nxt + 1
        perm[m + 1 + i] = 2 * nxt
        nxt += 1
    moved = {}
    for (i, j), c in om.coeffs.items():
        a, b = perm[i], perm[j]
        sign = 1
        if a > b:
            a, b, sign = b, a, -1
        moved[(a, b)] = sign * c.value
    assert set(moved) == set(model.coeffs)
    signs = {moved[k] / model.coeffs[k].value for k in moved}
    assert signs == {-1.0} or signs == {1.0}


def test_canonical_verdict():
    for name in GROUPS:
        A = make_action(name)
        om = blift.canonical_bsymplectic(A.cot)
        rep = bcalc.is_b_symplectic(om, samples=32, seed=2)
        assert rep.verdict is True
        assert rep.closed_residual == 0.0
        assert abs(rep.min_pfaffian) == 1.0
        assert rep.on_z_samples > 0


def test_canonical_verdict_classical_mode():
    A = make_action("se2", mode="classical")
    assert A.cot.chart.defining is None
    om = blift.canonical_bsymplectic(A.cot)
    rep = bcalc.is_b_symplectic(om, samples=32, seed=2)
    assert rep.verdict is True and rep.on_z_samples == 0


# ---------------------------------------------------------------------------
# the lifted action


def test_lift_identity():
    for name in GROUPS:
        A = make_action(name)
        ch = A.cot.chart
        e = [0.0] * A.h_dim
        for pt in sample_points(ch, 8, seed=3, mdef=A.h_dim):
            out = A.act(e, pt)
            assert max(abs(a - b) for a, b in zip(out, pt)) < 1e-12


def test_lift_left_action_law():
    for name in GROUPS:
        pair = lie.builtin(name)
        A = blift.LiftedAction(pair)
        H = pair.h_group
        ch = A.cot.chart
        m = A.h_dim
        rng = random.Random(17)
        worst = 0.0
        for t in range(100):
            h1 = [rng.uniform(-0.6, 0.6) for _ in range(m)]
            h2 = [rng.uniform(-0.6, 0.6) for _ in range(m)]
            pt = [rng.uniform(-0.8, 0.8) for _ in ch.names]
            if t % 4 == 0:
                pt[m] = 0.0
            two = A.act(h2, A.act(h1, pt))
            one = A.act(lie.group_mul(H, h2, h1), pt)
            # base legs of H may wrap, momenta and phi never do
            worst = max(worst, lie.param_distance(H, two[:m], one[:m]))
            worst = max(worst, max(abs(a - b) for a, b in zip(two[m:], one[m:])))
        assert worst <= 1e-10


def test_lift_preserves_hypersurface():
    for name in GROUPS:
        A = make_action(name)
        m = A.h_dim
        # structurally phi rides along untouched, so preservation is exact
        ride = A.lift_exprs()[m]
        assert isinstance(ride, Var) and ride.name == A.pair.phi_name
        rng = random.Random(9)
        for _ in range(10):
            pt = [rng.uniform(-0.8, 0.8) for _ in A.cot.chart.names]
            pt[m] = 0.0
            h = [rng.uniform(-0.6, 0.6) for _ in range(m)]
            assert A.act(h, pt)[m] == 0.0


def test_lift_chart_exit():
    A = make_action("galilean")
    n = len(A.cot.chart.names)
    pt = [0.0] * n
    pt[0] = 2.0
    h = [0.0] * A.h_dim
    h[0] = 2.0  # composition denominator vanishes
    with pytest.raises(ex.DomainError):
        A.act(h, pt)


# ---------------------------------------------------------------------------
# invariance of the forms


def lifted_map_exprs(A):
    return A.lift_exprs(), ["h__" + n for n in A.pair.h_names]


def test_liouville_invariance():
    for name in GROUPS:
        A = make_action(name)
        ch = A.cot.chart
        m = A.h_dim
        lam = blift.liouville(A.cot)
        L, hvars = lifted_map_exprs(A)
        pb = pullback_1form(lam, L, ch)
        fpb = ex.compile_exprs([pb[j] for j in range(len(ch.names))], hvars + list(ch.names))
        rng = random.Random(23)
        worst = 0.0
        for t in range(100):
            h = [rng.uniform(-0.7, 0.7) for _ in range(m)]
            pt = [rng.uniform(-0.9, 0.9) for _ in ch.names]
            if t % 2 == 0:
                pt[m] = 0.0
            got = fpb(h + pt)
            for j in range(len(ch.names)):
                want = pt[m + 1 + j] if j <= m else 0.0
                worst = max(worst, abs(got[j] - want))
        assert worst <= 1e-10


def test_canonical_invariance():
    for name in GROUPS:
        A = make_action(name)
        ch = A.cot.chart
        m = A.h_dim
        om = blift.canonical_bsymplectic(A.cot)
        L, hvars = lifted_map_exprs(A)
        pb = pullback_2form(om, L, ch)
        keys = sorted(set(pb) | set(om.coeffs))
        fpb = ex.compile_exprs([pb.get(k, ZERO) for k in keys], hvars + list(ch.names))
        rng = random.Random(29)
        worst = 0.0
        for t in range(100):
            h = [rng.uniform(-0.7, 0.7) for _ in range(m)]
            pt = [rng.uniform(-0.9, 0.9) for _ in ch.names]
            if t % 2 == 0:
                pt[m] = 0.0
            got = fpb(h + pt)
            env = chart_env(ch, pt)
            for k, g in zip(keys, got):
                want = ex.evaluate(om.coeffs[k], env) if k in om.coeffs else 0.0
                worst = max(worst, abs(g - want))
        assert worst <= 1e-10


def test_pairing_invariance():
    # the defining property, checked against transported frame fields: the
    # pullback coefficient row against e_j recovers <alpha, v> for v = e_j
    A = make_action("heisenberg_q(1)")
    ch = A.cot.chart
    m = A.h_dim
    lam = blift.liouville(A.cot)
    L, hvars = lifted_map_exprs(A)
    pb = pullback_1form(lam, L, ch)
    rng = random.Random(31)
    for _ in range(20):
        h = [rng.uniform(-0.7, 0.7) for _ in range(m)]
        pt = [rng.uniform(-0.9, 0.9) for _ in ch.names]
        env = {**chart_env(ch, pt), **{v: x for v, x in zip(hvars, h)}}
        # random b-tangent vector in frame components
        v = [rng.uniform(-1, 1) for _ in ch.names]
        lhs = sum(ex.evaluate(pb[j], env) * v[j] for j in range(len(ch.names)))
        rhs = sum(pt[m + 1 + j] * v[j] for j in range(m + 1))
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# moment map


def test_moment_zero_and_linearity():
    A = make_action("se2")
    ch = A.cot.chart
    rng = random.Random(37)
    for _ in range(10):
        pt = [rng.uniform(-0.9, 0.9) for _ in ch.names]
        assert A.moment(pt, [0.0, 0.0]) == 0.0
        X = [rng.uniform(-1, 1) for _ in range(2)]
        Y = [rng.uniform(-1, 1) for _ in range(2)]
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        Z = [a * x + b * y for x, y in zip(X, Y)]
        assert abs(A.moment(pt, Z) - (a * A.moment(pt, X) + b * A.moment(pt, Y))) < 1e-12


def test_moment_is_liouville_of_generator():
    # the definition restated: mu^X = <lambda, X#>
    for name in GROUPS:
        A = make_action(name)
        ch = A.cot.chart
        m = A.h_dim
        lam = blift.liouville(A.cot)
        rng = random.Random(41)
        for t in range(8):
            X = [rng.uniform(-1, 1) for _ in range(m)]
            Xs = A.xsharp(X)
            pt = [rng.uniform(-0.9, 0.9) for _ in ch.names]
            if t % 2 == 0:
                pt[m] = 0.0
            assert abs(bcalc.pair(lam, [Xs], pt) - A.moment(pt, X)) < 1e-10


def test_moment_values_translation_groups():
    # translations transport momenta by the identity, so mu_a reads p_a
    for name in ["se2", "heisenberg_q(1)"]:
        A = make_action(name)
        ch = A.cot.chart
        m = A.h_dim
        rng = random.Random(43)
        for _ in range(6):
            pt = [rng.uniform(-0.9, 0.9) for _ in ch.names]
            mu = A.moment_vector(pt)
            for a in range(m):
                assert abs(mu[a] - pt[m + 1 + a]) < 1e-12


def test_hamilton_identity_small_groups():
    # pair() against the b-d of the moment, both sides evaluated independently
    for name in ["se2", "heisenberg_q(1)"]:
        A = make_action(name)
        ch = A.cot.chart
        m = A.h_dim
        om = blift.canonical_bsymplectic(A.cot)
        mus = A.moment_exprs
        rng = random.Random(47)
        worst = 0.0
        for trial in range(m + 2):
            if trial < m:
                X = [1.0 if a == trial else 0.0 for a in range(m)]
            else:
                X = [rng.uniform(-1, 1) for _ in range(m)]
            Xs = A.xsharp(X)
            muX = ZERO
            for a in range(m):
                if X[a]:
                    muX = muX + ex.as_expr(X[a]) * mus[a]
            dmu = bcalc.b_d(bcalc.BForm(ch, 0, {(): muX}))
            for pt in sample_points(ch, 12, seed=trial, mdef=m):
                env = chart_env(ch, pt)
                for i in range(len(ch.names)):
                    lhs = bcalc.pair(om, [Xs, frame_field(ch, i)], pt)
                    rhs = ex.evaluate(dmu.coeff((i,)), env)
                    worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-8


def test_hamilton_identity_galilean():
    # compiled residual per frame slot, 100 samples, half on the hypersurface
    A = make_action("galilean")
    ch = A.cot.chart
    m = A.h_dim
    n = len(ch.names)
    om = blift.canonical_bsymplectic(A.cot)
    mus = A.moment_exprs
    rng = random.Random(53)
    for trial in range(3):
        X = [rng.uniform(-1, 1) for _ in range(m)]
        Xs = A.xsharp(X)
        muX = ZERO
        for a in range(m):
            muX = muX + ex.as_expr(X[a]) * mus[a]
        dmu = bcalc.b_d(bcalc.BForm(ch, 0, {(): muX}))
        resid = []
        for i in range(n):
            acc = ZERO - dmu.coeff((i,))
            for (a, b), c in om.coeffs.items():
                # contraction of X# into a constant-coefficient 2-form
                if a == i:
                    acc = acc - c * Xs.comps[b]
                elif b == i:
                    acc = acc + c * Xs.comps[a]
            resid.append(acc)
        f = ex.compile_exprs(resid, list(ch.names))
        worst = 0.0
        for pt in sample_points(ch, 34, seed=trial + 60, mdef=m):
            worst = max(worst, max(abs(v) for v in f(pt)))
        assert worst <= 1e-8


def test_hamilton_identity_classical_mode():
    A = make_action("se2", mode="classical")
    ch = A.cot.chart
    m = A.h_dim
    om = blift.canonical_bsymplectic(A.cot)
    mus = A.moment_exprs
    rng = random.Random(59)
    X = [0.7, -0.4]
    Xs = A.xsharp(X)
    muX = ex.as_expr(X[0]) * mus[0] + ex.as_expr(X[1]) * mus[1]
    dmu = bcalc.b_d(bcalc.BForm(ch, 0, {(): muX}))
    for pt in sample_points(ch, 10, seed=61, mdef=None):
        env = chart_env(ch, pt)
        for i in range(len(ch.names)):
            lhs = bcalc.pair(om, [Xs, frame_field(ch, i)], pt)
            rhs = ex.evaluate(dmu.coeff((i,)), env)
            assert abs(lhs - rhs) <= 1e-8


def test_moment_equivariance():
    # mu after the lift equals the coadjoint move of mu before it; the
    # galilean case has nonabelian H so it pins the direction of Ad*
    for name in GROUPS:
        pair = lie.builtin(name)
        A = blift.LiftedAction(pair)
        H = pair.h_group
        ch = A.cot.chart
        m = A.h_dim
        rng = random.Random(67)
        worst = 0.0
        for t in range(30):
            h = [rng.uniform(-0.7, 0.7) for _ in range(m)]
            pt = [rng.uniform(-0.9, 0.9) for _ in ch.names]
            if t % 3 == 0:
                pt[m] = 0.0
            mu = tuple(float(v) for v in A.moment_vector(pt))
            lhs = A.moment_vector(A.act(h, pt))
            rhs = lie.coadjoint_star(H, h, mu)
            worst = max(worst, max(abs(a - b) for a, b in zip(lhs, rhs)))
        assert worst <= 1e-9


X_SE2 = [0.3, -0.2, 0.5, 0.1, 0.4, -0.6]


@pytest.mark.parametrize("call,error,message", [
    (lambda A: A.act([0.5, 0.5], X_SE2 + [9.9]), ValueError,
     "point has 7 values for 6 coordinates"),
    (lambda A: A.act([0.5], X_SE2), ex.UnboundVariableError, "unknown name 'h__b2'"),
    (lambda A: A.moment(X_SE2 + [7.0], [1.0, 0.0]), ValueError,
     "point has 7 values for 6 coordinates"),
    (lambda A: A.moment_vector(X_SE2 + [7.0]), ValueError,
     "point has 7 values for 6 coordinates"),
    (lambda A: A.xsharp([1.0, 2.0, 3.0]), ValueError,
     "point has 3 values for 2 coordinates"),
    (lambda A: A.xsharp([1.0]), ex.UnboundVariableError, "unknown name 'h__b2'"),
], ids=["act-long-point", "act-short-h", "moment-long-point", "moment_vector-long-point",
        "xsharp-long-X", "xsharp-short-X"])
def test_compiled_maps_take_one_value_per_name(call, error, message):
    # the contract of a sequence point everywhere: a short input names the
    # first missing value, a long one is refused rather than cut to length
    A = make_action("se2")
    with pytest.raises(error) as err:
        call(A)
    assert str(err.value) == message
    assert list(A.act([0.5, 0.5], X_SE2)) == list(A.act((0.5, 0.5), tuple(X_SE2)))
    assert A.moment(X_SE2, [1.0, 0.0]) == A.moment_vector(X_SE2)[0]


def test_xsharp_vanishing_slots():
    # no transverse leg and no momentum leg in the transverse direction
    for name in GROUPS:
        A = make_action(name)
        m = A.h_dim
        X = [0.3] * m
        Xs = A.xsharp(X)
        for slot in (m, 2 * m + 1):
            c = Xs.comps[slot]
            assert isinstance(c, Const) and c.value == 0


@pytest.mark.parametrize("name", ["se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean"])
def test_xsharp_is_the_derivative_of_the_lift(name):
    # X# = d/dt act(t X, x) at t = 0, against a central difference of the
    # compiled lift, on the hypersurface and off it
    A = make_action(name)
    ch = A.cot.chart
    m = A.h_dim
    rng = random.Random(71)
    t = 1e-5
    for k in range(8):
        X = [rng.uniform(-1, 1) for _ in range(m)]
        pt = [rng.uniform(-0.7, 0.7) for _ in ch.names]
        if k % 2 == 0:
            pt[m] = 0.0
        plus = A.act([t * a for a in X], pt)
        minus = A.act([-t * a for a in X], pt)
        want = (plus - minus) / (2 * t)
        got = A.xsharp(X).at(pt)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-8, k
