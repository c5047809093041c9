"""Connections, the splitting maps, the coupling identity, and the reduced
Poisson structure.

The equivariance checks rebuild the tangent transport from the subgroup
multiplication law inside the test, so they do not lean on the module's own
cached Jacobians.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import bsymp.expr as ex
from bsymp.expr import Const, Var, ONE, ZERO
from bsymp import bcalc, blift, lie, reduction as red

GROUPS = ["se2", "heisenberg_q(1)", "galilean"]


def connections(pair):
    m = len(pair.h_names)
    xi1 = [0.3 if a % 2 == 0 else -0.2 for a in range(m)]
    xi2 = [0.1 if a % 3 == 0 else 0.4 for a in range(m)]
    phi = pair.phi_name
    return [red.make_connection(pair),
            red.make_connection(pair, deformation=(xi1, f"1 + {phi}^2", True)),
            red.make_connection(pair, deformation=(xi2, f"cos({phi})", False))]


def base_samples(pair, count, seed, on_z=True):
    rng = random.Random(seed)
    m = len(pair.h_names)
    pts = []
    for t in range(count):
        g = [rng.uniform(-0.7, 0.7) for _ in range(m + 1)]
        if on_z and t % 3 == 0:
            g[m] = 0.0
        pts.append(g)
    return pts


def h_jacobian_fn(pair):
    """Tangent transport of left translation, from the subgroup law."""
    H = pair.h_group
    names = list(pair.h_names)
    m = len(names)
    hv = [Var("h__" + n) for n in names]
    kv = [Var(n) for n in names]
    moved = H.mul_fn(hv, kv)
    flat = [ex.diff(moved[j], names[i]) for j in range(m) for i in range(m)]
    return ex.compile_exprs(flat + list(moved), ["h__" + n for n in names] + names), m


# ---------------------------------------------------------------------------
# zeta


def test_zeta_zero_and_identity():
    for name in GROUPS:
        pair = lie.builtin(name)
        m = len(pair.h_names)
        g = [0.1 * (i + 1) for i in range(m)] + [0.4]
        assert not red.zeta(pair, g, [0.0] * m).any()
        e = [0.0] * m + [0.3]
        X = [(-1) ** a * (a + 1) / 3 for a in range(m)]
        z = red.zeta(pair, e, X)
        assert max(abs(z[a] - X[a]) for a in range(m)) < 1e-12
        assert z[m] == 0.0


def test_zeta_linearity():
    for name in GROUPS:
        pair = lie.builtin(name)
        m = len(pair.h_names)
        rng = random.Random(7)
        for g in base_samples(pair, 20, seed=11):
            X = [rng.uniform(-1, 1) for _ in range(m)]
            Y = [rng.uniform(-1, 1) for _ in range(m)]
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            lhs = red.zeta(pair, g, [a * x + b * y for x, y in zip(X, Y)])
            rhs = a * red.zeta(pair, g, X) + b * red.zeta(pair, g, Y)
            assert max(abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# connection axioms


def test_connection_axioms():
    for name in GROUPS:
        pair = lie.builtin(name)
        Jf, m = h_jacobian_fn(pair)
        adm = lie.adjoint_matrix_sym(pair.h_group, [Var(n) for n in pair.h_names])
        Adf = ex.compile_exprs([adm[b][a] for b in range(m) for a in range(m)],
                               list(pair.h_names))
        for theta in connections(pair):
            rng = random.Random(13)
            worst_rep = worst_eq = 0.0
            for g in base_samples(pair, 34, seed=17):
                X = [rng.uniform(-1, 1) for _ in range(m)]
                got = theta.theta(g, red.zeta(pair, g, X))
                worst_rep = max(worst_rep, max(abs(got[a] - X[a]) for a in range(m)))

                h = [rng.uniform(-0.5, 0.5) for _ in range(m)]
                v = [rng.uniform(-1, 1) for _ in range(m + 1)]
                out = Jf([*h, *g[:m]])
                pushed = [sum(out[j * m + i] * v[i] for i in range(m))
                          for j in range(m)] + [v[m]]
                moved = list(out[m * m:]) + [g[m]]
                lhs = theta.theta(moved, pushed)
                ad = Adf(h)
                tv = theta.theta(g, v)
                rhs = [sum(ad[b * m + a] * tv[a] for a in range(m)) for b in range(m)]
                worst_eq = max(worst_eq, max(abs(x - y) for x, y in zip(lhs, rhs)))
            assert worst_rep <= 1e-10, (name, theta.tag)
            assert worst_eq <= 1e-10, (name, theta.tag)


def test_default_connection_exact_on_generators():
    pair = lie.builtin("se2")
    theta = red.make_connection(pair)
    g = [0.4, -0.3, 0.0]
    z = red.zeta(pair, g, [1.0, 0.0])
    assert list(theta.theta(g, z)) == [1.0, 0.0]
    # the transverse frame field is killed outright
    assert list(theta.theta(g, [0.0, 0.0, 1.0])) == [0.0, 0.0]


def test_deformed_connection_has_phi_leg():
    pair = lie.builtin("se2")
    theta = red.make_connection(pair, deformation=([1.0, 0.0], "1 + phi^2", True))
    legs = theta.phi_slot_exprs()
    assert any(not (isinstance(t, Const) and t.value == 0) for t in legs)
    assert theta.tag == "deformed-b"


def test_malformed_deformation_rejected():
    pair = lie.builtin("se2")
    # a deformation coefficient depending on the orbit coordinates breaks
    # Ad-equivariance, which the construction gate catches
    with pytest.raises(ValueError):
        red.make_connection(pair, deformation=([1.0, 0.0], "1 + b1", True))


# ---------------------------------------------------------------------------
# projections and splitting maps


def vertical_part(theta, g, v):
    """zeta(theta(v)) at g: v minus its ker-theta part from phi_theta."""
    return np.array(v) - red.phi_theta(theta, g, v)[0]


def test_horizontal_projection_idempotent():
    # the projection onto the orbit directions, read from phi_theta
    for name in GROUPS:
        pair = lie.builtin(name)
        m = len(pair.h_names)
        for theta in connections(pair):
            rng = random.Random(19)
            for g in base_samples(pair, 34, seed=23):
                v = [rng.uniform(-1, 1) for _ in range(m + 1)]
                once = vertical_part(theta, g, v)
                twice = vertical_part(theta, g, once)
                assert max(abs(once - twice)) <= 1e-10


def test_horizontal_projection_fixes_verticals():
    pair = lie.builtin("galilean")
    theta = red.make_connection(pair)
    m = len(pair.h_names)
    rng = random.Random(29)
    for g in base_samples(pair, 10, seed=31):
        X = [rng.uniform(-1, 1) for _ in range(m)]
        z = red.zeta(pair, g, X)
        assert max(abs(vertical_part(theta, g, z) - z)) < 1e-12


def test_phi_theta_splits_and_round_trips():
    for name in GROUPS:
        pair = lie.builtin(name)
        m = len(pair.h_names)
        for theta in connections(pair):
            rng = random.Random(37)
            for g in base_samples(pair, 20, seed=41):
                X = [rng.uniform(-1, 1) for _ in range(m)]
                u, got = red.phi_theta(theta, g, red.zeta(pair, g, X))
                assert max(abs(u)) < 1e-12
                assert max(abs(got - np.array(X))) < 1e-12

                v = [rng.uniform(-1, 1) for _ in range(m + 1)]
                u, X2 = red.phi_theta(theta, g, v)
                # u is horizontal, so splitting it again yields (u, 0)
                u2, X3 = red.phi_theta(theta, g, u)
                assert max(abs(X3)) < 1e-10
                assert max(abs(u2 - u)) < 1e-10
                back = red.phi_theta_inverse(theta, g, u, X2)
                assert max(abs(back - np.array(v))) <= 1e-12


def test_phi_theta_equivariance():
    for name in GROUPS:
        pair = lie.builtin(name)
        Jf, m = h_jacobian_fn(pair)
        adm = lie.adjoint_matrix_sym(pair.h_group, [Var(n) for n in pair.h_names])
        Adf = ex.compile_exprs([adm[b][a] for b in range(m) for a in range(m)],
                               list(pair.h_names))
        for theta in connections(pair):
            rng = random.Random(43)
            for g in base_samples(pair, 12, seed=47):
                v = [rng.uniform(-1, 1) for _ in range(m + 1)]
                h = [rng.uniform(-0.5, 0.5) for _ in range(m)]
                out = Jf([*h, *g[:m]])
                moved = list(out[m * m:]) + [g[m]]
                push = lambda w: [sum(out[j * m + i] * w[i] for i in range(m))
                                  for j in range(m)] + [w[m]]
                u, X = red.phi_theta(theta, g, v)
                u2, X2 = red.phi_theta(theta, moved, push(v))
                ad = Adf(h)
                adX = [sum(ad[b * m + a] * X[a] for a in range(m)) for b in range(m)]
                assert max(abs(x - y) for x, y in zip(X2, adX)) <= 1e-9
                assert max(abs(a - b) for a, b in zip(u2, push(u))) <= 1e-9


def test_psi_theta_on_annihilator_and_momenta():
    pair = lie.builtin("heisenberg_q(1)")
    m = len(pair.h_names)
    for theta in connections(pair):
        g = [0.2, -0.4, 0.5]
        # pure transverse covector: no momenta
        y = red.psi_theta(theta, g, [0.0, 0.0, 0.8])
        assert max(abs(x) for x in y[m + 1:-1]) < 1e-12
        # mu through theta: no annihilator part
        mu = (0.7, -0.3)
        alpha = red.psi_theta_inverse(theta, [*g, *mu, 0.0])
        y2 = red.psi_theta(theta, g, alpha)
        assert abs(y2[-1]) < 1e-12
        assert max(abs(a - b) for a, b in zip(y2[m + 1:-1], mu)) < 1e-12


def test_psi_theta_rejects_a_form_that_is_not_a_connection():
    # doubling theta breaks theta(zeta_a) = e_a, so the split keeps a k-leg
    pair = lie.builtin("heisenberg_q(1)")
    theta = red.make_connection(pair)
    bad = red.Connection(pair=pair,
                         forms=tuple(f.scaled(2) for f in theta.forms), tag="doubled")
    with pytest.raises(red.SplittingError, match="annihilator part kept a vertical leg"):
        red.psi_theta(bad, [0.2, -0.4, 0.5], [0.3, 0.6, 0.8])
    assert issubclass(red.SplittingError, ValueError)


def test_lifted_action_lives_on_the_pair():
    pair = lie._se2()
    act = red._action(pair)
    assert red._action(pair) is act
    assert pair._cache["lifted_action"] is act
    assert not hasattr(red, "_ACTIONS")


def test_psi_theta_round_trip():
    for name in GROUPS:
        pair = lie.builtin(name)
        m = len(pair.h_names)
        for theta in connections(pair):
            rng = random.Random(53)
            for g in base_samples(pair, 25, seed=59):
                alpha = [rng.uniform(-1, 1) for _ in range(m + 1)]
                back = red.psi_theta_inverse(theta, red.psi_theta(theta, g, alpha))
                assert max(abs(back - np.array(alpha))) <= 1e-12


def test_psi_theta_equivariance():
    for name in GROUPS:
        pair = lie.builtin(name)
        act = blift.LiftedAction(pair)
        H = pair.h_group
        m = len(pair.h_names)
        for theta in connections(pair):
            rng = random.Random(61)
            worst = 0.0
            for t in range(34):
                g = [rng.uniform(-0.5, 0.5) for _ in range(m + 1)]
                if t % 3 == 0:
                    g[m] = 0.0
                alpha = [rng.uniform(-1, 1) for _ in range(m + 1)]
                h = [rng.uniform(-0.4, 0.4) for _ in range(m)]
                cp = red.psi_theta(theta, g, alpha)
                y = act.act(h, list(g) + list(alpha))
                cp2 = red.psi_theta(theta, list(y[: m + 1]), list(y[m + 1 :]))
                star = lie.coadjoint_star(H, h, cp[m + 1:-1])
                worst = max(worst, max(abs(a - b) for a, b in zip(cp2[m + 1:-1], star)))
                # the annihilator leg transports trivially
                worst = max(worst, abs(cp2[-1] - cp[-1]))
            assert worst <= 1e-9, (name, theta.tag)


def test_project_annihilator():
    # the annihilator leg projects to (phi, p): the transverse base
    # coordinate and the last coupled-chart coordinate, exactly, since the
    # default connection's p row is p_phi itself
    pair = lie.builtin("se2")
    act = blift.LiftedAction(pair)
    theta = red.make_connection(pair)
    y = red.psi_theta(theta, [0.3, -0.2, 0.7], [0.0, 0.0, 1.25])
    assert (y[2], y[-1]) == (0.7, 1.25)
    zero = red.psi_theta(theta, [0.1, 0.2, 0.5], [0.0, 0.0, 0.0])
    assert zero[-1] == 0.0
    # invariance under the lift: same transverse point, same coefficient
    g = [0.3, -0.2, 0.7]
    alpha = [0.0, 0.0, 1.25]
    y = act.act([0.4, -0.1], list(g) + list(alpha))
    cp = red.psi_theta(theta, list(y[:3]), list(y[3:]))
    assert (cp[2], cp[-1]) == (0.7, 1.25)


def lambda_theta(theta, y, w):
    """<mu, theta(w)> at the coupled-chart point y [k, phi, mu, p]; w carries
    frame components over (k, phi, p), and the fiber leg never enters."""
    m = theta.h_dim
    return float(np.array(y[m + 1:-1]) @ red.phi_theta(theta, y[:m + 1], w[:m + 1])[1])


def test_lambda_theta():
    pair = lie.builtin("galilean")
    m = len(pair.h_names)
    theta = red.make_connection(pair, deformation=(
        [0.2] * m, "1 + s^2", True))
    rng = random.Random(67)
    g = [rng.uniform(-0.5, 0.5) for _ in range(m + 1)]
    mu = tuple(rng.uniform(-1, 1) for _ in range(m))
    y = [*g, *mu, 0.3]
    # no momenta, no value
    none = [*g, *[0.0] * m, 0.3]
    assert lambda_theta(theta, none, [1.0] * (m + 2)) == 0.0
    # pure fiber direction has no base legs
    wf = [0.0] * (m + 1) + [1.0]
    assert lambda_theta(theta, y, wf) == 0.0
    # a vector over zeta^X pays mu(X)
    X = [rng.uniform(-1, 1) for _ in range(m)]
    w = list(red.zeta(pair, g, X)) + [0.0]
    want = sum(a * b for a, b in zip(mu, X))
    assert abs(lambda_theta(theta, y, w) - want) < 1e-12


# ---------------------------------------------------------------------------
# coupling identity


def coupling_samples(theta, count, seed):
    """`count` seeded (point, v, w) triples on the cotangent chart; every
    other point lies on phi = 0."""
    rng = random.Random(seed)
    m = theta.h_dim
    n = 2 * m + 2
    out = []
    for t in range(count):
        pt = [rng.uniform(-0.9, 0.9) for _ in range(n)]
        if t % 2 == 0:
            pt[m] = 0.0
        else:
            mag = rng.uniform(0.05, 1.0)
            pt[m] = mag if rng.random() < 0.5 else -mag
        v = [rng.uniform(-1, 1) for _ in range(n)]
        w = [rng.uniform(-1, 1) for _ in range(n)]
        out.append((pt, v, w))
    return out


def coupling_worst(theta, samples, seed):
    return max(red.coupling_identity_residual(theta, *s)
               for s in coupling_samples(theta, samples, seed))


@pytest.mark.parametrize("args,error,message", [
    (([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 7.0], [1.0] * 6, [0.5] * 6), ValueError,
     "point has 7 values for 6 coordinates"),
    (([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [1.0] * 5, [0.5] * 6), ex.UnboundVariableError,
     "unknown name 'p_phi'"),
    (([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [1.0] * 6, [0.5] * 7), ValueError,
     "point has 7 values for 6 coordinates"),
], ids=["long-point", "short-v", "long-w"])
def test_coupling_residual_takes_one_value_per_coordinate(args, error, message):
    # a long point used to be cut to length, a short v to raise a bare IndexError
    theta = red.make_connection(lie.builtin("se2"))
    with pytest.raises(error) as err:
        red.coupling_identity_residual(theta, *args)
    assert str(err.value) == message


G3, X2, V3 = [0.1, 0.2, 0.3], [1.0, 2.0], [0.5, -0.5, 0.25]


@pytest.mark.parametrize("call,error,message", [
    (lambda pair, th: red.zeta(pair, G3 + [0.4], X2), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda pair, th: red.zeta(pair, G3[:2], X2), ex.UnboundVariableError,
     "unknown name 'phi'"),
    (lambda pair, th: red.zeta(pair, G3, X2 + [3.0]), ValueError,
     "point has 3 values for 2 coordinates"),
    (lambda pair, th: red.zeta(pair, G3, X2[:1]), ex.UnboundVariableError,
     "unknown name 'h__b2'"),
    (lambda pair, th: th.theta(G3, V3 + [1.0]), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda pair, th: th.theta(G3[:2], V3), ex.UnboundVariableError,
     "unknown name 'phi'"),
    (lambda pair, th: th.theta(G3, V3[:2]), ex.UnboundVariableError,
     "unknown name 'phi'"),
    (lambda pair, th: red.phi_theta(th, G3, V3 + [1.0]), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda pair, th: red.phi_theta_inverse(th, G3, V3 + [1.0], X2), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda pair, th: red.phi_theta_inverse(th, G3, V3, X2[:1]), ex.UnboundVariableError,
     "unknown name 'h__b2'"),
    (lambda pair, th: red.psi_theta(th, G3, V3 + [1.0]), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda pair, th: red.psi_theta(th, G3, V3[:2]), ex.UnboundVariableError,
     "unknown name 'p_phi'"),
    (lambda pair, th: red.psi_theta(th, G3 + [0.4], V3), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda pair, th: th.reduced_point(G3 + V3 + [1.0]), ValueError,
     "point has 7 values for 6 coordinates"),
    (lambda pair, th: th.reduced_point(G3 + V3[:2]), ex.UnboundVariableError,
     "unknown name 'p_phi'"),
], ids=["zeta-long-g", "zeta-short-g", "zeta-long-X", "zeta-short-X", "theta-long-v",
        "theta-short-point", "theta-short-v", "phi_theta-long-v", "phi_theta_inverse-long-u",
        "phi_theta_inverse-short-X", "psi_theta-long-alpha", "psi_theta-short-alpha",
        "psi_theta-long-point", "reduced_point-long", "reduced_point-short"])
def test_connection_point_maps_take_one_value_per_coordinate(call, error, message):
    # a long input used to be cut to length, a short one to raise a bare IndexError
    pair = lie.builtin("se2")
    with pytest.raises(error) as err:
        call(pair, red.make_connection(pair))
    assert str(err.value) == message


def test_coupling_identity_b_mode():
    for name in GROUPS:
        pair = lie.builtin(name)
        for theta in connections(pair):
            assert coupling_worst(theta, 200, seed=71) <= 1e-8, (name, theta.tag)


BUILTINS = ["se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean"]
# every built-in, with ids that end in "-b" for the b-cotangent chart
ON_B_CHART = pytest.mark.parametrize("name", BUILTINS, ids=lambda name: f"{name}-b")


def reference_psi_jacobian(theta):
    """psi and its nonzero frame-Jacobian entries by the hand-written loop:
    d psi_i / d z_j, times phi in the defining column, and a unit row for
    the defining slot, which psi fixes."""
    cch = red._action(theta.pair).cot.chart
    names = list(cch.names)
    n = len(names)
    d = cch.defining
    psi = red.psi_map_exprs(theta)
    jac = {}
    for i in range(n):
        for j in range(n):
            if i == d:
                e = ONE if j == d else ZERO
            else:
                e = ex.diff(psi[i], names[j])
                if j == d:
                    e = e * Var(names[d])
            if not ex.is_zero(e):
                jac[(i, j)] = e
    return psi, jac


def reference_coupling_compiled(theta, rhs=None):
    """The coupling maps as the dict-Jacobian residual read them: psi and
    the sparse frame Jacobian compiled over the cotangent chart, the target
    form compiled over the coupled chart, and the canonical form."""
    act = red._action(theta.pair)
    names = list(act.cot.chart.names)
    n = len(names)
    psi, jac = reference_psi_jacobian(theta)
    rhs = rhs or red.coupling_rhs_form(theta)
    rkeys = sorted(rhs.coeffs)
    jkeys = sorted(jac)
    fn = ex.compile_exprs([*psi, *(jac[k] for k in jkeys)], names)
    rfn = ex.compile_exprs([rhs.coeffs[k] for k in rkeys], list(rhs.chart.names))
    return fn, rfn, jkeys, rkeys, blift.canonical_bsymplectic(act.cot), n


def reference_coupling_residual(compiled, point, v, w):
    """|omega(v, w) - rhs(dpsi v, dpsi w)| by Python sums over the dict
    Jacobian and `ex.evaluate` of every omega coefficient."""
    fn, rfn, jkeys, rkeys, omega, n = compiled
    vals = fn(point)
    J = dict(zip(jkeys, vals[n:]))
    pv = [sum(J.get((i, j), 0.0) * v[j] for j in range(n)) for i in range(n)]
    pw = [sum(J.get((i, j), 0.0) * w[j] for j in range(n)) for i in range(n)]
    rhs = 0.0
    for (i, j), c in zip(rkeys, rfn(vals[:n])):
        rhs += c * (pv[i] * pw[j] - pv[j] * pw[i])
    env = dict(zip(omega.chart.names, point))
    lhs = 0.0
    for (i, j), c in omega.coeffs.items():
        lhs += ex.evaluate(c, env) * (v[i] * w[j] - v[j] * w[i])
    return abs(lhs - rhs)


@ON_B_CHART
def test_coupling_residual_matches_the_dict_jacobian_reference(name):
    # the dense contraction agrees with the Python sums it replaced
    pair = lie.builtin(name)
    for theta in connections(pair):
        ref = reference_coupling_compiled(theta)
        for pt, v, w in coupling_samples(theta, 40, seed=83):
            got = red.coupling_identity_residual(theta, pt, v, w)
            want = reference_coupling_residual(ref, pt, v, w)
            assert abs(got - want) <= 1e-12, (theta.tag, pt)
            assert got <= 1e-8


@pytest.mark.parametrize("name", BUILTINS)
def test_coupling_residual_sees_a_doubled_target_coefficient(name, monkeypatch):
    # negative control: doubling the dphi ^ dp coefficient of the target
    # form breaks the identity, and both implementations report it
    pair = lie.builtin(name)
    m = len(pair.h_names)
    key = (m, 2 * m + 1)
    rhs_form = red.coupling_rhs_form

    def doubled(theta):
        rhs = rhs_form(theta)
        return bcalc.BForm(rhs.chart, 2, {**rhs.coeffs, key: rhs.coeffs[key] * 2})

    monkeypatch.setattr(red, "coupling_rhs_form", doubled)
    for theta in connections(pair):
        # a fresh connection, so its coupling maps are built from the doubled form
        theta = red.Connection(pair=theta.pair, forms=theta.forms,
                               tag=theta.tag, xi=theta.xi, S=theta.S)
        ref = reference_coupling_compiled(theta, doubled(theta))
        samples = coupling_samples(theta, 10, seed=89)
        got = max(red.coupling_identity_residual(theta, *s) for s in samples)
        want = max(reference_coupling_residual(ref, *s) for s in samples)
        assert got > 1e-3 and want > 1e-3, (theta.tag, got, want)
        assert abs(got - want) <= 1e-12


def reference_split(theta, g, alpha):
    """The hand-written split psi_theta replaced: mu = Z(k) alpha_k, and p
    the dphi leg of alpha - mu Theta(x), as the point [k, phi, mu, p]."""
    m = theta.h_dim
    alpha = np.array(alpha)
    Z = np.array(red._action(theta.pair).zeta_compiled(g[:m])).reshape(m, m)
    mu = Z @ alpha[:m]
    beta = alpha - mu @ theta.theta_matrix(g)
    return [*g, *mu, beta[m]]


def test_psi_map_exprs_match_numeric_split():
    pair = lie.builtin("heisenberg_q(1)")
    m = len(pair.h_names)
    theta = red.make_connection(pair, deformation=([0.4, -0.2], "1 + a1^2", True))
    psi = red.psi_map_exprs(theta)
    names = list(red._action(pair).cot.chart.names)
    f = ex.compile_exprs(psi, names)
    rng = random.Random(79)
    for _ in range(20):
        g = [rng.uniform(-0.8, 0.8) for _ in range(m + 1)]
        alpha = [rng.uniform(-1, 1) for _ in range(m + 1)]
        sym = f(g + alpha)
        want = reference_split(theta, g, alpha)
        assert max(abs(a - b) for a, b in zip(sym, want)) < 1e-12
        assert max(abs(a - b) for a, b in zip(red.psi_theta(theta, g, alpha), want)) < 1e-12


@ON_B_CHART
def test_psi_jacobian_rows_match_the_hand_loop_exactly(name):
    # row i of the compiled frame Jacobian is b_d of psi's component i;
    # it has the hand loop's nonzero entries and evaluates to its values
    pair = lie.builtin(name)
    for theta in connections(pair):
        psi, jac = reference_psi_jacobian(theta)
        jkeys = sorted(jac)
        ref = ex.compile_exprs([*psi, *(jac[k] for k in jkeys)],
                               list(red._action(pair).cot.chart.names))
        _, fn, (ji, jj) = theta._psi_compiled
        assert list(zip(ji.tolist(), jj.tolist())) == jkeys
        for pt, _, _ in coupling_samples(theta, 10, seed=97):
            assert list(fn(pt)) == list(ref(pt)), (theta.tag, pt)


def test_psi_theta_and_coupling_identity_compile_psi_once(monkeypatch):
    # the point split and the coupling identity read one compiled psi: after
    # the connection is built, psi is compiled over the cotangent chart once
    # and the target form over the coupled chart once, however often they run
    pair = lie.builtin("se2")
    theta = red.make_connection(pair)
    compiled = []
    compile_exprs = ex.compile_exprs

    def counted(exprs, names):
        compiled.append(tuple(names))
        return compile_exprs(exprs, names)

    monkeypatch.setattr(ex, "compile_exprs", counted)
    for _ in range(2):
        y = red.psi_theta(theta, [0.2, -0.4, 0.5], [0.3, 0.6, 0.8])
        red.coupling_identity_residual(theta, list(y), [1.0] * 6, [0.5] * 6)
    assert compiled == [red._action(pair).cot.chart.names,
                        red.coupled_chart(theta).names]


# ---------------------------------------------------------------------------
# reduced structure


def test_reduced_poisson_se2():
    pair = lie.builtin("se2")
    rp = red.reduced_poisson(pair)
    assert rp.names == ("mu_P1", "mu_P2", "phi", "p")
    assert rp.table() == [("phi", "p", "phi")]


def test_reduced_poisson_heisenberg():
    pair = lie.builtin("heisenberg_q(1)")
    rp = red.reduced_poisson(pair)
    assert rp.table() == [("a1", "p", "a1")]


def test_reduced_poisson_galilean():
    pair = lie.builtin("galilean")
    rp = red.reduced_poisson(pair)
    m = 9
    names = rp.names
    assert names[m:] == ("s", "p")
    # block structure is exact: no entry couples the dual block to (phi, p)
    for (i, j) in rp.entries:
        assert (i < m and j < m) or (i >= m and j >= m)
    pt = [0.2 * (k + 1) for k in range(m)] + [0.5, -0.3]
    env = dict(zip(names, pt))

    def bv(a, b):
        return rp.bracket_value(Var(a), Var(b), pt)

    # rotation algebra and its action on boosts and translations, minus sign
    assert abs(bv("mu_J1", "mu_J2") + env["mu_J3"]) < 1e-12
    assert abs(bv("mu_J1", "mu_K2") + env["mu_K3"]) < 1e-12
    assert abs(bv("mu_J2", "mu_P3") + env["mu_P1"]) < 1e-12
    # boosts commute with boosts and with translations here
    assert bv("mu_K1", "mu_K2") == 0.0
    assert bv("mu_K1", "mu_P2") == 0.0
    assert abs(bv("s", "p") - 0.5) < 1e-12


def test_reduced_bracket_refuses_a_point_of_the_wrong_length():
    # {phi, p} = phi; a fifth value on the 4-coordinate se2 chart used to be
    # dropped without a word
    rp = red.reduced_poisson(lie.builtin("se2"))
    phi, p = Var("phi"), Var("p")
    assert rp.bracket_value(phi, p, [0.1, 0.2, 0.3, 0.4]) == 0.3
    with pytest.raises(ValueError, match="point has 5 values for 4 coordinates"):
        rp.bracket_value(phi, p, [0.1, 0.2, 0.3, 0.4, 9.9])
    with pytest.raises(ex.UnboundVariableError, match="'p'"):
        rp.bracket_value(phi, phi, [0.1, 0.2, 0.3])


def test_reduced_jacobiator():
    # Lie-Poisson on the subalgebra's dual plus {phi, p} = phi: affine
    # entries, every coordinate Jacobiator exactly 0
    for name in GROUPS + ["heisenberg_q(2)"]:
        assert red.reduced_poisson(lie.builtin(name)).coordinate_jacobi_defect() == 0


def test_reduced_block_casimir_on_z():
    # at phi = 0 nothing moves off the hypersurface: {phi, G} vanishes
    rng = random.Random(89)
    for name in GROUPS:
        pair = lie.builtin(name)
        rp = red.reduced_poisson(pair)
        names = rp.names
        phi = Var(pair.phi_name)
        m = len(names) - 2
        for _ in range(6):
            G = ZERO
            for _ in range(4):
                term = ex.as_expr(rng.uniform(-1, 1))
                for _ in range(rng.randrange(1, 3)):
                    term = term * Var(rng.choice(names))
                G = G + term
            pt = [rng.uniform(-1, 1) for _ in names]
            pt[m] = 0.0
            assert rp.bracket_value(phi, G, pt) == 0.0


# ---------------------------------------------------------------------------
# reduced coordinates, the upstairs oracle and connection independence


def test_reduced_coordinates_of_the_default_connection():
    pair = lie.builtin("se2")
    theta = red.make_connection(pair)
    nu = red.invariant_moment_exprs(pair)
    coords = theta.reduced_coordinates
    assert list(coords) == ["mu_P1", "mu_P2", "p"]  # phi maps to itself
    assert coords["mu_P1"] is nu[0] and coords["mu_P2"] is nu[1]
    assert isinstance(coords["p"], Var) and coords["p"].name == "p_phi"
    assert theta.chart_shift == {}
    assert red.make_connection(pair).reduced_coordinates["mu_P1"] is nu[0]
    x = [0.1, -0.2, 0.3, 0.4, -0.5, 0.6]
    env = dict(zip(red._action(pair).cot.chart.names, x))
    assert theta.reduced_point(x) == [ex.evaluate(nu[0], env), ex.evaluate(nu[1], env),
                                      0.3, 0.6]


def test_reduced_coordinates_reject_noninvariant_leg():
    # a constant dphi leg along J1 is not Ad-equivariant, so the p it splits
    # off moves along the rotation orbits; built without make_connection's
    # axiom gate, the reduced coordinates must refuse it
    pair = lie.builtin("galilean")
    theta = red.make_connection(pair)
    m = theta.h_dim
    j1 = pair.h_labels.index("J1")
    forms = tuple(bcalc.BForm(f.chart, 1, {**f.coeffs, (m,): ONE}) if a == j1 else f
                  for a, f in enumerate(theta.forms))
    xi = tuple(1.0 if a == j1 else 0.0 for a in range(m))
    bad = red.Connection(pair=pair, forms=forms, tag="constant-leg", xi=xi, S=ONE)
    with pytest.raises(ValueError, match="not orbit-invariant"):
        bad.reduced_brackets([0.1] * (2 * m + 2))
    with pytest.raises(ValueError, match="not orbit-invariant"):
        red.reduced_bracket_via_invariants(bad, Var("mu_J1"), Var("p"), [0.1] * (2 * m + 2))


def reference_reduced_point(theta):
    """The map reduced_point replaced: nu, phi and p_theta compiled together
    over the cotangent chart."""
    pair = theta.pair
    names = red._action(pair).cot.chart.names
    nu = red.invariant_moment_exprs(pair)
    return ex.compile_exprs([*nu, Var(pair.phi_name), red.psi_map_exprs(theta)[-1]],
                            list(names))


@ON_B_CHART
def test_reduced_point_matches_the_compiled_invariants(name):
    # psi's (mu Ad_k, phi, p) is the compiled (nu, phi, p_theta)
    pair = lie.builtin(name)
    for theta in connections(pair):
        ref = reference_reduced_point(theta)
        for pt, _, _ in coupling_samples(theta, 20, seed=109):
            got, want = theta.reduced_point(pt), ref(pt)
            assert len(got) == len(want)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, (theta.tag, pt)


def test_reduced_point_and_coordinates_compile_nothing_after_psi(monkeypatch):
    # reduced points read the compiled psi and the subgroup's compiled Ad,
    # the orbit check moves points by the compiled lift, and the reduced
    # coordinates are trees: all are built once the connection has split a
    # covector
    pair = lie._se2()  # a fresh pair, nothing compiled for it yet
    theta = red.make_connection(pair, deformation=([0.3, -0.2], "1 + phi^2", True))
    red.psi_theta(theta, [0.2, -0.4, 0.5], [0.3, 0.6, 0.8])
    compiled = []
    compile_exprs = ex.compile_exprs

    def counted(exprs, names):
        compiled.append(tuple(names))
        return compile_exprs(exprs, names)

    monkeypatch.setattr(ex, "compile_exprs", counted)
    x = [0.1, -0.2, 0.3, 0.4, -0.5, 0.6]
    before = theta.reduced_point(x)
    assert theta._orbit_residual <= 1e-8
    assert list(theta.reduced_coordinates) == ["mu_P1", "mu_P2", "p"]
    assert theta.reduced_point(x) == before
    assert compiled == []


def reference_equivariance_residual(theta, samples, seed):
    """The pushforward check the lift reading replaced: Theta(hg) dL_h v
    against Ad_h Theta(g) v, with dL_h the Jacobian of the subgroup law."""
    pair = theta.pair
    Jf, m = h_jacobian_fn(pair)
    Adf = pair.h_group.adjoint_compiled
    rng = random.Random(seed)
    worst = 0.0
    for g in base_samples(pair, samples, seed):
        h = [rng.uniform(-0.6, 0.6) for _ in range(m)]
        v = np.array([rng.uniform(-1.0, 1.0) for _ in range(m + 1)])
        out = np.array(Jf([*h, *g[:m]]))
        moved = [*out[m * m:], g[m]]
        pushed = [*(out[:m * m].reshape(m, m) @ v[:m]), v[m]]
        lhs = theta.theta(moved, pushed)
        rhs = np.array(Adf(h)).reshape(m, m) @ theta.theta(g, v)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def with_phi_legs(theta, legs, tag):
    """theta plus a dphi-frame leg on each form, built without
    make_connection's axiom gate."""
    m = theta.h_dim
    forms = tuple(f if ex.is_zero(leg) else bcalc.BForm(f.chart, 1, {**f.coeffs, (m,): leg})
                  for f, leg in zip(theta.forms, legs))
    return red.Connection(pair=theta.pair, forms=forms, tag=tag)


@ON_B_CHART
def test_lift_equivariance_agrees_with_the_pushforward_reference(name):
    pair = lie.builtin(name)
    for theta in connections(pair):
        assert red._axiom_residual(theta, 30, seed=7) <= 1e-9, theta.tag
        assert reference_equivariance_residual(theta, 30, seed=7) <= 1e-9, theta.tag


def test_lift_equivariance_refuses_what_the_pushforward_refuses():
    # an orbit-dependent "1 + b1" leg on se2 and a constant leg along J1 on
    # galilean break Ad-equivariance: both readings see it, and
    # make_connection refuses the one it can be asked for
    se2 = red.make_connection(lie.builtin("se2"))
    xi = [1.0, 0.0]
    orbit = with_phi_legs(se2, [ex.dot(row, xi) * ex.parse("1 + b1")
                                for row in se2.pair.h_group.adjoint_sym], "orbit-leg")
    gal = red.make_connection(lie.builtin("galilean"))
    j1 = gal.pair.h_labels.index("J1")
    const = with_phi_legs(gal, [ONE if a == j1 else ZERO for a in range(gal.h_dim)],
                          "constant-leg")
    for bad in (orbit, const):
        assert red._axiom_residual(bad, 40, seed=101) > 1e-3, bad.tag
        assert reference_equivariance_residual(bad, 40, seed=101) > 1e-3, bad.tag
    with pytest.raises(ValueError, match="connection axioms fail"):
        red.make_connection(se2.pair, deformation=(xi, "1 + b1", True))


def test_via_invariants_transverse_pair():
    pair = lie.builtin("se2")
    theta = red.make_connection(pair)
    names = red._action(pair).cot.chart.names
    rng = random.Random(97)
    for _ in range(10):
        x = [rng.uniform(-0.8, 0.8) for _ in names]
        got = red.reduced_bracket_via_invariants(theta, Var("phi"), Var("p"), x)
        assert abs(got - x[2]) < 1e-12
        assert red.reduced_bracket_via_invariants(theta, Var("phi"), Var("phi"), x) == 0.0


def test_via_invariants_reads_one_point_not_columns():
    theta = red.make_connection(lie.builtin("se2"))
    with pytest.raises(ValueError, match="reads one point, not columns"):
        red.reduced_bracket_via_invariants(theta, Var("phi"), Var("p"), np.zeros((6, 3)))


def test_via_invariants_moment_pullbacks_abelian():
    # abelian subgroup: the momenta are invariant and their brackets vanish
    pair = lie.builtin("heisenberg_q(1)")
    rnames = red.reduced_poisson(pair).names
    rng = random.Random(101)
    for theta in connections(pair):
        for _ in range(6):
            x = [rng.uniform(-0.8, 0.8) for _ in red._action(pair).cot.chart.names]
            got = red.reduced_bracket_via_invariants(theta, Var(rnames[0]), Var(rnames[1]), x)
            assert abs(got) < 1e-12


def test_via_invariants_lift_independent():
    for name in GROUPS:
        pair = lie.builtin(name)
        act = red._action(pair)
        m = len(pair.h_names)
        rnames = red.reduced_poisson(pair).names
        F = Var(rnames[0]) * Var(rnames[0]) + Var(pair.phi_name)
        G = Var(rnames[min(1, m - 1)]) + Var("p") * Var("p")
        rng = random.Random(103)
        for theta in connections(pair):
            for t in range(8):
                x = [rng.uniform(-0.6, 0.6) for _ in act.cot.chart.names]
                if t % 2 == 0:
                    x[m] = 0.0
                h = [rng.uniform(-0.4, 0.4) for _ in range(m)]
                y = list(act.act(h, x))
                a = red.reduced_bracket_via_invariants(theta, F, G, x)
                b = red.reduced_bracket_via_invariants(theta, F, G, y)
                assert abs(a - b) <= 1e-9, (name, theta.tag)


def random_reduced_poly(rng, names):
    acc = ZERO
    for _ in range(3):
        term = ex.as_expr(rng.uniform(-1, 1))
        for _ in range(rng.randrange(1, 3)):
            term = term * Var(rng.choice(names))
        acc = acc + term
    return acc


def test_connection_independence():
    """Same reduced structure through every connection and through the oracle.

    Each connection identifies the quotient with the block model through its
    own reduced chart: the transverse momentum it selects differs from the
    default one by S * <invariant momenta, xi>, which its chart_shift undoes.
    Bracketing reduced polynomials upstairs through a connection's reduced
    coordinates must match the block formula applied after that shift, at
    the default connection's reduced point; with no deformation the shift
    is the identity.
    """
    for name in GROUPS:
        pair = lie.builtin(name)
        cn = list(red._action(pair).cot.chart.names)
        m = len(pair.h_names)
        rp = red.reduced_poisson(pair)
        default, *deformed = connections(pair)
        phi = pair.phi_name
        pairs = 50 if name != "galilean" else 20
        rng = random.Random(107)
        probes = [[rng.uniform(-0.6, 0.6) for _ in cn] for _ in range(4)]
        probes[0][m] = 0.0
        across = []
        for theta in (default, *deformed):
            tau = theta.chart_shift
            worst = 0.0
            for _ in range(pairs):
                F = random_reduced_poly(rng, rp.names)
                G = random_reduced_poly(rng, rp.names)
                x = [rng.uniform(-0.6, 0.6) for _ in cn]
                if rng.random() < 0.4:
                    x[m] = 0.0
                up = red.reduced_bracket_via_invariants(theta, F, G, x)
                want = ex.evaluate(rp.bracket(ex.subs(F, tau), ex.subs(G, tau)),
                                   dict(zip(rp.names, default.reduced_point(x))))
                worst = max(worst, abs(up - want))
            assert worst <= 1e-8, (name, theta.tag)

            # brackets of reduced coordinate functions, sampled at shared
            # lifts: every connection must report the same values
            mu0, mu1 = Var(rp.names[0]), Var(rp.names[min(1, m - 1)])
            row = [red.reduced_bracket_via_invariants(theta, mu0, mu1, probes[0])]
            for x in probes:
                row.append(red.reduced_bracket_via_invariants(theta, Var(phi), Var("p"), x))
                row.append(red.reduced_bracket_via_invariants(theta, mu0, Var(phi), x))
            across.append(row)
        base = across[0]
        for other in across[1:]:
            assert max(abs(a - b) for a, b in zip(base, other)) <= 1e-8, name


def _rational_points(rng, names, phi_slot, count=3):
    pts = []
    for t in range(count):
        pt = {n: Fraction(rng.randrange(-7, 8), rng.randrange(1, 6)) for n in names}
        if t == 0:
            pt[names[phi_slot]] = Fraction(0)
        pts.append(pt)
    return pts


@pytest.mark.parametrize("name", ["se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean"])
def test_reduction_certificate_is_exact(name):
    """The reduction theorem on the reduced coordinate functions, exactly.

    For each pair of reduced coordinates, the upstairs bracket of their
    lifts through a connection equals the reduced bracket of their
    chart-shifted images, pulled back through the default connection's
    reduced coordinates.  Both sides are rational functions on the
    cotangent chart, so the difference must evaluate to exactly 0 at
    rational points, one of them on phi = 0.  By the Leibniz rule this
    decides the theorem for every pair of reduced functions.  The
    cos(phi) connection of `connections` is covered only by the sampled
    test_connection_independence: eval_exact raises EvalError on cos.
    """
    pair = lie.builtin(name)
    up = red._action(pair).upstairs_poisson
    rp = red.reduced_poisson(pair)
    m = len(pair.h_names)
    xi = [0.3 if a % 2 == 0 else -0.2 for a in range(m)]
    default = red.make_connection(pair)
    deformed = red.make_connection(
        pair, deformation=(xi, f"1 + {pair.phi_name}^2", True))
    pts = _rational_points(random.Random(109), up.names, m)
    for theta in (default, deformed):
        for i, a in enumerate(rp.names):
            for b in rp.names[i + 1:]:
                lhs = up.bracket(ex.subs(Var(a), theta.reduced_coordinates),
                                 ex.subs(Var(b), theta.reduced_coordinates))
                down = rp.bracket(ex.subs(Var(a), theta.chart_shift),
                                  ex.subs(Var(b), theta.chart_shift))
                rhs = ex.subs(down, default.reduced_coordinates)
                for pt in pts:
                    assert ex.eval_exact(lhs - rhs, pt) == 0, (theta.tag, a, b)


# ---------------------------------------------------------------------------
# column form: the sampled sections read every map once over columns


def section_maps(pair):
    """Every compiled map verify's sampled sections read, with its input
    names: the lifted action's, the subgroup's, each connection's and the
    pair's invariant-moment Jacobian."""
    act = red._action(pair)
    H = pair.h_group
    cn = list(act.cot.chart.names)
    maps = {"lift": (act._lift_compiled, [*act._h_names, *cn]),
            "moment": (act._moment_compiled, cn),
            "zeta": (act.zeta_compiled, list(pair.h_names)),
            "Ad": (H.adjoint_compiled, list(H.param_names)),
            "mul": (H._mul_compiled, [*H.param_names, *H.param_names]),
            "inv": (H._inv_compiled, list(H.param_names)),
            "nu-jacobian": (red._invariant_moment_jacobian(pair)[0], cn)}
    for theta in connections(pair):
        maps[theta.tag + " theta"] = (theta._theta_compiled, list(theta.chart.names))
        maps[theta.tag + " psi"] = (theta._psi_compiled[1], cn)
        maps[theta.tag + " coupling"] = (theta._coupling_compiled[0],
                                         list(red.coupled_chart(theta).names))
    return maps


@pytest.mark.parametrize("name", BUILTINS)
def test_column_maps_match_the_scalar_maps_bit_for_bit(name):
    # numpy's own exp, log and power round differently from math's, so the
    # column namespace applies math's element by element; every other node
    # is one IEEE operation either way
    rng = np.random.default_rng(23)
    for label, (fn, names) in section_maps(lie.builtin(name)).items():
        X = rng.uniform(-0.7, 0.7, (len(names), 9))
        got = fn(X)
        want = np.array([fn(col) for col in X.T.tolist()]).T
        assert got.shape == want.shape and got.dtype == np.float64, label
        assert np.array_equal(got, want), label


def reference_bracket_via_invariants(theta, F, G, point):
    """The bracket before the chain rule: F and G lifted by substitution into
    the reduced coordinates, then the upstairs bivector's bracket tree
    evaluated at the point."""
    lift = theta.reduced_coordinates
    up = red._action(theta.pair).upstairs_poisson
    return ex.evaluate(up.bracket(ex.subs(F, lift), ex.subs(G, lift)),
                       dict(zip(up.names, map(float, point))))


@pytest.mark.parametrize("name", BUILTINS)
def test_chain_rule_bracket_matches_the_substituted_reference(name):
    pair = lie.builtin(name)
    cn = red._action(pair).cot.chart.names
    m = len(pair.h_names)
    rp = red.reduced_poisson(pair)
    rng = random.Random(41)
    for theta in connections(pair):
        F, G, xs = [], [], []
        for t in range(6):
            F.append(random_reduced_poly(rng, rp.names))
            G.append(random_reduced_poly(rng, rp.names))
            xs.append([rng.uniform(-0.6, 0.6) for _ in cn])
            if t % 2 == 0:
                xs[-1][m] = 0.0
        for s, x in enumerate(xs):
            got = red.reduced_bracket_via_invariants(theta, F[s], G[s], x)
            want = reference_bracket_via_invariants(theta, F[s], G[s], x)
            assert abs(got - want) <= 1e-12, (name, theta.tag)


def test_reduced_brackets_read_one_bivector():
    # B = J P J^T holds the brackets of the reduced coordinates themselves:
    # {phi, p} = phi, and the Lie-Poisson block in the invariant momenta
    pair = lie.builtin("se2")
    x = [0.3, -0.2, 0.4, 0.5, -0.1, 0.7]
    for theta in connections(pair):
        y, B = theta.reduced_brackets(x)
        assert np.allclose(B, -B.T, atol=1e-15)
        assert abs(B[2, 3] - x[2]) <= 1e-15
        assert list(y) == theta.reduced_point(x)


def test_psi_theta_splits_columns_like_points():
    pair = lie.builtin("galilean")
    m = len(pair.h_names)
    rng = np.random.default_rng(3)
    g = rng.uniform(-0.6, 0.6, (m + 1, 5))
    alpha = rng.uniform(-1, 1, (m + 1, 5))
    for theta in connections(pair):
        y = red.psi_theta(theta, g, alpha)
        back = red.psi_theta_inverse(theta, y)
        for s in range(5):
            ys = red.psi_theta(theta, g[:, s], alpha[:, s])
            assert np.allclose(y[:, s], ys, rtol=0, atol=1e-15)
            assert np.allclose(back[:, s], red.psi_theta_inverse(theta, ys), rtol=0, atol=1e-15)


@pytest.mark.parametrize("alpha", [[math.inf, 0.6, 0.8], [math.nan, 0.6, 0.8],
                                   [0.3, 0.6, math.nan]])
def test_psi_theta_refuses_a_covector_it_cannot_split(alpha):
    # a split whose vertical test reads NaN is no split
    theta = red.make_connection(lie.builtin("se2"))
    with pytest.raises(red.SplittingError):
        red.psi_theta(theta, [0.2, -0.4, 0.5], alpha)


def test_a_nan_axiom_residual_fails_the_connection(monkeypatch):
    monkeypatch.setattr(red, "_axiom_residual", lambda theta, samples, seed: math.nan)
    with pytest.raises(ValueError, match="connection axioms fail, residual nan"):
        red.make_connection(lie.builtin("se2"))


def test_a_nan_reduced_point_fails_the_orbit_check(monkeypatch):
    pair = lie._se2()  # a fresh pair: its connection has no checked coordinates yet
    theta = red.make_connection(pair)
    real = red.Connection.reduced_point

    def one_nan(self, point):
        y = real(self, point)
        y[0, 3] = math.nan
        return y

    monkeypatch.setattr(red.Connection, "reduced_point", one_nan)
    with pytest.raises(ValueError, match="not orbit-invariant, residual nan"):
        theta.reduced_brackets([0.1, -0.2, 0.3, 0.4, -0.5, 0.6])


def test_the_axiom_check_names_the_first_failing_sample():
    # the samples are read as columns, then one at a time once a map fails:
    # the error is the first failing sample's, as in a loop over samples
    pair = lie.builtin("se2")
    rng = random.Random(101)
    first = None
    for t in range(40):
        g = [rng.uniform(-0.7, 0.7) for _ in range(3)]
        if t % 3 == 0:
            g[2] = 0.0
        for _ in range(6):  # X, h and c: two values each on se2
            rng.uniform(0, 1)
        if first is None and g[2] >= 0.2:
            first = g[2]
    with pytest.raises(ex.DomainError) as info:
        red.make_connection(pair, deformation=([0.3, 0.1], "log(1/5 - phi)", True))
    assert str(info.value) == f"cannot be evaluated at phi={first:.6g}: log of a non-positive value"


@pytest.mark.parametrize("name", BUILTINS)
def test_entry_points_read_columns_as_points(name):
    # each entry point the sections read gives, column by column, its value
    # at the point; only the contractions' summation order may differ
    pair = lie.builtin(name)
    act = red._action(pair)
    H = pair.h_group
    m = len(pair.h_names)
    n = 2 * m + 2
    rng = np.random.default_rng(11)
    x, v, w = (rng.uniform(-0.6, 0.6, (n, 4)) for _ in range(3))
    h, k = (rng.uniform(-0.5, 0.5, (m, 4)) for _ in range(2))
    theta = connections(pair)[1]
    calls = {
        "act": lambda c: act.act(h[:, c], x[:, c]),
        "moment_vector": lambda c: act.moment_vector(x[:, c]),
        "group_mul": lambda c: lie.group_mul(H, h[:, c], k[:, c]),
        "group_inv": lambda c: lie.group_inv(H, h[:, c]),
        "coadjoint_star": lambda c: lie.coadjoint_star(H, h[:, c], x[m + 1:2 * m + 1, c]),
        "zeta": lambda c: red.zeta(pair, x[:m + 1, c], h[:, c]),
        "theta": lambda c: theta.theta(x[:m + 1, c], v[:m + 1, c]),
        "phi_theta_inverse": lambda c: red.phi_theta_inverse(theta, x[:m + 1, c], v[:m + 1, c],
                                                             h[:, c]),
        "reduced_point": lambda c: theta.reduced_point(x[:, c]),
        "coupling_identity_residual": lambda c: red.coupling_identity_residual(
            theta, x[:, c], v[:, c], w[:, c]),
        "connection_independence_residual": lambda c: red.connection_independence_residual(
            theta, connections(pair)[0], x[:, c]),
    }
    for label, call in calls.items():
        cols = np.asarray(call(slice(None)))
        for c in range(4):
            assert np.allclose(cols[..., c], call(c), rtol=1e-14, atol=1e-15), (label, c)
