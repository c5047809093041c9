"""Frame calculus: exterior derivative, pairing, verdicts, inversion.

Exactness tests avoid comparing expression trees (no normal form): a
coefficient claimed to vanish is evaluated with rational arithmetic at
seeded rational points, so equality is exact, not a float tolerance.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import bsymp.expr as ex
from bsymp.bcalc import (
    BChart, BForm, BFunction, BVectorField, PoissonBivector, pair, wedge, b_d,
    d_bfunction, bdarboux_model, frame_matrix, invert_to_poisson, is_b_symplectic,
)


def make_chart(n, defining=0):
    names = tuple(f"z{i+1}" for i in range(n))
    return BChart(names, defining)


def random_poly(names, rng, terms=4, degree=3):
    acc = ex.ZERO
    for _ in range(terms):
        c = Fraction(rng.randint(-5, 5))
        if not c:
            continue
        t = ex.Const(c)
        for _ in range(rng.randint(0, degree)):
            t = t * ex.Var(rng.choice(names))
        acc = acc + t
    return acc


def random_bform(chart, degree, rng):
    idxs = []
    n = chart.dim

    def build(start, cur):
        if len(cur) == degree:
            idxs.append(tuple(cur))
            return
        for i in range(start, n):
            build(i + 1, cur + [i])

    build(0, [])
    coeffs = {}
    for idx in idxs:
        if rng.random() < 0.7:
            coeffs[idx] = random_poly(chart.names, rng)
    return BForm(chart, degree, coeffs)


def rational_point(chart, rng, on_z=False):
    env = {n: Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for n in chart.names}
    if on_z and chart.defining is not None:
        env[chart.defining_name] = Fraction(0)
    return env


# ---------------------------------------------------------------------------
# d compositions
# ---------------------------------------------------------------------------

def test_dd_zero_200_random_forms():
    rng = random.Random(101)
    charts = [make_chart(3), make_chart(4, defining=1)]
    count = 0
    for degree in (1, 2):
        for _ in range(50):
            for chart in charts:
                omega = random_bform(chart, degree, rng)
                dd = b_d(b_d(omega))
                pts = [rational_point(chart, rng), rational_point(chart, rng),
                       rational_point(chart, rng, on_z=True)]
                for coeff in dd.coeffs.values():
                    for pt in pts:
                        assert ex.eval_exact(coeff, pt) == 0
                count += 1
    assert count == 200


def test_b_d_log_coefficient_rule():
    # d(p dy/y) = dp ^ dy/y on the 2d model chart
    w = bdarboux_model(1)
    ch = w.chart
    omega = BForm(ch, 1, {(1,): ex.Var("x1")})  # x1 dy1/y1
    d = b_d(omega)
    assert set(d.coeffs) == {(0, 1)}
    assert ex.to_str(d.coeff((0, 1))) == "1"


def test_b_d_classical_beta_block():
    ch = make_chart(3)
    omega = BForm(ch, 1, {(2,): ex.Var("z2")})  # z2 dz3
    d = b_d(omega)
    assert set(d.coeffs) == {(1, 2)}
    assert ex.to_str(d.coeff((1, 2))) == "1"


def test_b_d_scales_defining_direction():
    ch = make_chart(2, defining=0)
    omega = BForm(ch, 0, {(): ex.Var("z1")})
    d = b_d(omega)
    # d(z1) = z1 * (dz1/z1): the frame coefficient carries the factor z1
    assert ex.to_str(d.coeff((0,))) == "z1"


def test_d_bfunction_examples():
    ch = bdarboux_model(1).chart
    assert d_bfunction(BFunction(ch, Fraction(1), ex.ZERO)).coeffs == {(1,): ex.ONE} or \
        ex.to_str(d_bfunction(BFunction(ch, Fraction(1), ex.ZERO)).coeff((1,))) == "1"
    assert d_bfunction(BFunction(ch, Fraction(0), ex.Const(Fraction(5)))).coeffs == {}
    du = d_bfunction(BFunction(ch, Fraction(2), ex.parse("x1^2")))
    assert ex.to_str(du.coeff((1,))) == "2"
    assert ex.to_str(du.coeff((0,))) == "2*x1"


def test_bfunction_value_and_on_z():
    ch = bdarboux_model(1).chart
    u = BFunction(ch, Fraction(2), ex.parse("x1"))
    v = u.value({"x1": 0.5, "y1": -0.25})
    assert abs(v - (2 * math.log(0.25) + 0.5)) < 1e-14
    with pytest.raises(ex.DomainError):
        u.value({"x1": 0.5, "y1": 0.0})
    smooth_only = BFunction(ch, Fraction(0), ex.parse("x1"))
    assert smooth_only.value({"x1": 0.5, "y1": 0.0}) == 0.5


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_pair_dual_frame():
    w = bdarboux_model(1)
    ch = w.chart
    lam = BForm(ch, 1, {(1,): ex.ONE})  # dy1/y1
    f_frame = BVectorField(ch, (ex.ZERO, ex.ONE))  # y1 d/dy1
    x_frame = BVectorField(ch, (ex.ONE, ex.ZERO))
    for y in (0.0, 0.3, -1.2):
        pt = {"x1": 0.7, "y1": y}
        assert pair(lam, [f_frame], pt) == 1.0
        assert pair(lam, [x_frame], pt) == 0.0


def test_pair_darboux_example():
    w = bdarboux_model(1)
    ch = w.chart
    f_frame = BVectorField(ch, (ex.ZERO, ex.ONE))
    x_frame = BVectorField(ch, (ex.ONE, ex.ZERO))
    assert pair(w, [x_frame, f_frame], [0.2, 0.0]) == 1.0


def test_pair_alternating():
    rng = random.Random(103)
    chart = make_chart(4, defining=1)
    for _ in range(20):
        omega = random_bform(chart, 2, rng)
        v1 = BVectorField(chart, tuple(random_poly(chart.names, rng, 2, 1) for _ in range(4)))
        v2 = BVectorField(chart, tuple(random_poly(chart.names, rng, 2, 1) for _ in range(4)))
        pt = [rng.uniform(-1, 1) for _ in range(4)]
        pt[1] = rng.choice([0.0, pt[1]])  # sometimes on Z
        a = pair(omega, [v1, v2], pt)
        b = pair(omega, [v2, v1], pt)
        assert abs(a + b) < 1e-12 * (1 + abs(a))
        assert abs(pair(omega, [v1, v1], pt)) < 1e-12


def test_compiled_field_matches_componentwise_evaluate():
    rng = random.Random(107)
    chart = make_chart(4, defining=1)
    for _ in range(30):
        v = BVectorField(chart, tuple(random_poly(chart.names, rng, 3, 3) / (ex.Var("z3") - 2)
                                      for _ in range(4)))
        for _ in range(3):
            pt = [rng.uniform(-1, 1) for _ in range(4)]
            env = chart.env(pt)
            want = [ex.evaluate(c, env) for c in v.comps]
            assert list(v.at(pt)) == want
            assert list(v.at(env)) == want
    assert v._compiled is v._compiled  # compiled once per field
    with pytest.raises(ex.UnboundVariableError, match="'z4'"):
        v.at([0.1] * 3)


@pytest.mark.parametrize("comps,point", [
    (("1/z1", "z2"), [0.0, 0.5]),
    (("z1", "log(z2)"), [0.3, -1.0]),
    (("z2^-2", "1"), [0.3, 0.0]),
])
def test_compiled_field_raises_evaluate_domain_error(comps, point):
    v = BVectorField(make_chart(2), tuple(ex.parse(c) for c in comps))
    env = v.chart.env(point)
    with pytest.raises(ex.DomainError) as from_evaluate:
        [ex.evaluate(c, env) for c in v.comps]
    with pytest.raises(ex.DomainError) as from_field:
        v.at(point)
    assert str(from_field.value) == str(from_evaluate.value)


def test_pair_arity_error():
    w = bdarboux_model(1)
    v = BVectorField(w.chart, (ex.ONE, ex.ZERO))
    with pytest.raises(ValueError):
        pair(w, [v], [0.1, 0.2])


def test_pair_multilinear():
    w = bdarboux_model(2)
    ch = w.chart
    rng = random.Random(104)
    v1 = BVectorField(ch, tuple(random_poly(ch.names, rng, 2, 1) for _ in range(4)))
    v2 = BVectorField(ch, tuple(random_poly(ch.names, rng, 2, 1) for _ in range(4)))
    v3 = BVectorField(ch, tuple(e + e for e in v1.comps))  # 2*v1
    pt = [0.3, -0.4, 0.8, 0.1]
    assert abs(pair(w, [v3, v2], pt) - 2 * pair(w, [v1, v2], pt)) < 1e-12


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_signs_and_grading():
    ch = make_chart(4, defining=1)
    rng = random.Random(105)
    a = random_bform(ch, 1, rng)
    b = random_bform(ch, 1, rng)
    c = random_bform(ch, 2, rng)
    ab = wedge(a, b)
    ba = wedge(b, a)
    ac = wedge(a, c)
    ca = wedge(c, a)
    pt = rational_point(ch, rng)
    for idx in set(ab.coeffs) | set(ba.coeffs):
        assert ex.eval_exact(ab.coeff(idx), pt) == -ex.eval_exact(ba.coeff(idx), pt)
    for idx in set(ac.coeffs) | set(ca.coeffs):
        assert ex.eval_exact(ac.coeff(idx), pt) == ex.eval_exact(ca.coeff(idx), pt)


def test_wedge_leibniz():
    # d(a^b) = da^b - a^db for 1-forms, checked exactly at rational points
    ch = make_chart(3, defining=0)
    rng = random.Random(106)
    for _ in range(10):
        a = random_bform(ch, 1, rng)
        b = random_bform(ch, 1, rng)
        lhs = b_d(wedge(a, b))
        rhs = wedge(b_d(a), b) + wedge(a, b_d(b)).scaled(-1)
        for _ in range(3):
            pt = rational_point(ch, rng)
            for idx in set(lhs.coeffs) | set(rhs.coeffs):
                assert ex.eval_exact(lhs.coeff(idx), pt) == ex.eval_exact(rhs.coeff(idx), pt)


# ---------------------------------------------------------------------------
# the exact verdict
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_darboux_models_pass(n):
    model = bdarboux_model(n)
    assert is_b_symplectic(model) is True
    assert b_d(model).coeffs == {}  # closed exactly: constant coefficients


def test_frame_matrix_is_exact():
    W = frame_matrix(bdarboux_model(2))
    assert W == [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    assert all(type(e) is Fraction for row in W for e in row)
    with pytest.raises(ValueError, match="degree-2"):
        frame_matrix(BForm(bdarboux_model(1).chart, 1, {(0,): ex.ONE}))


def test_singular_constant_form_is_not_b_symplectic():
    # the 6-dimensional model with its last block dropped is constant and
    # closed, but singular
    model = bdarboux_model(3)
    dropped = BForm(model.chart, 2, {k: c for k, c in model.coeffs.items() if k != (4, 5)})
    assert is_b_symplectic(dropped) is False


def test_smooth_form_degenerates_on_z():
    # dx1^dy1 expressed in the rescaled frame has matrix entry y1, which
    # vanishes on Z; the verdict takes constant frame matrices only
    ch = bdarboux_model(1).chart
    omega = BForm(ch, 2, {(0, 1): ex.Var("y1")})
    with pytest.raises(ValueError, match="frame matrix is not constant"):
        is_b_symplectic(omega)


def test_non_closed_form_fails():
    # a constant frame matrix is closed, so a form that is not closed is
    # refused as not constant
    ch = bdarboux_model(2).chart
    coeffs = {(0, 1): ex.Var("x2"), (2, 3): ex.ONE}
    assert b_d(BForm(ch, 2, coeffs)).coeffs
    with pytest.raises(ValueError, match="frame matrix is not constant"):
        is_b_symplectic(BForm(ch, 2, coeffs))


def test_verdict_odd_dimension():
    ch = make_chart(3, defining=0)
    for coeffs in ({}, {(0, 1): ex.ONE}, {(0, 1): ex.ONE, (1, 2): ex.ONE}):
        assert is_b_symplectic(BForm(ch, 2, coeffs)) is False


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_darboux_tables():
    P1 = invert_to_poisson(bdarboux_model(1))
    assert P1.table() == [("x1", "y1", "y1")]
    P2 = invert_to_poisson(bdarboux_model(2))
    assert P2.table() == [("x1", "y1", "y1"), ("x2", "y2", "1")]


def test_invert_singular_rejected():
    ch = bdarboux_model(2).chart
    omega = BForm(ch, 2, {(0, 1): ex.ONE})  # constant, no leg on x2, y2
    with pytest.raises(ValueError, match="frame matrix is singular"):
        invert_to_poisson(omega)
    # only constant frame matrices are inverted, even nondegenerate ones
    omega = BForm(ch, 2, {(0, 1): ex.parse("1 + x2^2"), (2, 3): ex.ONE})
    with pytest.raises(ValueError, match="frame matrix is not constant"):
        invert_to_poisson(omega)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverted_bracket_jacobi(n):
    # every coordinate Jacobiator of the b-Darboux bivector is exactly 0,
    # so Jacobi holds for all functions, on Z too
    assert invert_to_poisson(bdarboux_model(n)).coordinate_jacobi_defect() == 0


def reference_coordinate_jacobi_defect(P):
    """Largest |coefficient| of {{x_i, x_j}, x_k} + cyclic over i < j < k,
    summed from the symbolic bracket trees; each sum is affine, so its
    coefficients are its partials and its value at the origin, exactly."""
    xs = [ex.Var(nm) for nm in P.names]
    origin = {nm: Fraction(0) for nm in P.names}
    worst = Fraction(0)
    for i, j, k in itertools.combinations(range(len(xs)), 3):
        J = ex.ZERO
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            J = J + P.bracket(P.bracket(xs[a], xs[b]), xs[c])
        for e in [J] + [ex.diff(J, nm) for nm in P.names]:
            worst = max(worst, abs(ex.eval_exact(e, origin)))
    return worst


def test_coordinate_jacobi_defect_matches_the_bracket_trees():
    x, y, z, w = (ex.Var(nm) for nm in "xyzw")
    poisson = [invert_to_poisson(bdarboux_model(n)) for n in (1, 2, 3)] + [
        PoissonBivector(("x", "y", "z"), {(0, 1): z, (1, 2): x, (0, 2): -y}),
        PoissonBivector(("x", "y", "z"), {(0, 1): ex.ONE, (1, 2): x}),
    ]
    broken = [
        PoissonBivector(("x", "y", "z"), {(0, 1): y, (1, 2): x}),
        PoissonBivector(("x", "y", "z", "w"),
                        {(0, 1): 2 * z + 1, (1, 2): x / 3 - w, (0, 3): y + 1}),
    ]
    for P in poisson:
        assert P.coordinate_jacobi_defect() == reference_coordinate_jacobi_defect(P) == 0
    for P in broken:
        assert P.coordinate_jacobi_defect() == reference_coordinate_jacobi_defect(P) > 0


def test_coordinate_jacobi_defect_refuses_a_non_affine_entry():
    P = PoissonBivector(("x", "y", "z"), {(0, 1): ex.parse("x*y"), (1, 2): ex.Var("x")})
    with pytest.raises(ValueError, match=r"entry \(x, y\) = x\*y is not affine"):
        P.coordinate_jacobi_defect()


def test_consistency_off_z():
    # away from Z the inverted bivector agrees with the classical inversion
    # of the coordinate-frame matrix of the same form
    rng = random.Random(110)
    for n in (1, 2):
        omega = bdarboux_model(n)
        ch = omega.chart
        P = invert_to_poisson(omega)
        Wnum = np.array(frame_matrix(omega), dtype=float)
        for _ in range(20):
            pt = [rng.uniform(0.05, 1.5) * rng.choice([-1, 1]) for _ in range(ch.dim)]
            scales = np.array([pt[ch.defining] if i == ch.defining else 1.0
                               for i in range(ch.dim)])
            # coordinate matrix of the form, then classical bivector
            omega_coord = Wnum / np.outer(scales, scales)
            pi_classical = np.linalg.inv(omega_coord).T
            env = dict(zip(ch.names, pt))
            for i in range(ch.dim):
                for j in range(ch.dim):
                    got = ex.evaluate(P.entry(i, j), env)
                    assert abs(got - pi_classical[i, j]) <= 1e-9 * (1 + abs(got))


def test_bivector_entry_antisymmetry():
    P = invert_to_poisson(bdarboux_model(1))
    pt = {"x1": 0.4, "y1": -0.7}
    assert ex.evaluate(P.entry(1, 0), pt) == -ex.evaluate(P.entry(0, 1), pt)
    assert P.entry(0, 0) is ex.ZERO


def test_bracket_value_matches_table():
    P = invert_to_poisson(bdarboux_model(1))
    v = P.bracket_value(ex.Var("x1"), ex.Var("y1"), {"x1": 2.0, "y1": -0.3})
    assert abs(v + 0.3) < 1e-15


@pytest.mark.parametrize("point,error,message", [
    ([2.0], ex.UnboundVariableError, "unknown name 'y1'"),
    ([], ex.UnboundVariableError, "unknown name 'x1'"),
    ([2.0, -0.3, 9.9], ValueError, "point has 3 values for 2 coordinates"),
    (np.array([2.0, -0.3, 0.0, 0.0]), ValueError, "point has 4 values for 2 coordinates"),
    ({"x1": 2.0}, ex.UnboundVariableError, "unknown name 'y1'"),
    ({"y1": -0.3, "z": 1.0}, ex.UnboundVariableError, "unknown name 'x1'"),
], ids=["short", "empty", "long", "long-array", "mapping-without-y1", "mapping-without-x1"])
def test_sequence_point_must_list_one_value_per_coordinate(point, error, message):
    # a short point, or a mapping that lacks a coordinate, names the first
    # missing coordinate; a long one is refused rather than cut to length,
    # by the bracket, the chart, a field, a pairing and a b-function alike
    P = invert_to_poisson(bdarboux_model(1))
    x1, y1 = ex.Var("x1"), ex.Var("y1")
    ch = bdarboux_model(1).chart
    v = BVectorField(ch, (y1, x1))
    for call in (lambda: P.bracket_value(x1, y1, point),
                 lambda: ch.env(point),
                 lambda: v.at(point),
                 lambda: pair(BForm(ch, 1, {(0,): ex.ONE}), [v], point),
                 lambda: BFunction(ch, Fraction(1), x1).value(point)):
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message
    assert P.bracket_value(x1, y1, [2.0, -0.3]) == P.bracket_value(x1, y1, {"x1": 2.0, "y1": -0.3})
    assert list(v.at([2.0, -0.3])) == [-0.3, 2.0]


def test_affine_matrix_reads_the_entries_at_points_and_columns():
    # the galilean Lie-Poisson entries are linear in the momenta; a column
    # read gives each point's matrix, and a non-affine entry is refused
    from bsymp import lie
    P = lie.builtin("galilean").group.algebra.lie_poisson
    n = len(P.names)
    X = np.random.default_rng(7).uniform(-1.0, 1.0, (n, 5))
    cols = P.affine_matrix(X)
    assert cols.shape == (n, n, 5)
    for s in range(5):
        env = dict(zip(P.names, X[:, s]))
        want = np.array([[ex.evaluate(P.entry(i, j), env) for j in range(n)] for i in range(n)])
        assert np.allclose(P.affine_matrix(X[:, s]), want, rtol=0, atol=1e-15)
        assert np.allclose(cols[..., s], want, rtol=0, atol=1e-15)
    curved = PoissonBivector(("x", "y"), {(0, 1): ex.parse("x*y")})
    with pytest.raises(ValueError, match=r"entry \(x, y\) = x\*y is not affine"):
        curved.affine_matrix([1.0, 2.0])


def test_bracket_value_matches_symbolic_bracket_on_galilean():
    # the point bracket against the evaluated bracket tree, with the
    # canonical b-symplectic structure of the galilean cotangent chart;
    # every third point lies on the hypersurface s = 0
    from bsymp import blift, lie
    cot = blift.LiftedAction(lie.builtin("galilean")).cot
    P = invert_to_poisson(blift.canonical_bsymplectic(cot))
    names = P.names
    s = cot.chart.defining_name
    rng = random.Random(113)
    for t in range(30):
        F = random_poly(names, rng, terms=5, degree=3) * ex.sin(ex.Var(rng.choice(names)))
        G = random_poly(names, rng, terms=5, degree=3) / (ex.Var(rng.choice(names)) ** 2 + 1)
        pt = {nm: rng.uniform(-1.5, 1.5) for nm in names}
        if t % 3 == 0:
            pt[s] = 0.0
        want = ex.evaluate(P.bracket(F, G), pt)
        got = P.bracket_value(F, G, pt)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (t, got, want)
        if pt[s] == 0.0:
            assert P.bracket_value(ex.Var(s), G, pt) == 0.0
