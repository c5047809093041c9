"""Hamiltonian fields, fixed-step flows, and the slice diagnostics.

Closed forms used as oracles: with the transverse block {phi, p} = phi and
H = p the flow is phi' = phi, so phi(t) = phi(0) e^t; with H = p^2/2 it is
phi' = phi p with p frozen.  Everything else is a structural property of
the stepper (exact holds, drift bounds, convergence order).
"""

import io
import math
import random

import numpy as np
import pytest

import bsymp.expr as ex
from bsymp.expr import Const, Var
from bsymp import dynamics as dyn, lie, reduction as red

GROUPS = ["se2", "heisenberg_q(1)", "galilean"]


def reduced_field(name, H):
    rp = red.reduced_poisson(lie.builtin(name))
    m = len(rp.coordinates) - 2
    return rp, dyn.hamiltonian_vf(rp.bivector, H, phi_slot=m), m


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
    f = ex.compile_exprs([vf.components[m]], list(rp.coordinates))
    for p in (0.0, 0.7, -1.3):
        assert f([0.1, 0.2, 0.0, p])[0] == 0.0
        assert abs(f([0.1, 0.2, 2.0, p])[0] - 2.0 * p) < 1e-15
    assert isinstance(vf.components[m + 1], Const)


def test_field_matches_bracket_numerically():
    rng = random.Random(5)
    for name in GROUPS:
        rp = red.reduced_poisson(lie.builtin(name))
        H = random_quadratic(rng, list(rp.coordinates))
        vf = dyn.hamiltonian_vf(rp.bivector, H)
        for _ in range(5):
            x = [rng.uniform(-1, 1) for _ in rp.coordinates]
            vx = vf(x)
            for i, n in enumerate(rp.coordinates):
                want = rp.bivector.bracket_value(Var(n), H, x)
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
        m = len(rp.coordinates) - 2
        H = random_quadratic(rng, list(rp.coordinates))
        vf = dyn.hamiltonian_vf(rp.bivector, H, phi_slot=m)
        x0 = [rng.uniform(-1, 1) for _ in rp.coordinates]
        x0[m] = 0.0
        tr = dyn.integrate(vf, x0, 1e-2, 2.0)
        assert np.all(tr.rows[:, m] == 0.0), name
        assert tr.phi_floor == 0.0


def test_sign_never_flips():
    rng = random.Random(17)
    for name in GROUPS:
        rp = red.reduced_poisson(lie.builtin(name))
        m = len(rp.coordinates) - 2
        for sgn in (1.0, -1.0):
            H = random_quadratic(rng, list(rp.coordinates))
            vf = dyn.hamiltonian_vf(rp.bivector, H, phi_slot=m)
            x0 = [rng.uniform(-0.5, 0.5) for _ in rp.coordinates]
            x0[m] = 0.4 * sgn
            tr = dyn.integrate(vf, x0, 1e-2, 3.0)
            assert np.all(np.sign(tr.rows[:, m]) == sgn), name


def test_energy_drift_bound():
    rng = random.Random(23)
    for name in GROUPS:
        rp = red.reduced_poisson(lie.builtin(name))
        m = len(rp.coordinates) - 2
        for _ in range(10):
            H = random_quadratic(rng, list(rp.coordinates))
            vf = dyn.hamiltonian_vf(rp.bivector, H, phi_slot=m)
            x0 = [rng.uniform(-0.6, 0.6) for _ in rp.coordinates]
            h0 = ex.evaluate(H, dict(zip(rp.coordinates, x0)))
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
    assert np.all(tr.rows[:, m] == 0.0)


def test_casimir_drift_reported():
    rp, vf, m = reduced_field("se2", ex.parse("p^2/2 + mu_P1"))
    tr = dyn.integrate(vf, [0.3, -0.1, 0.8, 0.2], 1e-2, 2.0,
                       casimirs=[Var("mu_P1"), Var("mu_P2")])
    assert tr.casimir_drifts == (0.0, 0.0)


# ---------------------------------------------------------------------------
# chart exit and argument validation


def test_box_exit_reports_time():
    rp, vf, m = reduced_field("se2", Var("p"))
    box = [(-5, 5), (-5, 5), (-2.0, 2.0), (-5, 5)]
    with pytest.raises(dyn.ChartExitError) as err:
        dyn.integrate(vf, [0.0, 0.0, 1.0, 0.0], 1e-3, 2.0, box=box)
    # phi(t) = e^t crosses 2 at t = log 2
    assert abs(err.value.time - math.log(2.0)) <= 5e-3
    assert "phi" in str(err.value)


def test_nonfinite_state_raises():
    P = red.reduced_poisson(lie.builtin("se2")).bivector
    vf = dyn.VectorField(names=("x",), components=(ex.parse("x^2"),))
    with pytest.raises(dyn.ChartExitError):
        dyn.integrate(vf, [1.0], 0.5, 400.0)


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
    rep = dyn.leaf_report(rp.bivector, tr)
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
    m = len(rp.coordinates) - 2
    H = random_quadratic(rng, list(rp.coordinates))
    vf = dyn.hamiltonian_vf(rp.bivector, H, phi_slot=m)
    x0 = [0.4, -0.2, 0.0, 0.7]
    tr = dyn.integrate(vf, x0, 1e-2, 1.0)
    rep = dyn.leaf_report(rp.bivector, tr)
    assert rep.on_slice
    assert set(rep.casimir_drifts) == {"mu_B1", "mu_C"} or \
        set(rep.casimir_drifts) == set(rp.coordinates[:m])
    assert all(v == 0.0 for v in rep.casimir_drifts.values())


def test_galilean_report_has_no_structural_casimirs():
    rp = red.reduced_poisson(lie.builtin("galilean"))
    m = len(rp.coordinates) - 2
    vf = dyn.hamiltonian_vf(rp.bivector, Var("p"), phi_slot=m)
    tr = dyn.integrate(vf, [0.1] * m + [0.5, 0.1], 1e-2, 1.0)
    rep = dyn.leaf_report(rp.bivector, tr)
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
    for ln, t, row in zip(lines[1:], tr.times, tr.rows):
        vals = [float(v) for v in ln.split(",")]
        assert vals[0] == t
        assert vals[1:5] == [float(v) for v in row]
        assert vals[5] == row[3]            # H = p along the flow
        assert vals[6] == row[0]


def test_times_strictly_increasing_and_shapes():
    rp, vf, m = reduced_field("se2", Var("p"))
    tr = dyn.integrate(vf, [0, 0, 1.0, 0], 0.1, 1.0)
    assert tr.rows.shape == (11, 4)
    assert np.all(np.diff(tr.times) > 0)
