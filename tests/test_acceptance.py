"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion, at the stated tolerances.  Everything is seeded; the whole file
runs at desk scale.

Criteria, in order:
 1. reduce command on se2 emits exactly {phi,p} = phi and a zero dual block
 2. coupling identity residual <= 1e-8, 200 samples per group and
    connection, slice samples included
 3. equivariance residuals <= 1e-9 over 100 samples; splitting round trips
    <= 1e-12
 4. reduced brackets of 50 invariant function pairs agree across the three
    connections and with the invariant-function oracle to <= 1e-8
 5. exact algebra: commutator oracle, Jacobi, Lie-Poisson Jacobi == 0 on
    coordinate triples, zero translation block on the plane-motions dual
 6. singular calculus: d(d(.)) = 0 on 200 forms, log-derivative, normal-form
    models, canonical layout
 7. moment identity <= 1e-8 on 100 samples, equivariance <= 1e-9
 8. flows: endpoint e within 1e-6, exact slice hold, constant sign, fourth
    order step halving
 9. tooling: exit codes 0/1/2 under fault injection, byte-identical reruns
"""

import json
import math

import numpy as np

import bsymp.expr as ex
from bsymp.expr import Const, Var
from bsymp import cli, dynamics as dyn, lie, reduction as red, verify

GROUPS = ["se2", "heisenberg_q(1)", "galilean"]


def test_criterion_1_reduced_table_of_plane_motions(tmp_path, capsys):
    out = tmp_path / "reduce.csv"
    assert cli.main(["reduce", "--group", "se2", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines == [
        "first,second,bracket",
        "mu_P1,mu_P2,0",
        "mu_P1,phi,0",
        "mu_P1,p,0",
        "mu_P2,phi,0",
        "mu_P2,p,0",
        "phi,p,phi",
    ]
    # and the bivector object carries the same coefficients symbolically
    rp = red.reduced_poisson(lie.builtin("se2"))
    e = rp.entry(2, 3)
    assert isinstance(e, Var) and e.name == "phi"
    for (i, j), c in rp.entries.items():
        if (i, j) != (2, 3):
            assert isinstance(c, Const) and c.value == 0


def test_criterion_2_coupling_identity():
    for name in GROUPS:
        resid, _ = verify._sec_coupling_identity(lie.builtin(name), 42)
        assert resid <= 1e-8, (name, resid)


def test_criterion_3_equivariance_and_roundtrips():
    for name in GROUPS:
        pair = lie.builtin(name)
        law, _ = verify._sec_action_law(pair, 42)
        assert law <= 1e-9, (name, law)
        eqv, _ = verify._sec_moment_equivariance(pair, 42)
        assert eqv <= 1e-9, (name, eqv)
        axioms, _ = verify._sec_connection_axioms(pair, 42)
        assert axioms <= 1e-9, (name, axioms)
        # 60 round trips per connection: three seeds of 20
        for seed in (42, 43, 44):
            rt, _ = verify._sec_splitting_roundtrip(pair, seed)
            assert rt <= 1e-12, (name, seed, rt)


def test_criterion_4_connection_independence():
    for name in GROUPS:
        resid, _ = verify._sec_connection_independence(lie.builtin(name), 42)
        assert resid <= 1e-8, (name, resid)


def test_criterion_5_exact_algebra():
    for name in GROUPS + ["heisenberg_q(2)"]:
        pair = lie.builtin(name)
        match, _ = verify._sec_commutator_match(pair, 42)
        assert match == 0.0, name
        assert float(pair.group.algebra.antisymmetry_defect()) == 0.0
        assert float(pair.group.algebra.jacobi_defect()) == 0.0
        lp, tol = verify._sec_lp_jacobi(pair.group.algebra, 42)
        assert lp == 0.0, (name, lp)
    # the translation subalgebra of the plane motions is abelian, so the
    # dual structure on it vanishes identically
    h = lie.builtin("se2").h_algebra
    assert all(v == 0 for row in h.constants.values() for v in row)
    names = lie.dual_names(h)
    sym = h.lie_poisson.bracket(Var(names[0]), Var(names[1]))
    assert isinstance(sym, Const) and sym.value == 0


def test_criterion_6_singular_calculus():
    import bsymp.bcalc as bcalc
    se2 = lie.builtin("se2")
    # 204 forms: seventeen seeds of 12
    for seed in range(42, 59):
        dd, _ = verify._sec_d_squared(se2, seed)
        assert dd == 0.0, seed
    logd, _ = verify._sec_log_derivative(se2, 42)
    assert logd == 0.0
    # the b-Darboux models are b-symplectic, exactly closed, and invert
    # exactly to {x1, y1} = y1, {xi, yi} = 1 (so their Pfaffian is 1 exactly)
    for n in (1, 2, 3):
        model = bcalc.bdarboux_model(n)
        assert bcalc.is_b_symplectic(model) is True
        assert bcalc.b_d(model).coeffs == {}
        assert bcalc.invert_to_poisson(model).table() == [
            ("x1", "y1", "y1"), *((f"x{i}", f"y{i}", "1") for i in range(2, n + 1))]
    assert verify._sec_normal_form_model(lie.builtin("se2"), 42)[0] == 0.0
    for name in GROUPS:
        layout, _ = verify._sec_canonical_layout(lie.builtin(name), 42)
        assert layout == 0.0, name


def test_criterion_7_moment_identity():
    for name in GROUPS:
        pair = lie.builtin(name)
        ham, _ = verify._sec_moment_hamilton(pair, 42)
        assert ham <= 1e-8, (name, ham)
        eqv, _ = verify._sec_moment_equivariance(pair, 42)
        assert eqv <= 1e-9, (name, eqv)


def test_criterion_8_reduced_flows():
    rp = red.reduced_poisson(lie.builtin("se2"))
    m = len(rp.names) - 2
    vf = dyn.hamiltonian_vf(rp, Var("p"), phi_slot=m)
    tr = dyn.integrate(vf, [0.0, 0.0, 1.0, 0.0], 1e-3, 1.0)
    assert abs(tr.final[m] - math.e) <= 1e-6
    # slice start held exactly, off-slice sign frozen
    H = ex.parse("p^2/2 + 0.3*phi*mu_P1 + mu_P2")
    vf2 = dyn.hamiltonian_vf(rp, H, phi_slot=m)
    tr0 = dyn.integrate(vf2, [0.4, -0.2, 0.0, 0.3], 1e-2, 3.0)
    assert np.all(tr0.rows[:, m] == 0.0)
    for sgn in (1.0, -1.0):
        tr1 = dyn.integrate(vf2, [0.4, -0.2, 0.5 * sgn, 0.3], 1e-2, 3.0)
        assert np.all(np.sign(tr1.rows[:, m]) == sgn)
    errs = [abs(dyn.integrate(vf, [0, 0, 1.0, 0], dt, 1.0).final[m] - math.e)
            for dt in (0.1, 0.05)]
    assert 8.0 <= errs[0] / errs[1] <= 32.0


def test_criterion_9_tooling_contract(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"seed": 8}))
    assert cli.main(["verify", "--config", str(ok)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "--config", str(ok)]) == 0
    assert capsys.readouterr().out == first

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": {
        "labels": ["X", "Y", "Z"],
        "constants": [[0, 1, 2, "1"], [1, 2, 0, "1"],
                      [1, 2, 2, "1"], [2, 0, 1, "1"]]}}))
    assert cli.main(["verify", "--config", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL | lie: Jacobi" in out

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert cli.main(["verify", "--config", str(broken)]) == 2
    capsys.readouterr()

    flow_cfg = tmp_path / "flow.json"
    flow_cfg.write_text(json.dumps(
        {"flow": {"hamiltonian": "p^2/2 + mu_P1*phi", "dt": 0.01, "T": 2.0,
                  "x0": [0.1, -0.2, 0.8, 0.3]}}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["flow", "--config", str(flow_cfg), "--out", str(a)]) == 0
    assert cli.main(["flow", "--config", str(flow_cfg), "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
