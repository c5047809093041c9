"""Suite runner: section coverage, signature, determinism."""

import dataclasses
import inspect
import math
import os
import signal
import sys
from fractions import Fraction

import numpy as np
import pytest

import bsymp.expr as ex
from bsymp import bcalc, blift, cli, lie, verify
from bsymp import dynamics as dyn
from bsymp import reduction as red


def test_full_suite_sections_and_pass():
    rep = verify.run_suite(lie.builtin("se2"))
    assert rep.passed
    assert rep.subject == "se2"
    assert rep.seed == 42
    names = [s.name for s in rep.sections]
    for expected in ("lie: Jacobi", "bcalc: derivative-squared",
                     "blift: moment-Hamilton", "reduction: coupling-identity",
                     "reduction: connection-independence",
                     "dynamics: order-factor"):
        assert expected in names
    assert len(names) == len(set(names))


def test_algebra_subject_runs_lie_sections_only():
    alg = lie.builtin("se2").h_algebra
    rep = verify.run_suite(alg)
    names = [s.name for s in rep.sections]
    assert names == ["lie: antisymmetry", "lie: Jacobi",
                     "lie: Lie-Poisson-Jacobi"]
    assert rep.passed
    assert rep.subject.startswith("algebra(")


def test_run_suite_takes_only_subject_seed_and_basis():
    # each section's tolerance and draw count are literals: no option moves them
    assert list(inspect.signature(verify.run_suite).parameters) == ["subject", "seed", "basis"]
    assert not hasattr(verify, "VerifyOptions")
    for name, fn in verify.ALGEBRA_SECTIONS + verify.GROUP_SECTIONS:
        assert list(inspect.signature(fn).parameters)[1:] == ["seed"], name


SO3_BASIS = [[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
             [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
             [[0, -1, 0], [1, 0, 0], [0, 0, 0]]]


def test_custom_basis_appends_commutator_match():
    so3 = lie.structure_constants_from_matrices(SO3_BASIS)
    names = ["lie: antisymmetry", "lie: Jacobi", "lie: Lie-Poisson-Jacobi"]
    assert [s.name for s in verify.run_suite(so3).sections] == names
    rep = verify.run_suite(so3, 42, SO3_BASIS)
    assert [s.name for s in rep.sections] == names + ["lie: commutator-match"]
    assert rep.passed and rep.sections[-1].residual == 0.0
    # the same matrices, one scaled: the constants no longer match, and the
    # residual is the largest entry of [E_i, E_j] - sum_k c^k_ij E_k
    for factor, residual in ((2, 1.0), (Fraction(1, 3), 2 / 3)):
        scaled = [SO3_BASIS[0], SO3_BASIS[1], [[factor * v for v in row] for row in SO3_BASIS[2]]]
        rep = verify.run_suite(so3, 42, scaled)
        assert rep.failing() == ["lie: commutator-match"]
        assert rep.sections[-1].residual == residual


@pytest.mark.parametrize("name", ["se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean",
                                  "heisenberg_q(8)"])
def test_commutator_defect_sees_each_corrupted_row(name, monkeypatch):
    # the checker reads the stored rows against the matrices with a product
    # of its own: it builds no algebra and no span, and every corruption of
    # the table shows, a (j, i) row too
    pair = lie.builtin(name)
    cases = [(G.algebra.constants, G.basis) for G in (pair.group, pair.h_group)]

    def refuse(*args):
        raise AssertionError("commutator_defect rebuilt the algebra")

    monkeypatch.setattr(lie, "structure_constants_from_matrices", refuse)
    monkeypatch.setattr(lie, "_Span", refuse)
    corrupted = 0
    for constants, basis in cases:
        d = len(basis)
        check = lambda table: verify.commutator_defect(lie.LieAlgebra(("e",) * d, table), basis)
        assert check(dict(constants)) == 0
        tables = []
        lower = [key for key in constants if key[0] > key[1]]
        if lower:
            i, j = lower[0]
            tables.append({**constants, (i, j): {k: 2 * v for k, v in constants[i, j].items()}})
            tables.append({key: row for key, row in constants.items() if key != (i, j)})
        free = next((i, j) for i in range(d) for j in range(d)
                    if i != j and (i, j) not in constants)
        tables.append({**constants, free: {0: Fraction(1)}})
        tables.append({**constants, (0, 0): {d - 1: Fraction(1)}})
        for table in tables:
            assert check(table) > 0
        corrupted += len(tables)
    assert corrupted >= 6


def test_exact_residual_past_the_float_range_fails():
    # [X, Y] = cX, [Y, Z] = cY: both the algebra's Jacobi defect and the
    # Lie-Poisson bivector's coordinate Jacobiator carry c^2, past the float
    # range; each reads inf and fails, with no OverflowError
    c = Fraction(10 ** 200)
    alg = lie.LieAlgebra(labels=("X", "Y", "Z"),
                         constants={(0, 1): {0: c}, (1, 0): {0: -c},
                                    (1, 2): {1: c}, (2, 1): {1: -c}})
    assert alg.jacobi_defect() == c * c
    rep = verify.run_suite(alg, 42)
    assert [(s.name, s.residual) for s in rep.sections if not s.ok] == [
        ("lie: Jacobi", math.inf), ("lie: Lie-Poisson-Jacobi", math.inf)]
    # both orientations of [X, Y] stated with one sign: the antisymmetry
    # defect is 2*c, past the float range; a 2-dim bivector has no
    # coordinate triple, so it is Poisson and only antisymmetry fails
    c = Fraction(17 * 10 ** 307)
    alg = lie.LieAlgebra(labels=("X", "Y"),
                         constants={(0, 1): {0: c}, (1, 0): {0: c}})
    rep = verify.run_suite(alg, 42)
    assert [(s.name, s.residual) for s in rep.sections if not s.ok] == [
        ("lie: antisymmetry", math.inf)]


def test_coordinate_jacobi_defect_fails_a_perturbed_bivector():
    # a galilean Lie-Poisson bivector with one entry scaled by 1 + 1e-6 is
    # no longer Poisson: its exact defect is 1e-6, against the tolerance 1e-9
    P = lie.builtin("galilean").group.algebra.lie_poisson
    entries = dict(P.entries)
    entries[(0, 4)] = ex.Const(1 + Fraction(1, 10 ** 6)) * entries[(0, 4)]
    wrong = bcalc.PoissonBivector(P.names, entries)
    assert wrong.coordinate_jacobi_defect() == Fraction(1, 10 ** 6)
    assert P.coordinate_jacobi_defect() == 0


def test_report_text_is_deterministic():
    a = verify.run_suite(lie.builtin("se2")).text()
    b = verify.run_suite(lie.builtin("se2")).text()
    assert a == b
    assert a.endswith("result: pass")
    for line in a.splitlines()[3:-1]:
        assert line.startswith(("ok | ", "FAIL | "))
        assert "residual: " in line and "tolerance: " in line


def test_rerun_on_one_pair_reuses_its_connections(monkeypatch):
    built = []
    make = red.make_connection

    def counted(*args, **kwargs):
        built.append(kwargs.get("deformation"))
        return make(*args, **kwargs)

    actions = []
    init = blift.LiftedAction.__init__

    def init_counted(self, *args, **kwargs):
        actions.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(red, "make_connection", counted)
    monkeypatch.setattr(blift.LiftedAction, "__init__", init_counted)
    pair = lie._se2()  # a fresh pair, not the shared built-in
    a = verify.run_suite(pair).text()
    assert (len(actions), len(built)) == (1, 3)
    b = verify.run_suite(pair).text()
    assert (len(actions), len(built)) == (1, 3)  # the rerun builds nothing
    assert a == b
    assert a.endswith("result: pass")


def test_connection_independence_compiles_per_connection_not_per_sample(monkeypatch):
    # each connection compiles its reduced coordinates once; the 150
    # brackets themselves compile nothing
    pair = lie._se2()  # a fresh pair, nothing compiled for it yet
    verify._connection_cases(pair)
    calls = []
    compile_exprs = ex.compile_exprs

    def counted(exprs, names):
        calls.append(len(exprs))
        return compile_exprs(exprs, names)

    monkeypatch.setattr(ex, "compile_exprs", counted)
    resid, tol = verify._sec_connection_independence(pair, 1)
    assert resid <= tol
    assert len(calls) <= 4


@pytest.mark.parametrize("name", ["se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean"])
def test_connection_independence_fails_a_wrong_bracket_or_a_missing_chart_shift(name, monkeypatch):
    # the section compares every entry of the upstairs brackets and every
    # reduced coordinate, so it sees {phi, p} = 2 phi in the reduced
    # bivector, and deformed connections read without the shift of p
    pair = lie.builtin(name)
    rp = red.reduced_poisson(pair)
    m = len(pair.h_names)
    default, *deformed = verify._connection_cases(pair)
    doubled = bcalc.PoissonBivector(
        rp.names, {**rp.entries, (m, m + 1): ex.Const(2) * ex.Var(pair.phi_name)})
    with monkeypatch.context() as patch:
        patch.setattr(red, "reduced_poisson", lambda _: doubled)
        resid, tol = verify._sec_connection_independence(pair, 1)
    assert resid > 0.1 and not verify.SectionResult("", resid, tol).ok
    unshifted = [dataclasses.replace(theta, xi=None, S=None) for theta in deformed]
    assert all(theta.chart_shift == {} for theta in unshifted)
    monkeypatch.setattr(verify, "_connection_cases", lambda _: (default, *unshifted))
    resid, tol = verify._sec_connection_independence(pair, 1)
    assert resid > 0.01 and not verify.SectionResult("", resid, tol).ok


def test_galilean_suite_compiles_at_most_17_maps(monkeypatch):
    # counts tape builds, one per compile_exprs call: each connection
    # compiles theta (with the chart shift's S and S'), psi with its
    # Jacobian and its coupling target, nothing more: reduced points read
    # psi and the subgroup's Ad, equivariance reads the lifted action, all
    # three connections share the subgroup's one Maurer-Cartan build and
    # the pair's one b_d of the invariant moments (the chain-rule bracket's
    # nu rows), and the two b-symplectic verdicts are exact, so they
    # compile nothing
    pair = lie._galilean()  # a fresh pair, nothing compiled for it yet
    calls = []
    compile_exprs = ex.compile_exprs

    def counted(exprs, names):
        calls.append(len(exprs))
        return compile_exprs(exprs, names)

    monkeypatch.setattr(ex, "compile_exprs", counted)
    assert verify.run_suite(pair, 1).passed
    assert len(calls) <= 17
    mc = pair.h_group.maurer_cartan_sym
    for theta in verify._connection_cases(pair):
        assert all(f.coeffs[(j,)] is mc[a][j] for a, f in enumerate(theta.forms)
                   for j in range(len(mc)) if (j,) in f.coeffs)


def test_galilean_suite_generates_5_flow_loops(monkeypatch):
    # flow-endpoint and order-factor integrate one H = p field kept on the
    # pair, so the rk4 loop is generated once for both; slice-hold and the
    # three energy-drift Hamiltonians are the other four
    pair = lie._galilean()  # a fresh pair, no flow generated for it yet
    generated = []
    generate = dyn._generate_flow

    def counted(*args):
        generated.append(args[2:])
        return generate(*args)

    monkeypatch.setattr(dyn, "_generate_flow", counted)
    # without os.fork the flow sections run in this process, which counts them
    monkeypatch.delattr(os, "fork")
    assert verify.run_suite(pair, 1).passed
    assert generated == [("rk4", False)] * 5


GROUPS = ("se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean")


def _counted_forks(monkeypatch) -> list[int]:
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _replace_section(monkeypatch, name, fn):
    assert name in dict(verify.GROUP_SECTIONS)
    monkeypatch.setattr(verify, "GROUP_SECTIONS", [(n, fn if n == name else f)
                                                   for n, f in verify.GROUP_SECTIONS])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("group", GROUPS)
def test_forked_and_serial_reports_are_byte_identical(group, monkeypatch):
    # the forked child returns the flow sections' residuals as exact doubles
    pair = lie.builtin(group)
    forks = _counted_forks(monkeypatch)
    forked = [verify.run_suite(pair, seed).text() for seed in (1, 42, 106)]
    assert len(forks) == 6
    _no_child_left()
    monkeypatch.delattr(os, "fork")
    assert [verify.run_suite(pair, seed).text() for seed in (1, 42, 106)] == forked


def test_custom_algebra_forks_nothing(monkeypatch):
    forks = _counted_forks(monkeypatch)
    so3 = lie.structure_constants_from_matrices(SO3_BASIS)
    assert verify.run_suite(so3).passed
    assert verify.run_suite(so3, 42, SO3_BASIS).passed
    assert forks == []
    _no_child_left()


def test_flow_section_raising_in_the_child_raises_here(monkeypatch):
    def boom(pair, seed):
        raise ValueError("boom")

    _replace_section(monkeypatch, "dynamics: slice-hold", boom)
    forks = _counted_forks(monkeypatch)
    with pytest.raises(ValueError) as err:
        verify.run_suite(lie.builtin("se2"), 1)
    assert type(err.value) is ValueError and err.value.args == ("boom",)
    assert err.traceback[-1].name == "boom"
    assert len(forks) == 2
    _no_child_left()


def test_flow_sections_rerun_here_when_the_child_dies(monkeypatch):
    # a child killed before it reports leaves its sections to this process
    here = os.getpid()
    energy_drift = verify._sec_energy_drift

    def killed_in_child(pair, seed):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return energy_drift(pair, seed)

    pair = lie.builtin("se2")
    monkeypatch.delattr(os, "fork")
    serial = verify.run_suite(pair, 1).text()
    monkeypatch.undo()
    _replace_section(monkeypatch, "dynamics: energy-drift", killed_in_child)
    forks = _counted_forks(monkeypatch)
    assert verify.run_suite(pair, 1).text() == serial
    assert len(forks) == 2
    _no_child_left()


def _logged_coupling(monkeypatch, tmp_path, fail):
    """coupling-identity replaced by one that appends its process id to a
    file, then calls fail(in_child); the file's path."""
    here, calls = os.getpid(), tmp_path / "calls"
    coupling = verify._sec_coupling_identity

    def logged(pair, seed):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        fail(os.getpid() != here)
        return coupling(pair, seed)

    _replace_section(monkeypatch, "reduction: coupling-identity", logged)
    return calls


def _ran_in_its_child_then_here(calls):
    child, parent = map(int, calls.read_text().split())
    assert child != parent == os.getpid()


def test_coupling_identity_reruns_here_when_its_child_is_killed(monkeypatch, tmp_path):
    # coupling-identity runs in a second child, forked on reaching it
    def killed_in_child(in_child):
        if in_child:
            os.kill(os.getpid(), signal.SIGKILL)

    pair = lie.builtin("se2")
    monkeypatch.delattr(os, "fork")
    serial = verify.run_suite(pair, 1).text()
    monkeypatch.undo()
    calls = _logged_coupling(monkeypatch, tmp_path, killed_in_child)
    forks = _counted_forks(monkeypatch)
    assert verify.run_suite(pair, 1).text() == serial
    assert len(forks) == 2
    _ran_in_its_child_then_here(calls)
    _no_child_left()


def test_coupling_identity_raising_in_its_child_raises_here(monkeypatch, tmp_path):
    def boom(in_child):
        raise ValueError("coupling")

    calls = _logged_coupling(monkeypatch, tmp_path, boom)
    forks = _counted_forks(monkeypatch)
    with pytest.raises(ValueError) as err:
        verify.run_suite(lie.builtin("se2"), 1)
    assert type(err.value) is ValueError and err.value.args == ("coupling",)
    assert err.traceback[-1].name == "boom"
    assert len(forks) == 2
    _ran_in_its_child_then_here(calls)
    _no_child_left()


@pytest.mark.parametrize("exc", [ValueError("blift"), KeyboardInterrupt()])
def test_section_raising_here_reaps_the_child(monkeypatch, exc):
    # the child is still integrating when action-law raises, and is killed
    def raises(pair, seed):
        raise exc

    _replace_section(monkeypatch, "blift: action-law", raises)
    forks = _counted_forks(monkeypatch)
    with pytest.raises(type(exc)):
        verify.run_suite(lie.builtin("galilean"), 1)
    assert len(forks) == 1
    _no_child_left()


def test_moment_hamilton_compiles_once_per_pair_not_per_sample(monkeypatch):
    # the generators and d(mu_a) are compiled together once; each of the 25
    # sampled X only contracts them, where a compile per draw would give 25
    pair = lie._se2()  # a fresh pair, nothing compiled for it yet
    calls = []
    compile_exprs = ex.compile_exprs

    def counted(exprs, names):
        calls.append(len(exprs))
        return compile_exprs(exprs, names)

    monkeypatch.setattr(ex, "compile_exprs", counted)
    resid, tol = verify._sec_moment_hamilton(pair, 1)
    assert resid <= tol
    assert len(calls) == 1


def test_suite_builds_one_symbolic_adjoint_per_subgroup(monkeypatch):
    # the compiled adjoint, the invariant momenta and both deformed
    # connections read the subgroup's one cached adjoint_sym
    built = []
    adjoint = lie.adjoint_matrix_sym

    def counted(G, params):
        built.append(G)
        return adjoint(G, params)

    for mod in [m for n, m in sys.modules.items() if n.startswith("bsymp")]:
        if getattr(mod, "adjoint_matrix_sym", None) is adjoint:
            monkeypatch.setattr(mod, "adjoint_matrix_sym", counted)
    pair = lie._se2()  # a fresh pair, nothing built for it yet
    assert verify.run_suite(pair).passed
    assert built == [pair.h_group]


def test_symplectic_verdicts_read_one_on_a_singular_form(monkeypatch):
    # both sections decide exactly: 0.0 on the real forms, 1.0 when the form
    # they read is singular, or, for the model, nondegenerate with another
    # inverse
    pair = lie._se2()  # a fresh pair, so its action is not shared
    assert verify._sec_normal_form_model(pair, 42) == (0.0, 1e-9)
    assert verify._sec_canonical_layout(pair, 42) == (0.0, 0.0)
    act = red._action(pair)
    n = act.cot.n
    act.__dict__["omega"] = bcalc.BForm(act.cot.chart, 2, {(0, n): ex.ONE})
    assert verify._sec_canonical_layout(pair, 42) == (1.0, 0.0)
    model = bcalc.bdarboux_model(3)
    dropped = bcalc.BForm(model.chart, 2, {(0, 1): ex.ONE, (2, 3): ex.ONE})
    for wrong in (dropped, model.scaled(2)):
        monkeypatch.setattr(bcalc, "bdarboux_model", lambda n: wrong)
        assert verify._sec_normal_form_model(pair, 42) == (1.0, 1e-9)


def test_failing_section_is_named():
    bad = lie.LieAlgebra(
        labels=("X", "Y", "Z"),
        constants={
            (0, 1): {2: Fraction(1)},
            (1, 0): {2: Fraction(-1)},
            (1, 2): {0: Fraction(1), 2: Fraction(1)},
            (2, 1): {0: Fraction(-1), 2: Fraction(-1)},
            (2, 0): {1: Fraction(1)},
            (0, 2): {1: Fraction(-1)},
        })
    rep = verify.run_suite(bad)
    assert not rep.passed
    assert "lie: Jacobi" in rep.failing()
    assert any(line.startswith("FAIL | lie: Jacobi") for line in rep.lines())


@pytest.mark.parametrize("group,seed", [
    ("se2", 107), ("heisenberg_q(2)", 103), ("galilean", 106)])
def test_energy_drift_shrinks_start_until_horizon_holds(group, seed):
    # a phi*p term in H escapes in finite time and each halving of x0 only
    # doubles the exit time: these seeds need more than six halvings
    resid, tol = verify._sec_energy_drift(lie.builtin(group),
                                          seed)
    assert math.isfinite(resid) and resid <= tol


def test_energy_drift_fails_cleanly_when_halvings_run_out(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_ENERGY_DRIFT_HALVINGS", 0)
    assert cli.main(["verify", "--group", "se2", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL | dynamics: energy-drift | residual: inf" in out
    assert out.rstrip().endswith("result: fail: dynamics: energy-drift")


def test_energy_drift_fails_on_an_invariant_error(monkeypatch):
    # an H that is not finite at the start once gave a nan drift, which the
    # running max(0.0, nan) dropped, so the section passed
    monkeypatch.setattr(verify, "_poly",
                        lambda rng, names: ex.parse("p + mu_P1*10^200*mu_P1*10^200"))
    assert verify._sec_energy_drift(lie.builtin("se2"), 1) == (math.inf, 1e-6)


def _one_nan(real, index):
    """real, with its result's entry at index made NaN: one bad sample."""
    def patched(*args):
        out = np.array(real(*args), dtype=float)
        out[index] = math.nan
        return out
    return patched


@pytest.mark.parametrize("section,module,name,index", [
    ("blift: action-law", lie, "param_distance", (17,)),
    ("blift: moment-equivariance", lie, "coadjoint_star", (0, 42)),
    ("reduction: connection-axioms", red, "_axiom_residual", ()),
    ("reduction: splitting-roundtrip", red, "psi_theta_inverse", (1, 5)),
    ("reduction: coupling-identity", red, "coupling_identity_residual", (123,)),
    ("reduction: connection-independence", red, "connection_independence_residual", (9,)),
])
def test_a_nan_sample_fails_its_section(section, module, name, index, monkeypatch):
    # the running maximum once started at 0.0, and max(0.0, nan) is 0.0
    pair = lie.builtin("se2")
    fn = dict(verify.GROUP_SECTIONS)[section]
    monkeypatch.setattr(module, name, _one_nan(getattr(module, name), index))
    resid, tol = fn(pair, 1)
    assert math.isnan(resid)
    assert not verify.SectionResult(section, resid, tol).ok


def test_worst_keeps_nan():
    assert verify._worst([0.0, 1e-16], np.array([[0.5, 0.25]])) == 0.5
    assert math.isnan(verify._worst([0.0, 1e-16], np.array([[math.nan, 0.25]])))
