"""Command line front end: config handling, exit codes, determinism.

Exit contract: 0 success, 1 verification/runtime failure, 2 config error.
Everything runs in-process through main(argv).
"""

import json
import math
import os

import pytest

import bsymp.expr as ex
from bsymp import cli, dynamics as dyn

SO3 = {"labels": ["X", "Y", "Z"],
       "constants": [[0, 1, 2, "1"], [1, 2, 0, "1"], [2, 0, 1, "1"]]}

# same table with a spurious Z-term mixed into [Y,Z]: Jacobi fails
CORRUPT = {"labels": ["X", "Y", "Z"],
           "constants": [[0, 1, 2, "1"], [1, 2, 0, "1"],
                         [1, 2, 2, "1"], [2, 0, 1, "1"]]}


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


# ---------------------------------------------------------------------------
# describe


def test_describe_builtin(capsys):
    assert cli.main(["describe"]) == 0
    out = capsys.readouterr().out
    assert "summary: dim G=3, dim H=2" in out
    assert "labels: P1,P2,J" in out
    assert "transverse-coordinate: phi" in out
    assert "bracket[P2,J]: 1*P1" in out


def test_describe_custom_algebra(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": SO3})
    assert cli.main(["describe", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "dim g=3, no group chart" in out
    assert "bracket[X,Y]: 1*Z" in out


def test_cancelling_constants_read_as_zero(tmp_path, capsys):
    # [X,Y] is stated twice and sums to 0: it prints as 0, its table row is
    # zeros, the Lie-Poisson bivector has no (X, Y) entry, and verify passes
    spec = {"labels": ["X", "Y", "Z"], "constants": [[0, 1, 2, 1], [0, 1, 2, -1], [0, 2, 1, "1/2"]]}
    cfg = write_config(tmp_path, {"group": spec})
    assert cli.main(["describe", "--config", cfg]) == 0
    assert capsys.readouterr().out == (
        "name: algebra(X,Y,Z)\nsummary: dim g=3, no group chart\nlabels: X,Y,Z\n"
        "bracket[X,Y]: 0\nbracket[X,Z]: 1/2*Y\nbracket[Y,Z]: 0\n")
    out = tmp_path / "t.csv"
    assert cli.main(["bracket-table", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == "i,j,X,Y,Z\nX,Y,0,0,0\nX,Z,0,1/2,0\nY,Z,0,0,0\n"
    alg, _ = cli._algebra_from_config(spec)
    assert list(alg.lie_poisson.entries) == [(0, 2)]
    assert cli.main(["verify", "--config", cfg]) == 0
    assert capsys.readouterr().out.endswith("result: pass\n")


def test_group_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": SO3})
    assert cli.main(["describe", "--config", cfg, "--group", "galilean"]) == 0
    out = capsys.readouterr().out
    assert "dim G=10, dim H=9" in out


# ---------------------------------------------------------------------------
# verify and the exit-code contract


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, {})
    assert cli.main(["verify", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert "result: pass" in first
    assert "lie: Jacobi" in first
    assert "reduction: coupling-identity" in first
    assert "dynamics: flow-endpoint" in first
    assert cli.main(["verify", "--config", cfg]) == 0
    assert capsys.readouterr().out == first


def test_verify_seed_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": SO3})
    assert cli.main(["verify", "--config", cfg, "--seed", "7"]) == 0
    assert "seed: 7" in capsys.readouterr().out


@pytest.mark.parametrize("argv, data, seed", [
    (["--seed", "-1"], {}, -1),
    ([], {"seed": -3}, -3),
])
def test_verify_accepts_negative_seeds(tmp_path, argv, data, seed, capsys):
    cfg = write_config(tmp_path, data)
    assert cli.main(["verify", "--config", cfg, *argv]) == 0
    assert f"seed: {seed}" in capsys.readouterr().out


def test_corrupted_constants_fail_jacobi(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": CORRUPT})
    assert cli.main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL | lie: Jacobi" in out
    assert "result: fail" in out


def test_large_constants_pass_lie_poisson_jacobi(tmp_path, capsys):
    # exact Jacobi holds, and the Lie-Poisson section is exact too: it
    # reads 0 on the coordinate triples, whatever the size of the constants
    big = {"labels": ["X", "Y", "Z"],
           "constants": [[0, 1, 2, 10 ** 200], [1, 2, 0, 1], [2, 0, 1, 1]]}
    cfg = write_config(tmp_path, {"group": big})
    assert cli.main(["verify", "--config", cfg]) == 0
    assert "ok | lie: Lie-Poisson-Jacobi" in capsys.readouterr().out


def test_algebra_only_runs_lie_sections(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": SO3})
    assert cli.main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "lie: Lie-Poisson-Jacobi" in out
    assert "reduction:" not in out and "dynamics:" not in out


def test_matrix_basis_cross_check(tmp_path, capsys):
    # so(3) basis matrices matching the constants above
    basis = [[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
             [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
             [[0, -1, 0], [1, 0, 0], [0, 0, 0]]]
    cfg = write_config(tmp_path, {"group": {**SO3, "basis": basis}})
    assert cli.main(["verify", "--config", cfg]) == 0
    assert "lie: commutator-match" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["describe"], ["verify"]])
@pytest.mark.parametrize("basis", [[[[0, 1], [0, 0]], [[0, 2], [0, 0]]],
                                   [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]],
                         ids=["dependent", "zero-matrix"])
def test_dependent_basis_exits_2(tmp_path, argv, basis, capsys):
    cfg = write_config(tmp_path, {"group": {"labels": ["X", "Y"], "constants": [],
                                            "basis": basis}})
    assert cli.main([*argv, "--config", cfg]) == 2
    assert capsys.readouterr() == ("", "config error: group.basis: "
                                       "basis matrices are linearly dependent\n")


@pytest.mark.parametrize("data", [
    {"group": 7},
    {"group": {"labels": ["X"], "constants": "nope"}},
    {"group": {"labels": ["X", "Y"], "constants": [[0, 1, 5, "1"]]}},
    {"unknown-key": 1},
    {"seed": "forty-two"},
    {"verify": {"tolerance": -1}},
    {"connection": {"xi": [1, 2]}},
])
def test_config_errors_exit_2(tmp_path, data, capsys):
    cfg = write_config(tmp_path, data)
    assert cli.main(["verify", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def _under_verify(row: int, data: dict, written: str, key: str = "verify"):
    """A row that writes a key under `verify`, a root key no config takes:
    the error names `verify`, and the id names the key the row writes."""
    return pytest.param(["verify"], data, key, id=f"argv{row}-data{row}-{written}")


@pytest.mark.parametrize("argv, data, key", [
    _under_verify(0, {"verify": {"samples": "abc"}}, "verify.samples"),
    _under_verify(1, {"verify": {"samples": 1.5}}, "verify.samples"),
    _under_verify(2, {"verify": {"tolerance": "x"}}, "verify.tolerance"),
    _under_verify(3, {"verify": {"tolerance": math.nan}}, "verify.tolerance"),
    (["verify", "--tolerance", "nan"], {}, "--tolerance"),
    (["verify"], {"seed": True}, "seed"),
    (["describe"], {"group": {"builtin": "heisenberg_q", "n": "x"}}, "group.n"),
    (["flow"], {"flow": {"dt": "abc"}}, "flow.dt"),
    (["flow"], {"flow": {"x0": [0.0, 0.0, math.nan, 0.0]}}, "flow.x0[2]"),
    (["reduce"], {"connection": {"xi": ["a", 0], "scale": "1"}}, "connection.xi[0]"),
    (["describe"], {"group": {"labels": ["X", "Y"],
                              "constants": [[0, 1, 0, math.inf]]}}, "group.constants[0]"),
    (["flow"], {"flow": {"casimirs": ["mu_P1"]}}, "flow.casimirs"),
    (["verify"], {"group": {"labels": ["X", "Y"], "constants": [],
                            "basis": [[[1]], [[2]]]}}, "group.basis"),
    (["reduce"], {"out_dir": "no-such-dir/below"}, "out_dir"),
    (["flow"], {"out_dir": "no-such-dir/below"}, "out_dir"),
    (["bracket-table"], {"out_dir": "no-such-dir/below"}, "out_dir"),
    (["reduce", "--out", "."], {}, "--out"),
    (["flow"], {"flow": {"casimirs": {"c": "q_7"}}}, "flow.casimirs.c"),
    (["flow"], {"flow": {"casimirs": {"c": "mu_P1 +"}}}, "flow.casimirs.c"),
    (["flow"], {"flow": {"hamiltonian": "p +"}}, "flow.hamiltonian"),
    (["flow"], {"flow": {"hamiltonian": "q_7"}}, "flow.hamiltonian"),
    (["flow"], {"flow": {"hamiltonian": "(" * 400 + "p" + ")" * 400}}, "flow.hamiltonian"),
    (["flow"], {"flow": {"hamilton": "p"}}, "flow.hamilton"),
    _under_verify(23, {"verify": {"sample": 5}}, "verify.sample"),
    (["reduce"], {"connection": {"xi": [0, 0], "scale": "1", "bleg": True}},
     "connection.bleg"),
    (["flow"], {"flow": {"T": 1e4, "dt": 1e-3}}, "flow.T"),
    (["flow"], {"flow": {"T": 1e300, "dt": 1e-300}}, "flow.T"),
    (["flow"], {"flow": {"dt": 0}}, "flow.dt"),
    (["flow"], {"flow": {"method": "euler"}}, "flow.method"),
    (["flow"], {"flow": {"substitution": "false"}}, "flow.substitution"),
    (["flow"], {"flow": {"substitution": 1}}, "flow.substitution"),
    (["flow"], {"flow": {"casimirs": {"c": "log(mu_P1)"}, "x0": [-0.5, 0.0, 1.0, 0.0]}},
     "flow.casimirs.c"),
    (["flow"], {"flow": {"hamiltonian": "p + log(mu_P1)", "x0": [-0.5, 0.0, 1.0, 0.0]}},
     "flow.hamiltonian"),
    (["reduce"], {"connection": {"xi": [0.1, 0.2], "scale": "1", "b_leg": "false"}},
     "connection.b_leg"),
    (["reduce"], {"connection": {"xi": [0.1, 0.2], "scale": [1]}}, "connection.scale"),
    (["reduce"], {"connection": {"xi": [0.1, 0.2], "scale": "1 +"}}, "connection.scale"),
    (["reduce"], {"connection": {"xi": [0.1, 0.2], "scale": "1 + b1"}}, "connection.scale"),
    (["describe"], {"group": {"builtin": "heisenberg_q", "n": 40}},
     "heisenberg_q(n) needs 1 <= n <= 16, got 40"),
    (["describe"], {"group": "heisenberg_q(40)"}, "heisenberg_q(n) needs 1 <= n <= 16, got 40"),
    (["describe", "--group", "heisenberg_q(40)"], {},
     "heisenberg_q(n) needs 1 <= n <= 16, got 40"),
    (["flow"], {"flow": {"hamiltonian": "p*3^1000"}}, "flow.hamiltonian"),
    (["flow"], {"flow": {"hamiltonian": "p*(1/3)^30000000"}}, "flow.hamiltonian"),
    (["flow"], {"flow": {"casimirs": {"c": "mu_P1*" + "9" * 5000}}}, "flow.casimirs.c"),
    (["reduce"], {"connection": {"xi": [0.1, 0.2], "scale": "3^1000"}}, "connection.scale"),
    (["reduce"], {"connection": {"xi": [0.1, 0.2], "scale": "1" * 5000}}, "connection.scale"),
    (["verify"], {"group": {"labels": ["X", "X", "Z"], "constants": [[0, 2, 1, 1]]}},
     "group.labels"),
    (["flow"], {"flow": {"hamiltonian": "mu_P1^99999999999"}}, "flow.hamiltonian"),
    (["reduce"], {"connection": {"xi": [0.3, 0.1], "scale": "exp(2000*phi)"}},
     "connection.scale cannot be evaluated at phi=0.659548: float overflow"),
    (["reduce"], {"connection": {"xi": [0.3, 0.1], "scale": "1/phi"}},
     "connection.scale cannot be evaluated at phi=0: division by zero"),
    (["verify"], {"group": {**SO3, "basiss": []}}, "group.basiss"),
    (["describe"], {"group": {"builtin": "se2", "nn": 2}}, "group.nn"),
    (["flow"], {"flow": {"casimirs": {"a,b": "mu_P1", "H": "mu_P2"}}}, "flow.casimirs.a,b"),
    (["flow"], {"flow": {"casimirs": {"H": "mu_P2"}}}, "flow.casimirs.H"),
    (["flow"], {"flow": {"casimirs": {"t": "mu_P2"}}}, "flow.casimirs.t"),
    (["flow"], {"flow": {"casimirs": {"phi": "mu_P2"}}}, "flow.casimirs.phi"),
    (["flow"], {"flow": {"hamiltonian": "_p"}}, "flow.hamiltonian"),
    (["describe"], {"group": {"labels": ["X", "Y"], "constants": [[0, 1, 0, "1e5000"]]}},
     "group.constants[0]: unexpected 'e5000'"),
    (["bracket-table"], {"group": {"labels": ["X", "Y"], "constants": [[0, 1, 0, "1e5000"]]}},
     "group.constants[0]: unexpected 'e5000'"),
    (["verify"], {"group": {"labels": ["X", "Y"], "constants": [[0, 1, 0, "1e5000"]]}},
     "group.constants[0]: unexpected 'e5000'"),
    (["describe"], {"group": {"labels": ["X", "Y"], "constants": [[0, 1, 0, "1e100000000"]]}},
     "group.constants[0]"),
    (["verify"], {"group": {"labels": ["X", "Y"], "constants": [[0, 1, 0, 10 ** 400]]}},
     "group.constants[0]: constant too large for a float"),
    (["verify"], {"group": {"labels": ["X", "Y"], "constants": [[0, 1, 0, "9" * 5000]]}},
     "group.constants[0]: number has too many digits"),
    (["verify"], {"group": {"labels": ["X", "Y"], "constants": [[0, 1, 0, "1/2 + x"]]}},
     "group.constants[0] must be an integer or a rational string"),
    (["verify"], {"group": {"labels": ["X", "Y"], "constants": [],
                            "basis": [[[0, 1], [0, 0]], [[0, 0], ["1e400", 0]]]}},
     "group.basis[1][1][0]"),
    (["flow"], {"flow": {"dt": 10 ** 400}}, "flow.dt must be finite"),
    (["reduce"], {"connection": {"xi": [10 ** 400, 0], "scale": "1"}},
     "connection.xi[0] must be finite"),
    (["verify"], {"group": {"labels": ["X", "Y"], "constants": [],
                            "basis": [[[0, 1], [0, 0]], [[0, 0], ["1/100000000000", 0]]]}},
     "group.basis: matrix not in basis span (residual 1.000e-11)"),
    (["verify"], {"group": {"labels": ["X", "Y"], "constants": [],
                            "basis": [[[0, 10 ** 300], [0, 0]], [[0, 0], [10 ** 300, 0]]]}},
     "group.basis: matrix not in basis span (residual inf)"),
    _under_verify(68, {"verify": {"tolerance": 1e-8}}, "verify.tolerance: unknown key",
                  "verify: unknown key; a config takes"),
    (["describe"], {"group": {"labels": ["X", "Y"], "constants": [[True, 0, 1, "1"]]}},
     "group.constants[0]: index out of range"),
    (["bracket-table"], {"group": {"labels": ["a,b", "Y"], "constants": []}},
     "group.labels[0] must be a name"),
    (["describe"], {"group": {"labels": ["X", ""], "constants": []}},
     "group.labels[1] must be a name"),
    (["verify"], {"group": {"labels": ["X", "Y", "Z\nQ"], "constants": []}},
     "group.labels[2] must be a name"),
])
def test_malformed_numbers_exit_2_naming_the_key(tmp_path, argv, data, key, capsys):
    cfg = write_config(tmp_path, data)
    assert cli.main([*argv, "--config", cfg]) == 2
    err = capsys.readouterr().err
    if key == "--tolerance":
        # the flag is gone: argparse refuses it before any config is read
        assert f"error: unrecognized arguments: {key}" in err
    else:
        assert err.startswith(f"config error: {key}")


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.load refuses a 5001-digit integer with a plain ValueError, before
    # any key is read
    p = tmp_path / "cfg.json"
    p.write_text('{"seed": ' + "9" * 5001 + "}")
    assert cli.main(["verify", "--config", str(p)]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON")


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["describe", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["verify", "--config", str(tmp_path / "nope.json")]) == 2


def test_unknown_command_exits_2(capsys):
    assert cli.main(["explode"]) == 2
    capsys.readouterr()


def test_tolerance_flag_is_refused(capsys):
    # no flag or config key moves a section's tolerance
    for value in ("1e-8", "-3"):
        assert cli.main(["verify", "--tolerance", value]) == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# reduce


def test_reduce_se2_table(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli.main(["reduce", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "first,second,bracket"
    assert "phi,p,phi" in lines
    zeros = [ln for ln in lines[1:] if ln != "phi,p,phi"]
    assert all(ln.endswith(",0") for ln in zeros)
    assert len(lines) == 1 + 6


def test_reduce_heisenberg_table(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli.main(["reduce", "--group", "heisenberg_q(1)",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert "a1,p,a1" in lines
    assert "mu_Y1,mu_Z,0" in lines


def test_reduce_galilean_has_dual_block(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli.main(["reduce", "--group", "galilean", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert "mu_J1,mu_J2,-mu_J3" in lines
    assert "mu_K1,mu_K2,0" in lines
    assert "s,p,s" in lines


def test_reduce_with_deformed_connection(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "connection": {"xi": [0.3, -0.2], "scale": "1 + phi^2",
                       "b_leg": True}})
    out = tmp_path / "r.csv"
    assert cli.main(["reduce", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert "phi,p,phi" in out.read_text()


def test_reduce_needs_group_chart(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": SO3})
    assert cli.main(["reduce", "--config", cfg]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# flow


def test_flow_default_reaches_e(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--out", str(out)]) == 0
    txt = capsys.readouterr().out
    assert "sign-constant: true" in txt
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,mu_P1,mu_P2,phi,p,H"
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[3] - math.e) <= 1e-6
    assert len(lines) == 1 + 1001


def test_flow_slice_start_writes_exact_zeros(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "flow": {"hamiltonian": "p^2/2 + mu_P1", "x0": [0.3, 0.1, 0.0, 0.4],
                 "dt": 0.01, "T": 0.5}})
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 0
    assert "on-slice: true" in capsys.readouterr().out
    for ln in out.read_text().strip().split("\n")[1:]:
        assert ln.split(",")[3] == "0.0"


def test_flow_byte_identical_reruns(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "flow": {"hamiltonian": "p^2/2 + a1*mu_Y1", "dt": 0.01, "T": 1.0,
                 "x0": [0.2, -0.3, 0.7, 0.1],
                 "casimirs": {"center": "mu_Z"}},
        "group": "heisenberg_q(1)"})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["flow", "--config", cfg, "--out", str(a)]) == 0
    first = capsys.readouterr().out.replace(str(a), "OUT")
    assert cli.main(["flow", "--config", cfg, "--out", str(b)]) == 0
    second = capsys.readouterr().out.replace(str(b), "OUT")
    assert a.read_bytes() == b.read_bytes()
    assert first == second
    assert a.read_text().strip().split("\n")[0].endswith(",H,center")


def test_flow_bad_hamiltonian_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"flow": {"hamiltonian": "p +"}})
    assert cli.main(["flow", "--config", cfg]) == 2
    cfg2 = write_config(tmp_path, {"flow": {"hamiltonian": "q_7"}}, "c2.json")
    assert cli.main(["flow", "--config", cfg2]) == 2
    cfg3 = write_config(tmp_path, {"flow": {"x0": [1.0]}}, "c3.json")
    assert cli.main(["flow", "--config", cfg3]) == 2
    capsys.readouterr()


def test_flow_of_a_long_hamiltonian_sum(tmp_path, capsys):
    # 1500 terms parse to an Add chain 1500 deep: no pass may recurse on it
    H = " + ".join(f"{k}/1000000*p^2" for k in range(1, 1501)) + " + mu_P1"
    cfg = write_config(tmp_path, {"flow": {"hamiltonian": H, "dt": 0.01, "T": 0.1}})
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,mu_P1,mu_P2,phi,p,H"
    assert len(lines) == 1 + 11


def test_flow_invariant_failure_names_key_and_time(tmp_path, capsys):
    # H = phi gives p' = -phi = -1, so log(p) fails once p reaches 0 at t = 0.5
    cfg = write_config(tmp_path, {"flow": {"hamiltonian": "phi", "x0": [0.0, 0.0, 1.0, 0.5],
                                           "dt": 0.01, "T": 1.0,
                                           "casimirs": {"ok": "mu_P1", "lp": "log(p)"}}})
    assert cli.main(["flow", "--config", cfg, "--out", str(tmp_path / "f.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: flow.casimirs.lp cannot be evaluated at t=0.5")
    assert "log of a non-positive value" in err


@pytest.mark.parametrize("flow,message", [
    ({"hamiltonian": "p + 10^200*mu_P1*10^200*mu_P1"},
     "flow.hamiltonian is not finite at t=0: inf"),
    ({"casimirs": {"ok": "mu_P1", "big": "mu_P1*10^200*10^200 - 10^200*mu_P1*10^200"}},
     "flow.casimirs.big is not finite at t=0: nan"),
])
def test_flow_invariant_not_finite_at_the_start_is_a_config_error(tmp_path, capsys, flow,
                                                                  message):
    # it once exited 0 with a nan drift and a numpy warning on stderr
    cfg = write_config(tmp_path, {"group": "se2", "flow": {"x0": [1, 0, 1, 0], "T": 0.01,
                                                           "dt": 0.001, **flow}})
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("extra", [{}, {"method": "midpoint"}, {"substitution": True}])
def test_flow_evaluates_invariants_once(tmp_path, capsys, monkeypatch, extra):
    # one generated function runs the field and [H, *casimirs] for the whole
    # flow, with no compile_exprs beside it; the CSV only reads
    compiles, generated, trajectories, during_csv = [], [], [], []
    compile_exprs, generate = ex.compile_exprs, dyn._generate_flow
    integrate, write_csv = dyn.integrate, dyn.write_csv

    def counted(exprs, names):
        compiles.append(len(exprs))
        return compile_exprs(exprs, names)

    def generated_counted(vf, invariants, *args):
        generated.append(len(invariants))
        return generate(vf, invariants, *args)

    def kept(*args, **kwargs):
        trajectories.append(integrate(*args, **kwargs))
        return trajectories[-1]

    def watched(*args, **kwargs):
        before = len(compiles) + len(generated)
        write_csv(*args, **kwargs)
        during_csv.append(len(compiles) + len(generated) - before)

    monkeypatch.setattr(ex, "compile_exprs", counted)
    monkeypatch.setattr(dyn, "_generate_flow", generated_counted)
    monkeypatch.setattr(dyn, "integrate", kept)
    monkeypatch.setattr(dyn, "write_csv", watched)
    cfg = write_config(tmp_path, {"flow": {"hamiltonian": "p^2/2 + 0.3*phi*mu_P1 + mu_P2",
                                           "x0": [0.4, -0.2, 0.5, 0.3], "dt": 0.01, "T": 1.0,
                                           "casimirs": {"m1": "mu_P1^2"}, **extra}})
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert compiles == [] and generated == [2] and during_csv == [0]
    tr, = trajectories
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,mu_P1,mu_P2,phi,p,H,m1"
    got = [float(v) for ln in lines[1:] for v in ln.split(",")[-2:]]
    assert got == tr.invariants.tolist()
    assert len(tr.invariants) == 101 * 2


def test_flow_prints_configured_casimir_drifts(tmp_path, capsys, monkeypatch):
    # after the structural lines, one line per flow.casimirs label in config
    # order; a label may not be a coordinate name, so no two lines share one
    trajectories = []
    integrate = dyn.integrate

    def kept(*args, **kwargs):
        trajectories.append(integrate(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(dyn, "integrate", kept)
    cfg = write_config(tmp_path, {"flow": {"hamiltonian": "p^2/2 + 0.3*phi*mu_P1 + mu_P2",
                                           "x0": [0.4, -0.2, 0.5, 0.3], "dt": 0.01, "T": 1.0,
                                           "casimirs": {"w": "mu_P1^2 + p", "m1": "mu_P1"}}})
    assert cli.main(["flow", "--config", cfg, "--out", str(tmp_path / "f.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    tr, = trajectories
    assert tr.casimir_drifts[0] > 0.0
    assert lines[-3:] == [f"drift[w]: {tr.casimir_drifts[0]!r}",
                          f"drift[m1]: {tr.casimir_drifts[1]!r}",
                          f"wrote: {tmp_path / 'f.csv'}"]
    assert [ln for ln in lines if ln.startswith("drift[mu_P1]: ")] == ["drift[mu_P1]: 0.0"]


def test_flow_chart_exit_returns_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "flow": {"hamiltonian": "phi * p", "x0": [0.0, 0.0, 2.0, 2.0],
                 "dt": 0.05, "T": 40.0}})
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 1
    assert "left the chart" in capsys.readouterr().err


def test_flow_chart_exit_after_handed_off_blocks_leaves_no_child(tmp_path, capsys,
                                                                 monkeypatch):
    # 8000 steps in blocks of 1000; the flow escapes in the sixth block,
    # after five were handed to children that format their rows
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    cfg = write_config(tmp_path, {
        "flow": {"hamiltonian": "phi * p", "x0": [0.0, 0.0, 2.0, 2.0],
                 "dt": 0.0001, "T": 0.8}})
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "flow left the chart: H became non-finite at t=0.5002\n")
    assert len(forks) == 5 and not out.exists()
    _no_child_left()


FLOW_CSV_CASES = {
    "default galilean": {"group": "galilean"},
    "galilean 9000 steps": {"group": "galilean", "flow": {"T": 9.0}},
    "se2 midpoint substitution": {"flow": {"hamiltonian": "p^2/2 + 0.3*phi*mu_P1 + mu_P2",
                                           "x0": [0.4, -0.2, 0.5, 0.3], "dt": 0.001,
                                           "T": 3.0, "method": "midpoint",
                                           "substitution": True,
                                           "casimirs": {"m1": "mu_P1^2", "m2": "mu_P2"}}},
    "2 rows": {"flow": {"dt": 0.5, "T": 0.5}},
    "3 rows": {"flow": {"dt": 0.5, "T": 1.0}},
}


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no fork"])
@pytest.mark.parametrize("case", FLOW_CSV_CASES)
def test_flow_csv_is_the_serial_csv(case, fork, tmp_path, capsys, monkeypatch):
    # a flow forks a child per block but the last while it runs, blocks of
    # at least BLOCK_STEPS, at most BLOCKS of them; a flow too short for two
    # hands nothing off and forks nothing
    from test_dynamics import serial_csv
    trajectories, forks = [], []
    integrate, fork_ = dyn.integrate, getattr(os, "fork", None)

    def kept(*args, **kwargs):
        trajectories.append(integrate(*args, **kwargs))
        return trajectories[-1]

    def counted():
        forks.append(os.getpid())
        return fork_()

    monkeypatch.setattr(dyn, "integrate", kept)
    if fork:
        monkeypatch.setattr(os, "fork", counted)
    else:
        monkeypatch.delattr(os, "fork")
    data = FLOW_CSV_CASES[case]
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    capsys.readouterr()
    tr, = trajectories
    labels = list(data.get("flow", {}).get("casimirs", {}))
    assert out.read_text() == serial_csv(tr, labels)
    blocks = max(1, min(dyn.BLOCKS, (len(tr.times) - 1) // dyn.BLOCK_STEPS))
    assert len(forks) == (0 if not fork else blocks - 1)
    _no_child_left()


def test_flow_through_sin_of_infinity_leaves_the_chart(tmp_path, capsys):
    # p overflows within the first step and sin(p) reads the inf; this used
    # to end in a ValueError traceback instead of a chart exit
    cfg = write_config(tmp_path, {
        "group": "se2",
        "flow": {"hamiltonian": "phi^8*p + sin(p)", "x0": [0, 0, 3, 1], "dt": 1, "T": 50}})
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "flow left the chart: field evaluation failed at t=0: sin or cos of an infinite value\n")
    assert not out.exists()


def test_flow_whose_field_overflows_mid_run_leaves_the_chart(tmp_path, capsys):
    # phi' = phi^2 escapes at t = 1/2; the next step's phi^2 overflows a
    # float, which used to surface as CPython's errno tuple
    cfg = write_config(tmp_path, {"group": "se2",
                                  "flow": {"hamiltonian": "phi^2*p", "T": 5.0}})
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "flow left the chart: field evaluation failed at t=0.501: float overflow\n")
    assert not out.exists()


@pytest.mark.parametrize("casimir", ["phi^200", "phi^100*phi^100", "sin(phi^100*phi^100)",
                                     "cos(phi^100*phi^100)", "sin(phi^200)"])
def test_flow_whose_casimir_overflows_mid_run_leaves_the_chart(tmp_path, capsys, casimir):
    # phi = 2 e^t passes 10^(308/200) at t = 2.86: float ** raises there,
    # float * gives inf and sin or cos of that inf raises, and every
    # spelling is the state escaping
    cfg = write_config(tmp_path, {"group": "se2", "flow": {
        "hamiltonian": "p", "x0": [0, 0, 2, 0], "T": 5, "dt": 0.01, "casimirs": {"c": casimir}}})
    out = tmp_path / "f.csv"
    assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"flow left the chart: Casimir {casimir} became non-finite at t=2.86\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# bracket-table and output routing


def test_bracket_table_se2(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert cli.main(["bracket-table", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "i,j,P1,P2,J"
    assert "P2,J,1,0,0" in lines
    assert "P1,P2,0,0,0" in lines


def test_bracket_table_galilean_boost_energy(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert cli.main(["bracket-table", "--group", "galilean",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    rows = {tuple(ln.split(",")[:2]): ln.split(",")[2:]
            for ln in out.read_text().strip().split("\n")[1:]}
    labels = out.read_text().strip().split("\n")[0].split(",")[2:]
    row = rows[("K1", "E")]
    assert row[labels.index("P1")] == "1"
    assert all(v == "0" for i, v in enumerate(row) if labels[i] != "P1")


def test_env_var_sets_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
    assert cli.main(["bracket-table"]) == 0
    capsys.readouterr()
    assert (tmp_path / "bracket_table.csv").exists()


# ---------------------------------------------------------------------------
# output files that cannot be written

needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
WRITERS = [["flow", "--group", "galilean"], ["reduce", "--group", "galilean"],
           ["bracket-table", "--group", "galilean"]]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_dev_full
@pytest.mark.parametrize("argv", WRITERS, ids=lambda a: a[0])
def test_full_out_file_exits_2_naming_the_flag(argv, capsys):
    # flow's writer child is killed and reaped on this path too
    assert cli.main([*argv, "--out", "/dev/full"]) == 2
    assert capsys.readouterr() == ("", "config error: --out: cannot write '/dev/full': "
                                       "No space left on device\n")
    _no_child_left()


@needs_dev_full
@pytest.mark.parametrize("source", ["out_dir", cli.ENV_OUT_DIR])
@pytest.mark.parametrize("argv", WRITERS, ids=lambda a: a[0])
def test_full_out_file_names_the_directory_key(source, argv, tmp_path, capsys, monkeypatch):
    path = tmp_path / cli._DEFAULT_NAMES[argv[0]]
    path.symlink_to("/dev/full")
    data = {}
    if source == "out_dir":
        data["out_dir"] = str(tmp_path)
    else:
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
    assert cli.main([*argv, "--config", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == (f"config error: {source}: cannot write '{path}': "
                                       "No space left on device\n")
    _no_child_left()
