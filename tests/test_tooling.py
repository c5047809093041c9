"""Tooling guards: exported names, the README's flag list and config
block, and the benchmark scripts that reach into bsymp.

The tracer and the node counter under bench/ find their targets by name.
A renamed function or member would silently drop its span or its count,
so these tests run both scripts the way the benchmark does.
"""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import bsymp
from bsymp import cli, lie, verify

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    exporting = 0
    for info in pkgutil.iter_modules(bsymp.__path__):
        mod = importlib.import_module("bsymp." + info.name)
        names = getattr(mod, "__all__", ())
        assert [n for n in names if not hasattr(mod, n)] == [], info.name
        exporting += bool(names)
    assert exporting >= 4


def test_every_type_hint_resolves():
    # each annotation names something the module can see at run time, so
    # typing.get_type_hints reads every class and function bsymp defines
    checked = 0
    for info in pkgutil.iter_modules(bsymp.__path__):
        mod = importlib.import_module("bsymp." + info.name)
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            targets = [obj]
            if isinstance(obj, type):
                for member in vars(obj).values():
                    member = getattr(member, "fget", getattr(member, "func", member))
                    if inspect.isfunction(member):
                        targets.append(member)
            elif not callable(obj):
                continue
            for target in targets:
                typing.get_type_hints(target)
                checked += 1
    assert checked > 100


def test_readme_usage_names_exactly_the_parser_flags():
    # the usage block under "## Command line" is the flag list readers see;
    # a flag added to or removed from the parser must change it too
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## Command line", 1)[1].split("```", 2)[1]
    parser = cli._build_parser()
    flags = {opt for action in parser._actions for opt in action.option_strings
             if opt.startswith("--")} - {"--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == flags
    commands = {line.split()[1] for line in usage.strip().splitlines()}
    assert commands == set(cli._DISPATCH)


def test_readme_config_block_loads(tmp_path):
    # the jsonc block under "### Configuration file" lists every key a
    # config takes; with its comments stripped it must load as it stands
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```jsonc", 1)[1].split("```", 1)[0]
    path = tmp_path / "cfg.json"
    path.write_text(re.sub(r"\s*//[^\n]*", "", block), encoding="utf-8")
    cfg = cli.load_config(str(path))
    assert (cfg.builtin, cfg.seed) == ("se2", 42)
    assert cfg.flow["casimirs"] == {"c1": "mu_P1"}


def _env(**extra):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def _run_script(args, cwd):
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=600)


def test_tracer_finds_every_target(tmp_path):
    spans = tmp_path / "spans.json"
    res = _run_script([ROOT / "bench" / "tracer.py", spans, "describe", "--group", "se2"],
                      tmp_path)
    assert res.returncode == 0, res.stderr
    # dynamics.rhs timed calls of VectorField.compiled, which is gone: a flow's
    # one evaluator of the field is its generated loop
    assert json.loads(spans.read_text())["missing"] == ["dynamics.rhs"]


def test_node_counter_prints_four_counts(tmp_path):
    res = _run_script([ROOT / "bench" / "nodes.py"], tmp_path)
    assert res.returncode == 0, res.stderr
    counts = json.loads(res.stdout)
    assert sorted(counts) == ["adjoint_galilean", "coupling_galilean",
                              "lift_galilean", "nu_galilean"]
    assert all(type(v) is int and v > 0 for v in counts.values())
    # structurally equal subtrees are one node, so these are the structural
    # counts; an identity-only DAG gave 481, 8517, 770 and 707
    assert counts["adjoint_galilean"] <= 296
    assert counts["coupling_galilean"] <= 1978
    assert counts["lift_galilean"] <= 323
    assert counts["nu_galilean"] <= 467


def test_verify_never_imports_scipy(tmp_path):
    # importing scipy.stats once doubled the time and peak RSS of a cold se2
    # verify
    code = ("import sys\n"
            "from bsymp import cli\n"
            "assert cli.main(['verify', '--group', 'se2']) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    res = _run_script(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr


def test_missing_numpy_fails_at_import(tmp_path):
    # -S hides site-packages, numpy with them: numpy is loaded on first use,
    # but a missing numpy is still the error of `import bsymp.cli`
    res = _run_script(["-S", "-c", "import bsymp.cli"], tmp_path)
    assert res.returncode != 0
    assert res.stderr.strip().splitlines()[-1] == "ModuleNotFoundError: No module named 'numpy'"


# Run in a fresh interpreter on argv[1], a JSON list of [argv, out path or
# null].  Prints as JSON the bsymp modules `import bsymp.cli` left out, the
# numpy submodules loaded after that import and after building the four
# built-ins, and per command its exit code, the numpy submodules then loaded
# and the SHA-256 of its stdout (the out path read as OUT) and of its file.
_FRESH_RUN = """\
import contextlib, hashlib, io, json, pkgutil, sys
from pathlib import Path
import bsymp.cli
from bsymp import cli, lie

def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy."))

def sha(data):
    return hashlib.sha256(data).hexdigest()

report = {"unimported": [m.name for m in pkgutil.iter_modules(sys.modules["bsymp"].__path__)
                         if "bsymp." + m.name not in sys.modules],
          "import": numpy_modules()}
for g in ("se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean"):
    lie.builtin(g)
report["builtin"] = numpy_modules()
report["runs"] = []
for argv, out in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = cli.main(argv)
    stdout = buf.getvalue().encode()
    if out is not None:
        stdout = stdout.replace(out.encode(), b"OUT")
    report["runs"].append({"code": code, "numpy": numpy_modules(),
                           "stdout_sha256": sha(stdout),
                           "out_sha256": None if out is None else sha(Path(out).read_bytes())})
print(json.dumps(report))
"""

REFS = json.loads((ROOT / "bench" / "ref" / "refs.json").read_text(encoding="utf-8"))
GROUPS = ("se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean")


def _fresh_run(runs, cwd) -> dict:
    """The report of `_FRESH_RUN` on runs of (reference label or None, argv,
    out path or None); a labelled run must give the reference bytes."""
    res = _run_script(["-c", _FRESH_RUN, json.dumps([[argv, out] for _, argv, out in runs])],
                      cwd)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    for (label, argv, _), run in zip(runs, report["runs"], strict=True):
        if label is not None:
            ref = REFS["commands"][label]
            assert run["stdout_sha256"] == ref["stdout_sha256"], label
            assert run["out_sha256"] == ref.get("out_sha256"), label
    return report


def test_exact_commands_never_load_numpy(tmp_path):
    # describe, bracket-table and a default reduce print exact rationals, so
    # they never pay for numpy; bench/tracer.py reads every bsymp module from
    # sys.modules right after `import bsymp.cli`, so that import still loads
    # them all
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    custom = readme.split("A custom group is an algebra-only object", 1)[1]
    config = tmp_path / "basis.json"
    config.write_text(custom.split("```json", 1)[1].split("```", 1)[0], encoding="utf-8")
    assert "basis" in json.loads(config.read_text())["group"]
    # (reference label or None, argv, out path): the custom group has no reference
    runs = []
    for group, source in [(g, ["--group", g]) for g in GROUPS] + [(None, ["--config", str(config)])]:
        out = str(tmp_path / f"{len(runs)}.csv")
        for command, tail, path in (("describe", [], None), ("bracket-table", ["--out", out], out)):
            label = None if group is None else f"{command} {group}"
            runs.append((label, [command, *source, *tail], path))
        if group is not None:
            out = str(tmp_path / f"{len(runs)}.csv")
            runs.append((f"reduce {group}", ["reduce", *source, "--out", out], out))
    report = _fresh_run(runs, tmp_path)
    assert report["unimported"] == []
    assert report["import"] == report["builtin"] == []
    assert [(run["code"], run["numpy"]) for run in report["runs"]] == [(0, [])] * len(runs)


def test_flows_never_load_numpy(tmp_path):
    # a flow computes and stores plain doubles, whatever its options and
    # whether or not it leaves the chart
    options = tmp_path / "options.json"
    options.write_text(json.dumps({"flow": {
        "hamiltonian": "p^2/2 + 0.3*phi*mu_P1 + mu_P2", "x0": [0.4, -0.2, -0.5, 0.3],
        "dt": 0.01, "T": 1.0, "method": "midpoint", "substitution": True,
        "casimirs": {"m1": "mu_P1^2", "m2": "mu_P2"}}}), encoding="utf-8")
    escape = tmp_path / "escape.json"
    escape.write_text(json.dumps({"flow": {"hamiltonian": "phi * p", "x0": [0, 0, 2, 2],
                                           "dt": 0.05, "T": 40.0}}), encoding="utf-8")
    out = str(tmp_path / "flow.csv")
    runs = [(f"flow {g}", ["flow", "--group", g, "--out", out], out) for g in GROUPS]
    runs += [(None, ["flow", "--config", str(options), "--out", out], out),
             (None, ["flow", "--config", str(escape), "--out", out], None)]
    report = _fresh_run(runs, tmp_path)
    assert [(run["code"], run["numpy"]) for run in report["runs"]] == [(0, [])] * 5 + [(1, [])]


def test_verify_flow_sections_never_load_numpy(tmp_path):
    # verify's forked child runs these four: without numpy it stays small
    # and starts no BLAS thread
    code = ("import json, sys\n"
            "from bsymp import cli, lie, verify\n"
            "pair = lie.builtin('galilean')\n"
            "ran = []\n"
            "for name, fn in verify.GROUP_SECTIONS:\n"
            "    if name.startswith('dynamics: '):\n"
            "        fn(pair, 1)\n"
            "        ran.append(name)\n"
            "print(json.dumps([ran, sorted(m for m in sys.modules if m.startswith('numpy.'))]))\n")
    res = _run_script(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [["dynamics: flow-endpoint", "dynamics: slice-hold",
                                       "dynamics: order-factor", "dynamics: energy-drift"], []]


def test_verify_first_child_sections_never_load_numpy(tmp_path):
    # verify's first child runs every section placed there: the exact
    # sections and the four dynamics ones, none of which needs numpy
    code = ("import json, sys\n"
            "from bsymp import cli, lie, verify\n"
            "pair = lie.builtin('galilean')\n"
            "ran = []\n"
            "for table, arg in ((verify.ALGEBRA_SECTIONS, pair.group.algebra),\n"
            "                   (verify.GROUP_SECTIONS, pair)):\n"
            "    for name, fn in table:\n"
            "        if verify._PLACE[name] is verify.FIRST:\n"
            "            fn(arg, 1)\n"
            "            ran.append(name)\n"
            "print(json.dumps([ran, sorted(m for m in sys.modules if m.startswith('numpy.'))]))\n")
    res = _run_script(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr
    ran, loaded = json.loads(res.stdout)
    assert ran == ["lie: antisymmetry", "lie: Jacobi", "lie: Lie-Poisson-Jacobi",
                   "lie: commutator-match", "bcalc: derivative-squared",
                   "bcalc: log-derivative", "bcalc: normal-form-model",
                   "bcalc: canonical-layout", "reduction: reduced-Jacobi",
                   "dynamics: flow-endpoint", "dynamics: slice-hold",
                   "dynamics: order-factor", "dynamics: energy-drift"]
    assert loaded == []


def test_verify_through_a_pipe_prints_one_report(tmp_path):
    # stdout as a pipe is block-buffered, so the line printed first is still
    # buffered when verify forks; the child leaves through os._exit and
    # writes none of it
    want = verify.run_suite(lie.builtin("se2"), 1).text() + "\n"
    argv = ["verify", "--group", "se2", "--seed", "1"]
    res = _run_script(["-m", "bsymp.cli", *argv], tmp_path)
    assert (res.returncode, res.stdout, res.stderr) == (0, want, "")
    code = f"from bsymp import cli\nprint('first')\nraise SystemExit(cli.main({argv!r}))\n"
    res = _run_script(["-c", code], tmp_path)
    assert (res.returncode, res.stdout, res.stderr) == (0, "first\n" + want, "")


def test_flow_to_dev_stdout_through_a_pipe_prints_each_part_once(tmp_path):
    # the flow forks a child per finished block while its loop runs, and
    # stdout is a block-buffered pipe, which also carries the CSV: a child
    # that flushed a buffer it inherited would print its contents twice.
    # The serial run has no os.fork
    argv = ["flow", "--group", "galilean", "--out", "/dev/stdout"]
    forked = _run_script(["-m", "bsymp.cli", *argv], tmp_path)
    code = f"import os, sys\ndel os.fork\nfrom bsymp import cli\nsys.exit(cli.main({argv!r}))\n"
    serial = _run_script(["-c", code], tmp_path)
    assert (forked.returncode, forked.stderr) == (serial.returncode, serial.stderr) == (0, "")
    assert forked.stdout == serial.stdout
    assert forked.stdout.count("t,mu_") == forked.stdout.count("sign-constant:") == 1
    assert forked.stdout.endswith("wrote: /dev/stdout\n")
    assert len(forked.stdout.splitlines()) == 1 + 1001 + 5


STDOUT_WRITERS = [["describe"], ["verify", "--seed", "1"], ["reduce", "--out", "r.csv"],
                  ["flow", "--out", "f.csv"], ["bracket-table", "--out", "b.csv"]]


def _run_cli(argv, cwd, stdout, unbuffered=""):
    """bsymp.cli in a fresh interpreter with the given stdout; PYTHONUNBUFFERED
    empty leaves stdout block-buffered, so only main's flush writes it."""
    return subprocess.Popen([sys.executable, "-m", "bsymp.cli", *argv], cwd=cwd,
                            env=_env(PYTHONUNBUFFERED=unbuffered),
                            stdout=stdout, stderr=subprocess.PIPE, text=True)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", STDOUT_WRITERS, ids=lambda a: a[0])
def test_full_stdout_exits_2_with_one_line(argv, unbuffered, tmp_path):
    with open("/dev/full", "w") as full:
        proc = _run_cli([*argv, "--group", "se2"], tmp_path, full, unbuffered)
    _, err = proc.communicate(timeout=600)
    assert (proc.returncode, err) == (2, "config error: stdout: cannot write: "
                                         "No space left on device\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_verify_into_a_pipe_whose_reader_left_exits_2(unbuffered, tmp_path):
    # verify writes its report once every section has run, long after the
    # reader end is closed here, so each write meets a broken pipe
    r, w = os.pipe()
    proc = _run_cli(["verify", "--group", "galilean", "--seed", "1"], tmp_path, w, unbuffered)
    os.close(w)
    os.close(r)
    _, err = proc.communicate(timeout=600)
    assert (proc.returncode, err) == (2, "config error: stdout: cannot write: Broken pipe\n")


def test_float_commands_load_numpy_on_first_use(tmp_path):
    # the in-process tests import numpy before bsymp, so only a fresh
    # interpreter runs the deferred import; reduce checks a configured
    # connection's axioms on float samples, and still writes the table that
    # every connection gives
    out = str(tmp_path / "reduce.csv")
    config = tmp_path / "connection.json"
    config.write_text(json.dumps({"connection": {"xi": [0.3, -0.2], "scale": "1 + phi^2"}}),
                      encoding="utf-8")
    report = _fresh_run([(None, ["verify", "--group", "se2"], None),
                         ("reduce se2", ["reduce", "--config", str(config), "--out", out], out)],
                        tmp_path)
    assert report["import"] == []
    assert [run["code"] for run in report["runs"]] == [0, 0]
    assert all(run["numpy"] for run in report["runs"])
