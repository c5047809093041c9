"""Tooling guards: exported names, the README's flag list and config
block, and the benchmark scripts that reach into bsymp.

The tracer and the node counter under bench/ find their targets by name.
A renamed function or member would silently drop its span or its count,
so these tests run both scripts the way the benchmark does.
"""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import bsymp
from bsymp import cli

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    exporting = 0
    for info in pkgutil.iter_modules(bsymp.__path__):
        mod = importlib.import_module("bsymp." + info.name)
        names = getattr(mod, "__all__", ())
        assert [n for n in names if not hasattr(mod, n)] == [], info.name
        exporting += bool(names)
    assert exporting >= 4


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


def _run_script(args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)


def test_tracer_finds_every_target(tmp_path):
    spans = tmp_path / "spans.json"
    res = _run_script([ROOT / "bench" / "tracer.py", spans, "describe", "--group", "se2"],
                      tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(spans.read_text())["missing"] == []


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
