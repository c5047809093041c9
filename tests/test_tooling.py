"""Tooling guards: exported names, and the benchmark scripts that reach into bsymp.

The tracer and the node counter under bench/ find their targets by name.
A renamed function or member would silently drop its span or its count,
so these tests run both scripts the way the benchmark does.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import bsymp

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    exporting = 0
    for info in pkgutil.iter_modules(bsymp.__path__):
        mod = importlib.import_module("bsymp." + info.name)
        names = getattr(mod, "__all__", ())
        assert [n for n in names if not hasattr(mod, n)] == [], info.name
        exporting += bool(names)
    assert exporting >= 4


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


def test_verify_never_imports_scipy(tmp_path):
    # importing scipy.stats once doubled the time and peak RSS of a cold se2
    # verify; group_exp on a non-nilpotent algebra once fell back to scipy
    code = ("import sys\n"
            "from bsymp import cli, lie\n"
            "assert cli.main(['verify', '--group', 'se2']) == 0\n"
            "for name in ('se2', 'galilean'):\n"
            "    G = lie.builtin(name).group\n"
            "    lie.group_exp(G, [0.3] * G.dim)\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    res = _run_script(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr
