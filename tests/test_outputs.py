"""Pinned output bytes and the demos.

The benchmark checks every command it runs against bench/ref/refs.json:
the SHA-256 of stdout, with the output path replaced by OUT, and of the
file the command writes.  These tests make the same check in process for
describe, bracket-table, reduce and the default flow of each built-in
group, so a change to those bytes fails here before it fails there, and
check verify's section names, tolerances and verdicts at one seed.  They
only read bench/.  The demos are run as scripts and must exit 0.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bsymp import cli, lie, verify

ROOT = Path(__file__).resolve().parents[1]
REFS = json.loads((ROOT / "bench" / "ref" / "refs.json").read_text(encoding="utf-8"))
GROUPS = ("se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean")
COMMANDS = {"describe": None, "bracket-table": "csv", "reduce": "csv", "flow": "csv"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("command", COMMANDS)
def test_output_bytes_match_the_reference(tmp_path, capsys, command, group):
    ref = REFS["commands"][f"{command} {group}"]
    out = tmp_path / f"{command}.{COMMANDS[command]}" if COMMANDS[command] else None
    argv = [command, "--group", group] + ([] if out is None else ["--out", str(out)])
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    if out is not None:
        stdout = stdout.replace(str(out).encode(), b"OUT")
        assert _sha(out.read_bytes()) == ref["out_sha256"]
    assert _sha(stdout) == ref["stdout_sha256"]


@pytest.mark.parametrize("group", GROUPS)
def test_verify_sections_match_the_reference(group):
    # the benchmark refuses a verify whose section names or tolerances differ
    # from the reference, at any seed; this is the same check at one seed
    ref = REFS["verify"][group]
    rep = verify.run_suite(lie.builtin(group), verify.VerifyOptions(seed=42))
    assert rep.subject == ref["subject"]
    assert [[s.name, repr(s.tolerance)] for s in rep.sections] == ref["sections"]
    assert [s.name for s in rep.sections if not s.ok] == []


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(tmp_path, demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
