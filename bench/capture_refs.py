"""Capture the reference outputs the benchmark checks against.

    python3 bench/capture_refs.py

Run it from the root of a checkout of the commit whose outputs are the
reference; it rewrites bench/ref/.  It records, for every fixed command of
the cli-sweep workload, the SHA-256 of its stdout (with the output path
replaced by OUT) and of the file it writes; for verify on every built-in
group, the subject line and each section's name and tolerance; and the
galilean reduced bracket table, from which flowgen.py builds its configs.
None of it depends on the seed.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    run.REF.mkdir(exist_ok=True)
    refs: dict = {"commands": {}, "verify": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out_dir = Path(tmp)
        for op in run.sweep_ops(42, out_dir):
            if op.kind == "verify":
                continue
            child = run.run_child(["-c", run.CLI] + op.args, out_dir)
            code, stdout, err = child.code, child.stdout, child.stderr
            if code != 0:
                raise SystemExit(f"{op.label}: exit {code}: {err.decode()}")
            entry = {"stdout_sha256": run._sha(run._norm(op, stdout))}
            if op.out is not None:
                entry["out_sha256"] = run._sha(op.out.read_bytes())
            refs["commands"][op.label] = entry
            if op.label == "reduce galilean":
                shutil.copyfile(op.out, run.REF / "galilean.reduce.csv")
                refs["galilean_coordinates"] = (
                    stdout.decode().splitlines()[0].split(": ")[1].split(","))
        for g in run.GROUPS:
            op = run.verify_op(g, 42)
            child = run.run_child(["-c", run.CLI] + op.args, out_dir)
            code, stdout, err = child.code, child.stdout, child.stderr
            if code != 0:
                raise SystemExit(f"{op.label}: exit {code}: {err.decode()}")
            lines = stdout.decode().splitlines()
            sections = [line.split(" | ") for line in lines[3:-1]]
            refs["verify"][g] = {
                "subject": lines[0].split(": ", 1)[1],
                "sections": [[p[1], p[3].split(": ", 1)[1]] for p in sections],
            }
    with open(run.REF / "refs.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
