"""Benchmark of the bsymp command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is src/bsymp, run with
the interpreter that runs this script.  Every operation is one fresh CLI
process, started only after the previous one ended (a closed loop with one
client), with BLAS/OpenMP threads set to 1.  Workloads (BENCHMARK.json says
why each was chosen):

    verify-galilean  bsymp verify --group galilean --seed SEED
    cli-sweep        describe, bracket-table, reduce and flow on se2,
                     heisenberg_q(1), heisenberg_q(2) and galilean, then
                     verify --seed SEED on the first three (19 processes)
    flow-long        bsymp flow on a galilean config made from SEED by
                     flowgen.py: rk4, dt=1e-3, T=20, 20000 steps

cli-sweep is not among BENCHMARK.json's workloads: its 19 short processes
are mostly imports, whose speed on a shared host switches by a third
between runs in a way the speed probe (see ref_scale) does not see.  Its
layers are measured on the other two: set-up, cli.import_s and lie.builtin
in every run, the rest on verify-galilean and flow-long.

One iteration of a workload is the list above.  After a warm-up process
(it fills the .pyc caches, which users keep between commands) and the
set-up probes, iterations run until the next one would end after
--seconds; there is always at least one.

--trace 0 prints the end-to-end metrics, measured without tracing.  Times
are at the reference speed: wall time rescaled by a speed probe that runs
beside the children (see ref_scale), because the shared host's own speed
drifts by more than the bounds these metrics need.
    wall_ref_s      time of one iteration: the iterations' total over their
                    number.  A mean, not a median, because the host's speed
                    switches between regimes every few seconds; the mean
                    averages what the probe leaves of them.
    setup_s         median, over SETUP_PROBES fresh interpreters, of the time
                    to import bsymp.cli and build the workload's built-in
                    pairs
    peak_rss_mb     peak RSS of the child processes (RUSAGE_CHILDREN), MiB
The summary lines add the unscaled wall_s per iteration and, per CLI
process, command_s.p50 and command_s.tail (the highest percentile with at
least ten processes beyond it, or the maximum when there are fewer than
twenty), verify_s (per verify process), flow_s and flow_steps_per_s (per
flow process) and failed_ratio.

--trace 1 runs one iteration untraced and one through tracer.py, which
records spans around the public functions of each bsymp module, then
counts DAG nodes with nodes.py, and prints the per-layer metrics: .calls
and .self_s (span time minus child spans) per traced function, µs per
compiled call and per flow right-hand side, steps, LiftedAction
instances, section times of verify, import time, node counts, and the
traced-minus-untraced iteration time as trace.overhead_s.

Every operation's output is checked (see the check_* functions); a failed
check or a non-zero exit counts the operation as failed and the run goes
on.  The last stdout line is the JSON result; the lines before it are a
readable summary, and .bench_out/<workload>/result.json keeps both plus
the interpreter, numpy and scipy versions and the processor count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable, NamedTuple

import flowgen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REF = BENCH / "ref"
OUT_ROOT = ROOT / ".bench_out"

GROUPS = ("se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean")
VERIFY_GROUPS = GROUPS[:3]
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
PROBE_LOOPS = 20000     # speed_probe() work: 1-2 ms on a 2-core VM
PROBE_GAP_S = 0.01
REF_PROBE_S = 0.002     # the reference speed: speed_probe() in this time
ENERGY_DRIFT_BOUND = 1e-6   # relative to 1 + |H(x0)|
CASIMIR_DRIFT_BOUND = 1e-6  # relative to 1 + |C(x0)|

CLI = "import sys; from bsymp.cli import main; sys.exit(main())"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def slug(group: str) -> str:
    return group.replace("(", "").replace(")", "")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for k in THREAD_VARS:
        env[k] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("BSYMP_OUT_DIR", None)
    return env


class Child(NamedTuple):
    wall: float       # seconds
    probe_s: float    # mean speed_probe() time while the child ran
    code: int
    stdout: bytes
    stderr: bytes


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work, PROBE_LOOPS
    iterations of an integer loop: how slow the host is just now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_child(argv: list[str], cwd: Path) -> Child:
    """Run one child process to its end, probing the host's speed meanwhile.

    While the child runs, this process times speed_probe() after every
    PROBE_GAP_S of waiting, on the other processor (about a tenth of it);
    see ref_scale."""
    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_ROOT) as out, \
            tempfile.TemporaryFile(dir=OUT_ROOT) as err:
        probes = []
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            while True:
                probes.append(speed_probe())
                try:
                    proc.wait(timeout=PROBE_GAP_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                        proc.kill()
                        break
        finally:
            if proc.poll() is None:
                proc.kill()
            code = proc.wait()
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if code < 0:
        stderr += f"\nkilled by signal {-code}".encode()
    return Child(wall, statistics.mean(probes), code, stdout, stderr)


def ref_scale(runs) -> float:
    """Factor from wall time to time at the reference speed, for a set of
    child runs (Child or Done): REF_PROBE_S over the probe's mean time
    during them, each run weighted by its wall time.

    The host is shared, and its speed drifts by up to half, in the child's
    CPU time as much as in its wall time.  Over a second the probe on the
    other processor follows the child's speed only loosely; over tens of
    seconds it follows the host's slow regimes, which is why one factor is
    taken over a whole run rather than one per process.  A change to the
    program's own work moves the scaled time as much as the wall time.
    The probe also slows down by what the child itself does (the two
    processors share the host's core resources): beside verify it runs
    about a third faster than beside a flow.  So a change that alters the
    kind of work the program does, its mix of Python, numpy and file
    writes, can move the factor by itself; the unscaled wall_s on the
    summary lines shows it."""
    return REF_PROBE_S * sum(r.wall for r in runs) / sum(r.wall * r.probe_s for r in runs)


# ---------------------------------------------------------------------------
# operations and their output checks


@dataclass
class Op:
    kind: str                 # the CLI command
    label: str
    args: list[str]           # CLI arguments
    out: Path | None          # the file the command writes, if any
    check: Callable[[dict, "Op", int, bytes], list[str]]


@dataclass
class Done:
    op: Op
    wall: float
    probe_s: float
    code: int
    errors: list[str]
    steps: int = 0


def _norm(op: Op, stdout: bytes) -> bytes:
    return stdout if op.out is None else stdout.replace(str(op.out).encode(), b"OUT")


def _out_bytes(op: Op) -> bytes | None:
    try:
        return op.out.read_bytes()
    except OSError:
        return None


def _sha(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


def load_refs() -> dict:
    with open(REF / "refs.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_reference(refs: dict, op: Op, code: int, stdout: bytes) -> list[str]:
    """Exit 0 and stdout and output bytes equal to the captured reference."""
    ref = refs["commands"][op.label]
    errs = [] if code == 0 else [f"exit {code}"]
    if _sha(_norm(op, stdout)) != ref["stdout_sha256"]:
        errs.append("stdout differs from the reference")
    if op.out is not None:
        got = _out_bytes(op)
        if got is None:
            errs.append("no output file")
        elif _sha(got) != ref["out_sha256"]:
            errs.append("output file differs from the reference")
    return errs


def check_verify(refs: dict, op: Op, code: int, stdout: bytes) -> list[str]:
    """Exit 0, every reference section present and ok at its reference
    tolerance, in order, and a pass line."""
    group, seed = op.args[2], op.args[4]
    ref = refs["verify"][group]
    errs = [] if code == 0 else [f"exit {code}"]
    lines = stdout.decode("utf-8", "replace").splitlines()
    head = [f"subject: {ref['subject']}", f"seed: {seed}",
            f"sections: {len(ref['sections'])}"]
    if lines[:3] != head:
        errs.append(f"header {lines[:3]!r}")
    body = lines[3:-1]
    if len(body) != len(ref["sections"]):
        errs.append(f"{len(body)} section lines, want {len(ref['sections'])}")
    for line, (name, tol) in zip(body, ref["sections"]):
        parts = line.split(" | ")
        if len(parts) != 4 or parts[0] != "ok" or parts[1] != name \
                or parts[3] != f"tolerance: {tol}":
            errs.append(f"section line {line!r}")
    if not lines or lines[-1] != "result: pass":
        errs.append("no pass line")
    return errs


def check_flow_long(refs: dict, op: Op, code: int, stdout: bytes) -> list[str]:
    """Exit 0, header, row count, and energy and Casimir drift under fixed
    bounds, recomputed from the CSV."""
    errs = [] if code == 0 else [f"exit {code}"]
    text = stdout.decode("utf-8", "replace")
    if "sign-constant: true" not in text or "on-slice: false" not in text:
        errs.append("leaf report lost the sign of s")
    data = _out_bytes(op)
    if data is None:
        return errs + ["no output file"]
    lines = data.decode("utf-8", "replace").splitlines()
    want_head = "t," + ",".join(refs["galilean_coordinates"]) + ",H,c1"
    if not lines or lines[0] != want_head:
        errs.append(f"header {lines[:1]!r}")
    if len(lines) != flowgen.steps() + 2:
        errs.append(f"{len(lines) - 1} rows, want {flowgen.steps() + 1}")
    try:
        tail = [tuple(map(float, ln.rsplit(",", 2)[1:])) for ln in lines[1:]]
        h0, c0 = tail[0]
        dh = max(abs(h - h0) for h, _ in tail)
        dc = max(abs(c - c0) for _, c in tail)
        if not dh <= ENERGY_DRIFT_BOUND * (1 + abs(h0)):
            errs.append(f"energy drift {dh!r}")
        if not dc <= CASIMIR_DRIFT_BOUND * (1 + abs(c0)):
            errs.append(f"casimir drift {dc!r}")
    except (ValueError, IndexError):
        errs.append("unreadable rows")
    return errs


# ---------------------------------------------------------------------------
# workloads


def sweep_ops(seed: int, out_dir: Path) -> list[Op]:
    ops = []
    for g in GROUPS:
        for kind, ext in (("describe", None), ("bracket-table", "csv"),
                          ("reduce", "csv"), ("flow", "csv")):
            label = f"{kind} {g}"
            out = None if ext is None else out_dir / f"{slug(g)}.{kind}.{ext}"
            args = [kind, "--group", g] + ([] if out is None else ["--out", str(out)])
            ops.append(Op(kind, label, args, out, check_reference))
    for g in VERIFY_GROUPS:
        ops.append(verify_op(g, seed))
    return ops


def verify_op(group: str, seed: int) -> Op:
    return Op("verify", f"verify {group}",
              ["verify", "--group", group, "--seed", str(seed)],
              None, check_verify)


def flow_long_ops(seed: int, out_dir: Path) -> list[Op]:
    cfg = flowgen.make_config(seed, REF / "galilean.reduce.csv")
    path = out_dir / "flow-long.json"
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    out = out_dir / "flow-long.csv"
    return [Op("flow", "flow-long", ["flow", "--config", str(path), "--out", str(out)],
               out, check_flow_long)]


WORKLOADS = {
    "verify-galilean": (("galilean",), lambda seed, d: [verify_op("galilean", seed)]),
    "cli-sweep": (GROUPS, sweep_ops),
    "flow-long": (("galilean",), flow_long_ops),
}


# ---------------------------------------------------------------------------
# running


@dataclass
class Runner:
    out_dir: Path
    refs: dict
    done: list[Done] = field(default_factory=list)
    first: dict = field(default_factory=dict)   # args -> (stdout, output sha)

    def execute(self, op: Op, trace_to: Path | None = None) -> Done:
        if op.out is not None and op.out.exists():
            op.out.unlink()
        if trace_to is None:
            argv = ["-c", CLI] + op.args
        else:
            argv = [str(BENCH / "tracer.py"), str(trace_to)] + op.args
        child = run_child(argv, self.out_dir)
        code, stdout, stderr = child.code, child.stdout, child.stderr
        errs = op.check(self.refs, op, code, stdout)
        # the same command twice must give the same bytes
        out = _out_bytes(op) if op.out is not None else None
        got = (_norm(op, stdout), None if out is None else _sha(out))
        key = tuple(op.args)
        if key in self.first and self.first[key] != got:
            errs.append("output differs from an earlier run of the same command")
        self.first.setdefault(key, got)
        if errs and stderr:
            errs.append("stderr: " + stderr.decode("utf-8", "replace")[-300:])
        steps = 0
        if op.kind == "flow" and code == 0 and out is not None:
            steps = out.count(b"\n") - 2
        d = Done(op, child.wall, child.probe_s, code, errs, steps)
        self.done.append(d)
        return d

    def iteration(self, ops: list[Op], trace_dir: Path | None = None) -> float:
        """Run ops back to back; the sum of their process wall times, so
        that the time spent checking outputs is left out."""
        total = 0.0
        for k, op in enumerate(ops):
            spans = None if trace_dir is None else trace_dir / f"{k:02d}.json"
            total += self.execute(op, spans).wall
        return total


def warm_up(pairs) -> None:
    code = run_child(["-c", _setup_code(pairs)], ROOT).code
    if code != 0:
        raise SystemExit(f"bench: the program does not import (exit {code})")


def _setup_code(pairs) -> str:
    return ("import bsymp.cli\nfrom bsymp import lie\n"
            + "".join(f"lie.builtin({g!r})\n" for g in pairs))


def setup_times(pairs) -> list[Child]:
    out = []
    for _ in range(SETUP_PROBES):
        child = run_child(["-c", _setup_code(pairs)], ROOT)
        if child.code != 0:
            raise SystemExit("bench: set-up probe failed: " + child.stderr.decode()[-300:])
        out.append(child)
    return out


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for one at or above the median."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0))}


def measure(name: str, seed: int, seconds: float, runner: Runner) -> tuple[dict, list[str]]:
    pairs, make_ops = WORKLOADS[name]
    setups = setup_times(pairs)
    ops = make_ops(seed, runner.out_dir)
    iters: list[float] = []
    t0 = time.perf_counter()
    while True:
        iters.append(runner.iteration(ops))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(iters) > seconds:
            break
    metrics = {
        "wall_ref_s": (statistics.mean(iters) * ref_scale(runner.done), "s"),
        "setup_s": (statistics.median(c.wall for c in setups) * ref_scale(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB"),
    }
    cmd = [d.wall for d in runner.done]
    tail_name, tail_value = tail(cmd)
    notes = [f"iterations: {len(iters)}, processes: {len(cmd)}; the times below are "
             f"wall times, unscaled",
             f"wall_s: {statistics.mean(iters):.4f} s per iteration, reference-speed "
             f"factor {ref_scale(runner.done):.4f}",
             "setup_s probes: " + ", ".join(f"{c.wall:.4f}" for c in setups)
             + f", factor {ref_scale(setups):.4f}",
             f"command_s.p50: {statistics.median(cmd):.4f} s, command_s.tail: "
             f"{tail_value:.4f} s, the {tail_name} of {len(cmd)} processes"]
    verify = [d.wall for d in runner.done if d.op.kind == "verify"]
    if verify:
        notes.append(f"verify_s: median {statistics.median(verify):.4f} s "
                     f"of {len(verify)} processes")
    flows = [d for d in runner.done if d.op.kind == "flow" and d.steps]
    if flows:
        notes.append(f"flow_s: median {statistics.median(d.wall for d in flows):.4f} s, "
                     f"flow_steps_per_s: median "
                     f"{statistics.median(d.steps / d.wall for d in flows):.1f} "
                     f"of {len(flows)} processes")
    return metrics, notes


# ---------------------------------------------------------------------------
# traced run


def aggregate(traces: list[tuple[str, Path]], sections: list) -> tuple[dict, list[str]]:
    """Per-layer metrics from the span files of (command, file) pairs."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    imports, missing = [], set()
    verify_main = verify_sections = 0.0
    for kind, path in traces:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        imports.append(rec["import_s"])
        missing.update(rec["missing"])
        for k, v in rec["counters"].items():
            counters[k] = counters.get(k, 0) + v
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for (name, t0, t1, _), cov in zip(spans, covered):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - cov
            total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
            if kind == "verify" and name == "cli.main":
                verify_main += t1 - t0
            elif kind == "verify" and name.startswith(tracer.SECTION_PREFIX):
                verify_sections += t1 - t0

    metrics = {}
    for name in tracer.TARGETS:
        metrics[name + ".calls"] = (calls.get(name, 0), "count")
        metrics[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    for title, _ in sections:
        slug_ = tracer.section_slug(title)
        metrics["verify.section_s." + slug_] = (
            total_s.get(tracer.SECTION_PREFIX + slug_, 0.0), "s")
    metrics["blift.LiftedAction.count"] = (counters.get("blift.LiftedAction.count", 0), "count")
    metrics["expr.compiled_call_us"] = (_per_call_us(counters, "expr.compiled"), "us")
    metrics["dynamics.rhs_us"] = (_per_call_us(counters, "dynamics.rhs"), "us")
    metrics["dynamics.steps"] = (counters.get("dynamics.steps", 0), "count")
    metrics["cli.import_s"] = (statistics.median(imports), "s")

    notes = [f"traced processes: {len(traces)}, median import {statistics.median(imports):.4f} s"]
    if verify_main:
        notes.append(f"traced verify: cli.main {verify_main:.4f} s, sections "
                     f"{verify_sections:.4f} s ({100 * verify_sections / verify_main:.1f}%)")
    if missing:
        notes.append("not traced (absent from the program): " + ", ".join(sorted(missing)))
    return metrics, notes


def _per_call_us(counters, key) -> float:
    n = counters.get(key + ".calls", 0)
    return 1e6 * counters.get(key + ".s", 0.0) / n if n else 0.0


def traced(name: str, seed: int, runner: Runner) -> tuple[dict, list[str]]:
    _, make_ops = WORKLOADS[name]
    ops = make_ops(seed, runner.out_dir)
    plain = runner.iteration(ops)
    trace_dir = runner.out_dir / "spans"
    trace_dir.mkdir(exist_ok=True)
    for old in trace_dir.glob("*.json"):
        old.unlink()
    with_spans = runner.iteration(ops, trace_dir)
    traces = [(op.kind, trace_dir / f"{k:02d}.json") for k, op in enumerate(ops)]
    metrics, notes = aggregate([t for t in traces if t[1].exists()],
                               runner.refs["verify"]["galilean"]["sections"])

    child = run_child([str(BENCH / "nodes.py")], runner.out_dir)
    if child.code != 0:
        raise SystemExit("bench: node count failed: " + child.stderr.decode()[-300:])
    for k, v in json.loads(child.stdout.decode().splitlines()[-1]).items():
        metrics["expr.nodes." + k] = (v, "count")
    metrics["trace.overhead_s"] = (with_spans - plain, "s")
    notes.append(f"untraced iteration {plain:.4f} s, traced {with_spans:.4f} s")
    return metrics, notes


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "bsymp" / "cli.py").is_file() or not (REF / "refs.json").is_file():
        print(f"bench: no program source under {SRC} or no references under {REF}",
              file=sys.stderr)
        return 2

    out_dir = OUT_ROOT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(out_dir, load_refs())
    warm_up(WORKLOADS[args.workload][0])
    if args.trace:
        metrics, notes = traced(args.workload, args.seed, runner)
    else:
        metrics, notes = measure(args.workload, args.seed, args.seconds, runner)

    failed = [d for d in runner.done if d.errors]
    attempted = len(runner.done)
    env = environment()
    notes.insert(0, f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
                    + ", ".join(f"{k} {v}" for k, v in env.items()))
    notes.append(f"failed_ratio: {len(failed) / attempted:.4f} "
                 f"({len(failed)} of {attempted} operations)")
    for d in failed[:10]:
        notes.append(f"FAILED {d.op.label}: " + "; ".join(d.errors))
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "notes": notes, "args": vars(args), **result,
                   "processes": [[d.op.label, d.wall, d.probe_s, d.code] for d in runner.done]},
                  fh, indent=1)
    for line in notes:
        print(line)
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
