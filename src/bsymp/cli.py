"""Configuration-driven command line front end.

Subcommands:
    describe       dimensions, basis labels, bracket table, chart summary
    verify         run the section suite; exit 0 on pass, 1 on failure
    reduce         emit the reduced bivector as CSV
    flow           integrate a reduced Hamiltonian flow, emit CSV + report
    bracket-table  emit the algebra bracket table as CSV (exact rationals)

Configuration is a JSON file (--config); command line flags override the
matching fields.  All randomness is drawn from the single seed field, so a
fixed config and seed reproduce every output byte for byte.  Exit codes:
0 success, 1 verification failure, 2 configuration error.

Output files go to --out when given, otherwise to the configured output
directory (config key "out_dir", overridden by the BSYMP_OUT_DIR
environment variable) under a fixed per-command file name.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import bsymp.expr as ex
from bsymp import dynamics as dyn, lie, reduction as red, verify

ENV_OUT_DIR = "BSYMP_OUT_DIR"

_DEFAULT_NAMES = {
    "reduce": "reduce.csv",
    "flow": "flow.csv",
    "bracket-table": "bracket_table.csv",
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated run configuration; exactly one group source."""

    builtin: str | None = None
    algebra: lie.LieAlgebra | None = None
    basis: list | None = None
    connection: dict | None = None
    seed: int = 42
    samples: int | None = None
    tolerance: float | None = None
    flow: dict = field(default_factory=dict)
    out_dir: str = "."

    @property
    def pair(self):
        if self.builtin is None:
            raise ConfigError("this command needs a built-in group chart")
        try:
            return lie.builtin(self.builtin)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def subject(self):
        if self.builtin is not None:
            return self.pair
        return self.algebra


def _fraction(v) -> Fraction:
    if isinstance(v, bool):
        raise ConfigError(f"not a rational number: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"bad rational {v!r}") from e
    if isinstance(v, float) and v.is_integer():
        return Fraction(int(v))
    raise ConfigError(f"not a rational number: {v!r}")


def _number(key: str, value, integer: bool = False):
    """A numeric config value: a finite JSON number, an integer if asked.

    Every numeric key and flag is read through here, so a malformed value
    is a ConfigError naming its key, never a traceback or a silent cast.
    """
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value if integer else float(value)


def _algebra_from_config(spec: dict) -> tuple[lie.LieAlgebra, list | None]:
    labels = spec.get("labels")
    if not isinstance(labels, list) or not labels or \
            not all(isinstance(s, str) for s in labels):
        raise ConfigError("custom group needs a non-empty list of labels")
    n = len(labels)
    rows = spec.get("constants")
    if not isinstance(rows, list):
        raise ConfigError("custom group needs constants: [[i, j, k, value], ...]")
    constants: dict[tuple[int, int], list[Fraction]] = {}
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4):
            raise ConfigError(f"bad constants row {row!r}")
        i, j, k, val = row
        for idx in (i, j, k):
            if not isinstance(idx, int) or not 0 <= idx < n:
                raise ConfigError(f"index out of range in {row!r}")
        constants.setdefault((i, j), [Fraction(0)] * n)[k] += _fraction(val)
    # fill the unstated orientation so sparse input stays antisymmetric
    for (i, j), rowv in list(constants.items()):
        if (j, i) not in constants:
            constants[(j, i)] = [-v for v in rowv]
    alg = lie.LieAlgebra(
        labels=tuple(labels),
        constants={k: tuple(v) for k, v in constants.items()})
    basis = None
    if "basis" in spec:
        raw = spec["basis"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ConfigError("basis must list one matrix per label")
        basis = [tuple(tuple(_fraction(v) for v in r) for r in M) for M in raw]
    return alg, basis


def load_config(path: str | None) -> RunConfig:
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"group", "connection", "seed", "verify", "flow", "out_dir"}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")

    cfg = RunConfig()
    group = data.get("group", "se2")
    if isinstance(group, str):
        cfg.builtin = group
    elif isinstance(group, dict) and "builtin" in group:
        name = group["builtin"]
        if not isinstance(name, str):
            raise ConfigError("group.builtin must be a string")
        if "n" in group:
            name = f"{name}({_number('group.n', group['n'], integer=True)})"
        cfg.builtin = name
    elif isinstance(group, dict):
        cfg.algebra, cfg.basis = _algebra_from_config(group)
    else:
        raise ConfigError("group must be a name or an object")

    conn = data.get("connection", "default")
    if conn != "default":
        if not isinstance(conn, dict):
            raise ConfigError("connection must be 'default' or an object")
        missing = {"xi", "scale"} - set(conn)
        if missing:
            raise ConfigError(f"connection needs keys {sorted(missing)}")
        if not isinstance(conn["xi"], list):
            raise ConfigError("connection.xi must be a list")
        xi = [_number(f"connection.xi[{i}]", v) for i, v in enumerate(conn["xi"])]
        cfg.connection = {**conn, "xi": xi}

    cfg.seed = _number("seed", data.get("seed", 42), integer=True)

    vopts = data.get("verify", {})
    if not isinstance(vopts, dict):
        raise ConfigError("verify options must be an object")
    if "samples" in vopts:
        cfg.samples = _number("verify.samples", vopts["samples"], integer=True)
        if cfg.samples <= 0:
            raise ConfigError("verify.samples must be positive")
    if "tolerance" in vopts:
        cfg.tolerance = _number("verify.tolerance", vopts["tolerance"])
        if cfg.tolerance <= 0:
            raise ConfigError("verify.tolerance must be positive")

    flow = data.get("flow", {})
    if not isinstance(flow, dict):
        raise ConfigError("flow options must be an object")
    cfg.flow = dict(flow)
    for key in ("dt", "T"):
        if key in flow:
            cfg.flow[key] = _number(f"flow.{key}", flow[key])
    if "x0" in flow:
        if not isinstance(flow["x0"], list):
            raise ConfigError("flow.x0 must be a list")
        cfg.flow["x0"] = [_number(f"flow.x0[{i}]", v) for i, v in enumerate(flow["x0"])]

    out_dir = os.environ.get(ENV_OUT_DIR, data.get("out_dir", "."))
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string")
    cfg.out_dir = out_dir
    return cfg


def _connection(cfg: RunConfig):
    pair = cfg.pair
    if cfg.connection is None:
        return red.make_connection(pair)
    spec = cfg.connection
    xi = spec["xi"]
    if len(xi) != len(pair.h_names):
        raise ConfigError("connection.xi must match the subgroup dimension")
    try:
        return red.make_connection(
            pair, deformation=(xi, str(spec["scale"]),
                               bool(spec.get("b_leg", False))))
    except (ValueError, ex.ExprSyntaxError) as e:
        raise ConfigError(f"bad connection: {e}") from e


def _out_path(args, command: str, cfg: RunConfig) -> str:
    if args.out is not None:
        return args.out
    return os.path.join(cfg.out_dir, _DEFAULT_NAMES[command])


# ---------------------------------------------------------------------------
# commands


def cmd_describe(cfg: RunConfig, args) -> int:
    lines = []
    if cfg.builtin is not None:
        pair = cfg.pair
        G = pair.group
        lines += [
            f"name: {pair.name}",
            f"summary: dim G={G.dim}, dim H={G.dim - 1}, G/H = {pair.quotient}",
            f"labels: {','.join(G.labels)}",
            f"subgroup: {','.join(pair.h_labels)}",
            f"transverse-label: {G.labels[pair.phi_index]}",
            f"transverse-coordinate: {pair.phi_name}",
            f"chart: ({', '.join(G.param_names)})",
            f"matrix-size: {G.matrix_dim}x{G.matrix_dim}",
        ]
        alg = G.algebra
    else:
        alg = cfg.algebra
        lines += [
            f"name: algebra({','.join(alg.labels)})",
            f"summary: dim g={alg.dim}, no group chart",
            f"labels: {','.join(alg.labels)}",
        ]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            row = alg.c(i, j)
            terms = [f"{v}*{alg.labels[k]}" for k, v in enumerate(row) if v]
            lines.append(
                f"bracket[{alg.labels[i]},{alg.labels[j]}]: "
                + (" + ".join(terms) if terms else "0"))
    print("\n".join(lines))
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    opts = verify.VerifyOptions(seed=cfg.seed, samples=cfg.samples,
                                tolerance=cfg.tolerance)
    rep = verify.run_suite(cfg.subject(), opts)
    if cfg.builtin is None and cfg.basis is not None:
        worst = verify.commutator_defect(cfg.algebra, cfg.basis)
        extra = verify.SectionResult("lie: commutator-match", worst, 0.0)
        rep = verify.VerifyReport(rep.subject, rep.seed,
                                  rep.sections + (extra,))
    print(rep.text())
    return 0 if rep.passed else 1


def cmd_reduce(cfg: RunConfig, args) -> int:
    pair = cfg.pair
    theta = _connection(cfg)
    rp = red.reduced_poisson(pair, theta)
    names = rp.coordinates
    buf = io.StringIO()
    buf.write("first,second,bracket\n")
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            e = rp.bivector.entry(i, j)
            buf.write(f"{names[i]},{names[j]},{ex.to_str(e)}\n")
    path = _out_path(args, "reduce", cfg)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
    print(f"coordinates: {','.join(names)}")
    print(f"wrote: {path}")
    return 0


def cmd_flow(cfg: RunConfig, args) -> int:
    pair = cfg.pair
    rp = red.reduced_poisson(pair)
    names = rp.coordinates
    m = len(names) - 2
    fl = dict(cfg.flow)
    try:
        H = ex.parse(str(fl.get("hamiltonian", "p")))
    except ex.ExprSyntaxError as e:
        raise ConfigError(f"bad flow hamiltonian: {e}") from e
    bad = ex.free_vars(H) - set(names)
    if bad:
        raise ConfigError(f"hamiltonian uses unknown coordinates {sorted(bad)}")
    x0 = fl.get("x0", [0.0] * m + [1.0, 0.0])
    if len(x0) != len(names):
        raise ConfigError(f"flow.x0 must list {len(names)} values")
    dt = fl.get("dt", 1e-3)
    T = fl.get("T", 1.0)
    method = str(fl.get("method", "rk4"))
    casimirs = []
    for label, text in dict(fl.get("casimirs", {})).items():
        try:
            casimirs.append((str(label), ex.parse(str(text))))
        except ex.ExprSyntaxError as e:
            raise ConfigError(f"bad casimir {label!r}: {e}") from e
    vf = dyn.hamiltonian_vf(rp.bivector, H, phi_slot=m)
    try:
        tr = dyn.integrate(vf, x0, dt, T, method=method,
                           casimirs=[e for _, e in casimirs],
                           substitution=bool(fl.get("substitution", False)))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    except dyn.ChartExitError as e:
        print(f"flow left the chart: {e}", file=sys.stderr)
        return 1
    path = _out_path(args, "flow", cfg)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        dyn.write_csv(tr, vf, fh, casimirs=casimirs)
    rep = dyn.leaf_report(rp.bivector, tr, phi_slot=m)
    print("\n".join(rep.lines()))
    print(f"wrote: {path}")
    return 0


def cmd_bracket_table(cfg: RunConfig, args) -> int:
    if cfg.builtin is not None:
        alg = cfg.pair.group.algebra
    else:
        alg = cfg.algebra
    buf = io.StringIO()
    buf.write("i,j," + ",".join(alg.labels) + "\n")
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            row = alg.c(i, j)
            buf.write(f"{alg.labels[i]},{alg.labels[j]},"
                      + ",".join(str(v) for v in row) + "\n")
    path = _out_path(args, "bracket-table", cfg)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
    print(f"wrote: {path}")
    return 0


_DISPATCH = {
    "describe": cmd_describe,
    "verify": cmd_verify,
    "reduce": cmd_reduce,
    "flow": cmd_flow,
    "bracket-table": cmd_bracket_table,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bsymp",
        description="singular symplectic structures on group cotangent "
                    "bundles: inspection, verification, reduction, flows")
    ap.add_argument("command", choices=sorted(_DISPATCH))
    ap.add_argument("--config", metavar="PATH", default=None)
    ap.add_argument("--seed", metavar="N", type=int, default=None)
    ap.add_argument("--out", metavar="PATH", default=None)
    ap.add_argument("--tolerance", metavar="X", type=float, default=None)
    ap.add_argument("--group", metavar="NAME", default=None,
                    help="built-in group, overrides the config")
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.tolerance is not None:
            cfg.tolerance = _number("--tolerance", args.tolerance)
            if cfg.tolerance <= 0:
                raise ConfigError("--tolerance must be positive")
        if args.group is not None:
            cfg.builtin = args.group
            cfg.algebra = None
            cfg.basis = None
        return _DISPATCH[args.command](cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
