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
0 success, 1 verification failure, 2 configuration error or an output
that cannot be written (an --out file, or stdout).

Output files go to --out when given, otherwise to the configured output
directory (config key "out_dir", overridden by the BSYMP_OUT_DIR
environment variable) under a fixed per-command file name.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
from collections import Counter
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


def _fraction(key: str, v) -> Fraction:
    """A rational config value: an integer, or a string of the expression
    grammar that folds to a constant (`"1/2"`, `"-3"`, `"0.25"`).  Both are
    read by the grammar, which bounds their digits and refuses a constant
    whose float overflows."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, (str, int)) and not isinstance(v, bool):
        try:
            c = ex.parse(str(v))
        except ex.ExprSyntaxError as e:
            raise ConfigError(f"{key}: {e}") from e
        if isinstance(c, ex.Const):
            return c.value
    raise ConfigError(f"{key} must be an integer or a rational string, got {v!r}")


def _number(key: str, value, integer: bool = False):
    """A numeric config value: a finite JSON number, an integer if asked.

    Every numeric key and flag is read through here, so a malformed value
    is a ConfigError naming its key, never a traceback or a silent cast.
    """
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    if integer:
        return value
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{key} must be finite, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


_FLOW_KEYS = {"hamiltonian", "x0", "dt", "T", "method", "substitution", "casimirs"}
_CONNECTION_KEYS = {"xi", "scale", "b_leg"}
_BUILTIN_KEYS = {"builtin", "n"}
_CUSTOM_KEYS = {"labels", "constants", "basis"}


def _check_keys(section: str | None, options: dict, known: set[str]) -> None:
    """Reject a key that no command reads, naming it first: a key of the
    config root when `section` is None, else a key inside that section."""
    extra = sorted(set(options) - known)
    if extra:
        key = extra[0] if section is None else f"{section}.{extra[0]}"
        raise ConfigError(f"{key}: unknown key; {section or 'a config'} takes {sorted(known)}")


def _algebra_from_config(spec: dict) -> tuple[lie.LieAlgebra, list | None]:
    labels = spec.get("labels")
    if not isinstance(labels, list) or not labels or \
            not all(isinstance(s, str) for s in labels):
        raise ConfigError("group.labels must be a non-empty list of strings")
    for i, s in enumerate(labels):
        # a label is a CSV column and a report field: a `name` of the grammar
        if not ex.NAME.fullmatch(s):
            raise ConfigError(f"group.labels[{i}] must be a name (a letter, then letters, "
                              f"digits or _), got {s!r}")
    repeated = sorted(s for s, k in Counter(labels).items() if k > 1)
    if repeated:
        raise ConfigError(f"group.labels must be distinct, repeated: {repeated}")
    n = len(labels)
    rows = spec.get("constants")
    if not isinstance(rows, list):
        raise ConfigError("group.constants must be a list of [i, j, k, value] rows")
    constants: dict[tuple[int, int], dict[int, Fraction]] = {}
    for r, row in enumerate(rows):
        key = f"group.constants[{r}]"
        if not (isinstance(row, list) and len(row) == 4):
            raise ConfigError(f"{key} must be [i, j, k, value], got {row!r}")
        i, j, k, val = row
        for idx in (i, j, k):
            if isinstance(idx, bool) or not isinstance(idx, int) or not 0 <= idx < n:
                raise ConfigError(f"{key}: index out of range in {row!r}")
        got = constants.setdefault((i, j), {})
        got[k] = got.get(k, 0) + _fraction(key, val)
    # fill the unstated orientation so sparse input stays antisymmetric
    for (i, j), rowv in list(constants.items()):
        if (j, i) not in constants:
            constants[(j, i)] = {k: -v for k, v in rowv.items()}
    alg = lie.LieAlgebra(labels=tuple(labels), constants={
        key: {k: rowv[k] for k in sorted(rowv) if rowv[k]} for key, rowv in constants.items()})
    basis = None
    if "basis" in spec:
        raw = spec["basis"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ConfigError("group.basis must list one matrix per label")
        m = len(raw[0]) if isinstance(raw[0], list) else 0
        for M in raw:
            if not (isinstance(M, list) and len(M) == m > 0
                    and all(isinstance(r, list) and len(r) == m for r in M)):
                raise ConfigError(f"group.basis must hold square matrices of one size, got {M!r}")
        basis = [tuple(tuple(_fraction(f"group.basis[{a}][{r}][{c}]", v)
                             for c, v in enumerate(row)) for r, row in enumerate(M))
                 for a, M in enumerate(raw)]
        try:  # linearly independent and closed under commutators
            lie.structure_constants_from_matrices(basis)
        except ValueError as e:
            raise ConfigError(f"group.basis: {e}") from e
    return alg, basis


def load_config(path: str | None) -> RunConfig:
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        except ValueError as e:  # a JSONDecodeError, or an integer past int()'s digit limit
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(None, data, {"group", "connection", "seed", "flow", "out_dir"})

    cfg = RunConfig()
    group = data.get("group", "se2")
    if isinstance(group, str):
        cfg.builtin = group
    elif isinstance(group, dict) and "builtin" in group:
        _check_keys("group", group, _BUILTIN_KEYS)
        name = group["builtin"]
        if not isinstance(name, str):
            raise ConfigError("group.builtin must be a string")
        if "n" in group:
            name = f"{name}({_number('group.n', group['n'], integer=True)})"
        cfg.builtin = name
    elif isinstance(group, dict):
        _check_keys("group", group, _CUSTOM_KEYS)
        cfg.algebra, cfg.basis = _algebra_from_config(group)
    else:
        raise ConfigError("group must be a name or an object")

    conn = data.get("connection", "default")
    if conn != "default":
        if not isinstance(conn, dict):
            raise ConfigError("connection must be 'default' or an object")
        _check_keys("connection", conn, _CONNECTION_KEYS)
        missing = {"xi", "scale"} - set(conn)
        if missing:
            raise ConfigError(f"connection needs keys {sorted(missing)}")
        if not isinstance(conn["xi"], list):
            raise ConfigError("connection.xi must be a list")
        xi = [_number(f"connection.xi[{i}]", v) for i, v in enumerate(conn["xi"])]
        try:
            scale = ex.parse(str(conn["scale"]))
        except ex.ExprSyntaxError as e:
            raise ConfigError(f"connection.scale: {e}") from e
        if not isinstance(conn.get("b_leg", False), bool):
            raise ConfigError(f"connection.b_leg must be true or false, got {conn['b_leg']!r}")
        cfg.connection = {**conn, "xi": xi, "scale": scale}

    cfg.seed = _number("seed", data.get("seed", 42), integer=True)

    flow = data.get("flow", {})
    if not isinstance(flow, dict):
        raise ConfigError("flow options must be an object")
    _check_keys("flow", flow, _FLOW_KEYS)
    cfg.flow = dict(flow)
    for key in ("dt", "T"):
        if key in flow:
            cfg.flow[key] = _number(f"flow.{key}", flow[key])
    if "x0" in flow:
        if not isinstance(flow["x0"], list):
            raise ConfigError("flow.x0 must be a list")
        cfg.flow["x0"] = [_number(f"flow.x0[{i}]", v) for i, v in enumerate(flow["x0"])]
    if flow.get("method", "rk4") not in ("rk4", "midpoint"):
        raise ConfigError(f"flow.method must be 'rk4' or 'midpoint', got {flow['method']!r}")
    if not isinstance(flow.get("substitution", False), bool):
        raise ConfigError(f"flow.substitution must be true or false, got {flow['substitution']!r}")
    if not isinstance(flow.get("casimirs", {}), dict):
        raise ConfigError(f"flow.casimirs must be an object of label: expression, "
                          f"got {flow['casimirs']!r}")

    out_dir = os.environ.get(ENV_OUT_DIR, data.get("out_dir", "."))
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string")
    cfg.out_dir = out_dir
    return cfg


def _connection(cfg: RunConfig):
    """The configured connection, built and axiom-checked; a ConfigError if
    it does not fit the group or fails its axioms."""
    pair = cfg.pair
    spec = cfg.connection
    xi = spec["xi"]
    if len(xi) != len(pair.h_names):
        raise ConfigError("connection.xi must match the subgroup dimension")
    extra = ex.free_vars(spec["scale"]) - {pair.phi_name}
    if extra:
        raise ConfigError(f"connection.scale may use only {pair.phi_name}, got {sorted(extra)}")
    try:
        return red.make_connection(
            pair, deformation=(xi, spec["scale"], spec.get("b_leg", False)))
    except ex.DomainError as e:
        raise ConfigError(f"connection.scale {e}") from e
    except ValueError as e:
        raise ConfigError(f"bad connection: {e}") from e


def _out_path(args, command: str, cfg: RunConfig) -> tuple[str, str]:
    """The output file, checked before any work: a file in an existing
    directory, with the flag, key or variable that named it."""
    if args.out is not None:
        key, path = "--out", args.out
    else:
        key = ENV_OUT_DIR if ENV_OUT_DIR in os.environ else "out_dir"
        path = os.path.join(cfg.out_dir, _DEFAULT_NAMES[command])
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"{key}: no such directory {folder!r}")
    if os.path.isdir(path):
        raise ConfigError(f"{key}: {path!r} is a directory")
    return key, path


def _write_out(key: str, path: str, write) -> None:
    """write(fh) on the output file; an OSError opening or writing it (a full
    disk, a file that takes no writes) is a ConfigError naming its key."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as e:
        raise ConfigError(f"{key}: cannot write {path!r}: {e.strerror or e}") from e


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
            terms = [f"{v}*{alg.labels[k]}" for k, v in sorted(alg.c(i, j).items()) if v]
            lines.append(
                f"bracket[{alg.labels[i]},{alg.labels[j]}]: "
                + (" + ".join(terms) if terms else "0"))
    print("\n".join(lines))
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    rep = verify.run_suite(cfg.subject(), cfg.seed, cfg.basis)
    print(rep.text())
    return 0 if rep.passed else 1


def cmd_reduce(cfg: RunConfig, args) -> int:
    pair = cfg.pair
    key, path = _out_path(args, "reduce", cfg)
    if cfg.connection is not None:
        # every connection gives this table, so a configured one is built
        # only to refuse a bad config; the default one is not built at all
        _connection(cfg)
    rp = red.reduced_poisson(pair)
    names = rp.names
    buf = io.StringIO()
    buf.write("first,second,bracket\n")
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            e = rp.entry(i, j)
            buf.write(f"{names[i]},{names[j]},{ex.to_str(e)}\n")
    _write_out(key, path, lambda fh: fh.write(buf.getvalue()))
    print(f"coordinates: {','.join(names)}")
    print(f"wrote: {path}")
    return 0


def cmd_flow(cfg: RunConfig, args) -> int:
    pair = cfg.pair
    key, path = _out_path(args, "flow", cfg)
    rp = red.reduced_poisson(pair)
    names = rp.names
    m = len(names) - 2
    fl = dict(cfg.flow)
    for label in fl.get("casimirs", {}):
        # a label is a CSV column name: a `name` of the expression grammar
        if not ex.NAME.fullmatch(label) or label in ("t", "H", *names):
            raise ConfigError(f"flow.casimirs.{label}: a label must be a name other "
                              f"than t, H and the coordinates {', '.join(names)}")
    x0 = fl.get("x0", [0.0] * m + [1.0, 0.0])
    if len(x0) != len(names):
        raise ConfigError(f"flow.x0 must list {len(names)} values")
    dt = fl.get("dt", 1e-3)
    T = fl.get("T", 1.0)
    try:
        dyn.step_count(dt, T)
    except ValueError as e:
        raise ConfigError(f"flow.{e}") from e
    H = _coordinate_expr("flow.hamiltonian", fl.get("hamiltonian", "p"), names)
    casimirs = [(str(label), _coordinate_expr(f"flow.casimirs.{label}", text, names))
                for label, text in fl.get("casimirs", {}).items()]
    vf = dyn.hamiltonian_vf(rp, H, phi_slot=m)
    with contextlib.ExitStack() as handoff:  # children format finished blocks while the loop runs
        try:
            tr = dyn.integrate(vf, x0, dt, T, method=fl.get("method", "rk4"),
                               casimirs=[e for _, e in casimirs],
                               substitution=fl.get("substitution", False), handoff=handoff)
        except dyn.InvariantError as e:
            key = ("flow.hamiltonian" if e.index == 0
                   else f"flow.casimirs.{casimirs[e.index - 1][0]}")
            raise ConfigError(f"{key} {e}") from e
        except dyn.ChartExitError as e:
            print(f"flow left the chart: {e}", file=sys.stderr)
            return 1
        _write_out(key, path, lambda fh: dyn.write_csv(tr, fh, [label for label, _ in casimirs]))
    rep = dyn.leaf_report(rp, tr)
    print("\n".join(rep.lines()))
    for (label, _), drift in zip(casimirs, tr.casimir_drifts):
        print(f"drift[{label}]: {drift!r}")
    print(f"wrote: {path}")
    return 0


def _coordinate_expr(key: str, text, names) -> ex.Expr:
    """A flow expression over the reduced coordinates; errors name the key."""
    try:
        e = ex.parse(str(text))
    except ex.ExprSyntaxError as err:
        raise ConfigError(f"{key}: {err}") from err
    bad = ex.free_vars(e) - set(names)
    if bad:
        raise ConfigError(f"{key} uses unknown coordinates {sorted(bad)}")
    return e


def cmd_bracket_table(cfg: RunConfig, args) -> int:
    if cfg.builtin is not None:
        alg = cfg.pair.group.algebra
    else:
        alg = cfg.algebra
    key, path = _out_path(args, "bracket-table", cfg)
    buf = io.StringIO()
    buf.write("i,j," + ",".join(alg.labels) + "\n")
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            row = alg.c(i, j)
            buf.write(f"{alg.labels[i]},{alg.labels[j]},"
                      + ",".join(str(row.get(k, 0)) for k in range(alg.dim)) + "\n")
    _write_out(key, path, lambda fh: fh.write(buf.getvalue()))
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
        if args.group is not None:
            cfg.builtin = args.group
            cfg.algebra = None
            cfg.basis = None
        code = _DISPATCH[args.command](cfg, args)
        sys.stdout.flush()
        return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # the commands report a failure on a file they open as a ConfigError,
        # so this is stdout's: full, or a pipe whose reader has gone.  fd 1
        # goes to devnull, so the flush at exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        print(f"config error: stdout: cannot write: {e.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
