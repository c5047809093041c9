"""Hamiltonian fields from Poisson bivectors and fixed-step flows.

The reduced bivectors built elsewhere carry the transverse coordinate as an
explicit factor in their transverse block, so the corresponding Hamiltonian
fields are tangent to the zero slice structurally: the slice component of
the field is a product with that coordinate, and a trajectory started on
the slice stays there bit for bit without any event detection.

Integrators are fixed-step (rk4, explicit midpoint) on the raw chart by
default, so convergence-order measurements mean what they say.  Runs that
should respect the multiplicative character of the transverse coordinate
exactly can opt into a substitution that integrates u = log|phi| and keeps
the sign frozen; it is never switched on silently.

`integrate` runs the whole fixed-step loop in one generated function,
written with `expr.emit` and compiled by `expr.build`: every
stage inlines the field, and each accepted row is checked finite, has H
and the Casimirs evaluated and checked finite, and is appended to flat
`array('d')` buffers, 8 bytes per stored value, all in that function.  It
is cached on the VectorField per method, substitution and Casimirs, so
another dt or start reuses it.  The drifts are taken from the stored
values, and the CSV's H and Casimir columns are those values: `write_csv`
and `leaf_report` only read the trajectory.  Every step computes in
plain floats, so a flow never imports numpy.

Given a `contextlib.ExitStack` as `handoff`, `integrate` runs the loop in
blocks of steps and forks a child through `_fork` for each finished block
but the last, which formats the block's CSV lines on the second processor
while the loop goes on; `write_csv` copies them and formats the rest here.
Without one (as in `verify`), or when the flow is too short for two
blocks, `write_csv` formats every row here.  Either way the bytes are
those of a serial run.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import MutableSequence, Sequence

import bsymp.expr as ex
from bsymp import _fork
from bsymp.expr import Expr, Var, ZERO
from bsymp.bcalc import PoissonBivector


class ChartExitError(RuntimeError):
    """The field failed or the state stopped being finite; carries the exit time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class InvariantError(ValueError):
    """H or a Casimir failed on a row; `index` is 0 for H, i + 1 for casimirs[i]."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass
class VectorField:
    """Coordinate components of a vector field, with optional bookkeeping.

    `hamiltonian` is carried along so integrators can report energy drift;
    `phi_slot` marks the transverse coordinate for slice diagnostics and
    the multiplicative substitution.  Neither affects the field itself.
    """

    names: tuple[str, ...]
    components: tuple[Expr, ...]
    hamiltonian: Expr | None = None
    phi_slot: int | None = None
    flows: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def hamiltonian_vf(P: PoissonBivector, H: Expr,
                   phi_slot: int | None = None) -> VectorField:
    """X_H with X_H(F) = {F, H}; components are {x_i, H} as expressions.

    Products with the bivector entries are kept as written, so an entry
    that is a multiple of a coordinate stays one in the components: the
    tangency of the field to that coordinate's zero set is visible in the
    expression tree, not just numerically.
    """
    comps = tuple(P.bracket(Var(n), H) for n in P.names)
    return VectorField(names=tuple(P.names), components=comps,
                       hamiltonian=H, phi_slot=phi_slot)


@dataclass
class Trajectory:
    """Fixed-step integration output in flat, row-major array('d') buffers:
    `rows` holds the state of step k at k * n .. k * n + n - 1 (n = len(names)), and
    `invariants`, laid out the same way, H there (0.0 without a
    Hamiltonian), then each Casimir."""

    dt: float
    names: tuple[str, ...]
    rows: MutableSequence[float]
    invariants: MutableSequence[float]
    method: str
    phi_slot: int | None = None
    energy_drift: float | None = None
    casimir_drifts: tuple[float, ...] = ()
    phi_floor: float | None = None
    # (start, stop, child): rows start .. stop - 1, handed in order to a
    # `_fork.Fork` child that formats their CSV lines (see write_csv)
    handed_off: list = field(default_factory=list, repr=False, compare=False)

    @property
    def times(self) -> MutableSequence[float]:
        """k * dt for each stored step k."""
        return _doubles([k * self.dt for k in range(len(self.rows) // len(self.names))])

    def column(self, i: int) -> MutableSequence[float]:
        """Coordinate i at every step."""
        return self.rows[i::len(self.names)]

    @property
    def final(self) -> MutableSequence[float]:
        return self.rows[-len(self.names):]


def _doubles(values=()) -> MutableSequence[float]:
    """values as an array('d'); the array extension, which adds about 0.2 MiB
    to a process's resident size, loads on a flow's first use."""
    from array import array
    return array("d", values)


def _raise_invariant_error(exprs, names, x, t, err):
    """An InvariantError naming the first expression that fails or is not
    finite at x; err if none is."""
    point = dict(zip(names, x))
    for i, e in enumerate(exprs):
        try:
            value = ex.evaluate(e, point)
        except ex.DomainError as fail:
            raise InvariantError(f"cannot be evaluated at t={t:.6g}: {fail}", i) from fail
        if not math.isfinite(value):
            raise InvariantError(f"is not finite at t={t:.6g}: {value!r}", i)
    raise err


MAX_STEPS = 10**6  # every row is kept in memory
BLOCKS = 8  # a flow run with a handoff: at most BLOCKS - 1 children at once
# the fewest steps in a handed-off block: formatting 1000 rows takes 7-21 ms
# on a 2-processor host, and forking a flow process about 1 ms
BLOCK_STEPS = 1000


def step_count(dt: float, T: float) -> int:
    """round(T/dt), the number of fixed steps over [0, T], at most MAX_STEPS."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < dt:
        raise ValueError("T must be at least dt")
    if T / dt > MAX_STEPS:
        raise ValueError(f"T is more than {MAX_STEPS} steps of dt")
    return int(round(T / dt))


_BIG = sys.float_info.max


def _finite(ids):
    """Source testing that every value in ids is finite: within the largest
    float, which nan is not."""
    return " and ".join(f"{-_BIG!r} <= {v} <= {_BIG!r}" for v in ids)


def _guarded(lines, indent, failure):
    """lines in a try that returns `failure` on an evaluation error; none if no lines."""
    if not lines:
        return []
    return [f"{indent}try:", *lines, f"{indent}except _ERRORS as err:",
            f"{indent}    return {failure}"]


def _generate_flow(vf: VectorField, invariants: Sequence[Expr], method: str,
                   sub: bool):
    """The fixed-step loop over a range of steps as one function, built
    with `expr.emit`.

    `flow(s, rows, values, k0, k1, dt, sgn)` runs steps k0 .. k1 - 1 from
    the state s, held in locals s0..s{n-1}, and returns (state, None) with
    the state it ends in, so a run split into ranges computes what one
    whole range does, bit for bit.  Each stage inlines the field once;
    with `sub`, the slot `phi_slot` of the state holds u = log|phi|, the
    field reads sgn * exp(u) there and its component there is divided by
    that value.  The stage arithmetic is written as the rk4 and midpoint
    formulas read, `a + 0.5 * dt * b` and
    `a + dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)`, with the products
    0.5 * dt and dt / 6.0 computed once.  Each accepted row is checked
    finite, its invariants are evaluated and checked finite, and both are
    appended to `rows` and `values`; with k0 == 0, row 0's invariants are
    too, at the start row stored in `rows`.  A step that is not accepted
    returns (None, (k, where, row, err)): the step, "field", "chart" or
    "invariant", the row (row 0 for k = -1; a "chart" row may go on with
    its invariants) and the error caught, None for a value that is not
    finite.
    """
    n = len(vf.names)
    m = vf.phi_slot
    state = [f"s{i}" for i in range(n)]
    ind = " " * 12
    body: list[str] = []

    def stage(j, inputs):
        env = dict(zip(vf.names, inputs))
        if sub:
            body.append(f"{ind}e{j} = sgn * _exp({inputs[m]})")
            env[vf.names[m]] = f"e{j}"
        lines, out = ex.emit(vf.components, env, f"f{j}_", ind)
        body.extend(lines)
        if sub:
            body.append(f"{ind}q{j} = {out[m]} / e{j}")
            out[m] = f"q{j}"
        return out

    def shifted(j, coef, k):
        ys = [f"y{j}_{i}" for i in range(n)]
        body.extend(f"{ind}{y} = {s} + {coef} * {b}" for y, s, b in zip(ys, state, k))
        return ys

    k1 = stage(1, state)
    k2 = stage(2, shifted(2, "half", k1))
    if method == "rk4":
        k3 = stage(3, shifted(3, "half", k2))
        k4 = stage(4, shifted(4, "dt", k3))
        new = [f"{s} + sixth * ({b1} + 2 * {b2} + 2 * {b3} + {b4})"
               for s, b1, b2, b3, b4 in zip(state, k1, k2, k3, k4)]
    else:
        new = [f"{s} + dt * {b}" for s, b in zip(state, k2)]
    body.append(f"{ind}{', '.join(state)} = {', '.join(new)}")

    row = list(state)
    if sub:
        row[m] = "r"
    tup = f"({', '.join(row)},)"
    g_lines, g = ex.emit(invariants, dict(zip(vf.names, row)), "g", ind)
    src = ["def _flow(s, rows, values, k0, k1, dt, sgn):",
           f"    {', '.join(state)}, = s",
           "    if k0 == 0:",
           *([f"        r = rows[{m}]"] if sub else []),
           *_guarded(g_lines, "        ", f"None, (-1, 'invariant', {tup}, err)"),
           f"        if not ({_finite(g)}):",
           f"            return None, (-1, 'invariant', {tup}, None)",
           f"        values.extend(({', '.join(g)},))",
           "    half = 0.5 * dt",
           "    sixth = dt / 6.0",
           "    for k in range(k0, k1):",
           *_guarded(body, "        ", "None, (k, 'field', None, err)")]
    if sub:
        src += ["        try:",
                f"            r = sgn * _exp(s{m})",
                "        except OverflowError:",
                "            r = sgn * inf"]
    src += [f"        if not ({_finite(row)}):",
            f"            return None, (k, 'chart', {tup}, None)",
            *_guarded(g_lines, "        ", f"None, (k, 'invariant', {tup}, err)"),
            f"        if not ({_finite(g)}):",
            f"            return None, (k, 'chart', ({', '.join([*row, *g])},), None)",
            f"        rows.extend({tup})",
            f"        values.extend(({', '.join(g)},))",
            f"    return ({', '.join(state)},), None"]
    return ex.build("\n".join(src) + "\n", "_flow", inf=math.inf, nan=math.nan,
                    _ERRORS=(ArithmeticError, ValueError))


def integrate(vf: VectorField, x0: Sequence[float], dt: float, T: float,
              method: str = "rk4", casimirs: Sequence[Expr] = (),
              substitution: bool = False,
              handoff: contextlib.ExitStack | None = None) -> Trajectory:
    """Integrate vf from x0 over [0, T] with a fixed step.

    With substitution=True (requires phi_slot and a nonzero start there)
    the transverse slot is advanced as u = log|phi| and the sign is frozen.
    A start with phi exactly 0 is held at exactly 0 with or without it: the
    slice component of the field is a product with phi, so every stage
    contributes 0.0 exactly.

    The steps run in one generated function (`_generate_flow`), cached on
    vf by method, substitution and casimirs, so another dt or x0 reuses
    it.  A non-finite x0 is a ValueError naming its first such coordinate,
    before any step.  A failed field evaluation is a ChartExitError at the
    start time of its step; a row, or H or a Casimir on it, that is not
    finite, or overflows, or reads such an overflow in sin or cos, a
    ChartExitError at the row's time: the state has escaped past where its
    values fit a float.  A row where H or a Casimir cannot be evaluated for
    another reason, and a start where one fails or is not finite, is an
    InvariantError.  An evaluation error is the cause of each, as the
    DomainError `expr.evaluate` raises there (`expr.domain_error`),
    overflow included.

    With `handoff`, the function runs BLOCKS equal blocks of steps, fewer
    when a block would have less than BLOCK_STEPS, each from the state the
    one before ended in, so the rows are a whole run's bit for bit and a
    step's time is its own.  After each block but the last, a `_fork.Fork`
    child entered on `handoff` formats the CSV lines of the rows finished
    since the block before; the trajectory lists them in `handed_off`, for
    `write_csv`.  Leaving `handoff` kills (SIGKILL) and reaps every child,
    done or not, whether the CSV was written, the flow left the chart, a
    write failed or a KeyboardInterrupt arrived, so no process outlives it.
    """
    steps = step_count(dt, T)
    if method not in ("rk4", "midpoint"):
        raise ValueError("method must be 'rk4' or 'midpoint'")
    n = len(vf.names)
    x = [float(v) for v in x0]
    if len(x) != n:
        raise ValueError("x0 does not match the chart dimension")
    bad = next((i for i, v in enumerate(x) if not math.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"x0 has the non-finite value {x[bad]!r} for {vf.names[bad]}")
    m = vf.phi_slot
    sub = False
    sgn = 1.0
    if substitution:
        if m is None:
            raise ValueError("substitution needs a marked transverse slot")
        if x[m] != 0.0:
            sub = True
            sgn = math.copysign(1.0, x[m])
    invariants = [ZERO if vf.hamiltonian is None else vf.hamiltonian, *casimirs]
    key = (method, sub, tuple(casimirs))
    flow = vf.flows.get(key)
    if flow is None:
        flow = vf.flows[key] = _generate_flow(vf, invariants, method, sub)
    tr = Trajectory(dt=dt, names=vf.names, rows=_doubles(x), invariants=_doubles(),
                    method=method, phi_slot=m)
    rows, values, nv = tr.rows, tr.invariants, len(invariants)
    state = list(x)
    if sub:
        state[m] = math.log(abs(x[m]))
    blocks = 1 if handoff is None else max(1, min(BLOCKS, steps // BLOCK_STEPS))
    ends = [steps * b // blocks for b in range(1, blocks + 1)]
    for k0, k1 in zip([0, *ends], ends):
        state, failure = flow(state, rows, values, k0, k1, dt, sgn)
        if failure is not None:
            break
        if k1 < steps:  # rows up to k1 are final: a child formats those not handed off yet
            start = tr.handed_off[-1][1] if tr.handed_off else 0
            work = functools.partial(_csv_chunks, tr, nv, start, k1 + 1)
            tr.handed_off.append((start, k1 + 1, handoff.enter_context(_fork.Fork(work))))
    if failure is not None:
        k, where, row, raw = failure
        err = None if raw is None else ex.domain_error(raw)
        if where == "field":
            raise ChartExitError(f"field evaluation failed at t={k * dt:.6g}: {err}",
                                 k * dt) from err
        t = (k + 1) * dt
        labels = [*vf.names, "H", *(f"Casimir {ex.to_str(c)}" for c in casimirs)]
        if where == "chart":  # the generated check fails only on a non-finite value
            i = next(i for i, v in enumerate(row) if not math.isfinite(v))
            raise ChartExitError(f"{labels[i]} became non-finite at t={t:.6g}", t)
        try:
            _raise_invariant_error(invariants, vf.names, row, t, err)
        except InvariantError as fail:
            # past the float range on an accepted row, as a product overflowing
            # to inf, or sin or cos reading such an inf (a bare ValueError: log's
            # DomainError subclasses it and stays an InvariantError)
            if k < 0 or not (isinstance(raw, OverflowError) or type(raw) is ValueError):
                raise
            raise ChartExitError(f"{labels[n + fail.index]} became non-finite at t={t:.6g}",
                                 t) from err
    drifts = [max(abs(v - col[0]) for v in col) for col in (values[i::nv] for i in range(nv))]
    tr.energy_drift = None if vf.hamiltonian is None else drifts[0]
    tr.casimir_drifts = tuple(drifts[1:])
    tr.phi_floor = None if m is None else min(map(abs, rows[m::n]))
    return tr


@dataclass(frozen=True)
class LeafReport:
    sign_constant: bool
    on_slice: bool
    energy_drift: float | None
    casimir_drifts: dict[str, float]
    phi_floor: float | None

    def lines(self) -> list[str]:
        out = [f"sign-constant: {str(self.sign_constant).lower()}",
               f"on-slice: {str(self.on_slice).lower()}"]
        if self.energy_drift is not None:
            out.append(f"energy-drift: {self.energy_drift!r}")
        for k, v in self.casimir_drifts.items():
            out.append(f"drift[{k}]: {v!r}")
        if self.phi_floor is not None:
            out.append(f"phi-floor: {self.phi_floor!r}")
        return out


def _structural_casimir_slots(P: PoissonBivector) -> list[int]:
    # coordinates whose bivector row vanishes identically as written;
    # their value is constant along every Hamiltonian flow
    alive = set()
    for (i, j), e in P.entries.items():
        if not ex.is_zero(e):
            alive.add(i)
            alive.add(j)
    return [k for k in range(len(P.names)) if k not in alive]


def leaf_report(P: PoissonBivector, traj: Trajectory) -> LeafReport:
    """Slice and conservation diagnostics for a finished trajectory.

    Coordinates whose bivector row is identically zero are linear functions
    with vanishing bracket against everything, so their drift is reported
    as a Casimir drift without the caller naming them.
    """
    m = traj.phi_slot
    sign_ok = True
    on_slice = False
    if m is not None:
        col = traj.column(m)
        on_slice = all(v == 0.0 for v in col)
        if not on_slice:
            sign_ok = all(v > 0.0 for v in col) or all(v < 0.0 for v in col)
    drifts = {}
    for k in _structural_casimir_slots(P):
        col = traj.column(k)
        drifts[P.names[k]] = max(abs(v - col[0]) for v in col)
    return LeafReport(sign_constant=sign_ok, on_slice=on_slice,
                      energy_drift=traj.energy_drift,
                      casimir_drifts=drifts, phi_floor=traj.phi_floor)


def _csv_lines(traj: Trajectory, nv: int, start: int, stop: int):
    """The CSV lines of steps start .. stop - 1, each ending in a newline;
    t is k * dt, as `Trajectory.times` computes it."""
    n, dt, rows, values = len(traj.names), traj.dt, traj.rows, traj.invariants
    for k in range(start, stop):
        yield ",".join(map(repr, [k * dt, *rows[k * n:k * n + n],
                                  *values[k * nv:k * nv + nv]])) + "\n"


def _csv_chunks(traj: Trajectory, nv: int, start: int, stop: int) -> list[bytes]:
    """The CSV lines of steps start .. stop - 1 as a child sends them:
    encoded 1024 rows at a time and never joined, so it holds them once."""
    return ["".join(_csv_lines(traj, nv, k, min(k + 1024, stop))).encode()
            for k in range(start, stop, 1024)]


def write_csv(traj: Trajectory, fh, labels: Sequence[str] = ()) -> None:
    """One row per step: t, coordinates, H, then one column per Casimir label.

    The H and Casimir columns are the values `integrate` stored, the same
    ones the drifts are read from.  Floats are written with repr, which
    round-trips IEEE-754 doubles.

    The rows come in parts, in order.  A flow run with a handoff may have
    handed each block but the last to a child, which formatted it while
    the loop went on; the rows not handed off are formatted here.  A
    child's lines are copied into fh as they arrive, in 64 KiB reads, so
    every write to fh is made here and the bytes equal a serial run's.
    The rows a child did not deliver whole (there is no os.fork, the child
    failed or its owner has ended it) are formatted here, from the first
    one missing.  This function forks nothing itself.
    """
    n, nv = len(traj.names), len(labels) + 1
    if len(traj.invariants) * n != len(traj.rows) * nv:
        raise ValueError("write_csv needs one label per Casimir")
    handed = traj.handed_off
    rest = (handed[-1][1] if handed else 0, len(traj.rows) // n, None)
    fh.write("t," + ",".join([*traj.names, "H", *labels]) + "\n")
    for start, stop, child in [*handed, rest]:
        done, part = start, b""
        while child is not None and (piece := child.read(1 << 16)):
            part += piece
            whole = part.rfind(b"\n") + 1
            fh.write(part[:whole].decode())
            done += part.count(b"\n", 0, whole)
            part = part[whole:]
        for line in _csv_lines(traj, nv, done, stop):
            fh.write(line)
