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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

import bsymp.expr as ex
from bsymp.expr import Expr, Var, ZERO
from bsymp.bcalc import PoissonBivector


class ChartExitError(RuntimeError):
    """The state left the admissible box; carries the exit time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


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

    @cached_property
    def compiled(self):
        """All components as one compiled function of the coordinates."""
        return ex.compile_exprs(list(self.components), list(self.names))

    def __call__(self, x: Sequence[float]) -> list[float]:
        return self.compiled(list(map(float, x)))


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
    """Fixed-step integration output plus conservation diagnostics."""

    dt: float
    times: np.ndarray
    rows: np.ndarray
    method: str
    energy_drift: float | None = None
    casimir_drifts: tuple[float, ...] = ()
    phi_floor: float | None = None

    def __post_init__(self):
        assert self.rows.ndim == 2 and len(self.times) == len(self.rows)
        assert np.all(np.diff(self.times) > 0)

    @property
    def final(self) -> np.ndarray:
        return self.rows[-1]


def _check_box(x, box, names, t):
    for i, v in enumerate(x):
        if not math.isfinite(v):
            raise ChartExitError(
                f"{names[i]} became non-finite at t={t:.6g}", t)
    if box is None:
        return
    for i, (lo, hi) in enumerate(box):
        if not (lo <= x[i] <= hi):
            raise ChartExitError(
                f"{names[i]}={x[i]:.6g} left [{lo:.6g}, {hi:.6g}] "
                f"at t={t:.6g}", t)


def integrate(vf: VectorField, x0: Sequence[float], dt: float, T: float,
              method: str = "rk4", box=None,
              casimirs: Sequence[Expr] = (),
              substitution: bool = False) -> Trajectory:
    """Integrate vf from x0 over [0, T] with a fixed step.

    With substitution=True (requires phi_slot and a nonzero start there)
    the transverse slot is advanced as u = log|phi| and the sign is frozen.
    A start with phi exactly 0 is held at exactly 0 in either mode: the
    slice component of the field is a product with phi, so every stage
    contributes 0.0 exactly.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < dt:
        raise ValueError("T must be at least dt")
    if method not in ("rk4", "midpoint"):
        raise ValueError("method must be 'rk4' or 'midpoint'")
    f = vf.compiled
    n = len(vf.names)
    x = [float(v) for v in x0]
    if len(x) != n:
        raise ValueError("x0 does not match the chart dimension")
    m = vf.phi_slot
    sub = False
    if substitution:
        if m is None:
            raise ValueError("substitution needs a marked transverse slot")
        if x[m] != 0.0:
            sub = True
            sgn = math.copysign(1.0, x[m])

    def rhs(state):
        if not sub:
            return f(state)
        y = list(state)
        y[m] = sgn * math.exp(state[m])
        v = f(y)
        v[m] = v[m] / y[m]
        return v

    def to_chart(state):
        if not sub:
            return list(state)
        y = list(state)
        y[m] = sgn * math.exp(state[m])
        return y

    steps = int(round(T / dt))
    state = list(x)
    if sub:
        state[m] = math.log(abs(x[m]))
    rows = [x]
    times = [0.0]
    for k in range(steps):
        t = k * dt
        try:
            if method == "rk4":
                k1 = rhs(state)
                k2 = rhs([a + 0.5 * dt * b for a, b in zip(state, k1)])
                k3 = rhs([a + 0.5 * dt * b for a, b in zip(state, k2)])
                k4 = rhs([a + dt * b for a, b in zip(state, k3)])
                state = [a + dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
                         for a, b1, b2, b3, b4 in zip(state, k1, k2, k3, k4)]
            else:
                k1 = rhs(state)
                k2 = rhs([a + 0.5 * dt * b for a, b in zip(state, k1)])
                state = [a + dt * b for a, b in zip(state, k2)]
        except (OverflowError, ex.DomainError) as exc:
            raise ChartExitError(
                f"field evaluation failed at t={t:.6g}: {exc}", t) from exc
        xt = to_chart(state)
        _check_box(xt, box, vf.names, (k + 1) * dt)
        rows.append(xt)
        times.append((k + 1) * dt)

    arr = np.array(rows)
    tarr = np.array(times)
    energy = None
    if vf.hamiltonian is not None:
        hf = ex.compile_exprs([vf.hamiltonian], list(vf.names))
        hv = [hf(list(r))[0] for r in rows]
        energy = max(abs(v - hv[0]) for v in hv)
    cd = []
    if casimirs:
        cf = ex.compile_exprs(list(casimirs), list(vf.names))
        vals = np.array([cf(list(r)) for r in rows])
        cd = [float(np.max(np.abs(vals[:, i] - vals[0, i])))
              for i in range(len(casimirs))]
    floor = None
    if m is not None:
        floor = float(np.min(np.abs(arr[:, m])))
    return Trajectory(dt=dt, times=tarr, rows=arr, method=method,
                      energy_drift=energy, casimir_drifts=tuple(cd),
                      phi_floor=floor)


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
        if not (isinstance(e, ex.Const) and e.value == 0):
            alive.add(i)
            alive.add(j)
    return [k for k in range(len(P.names)) if k not in alive]


def leaf_report(P: PoissonBivector, traj: Trajectory,
                phi_slot: int | None = None) -> LeafReport:
    """Slice and conservation diagnostics for a finished trajectory.

    Coordinates whose bivector row is identically zero are linear functions
    with vanishing bracket against everything, so their drift is reported
    as a Casimir drift without the caller naming them.
    """
    m = phi_slot
    sign_ok = True
    on_slice = False
    floor = traj.phi_floor
    if m is not None:
        col = traj.rows[:, m]
        on_slice = bool(np.all(col == 0.0))
        if not on_slice:
            s = np.sign(col)
            sign_ok = bool(np.all(s == s[0]) and s[0] != 0)
        floor = float(np.min(np.abs(col)))
    drifts = {}
    for k in _structural_casimir_slots(P):
        col = traj.rows[:, k]
        drifts[P.names[k]] = float(np.max(np.abs(col - col[0])))
    return LeafReport(sign_constant=sign_ok, on_slice=on_slice,
                      energy_drift=traj.energy_drift,
                      casimir_drifts=drifts, phi_floor=floor)


def write_csv(traj: Trajectory, vf: VectorField, fh,
              casimirs: Sequence[tuple[str, Expr]] = ()) -> None:
    """One row per step: t, coordinates, H, then any named invariants.

    Floats are written with repr, which round-trips IEEE-754 doubles.
    """
    labels = list(vf.names) + ["H"] + [k for k, _ in casimirs]
    fh.write("t," + ",".join(labels) + "\n")
    hexpr = vf.hamiltonian if vf.hamiltonian is not None else ZERO
    extra = ex.compile_exprs([hexpr] + [e for _, e in casimirs],
                             list(vf.names))
    for t, row in zip(traj.times, traj.rows):
        vals = [float(t)] + [float(v) for v in row] + extra(list(row))
        fh.write(",".join(repr(float(v)) for v in vals) + "\n")
