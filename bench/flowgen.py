"""Seeded flow configs for the flow-long workload.

A config is a quadratic Hamiltonian in the galilean reduced coordinates
mu_* and p, plus one s-coupling term, a start point with s != 0 and one
Casimir of the reduced bracket.  Quadratic Hamiltonians on this bracket can
escape to infinity in finite time, so the start point is halved, a fixed
rule, until a coarse rk4 run of the whole horizon stays inside the box
|x_i| <= CHART_LIMIT.  The coarse run uses the reduced bracket table
captured in ref/galilean.reduce.csv, not the program under test, so the
program only ever sees the finished config.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

T = 20.0
DT = 1e-3
CHECK_DT = 1e-2
CHART_LIMIT = 10.0
MAX_HALVINGS = 20

# each is constant along every flow of the galilean reduced bracket
CASIMIRS = (
    "mu_P1^2 + mu_P2^2 + mu_P3^2",
    "mu_K1^2 + mu_K2^2 + mu_K3^2",
    "mu_K1*mu_P1 + mu_K2*mu_P2 + mu_K3*mu_P3",
)


def read_bracket(path: Path):
    """Coordinates and sparse entries (i, j, sign, k) with {x_i, x_j} = sign*x_k."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    names: list[str] = []
    for first, second, _ in rows:
        for nm in (first, second):
            if nm not in names:
                names.append(nm)
    index = {nm: i for i, nm in enumerate(names)}
    entries = []
    for first, second, text in rows:
        if text == "0":
            continue
        sign = -1.0 if text.startswith("-") else 1.0
        var = text.lstrip("-")
        if var not in index:
            raise ValueError(f"bracket entry {text!r} is not a signed coordinate")
        entries.append((index[first], index[second], sign, index[var]))
    return names, entries


def _coef(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _stays_on_chart(rhs, x0) -> bool:
    x = list(x0)
    h = CHECK_DT
    for _ in range(int(round(T / h))):
        k1 = rhs(x)
        k2 = rhs([a + 0.5 * h * b for a, b in zip(x, k1)])
        k3 = rhs([a + 0.5 * h * b for a, b in zip(x, k2)])
        k4 = rhs([a + h * b for a, b in zip(x, k3)])
        x = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        if not all(math.isfinite(v) and abs(v) <= CHART_LIMIT for v in x):
            return False
    return True


def make_config(seed: int, bracket_csv: Path) -> dict:
    """The flow-long config for one seed; the same seed gives the same bytes."""
    names, entries = read_bracket(bracket_csv)
    index = {nm: i for i, nm in enumerate(names)}
    mus = [nm for nm in names if nm.startswith("mu_")]
    rng = random.Random(seed)
    quad = {nm: _coef(rng, 0.25, 0.75) for nm in mus}
    quad["p"] = _coef(rng, 0.25, 0.75)
    cross_mu = rng.choice(mus)
    cross = _coef(rng, -0.25, 0.25)
    couple_mu = rng.choice(mus)
    couple = rng.choice((-1, 1)) * _coef(rng, 0.1, 0.5)
    casimir = rng.choice(CASIMIRS)

    terms = [f"{c}*{nm}^2" for nm, c in quad.items()]
    terms.append(f"{cross}*p*{cross_mu}")
    terms.append(f"{couple}*s*{couple_mu}")
    hamiltonian = " + ".join(terms).replace("+ -", "- ")

    n = len(names)
    ip, is_, ic, iq = index["p"], index["s"], index[couple_mu], index[cross_mu]

    def grad(x):
        g = [0.0] * n
        for nm, c in quad.items():
            g[index[nm]] += 2.0 * c * x[index[nm]]
        g[ip] += cross * x[iq]
        g[iq] += cross * x[ip]
        g[is_] += couple * x[ic]
        g[ic] += couple * x[is_]
        return g

    def rhs(x):
        g = grad(x)
        out = [0.0] * n
        for i, j, sign, k in entries:
            v = sign * x[k]
            out[i] += v * g[j]
            out[j] -= v * g[i]
        return out

    x0 = [round(rng.uniform(-1.0, 1.0), 3) for _ in names]
    x0[is_] = rng.choice((-1, 1)) * _coef(rng, 0.2, 1.0)
    for _ in range(MAX_HALVINGS):
        if _stays_on_chart(rhs, x0):
            break
        x0 = [0.5 * v for v in x0]
    else:
        raise ValueError(f"seed {seed}: no start point stays on the chart")

    return {
        "group": "galilean",
        "flow": {
            "hamiltonian": hamiltonian,
            "x0": x0,
            "dt": DT,
            "T": T,
            "method": "rk4",
            "casimirs": {"c1": casimir},
        },
    }


def steps() -> int:
    return int(round(T / DT))
