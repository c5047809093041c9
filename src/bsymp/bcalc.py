"""Calculus on charts with one marked degenerate coordinate.

A chart carries coordinate names, an optional index of a defining
coordinate f, and a sampling box.  Vector fields and forms are stored in
the rescaled frame

    (f d/df, d/dz_i)        dual coframe (df/f, dz_i)

so every stored coefficient is a smooth expression and evaluation on the
hypersurface {f = 0} never divides by f.  With no defining coordinate
(defining=None) the same containers and operators implement ordinary
smooth calculus: the frame reduces to (d/dz_i) and the rescale factors
below all become 1.

Orientation of conventions used package-wide (fixed here, reused by the
lift/reduction/dynamics layers):

    {F, G} = Pi(dF, dG),   X_H = {., H},   iota_{X_H} omega = dH

so inverting a frame matrix W of a nondegenerate 2-form yields the
bivector frame matrix transpose(W^-1) (= -W^-1 for antisymmetric W).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .expr import Const, Expr, Var, ZERO, ONE

__all__ = [
    "BChart", "BVectorField", "BForm", "BFunction", "PoissonBivector",
    "SymplecticReport", "pair", "wedge", "b_d", "d_bfunction",
    "is_b_symplectic", "bdarboux_model", "invert_to_poisson", "pfaffian",
]


def _sequence_env(names: Sequence[str], point: Sequence) -> dict[str, float]:
    """Name -> value for a point given as one value per name, in order.

    A short point raises UnboundVariableError naming the first missing
    coordinate; a long one raises ValueError, so no value is dropped.
    """
    if len(point) < len(names):
        raise ex.UnboundVariableError(f"unknown name {names[len(point)]!r}")
    if len(point) > len(names):
        raise ValueError(f"point has {len(point)} values for {len(names)} coordinates")
    return {n: float(v) for n, v in zip(names, point)}


@dataclass(frozen=True, eq=False)
class BChart:
    """Coordinate names, optional defining-coordinate index, sampling box."""

    names: tuple[str, ...]
    defining: int | None
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.defining is not None and not 0 <= self.defining < len(self.names):
            raise ValueError("defining index out of range")
        if len(self.box) != len(self.names):
            raise ValueError("box size must match coordinate count")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def defining_name(self) -> str | None:
        return None if self.defining is None else self.names[self.defining]

    def scale(self, i: int) -> Expr:
        """Frame rescale factor: f for the defining slot, 1 elsewhere."""
        if i == self.defining:
            return Var(self.names[i])
        return ONE

    def env(self, point) -> dict[str, float]:
        if isinstance(point, Mapping):
            return {n: float(point[n]) for n in self.names}
        return _sequence_env(self.names, point)

    def sample(self, count: int, seed: int) -> np.ndarray:
        """`count` seeded uniform points in the box, shape (count, dim).

        Drawn from the stdlib `random.Random(seed)`, so any int seed works
        and the points are the same on every platform and Python version.
        """
        rng = random.Random(seed)
        pts = [[rng.uniform(lo, hi) for lo, hi in self.box] for _ in range(count)]
        return np.array(pts, dtype=float).reshape(count, self.dim)


@dataclass(frozen=True, eq=False)
class BVectorField:
    """Components in the rescaled frame: comps[d]*(f d/df) + comps[i]*d/dz_i."""

    chart: BChart
    comps: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.comps) != self.chart.dim:
            raise ValueError("component count must match chart dimension")

    @cached_property
    def _compiled(self):
        return ex.compile_exprs(self.comps, self.chart.names)

    def at(self, point) -> np.ndarray:
        """All components at a point, from one compiled call cached on the field."""
        return np.array(self._compiled(list(self.chart.env(point).values())))


@dataclass(frozen=True, eq=False)
class BForm:
    """Degree-k form: coefficients over strictly increasing frame multi-indices.

    Indices containing the defining slot make up the df/f-part (alpha);
    the rest is the smooth part (beta).
    """

    chart: BChart
    degree: int
    coeffs: dict[tuple[int, ...], Expr] = field(default_factory=dict)

    def __post_init__(self):
        for idx in self.coeffs:
            if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad multi-index {idx} for degree {self.degree}")

    def coeff(self, idx: tuple[int, ...]) -> Expr:
        return self.coeffs.get(idx, ZERO)

    def __add__(self, other: "BForm") -> "BForm":
        if other.chart is not self.chart or other.degree != self.degree:
            raise ValueError("can only add forms of one degree on one chart")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, ZERO) + c
        return BForm(self.chart, self.degree, _prune(out))

    def scaled(self, factor) -> "BForm":
        f = ex.as_expr(factor)
        return BForm(self.chart, self.degree,
                     _prune({i: f * c for i, c in self.coeffs.items()}))

    def __neg__(self) -> "BForm":
        return self.scaled(-1)


def _prune(coeffs: dict) -> dict:
    return {i: c for i, c in coeffs.items() if not ex.is_zero(c)}


@dataclass(frozen=True, eq=False)
class BFunction:
    """c*log|f| + g with constant c and smooth g; never evaluated on {f=0}."""

    chart: BChart
    c: Fraction
    smooth: Expr

    def __post_init__(self):
        if self.chart.defining is None and self.c != 0:
            raise ValueError("log part needs a defining coordinate")

    def value(self, point) -> float:
        env = self.chart.env(point)
        out = ex.evaluate(self.smooth, env)
        if self.c:
            f = env[self.chart.defining_name]
            if f == 0.0:
                raise ex.DomainError("log-part is unbounded on the hypersurface")
            out += float(self.c) * math.log(abs(f))
        return out


# ---------------------------------------------------------------------------
# frame pairing, wedge, exterior derivative
# ---------------------------------------------------------------------------

def pair(omega: BForm, fields: Sequence[BVectorField], point) -> float:
    """Full contraction omega(v_1, ..., v_k) at a point (on Z allowed)."""
    if len(fields) != omega.degree:
        raise ValueError(f"degree-{omega.degree} form needs {omega.degree} fields")
    for v in fields:
        if v.chart is not omega.chart:
            raise ValueError("fields and form must share one chart")
    env = omega.chart.env(point)
    cols = [v.at(env) for v in fields]
    total = 0.0
    for idx, c in omega.coeffs.items():
        rows = np.array([[col[i] for col in cols] for i in idx])
        total += ex.evaluate(c, env) * _det(rows)
    return total


def _det(M: np.ndarray) -> float:
    n = M.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return float(M[0, 0])
    if n == 2:
        return float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    return float(np.linalg.det(M))


def wedge(a: BForm, b: BForm) -> BForm:
    if a.chart is not b.chart:
        raise ValueError("wedge needs forms on one chart")
    out: dict[tuple[int, ...], Expr] = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            if set(ia) & set(ib):
                continue
            sign, merged = _merge_sign(ia, ib)
            term = Const(Fraction(sign)) * ca * cb
            out[merged] = out.get(merged, ZERO) + term
    return BForm(a.chart, a.degree + b.degree, _prune(out))


def _merge_sign(ia: tuple[int, ...], ib: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    inversions = sum(1 for x in ia for y in ib if y < x)
    return (-1) ** inversions, tuple(sorted(ia + ib))


def b_d(omega: BForm) -> BForm:
    """Exterior derivative in the rescaled coframe.

    d(c e^I) = sum_j s_j (dc/dz_j) e^j ^ e^I with s_j = f on the defining
    slot, 1 elsewhere; this is d(alpha)^df/f + d(beta) in one rule, and the
    classical derivative when there is no defining coordinate.
    """
    ch = omega.chart
    out: dict[tuple[int, ...], Expr] = {}
    for idx, c in omega.coeffs.items():
        for j in range(ch.dim):
            if j in idx:
                continue
            dc = ex.diff(c, ch.names[j])
            if ex.is_zero(dc):
                continue
            term = ch.scale(j) * dc
            pos = sum(1 for i in idx if i < j)
            sign = (-1) ** pos
            merged = tuple(sorted(idx + (j,)))
            out[merged] = out.get(merged, ZERO) + Const(Fraction(sign)) * term
    return BForm(ch, omega.degree + 1, _prune(out))


def d_bfunction(u: BFunction) -> BForm:
    """d(c log|f| + g) = c df/f + dg, a smooth-coefficient 1-form."""
    ch = u.chart
    out: dict[tuple[int, ...], Expr] = {}
    for j in range(ch.dim):
        dg = ex.diff(u.smooth, ch.names[j])
        coeff = ch.scale(j) * dg
        if j == ch.defining:
            coeff = coeff + Const(Fraction(u.c))
        if not ex.is_zero(coeff):
            out[(j,)] = coeff
    return BForm(ch, 1, out)


# ---------------------------------------------------------------------------
# nondegeneracy: pfaffian and the verdict report
# ---------------------------------------------------------------------------

def pfaffian(A: np.ndarray) -> float:
    """Pfaffian of an even skew-symmetric matrix (tridiagonal reduction)."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if n % 2:
        return 0.0
    if n == 0:
        return 1.0
    pf = 1.0
    for k in range(0, n - 1, 2):
        piv = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if A[piv, k] == 0.0:
            return 0.0
        if piv != k + 1:
            A[[k + 1, piv], :] = A[[piv, k + 1], :]
            A[:, [k + 1, piv]] = A[:, [piv, k + 1]]
            pf = -pf
        pf *= A[k + 1, k]
        if k + 2 < n:
            tau = A[k + 2:, k] / A[k + 1, k]
            A[k + 2:, k + 2:] += np.outer(tau, A[k + 2:, k + 1])
            A[k + 2:, k + 2:] -= np.outer(A[k + 2:, k + 1], tau)
    # sign: pf of the direct sum of [[0, a],[-a, 0]] blocks built above is
    # prod(a), and the elimination assembled A[k+1, k] = -a entries
    return float(pf * (-1) ** (n // 2))


def frame_matrix(omega: BForm) -> list[list[Expr]]:
    """W_ij = omega(E_i, E_j) as expressions (frame pairing is coefficient lookup)."""
    n = omega.chart.dim
    W = [[ZERO] * n for _ in range(n)]
    for (i, j), c in omega.coeffs.items():
        W[i][j] = c
        W[j][i] = -c
    return W


@dataclass(frozen=True)
class SymplecticReport:
    dim: int
    samples: int
    on_z_samples: int
    closed_residual: float
    min_pfaffian: float
    threshold: float
    verdict: bool

    def text(self) -> str:
        lines = [
            f"dim: {self.dim}",
            f"samples: {self.samples}",
            f"on_z_samples: {self.on_z_samples}",
            f"closed_residual: {self.closed_residual!r}",
            f"min_pfaffian: {self.min_pfaffian!r}",
            f"threshold: {self.threshold!r}",
            f"verdict: {'true' if self.verdict else 'false'}",
        ]
        return "\n".join(lines)


_THRESHOLD = 1e-8  # closedness bound and smallest accepted |pfaffian|


def is_b_symplectic(omega: BForm, samples: int = 128, seed: int = 7) -> SymplecticReport:
    """Sampled closedness and nondegeneracy verdict for a degree-2 form.

    The points are seeded uniform draws (`BChart.sample`), not a
    low-discrepancy set.  Nondegeneracy is checked through the frame
    matrix, which is smooth, so when the chart has a defining coordinate a
    second batch of `samples` points lies on the hypersurface itself: that
    is where rank loss would hide from box sampling.
    """
    ch = omega.chart
    if omega.degree != 2:
        raise ValueError("verdict is defined for degree-2 forms")
    if ch.dim % 2:
        raise ValueError("chart dimension must be even")
    nn = ch.dim * ch.dim
    flatW = [e for row in frame_matrix(omega) for e in row]
    fn = ex.compile_exprs(flatW + list(b_d(omega).coeffs.values()), ch.names)
    pts, n_on_z = _sample_points(ch, samples, seed)
    closed_residual = 0.0
    min_pf = math.inf
    for x in pts:
        vals = fn(x)
        closed_residual = max(closed_residual, max(map(abs, vals[nn:]), default=0.0))
        min_pf = min(min_pf, abs(pfaffian(np.array(vals[:nn]).reshape(ch.dim, ch.dim))))
    verdict = closed_residual <= _THRESHOLD and min_pf > _THRESHOLD
    return SymplecticReport(
        dim=ch.dim, samples=samples, on_z_samples=n_on_z,
        closed_residual=closed_residual, min_pfaffian=min_pf,
        threshold=_THRESHOLD, verdict=verdict,
    )


def _sample_points(ch: BChart, samples: int, seed: int) -> tuple[list[list[float]], int]:
    """`samples` box points at `seed`, then `samples` on Z at `seed + 1`.

    The second batch is drawn only when the chart has a defining
    coordinate, whose column it sets to exactly 0.0.  Returns the points
    and the size of that second batch.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")  # else any form passes
    pts = ch.sample(samples, seed)
    if ch.defining is None:
        return pts.tolist(), 0
    zpts = ch.sample(samples, seed + 1)
    zpts[:, ch.defining] = 0.0
    return pts.tolist() + zpts.tolist(), samples


def bdarboux_model(n: int) -> BForm:
    """Normal form dx1^dy1/y1 + sum_{i>=2} dxi^dyi on a 2n-chart, defining y1."""
    if n < 1:
        raise ValueError("need n >= 1")
    names = []
    for i in range(1, n + 1):
        names += [f"x{i}", f"y{i}"]
    ch = BChart(tuple(names), defining=1, box=((-1.5, 1.5),) * (2 * n))
    coeffs = {(2 * i, 2 * i + 1): ONE for i in range(n)}
    return BForm(ch, 2, coeffs)


# ---------------------------------------------------------------------------
# Poisson bivectors and inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PoissonBivector:
    """Pi^{ij} over coordinate (not frame) vector fields, i < j."""

    names: tuple[str, ...]
    entries: dict[tuple[int, int], Expr] = field(default_factory=dict)

    def entry(self, i: int, j: int) -> Expr:
        if i == j:
            return ZERO
        if i < j:
            return self.entries.get((i, j), ZERO)
        e = self.entries.get((j, i), ZERO)
        return -e

    def bracket(self, F: Expr, G: Expr) -> Expr:
        dF = [ex.diff(F, n) for n in self.names]
        dG = [ex.diff(G, n) for n in self.names]
        return ex.dot(self.entries.values(),
                      [dF[i] * dG[j] - dF[j] * dG[i] for i, j in self.entries])

    def bracket_value(self, F: Expr, G: Expr, point) -> float:
        """{F, G} at one point from float gradients; `bracket` gives the tree."""
        if isinstance(point, Mapping):
            env = {k: float(v) for k, v in point.items()}
        else:
            env = _sequence_env(self.names, point)
        dF = ex.grad(F, self.names, env)
        dG = ex.grad(G, self.names, env)
        total = 0.0
        for (i, j), p in self.entries.items():
            total += ex.evaluate(p, env) * (dF[i] * dG[j] - dF[j] * dG[i])
        return total

    def jacobiator(self, F: Expr, G: Expr, H: Expr) -> Expr:
        return (self.bracket(self.bracket(F, G), H)
                + self.bracket(self.bracket(G, H), F)
                + self.bracket(self.bracket(H, F), G))

    def table(self) -> list[tuple[str, str, str]]:
        out = []
        for (i, j), p in sorted(self.entries.items()):
            out.append((self.names[i], self.names[j], ex.to_str(p)))
        return out


def _laplace_det(M: list[list[Expr]]) -> Expr:
    """Exact symbolic determinant, memoized over column subsets."""
    n = len(M)
    memo: dict[tuple[int, ...], Expr] = {}

    def go(r: int, cols: tuple[int, ...]) -> Expr:
        if not cols:
            return ONE
        key = cols
        if r == n - len(cols):
            got = memo.get(key)
            if got is not None:
                return got
        acc = ZERO
        for s, c in enumerate(cols):
            entry = M[r][c]
            if ex.is_zero(entry):
                continue
            rest = cols[:s] + cols[s + 1:]
            term = entry * go(r + 1, rest)
            acc = acc + (term if s % 2 == 0 else -term)
        memo[key] = acc
        return acc

    return go(0, tuple(range(n)))


def invert_to_poisson(omega: BForm) -> PoissonBivector:
    """Bivector of a nondegenerate degree-2 form, over coordinate fields.

    The frame matrix is inverted (exactly for constant entries, by
    adjugate/determinant symbolically otherwise) with the bivector frame
    matrix transpose(W^-1); re-expanding the rescaled frame as coordinate
    fields multiplies the defining row and column by f.  A non-constant
    frame matrix is spot-checked nonsingular on 8 samples at seed 3, and as
    many on the hypersurface.
    """
    ch = omega.chart
    n = ch.dim
    W = frame_matrix(omega)
    if all(isinstance(e, Const) for row in W for e in row):
        A = [[e.value for e in row] for row in W]
        # _fr_inv returns the columns of W^-1, i.e. P[i][j] = (W^-1)[j][i]
        P = _fr_inv(A)
        get = lambda i, j: Const(P[i][j])
    else:
        if n > 8:
            raise ValueError("symbolic inversion limited to dimension 8; "
                             "evaluate the frame matrix pointwise instead")
        _spot_check_nonsingular(ch, W, samples=8, seed=3)
        det = _laplace_det(W)
        def get(i, j):
            minor = [[W[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = _laplace_det(minor)
            num = cof if (i + j) % 2 == 0 else -cof
            return num / det
    entries: dict[tuple[int, int], Expr] = {}
    for i in range(n):
        for j in range(i + 1, n):
            e = get(i, j)
            if ex.is_zero(e):
                continue
            e = ch.scale(i) * ch.scale(j) * e
            entries[(i, j)] = e
    return PoissonBivector(ch.names, entries)


def _fr_solve(A: list[list[Fraction]], rhs_cols: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve A X = RHS exactly (A square nonsingular); columns in, columns out."""
    n = len(A)
    m = len(rhs_cols)
    aug = [list(A[i]) + [rhs_cols[j][i] for j in range(m)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system in exact solve")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [[aug[i][n + j] for i in range(n)] for j in range(m)]


def _fr_inv(A: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(A)
    eye = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    try:
        return _fr_solve([list(map(Fraction, row)) for row in A], eye)
    except ValueError:
        raise ValueError("frame matrix is singular") from None


def _spot_check_nonsingular(ch: BChart, W: list[list[Expr]], samples: int, seed: int):
    w_fn = ex.compile_exprs([e for row in W for e in row], ch.names)
    for x in _sample_points(ch, samples, seed)[0]:
        if abs(_det(np.array(w_fn(x)).reshape(ch.dim, ch.dim))) < 1e-12:
            raise ValueError("frame matrix is singular at a sample point")
