"""Calculus on charts with one marked degenerate coordinate.

A chart carries coordinate names and the index of its defining
coordinate f.  Vector fields and forms are stored in the rescaled frame

    (f d/df, d/dz_i)        dual coframe (df/f, dz_i)

so every stored coefficient is a smooth expression and evaluation on the
hypersurface {f = 0} never divides by f.

Orientation of conventions used package-wide (fixed here, reused by the
lift/reduction/dynamics layers):

    {F, G} = Pi(dF, dG),   X_H = {., H},   iota_{X_H} omega = dH

so inverting a frame matrix W of a nondegenerate 2-form yields the
bivector frame matrix transpose(W^-1) (= -W^-1 for antisymmetric W).

The forms whose nondegeneracy the package decides, the canonical form on
the b-cotangent chart and the b-Darboux model, have a constant frame
matrix.  `frame_matrix` is its one exact owner: a constant form is closed
by construction (b_d of a constant coefficient is zero), so
`is_b_symplectic` decides the claim exactly, by whether that rational
matrix is invertible, and `invert_to_poisson` inverts the same matrix.
A non-constant entry is a ValueError for both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._numpy import np
from . import expr as ex
from .expr import Const, Expr, Var, ZERO, ONE

__all__ = [
    "BChart", "BVectorField", "BForm", "BFunction", "PoissonBivector",
    "pair", "wedge", "b_d", "d_bfunction", "frame_matrix",
    "is_b_symplectic", "bdarboux_model", "invert_to_poisson", "poisson_frame_matrix",
]


def sequence_values(names: Sequence[str], point: Sequence) -> list[float] | np.ndarray:
    """A point given as one value per name, in order, as floats; or N points
    given as the columns of a 2-D array, one row per name, as a float array.

    A short point raises UnboundVariableError naming the first missing
    coordinate; a long one raises ValueError, so no value is dropped.
    Columns are checked the same way by their number of rows.
    """
    if len(point) < len(names):
        raise ex.UnboundVariableError(f"unknown name {names[len(point)]!r}")
    if len(point) > len(names):
        raise ValueError(f"point has {len(point)} values for {len(names)} coordinates")
    if getattr(point, "ndim", 1) == 2:
        return np.asarray(point, dtype=float)
    return [float(v) for v in point]


def joined(*parts) -> list[float] | np.ndarray:
    """`sequence_values` results one after another, as one input of a
    compiled map: the floats of points, or the stacked rows of columns."""
    if isinstance(parts[0], np.ndarray):
        return np.vstack(parts)
    return [v for part in parts for v in part]


def columns(samples: Iterable[Sequence]) -> list[np.ndarray]:
    """Samples drawn as tuples of parts, (a, b, ...) each, as one float array
    per part whose columns are the samples: the input of a compiled map
    that reads every sample in one call."""
    return [np.array(part, dtype=float).T for part in zip(*samples)]


def matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v at one point, (a, j) with (j,), or column by column, (a, j, N)
    with (j, N)."""
    return np.einsum("aj...,j...->a...", M, v)


def vecmat(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v M at one point, (a,) with (a, j), or column by column, (a, N) with
    (a, j, N)."""
    return np.einsum("a...,aj...->j...", v, M)


def _point_env(names: Sequence[str], point) -> dict[str, float]:
    """Name -> float value for a point given as a Mapping holding every name,
    or as one value per name (`sequence_values`); a missing name raises
    UnboundVariableError naming the first."""
    if not isinstance(point, Mapping):
        return dict(zip(names, sequence_values(names, point)))
    missing = next((n for n in names if n not in point), None)
    if missing is not None:
        raise ex.UnboundVariableError(f"unknown name {missing!r}")
    return {n: float(point[n]) for n in names}


@dataclass(frozen=True, eq=False)
class BChart:
    """Coordinate names and the index of the defining coordinate."""

    names: tuple[str, ...]
    defining: int

    def __post_init__(self):
        if not 0 <= self.defining < len(self.names):
            raise ValueError("defining index out of range")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def defining_name(self) -> str:
        return self.names[self.defining]

    def scale(self, i: int) -> Expr:
        """Frame rescale factor: f for the defining slot, 1 elsewhere."""
        if i == self.defining:
            return Var(self.names[i])
        return ONE

    def env(self, point) -> dict[str, float]:
        return _point_env(self.names, point)


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
    slot, 1 elsewhere; this is d(alpha)^df/f + d(beta) in one rule.
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
    """d(c log|f| + g) = c df/f + dg: b_d of the smooth part g, plus c on
    the defining slot."""
    ch = u.chart
    return b_d(BForm(ch, 0, {(): u.smooth})) + BForm(ch, 1, {(ch.defining,): Const(Fraction(u.c))})


# ---------------------------------------------------------------------------
# the constant frame matrix: nondegeneracy
# ---------------------------------------------------------------------------

def frame_matrix(omega: BForm) -> list[list[Fraction]]:
    """W_ij = omega(E_i, E_j) of a degree-2 form with constant coefficients,
    exactly; a non-constant coefficient is a ValueError."""
    if omega.degree != 2:
        raise ValueError("frame matrix needs a degree-2 form")
    n = omega.chart.dim
    W = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in omega.coeffs.items():
        if not isinstance(c, Const):
            raise ValueError("frame matrix is not constant")
        W[i][j] = c.value
        W[j][i] = -c.value
    return W


def is_b_symplectic(omega: BForm) -> bool:
    """Whether a 2-form with a constant frame matrix is b-symplectic.

    Such a form is closed by construction, so the verdict is whether its
    frame matrix is invertible, decided exactly in Fractions; an odd
    dimension is singular.  A non-constant frame matrix is a ValueError.
    """
    W = frame_matrix(omega)
    try:
        _fr_inv(W)
    except ValueError:  # singular: frame_matrix raised before the try
        return False
    return True


def bdarboux_model(n: int) -> BForm:
    """Normal form dx1^dy1/y1 + sum_{i>=2} dxi^dyi on a 2n-chart, defining y1."""
    if n < 1:
        raise ValueError("need n >= 1")
    names = []
    for i in range(1, n + 1):
        names += [f"x{i}", f"y{i}"]
    ch = BChart(tuple(names), defining=1)
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
        """{F, G} at one point: the evaluated `bracket` tree."""
        return ex.evaluate(self.bracket(F, G), _point_env(self.names, point))

    def affine_rows(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """P_ij as {m: d_m P_ij, n: P_ij at the origin}, n the number of
        coordinates, for every entry in both orders, zeros dropped, exactly.

        Every entry must have `Const` partial derivatives, so it is affine;
        any other entry is a ValueError naming it.
        """
        names, n = self.names, len(self.names)
        origin = dict.fromkeys(names, Fraction(0))
        rows: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), e in self.entries.items():
            row = {n: ex.eval_exact(e, origin)}
            for m, nm in enumerate(names):
                d = ex.diff(e, nm)
                if not isinstance(d, Const):
                    raise ValueError(f"entry ({names[i]}, {names[j]}) = {ex.to_str(e)}"
                                     f" is not affine: its derivative in {nm} is not constant")
                row[m] = d.value
            rows[(i, j)] = {m: v for m, v in row.items() if v}
            rows[(j, i)] = {m: -v for m, v in rows[(i, j)].items()}
        return rows

    def affine_matrix(self, point) -> np.ndarray:
        """[{x_i, x_j}] read from `affine_rows`: an (n, n) array at one point,
        or (n, n, N) at N points given as columns (`sequence_values`)."""
        n = len(self.names)
        x = np.asarray(sequence_values(self.names, point))
        A = np.zeros((n + 1, n, n))
        for (i, j), row in self.affine_rows().items():
            for m, v in row.items():
                A[m, i, j] = v
        return np.einsum("mij,m...->ij...", A, np.concatenate([x, np.ones((1, *x.shape[1:]))]))

    def coordinate_jacobi_defect(self) -> Fraction:
        """Largest |coefficient| of {{x_i, x_j}, x_k} + cyclic over i < j < k.

        The Jacobiator is the trivector [P, P], so 0 decides that P is
        Poisson.  Every entry must be affine (`affine_rows`), and so is each
        coordinate Jacobiator, with exact coefficients.
        """
        return _cyclic_defect(self.affine_rows(), len(self.names))

    def table(self) -> list[tuple[str, str, str]]:
        out = []
        for (i, j), p in sorted(self.entries.items()):
            out.append((self.names[i], self.names[j], ex.to_str(p)))
        return out


def _cyclic_defect(rows: Mapping[tuple[int, int], Mapping[int, Fraction]], n: int) -> Fraction:
    """Largest |coefficient| of sum_l rows[a, b][l] * rows[l, c] over the
    cyclic orders (a, b, c) of each triple i < j < k < n, exactly: the Jacobi
    defect when rows[a, b] is [e_a, e_b], the coordinate Jacobiator when it
    holds the partials of {x_a, x_b}.  A key l >= n, such as a constant
    term, has no row (l, c) and adds nothing."""
    worst = Fraction(0)
    for i, j, k in itertools.combinations(range(n), 3):
        acc: dict[int, Fraction] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, u in rows.get((a, b), {}).items():
                for m, v in rows.get((l, c), {}).items():
                    acc[m] = acc.get(m, 0) + u * v
        worst = max([worst, *map(abs, acc.values())])
    return worst


def poisson_frame_matrix(omega: BForm) -> list[list[Fraction]]:
    """P = transpose(W^-1) for the constant frame matrix W of a nondegenerate
    2-form, exactly: the frame matrix of its bivector, so
    {f, g} = sum_ij b_d(f)_i P_ij b_d(g)_j.  A frame matrix with a
    non-constant entry, or a singular one, is a ValueError."""
    # _fr_inv returns the columns of W^-1, i.e. P[i][j] = (W^-1)[j][i]
    return _fr_inv(frame_matrix(omega))


def invert_to_poisson(omega: BForm) -> PoissonBivector:
    """Bivector of a nondegenerate degree-2 form with a constant frame matrix,
    over coordinate fields.

    The frame matrix is inverted exactly in Fractions, giving the bivector
    frame matrix transpose(W^-1); re-expanding the rescaled frame as
    coordinate fields multiplies the defining row and column by f.  A frame
    matrix with a non-constant entry, or a singular one, is a ValueError.
    """
    ch = omega.chart
    P = poisson_frame_matrix(omega)
    entries: dict[tuple[int, int], Expr] = {}
    for i in range(ch.dim):
        for j in range(i + 1, ch.dim):
            if P[i][j]:
                entries[(i, j)] = ch.scale(i) * ch.scale(j) * Const(P[i][j])
    return PoissonBivector(ch.names, entries)


def _fr_inv(A: list[list[Fraction]]) -> list[list[Fraction]]:
    """Columns of A^-1, exactly: [j][i] = (A^-1)[i][j]; a singular A is a ValueError."""
    n = len(A)
    aug = [list(A[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("frame matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [[aug[i][n + j] for i in range(n)] for j in range(n)]
