"""Lie algebras and matrix group charts with exact rational skeletons.

Structure constants are always exact Fractions, derived from matrix
commutators read at the pivot entries of the basis span, one commutator
per pair i < j with row (j, i) its negation, and stored in one sparse row
form: `LieAlgebra.constants[(i, j)]` is {k: c^k_ij}, and an absent pair or
k reads as zero, so every reader walks the stored entries only.  verify's
commutator-match checks the stored rows against the basis matrices
themselves, with a product of its own.  Group charts are
expression-valued matrices; multiplication, inversion and the splittings
used downstream are closed-form expression maps, so every derived object
(infinitesimal generators, connections, momenta) comes out of exact
differentiation.

Conventions:
    basis        E_a = d(chart)/d(param_a) at 0, chart(0) = I
    bracket      [X, Y] = XY - YX, c^k_ij exact rationals
    adjoint      Ad_g X = g X g^-1, re-expanded in the basis
    coadjoint    <Ad*_g mu, X> = <mu, Ad_{g^-1} X>
    lie_poisson  minus convention: {mu_i, mu_j} = -sum_k c^k_ij mu_k, the
                 `PoissonBivector` LieAlgebra.lie_poisson over mu_<label>

The rotation block of the Galilean chart uses a Cayley parametrization
(R(u) = I + (4*hat(u) + 2*hat(u)^2)/(4 + |u|^2)) so that the group
multiplication stays inside the expression grammar; it covers a
neighbourhood of the identity, which is all the semilocal constructions
need.  No coordinate is wrapped: the planar rotation angle and the
Heisenberg central coordinate are read on the universal-cover lift of the
chart, by the symbolic maps and the numeric group operations alike.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from ._numpy import np
from . import expr as ex
from .bcalc import PoissonBivector, _cyclic_defect, _fr_inv, joined, sequence_values, vecmat
from .expr import Const, Expr, Var, ZERO, ONE

__all__ = [
    "LieAlgebra", "MatrixGroup", "BLieGroupPair",
    "structure_constants_from_matrices", "SpanError", "TrivializationError",
    "builtin",
    "group_mul", "group_inv",
    "adjoint", "coadjoint_star", "dual_names",
]

FrMatrix = tuple[tuple[Fraction, ...], ...]


class SpanError(ValueError):
    """A commutator left the span of the declared basis."""


class TrivializationError(ValueError):
    """A pair's splitting map does not invert its embedding."""


# ---------------------------------------------------------------------------
# basis coordinates, read at pivot entries
# ---------------------------------------------------------------------------

class _Span:
    """Exact coordinates in the span of a basis of rational matrices.

    The basis matrices are kept as sparse {(row, column): Fraction} dicts.
    Forward elimination over them gives each element a pivot, the first
    entry of its reduced vector still nonzero; a vector that reduces to
    nothing is a ValueError.  S[i][a] = E_a[pivot_i] is then invertible, and
    M in the span has coefficients x_a = sum_i S^-1[a][i] M[pivot_i]:
    `weights[a]` lists the nonzero (i, S^-1[a][i]).
    """

    def __init__(self, basis: Sequence):
        self.basis = [{(r, c): Fraction(v) for r, row in enumerate(M) for c, v in enumerate(row) if v}
                      for M in basis]
        reduced: list[tuple[tuple[int, int], dict]] = []
        for vec in self.basis:
            for p, w in reduced:
                if f := vec.get(p, 0) / w[p]:
                    vec = {k: x for k in vec.keys() | w.keys()
                           if (x := vec.get(k, 0) - f * w.get(k, 0))}
            if not vec:
                raise ValueError("basis matrices are linearly dependent")
            reduced.append((min(vec), vec))
        self.pivots = sorted(p for p, _ in reduced)
        # _fr_inv returns the columns of S^-1: inv[i][a] = S^-1[a][i]
        inv = _fr_inv([[E.get(p, Fraction(0)) for E in self.basis] for p in self.pivots])
        self.weights = [[(i, col[a]) for i, col in enumerate(inv) if col[a]]
                        for a in range(len(inv))]

    def coords(self, M: dict, tol: float = 0) -> list:
        """Coefficients of M, given as {(row, column): value}; a SpanError if
        M leaves the span by more than tol.  The residual is read wherever M
        or its expansion is nonzero: exact on Fractions, where it must be 0,
        and rounded on floats, whose callers pass a tolerance."""
        at = [M.get(p, 0) for p in self.pivots]
        coeffs = [sum((w * at[i] for i, w in row if at[i]), Fraction(0)) for row in self.weights]
        back: dict = {}
        for x, E in zip(coeffs, self.basis):
            if x:
                for k, v in E.items():
                    back[k] = back.get(k, 0) + x * v
        resid = max((abs(M.get(k, 0) - back.get(k, 0)) for k in M.keys() | back.keys()), default=0)
        if resid > tol:
            shown = math.inf if resid > sys.float_info.max else float(resid)
            raise SpanError(f"matrix not in basis span (residual {shown:.3e})")
        return coeffs


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

class LieAlgebra(ex.Frozen):
    """Structure constants c^k_ij (exact) over a labelled basis.

    `constants` maps (i, j) to the row {k: c^k_ij}, so [e_i, e_j] =
    sum_k c^k_ij e_k; an absent pair, or an absent k, reads as zero."""

    def __init__(self, labels: tuple[str, ...],
                 constants: dict[tuple[int, int], dict[int, Fraction]]):
        self.__dict__.update(labels=labels, constants=constants)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def c(self, i: int, j: int) -> dict[int, Fraction]:
        """The stored row {k: c^k_ij}, or {} when [e_i, e_j] = 0."""
        return self.constants.get((i, j), {})

    def antisymmetry_defect(self) -> Fraction:
        """Max |c^k_ij + c^k_ji| over all i, j, k; exact.

        Only a stored row can be nonzero, so this reads each stored (i, j)
        against its transpose over the union of their k; a stored diagonal
        row (i, i) reads as 2 c^k_ii."""
        worst = Fraction(0)
        for (i, j), row in self.constants.items():
            back = self.c(j, i)
            worst = max([worst, *(abs(row.get(k, 0) + back.get(k, 0))
                                  for k in row.keys() | back.keys())])
        return worst

    def jacobi_defect(self) -> Fraction:
        """Max |coefficient| of [[e_i,e_j],e_k] + cyclic over all triples; exact."""
        return _cyclic_defect(self.constants, self.dim)

    @cached_property
    def lie_poisson(self) -> PoissonBivector:
        """The minus Lie-Poisson bivector on the dual, over `dual_names`:
        {mu_i, mu_j} = -sum_k c^k_ij mu_k, the stored pairs i < j in order."""
        names = dual_names(self)
        entries: dict[tuple[int, int], Expr] = {}
        for i, j in sorted(key for key in self.constants if key[0] < key[1]):
            acc = ZERO
            for k, ck in sorted(self.c(i, j).items()):
                if ck:
                    acc = acc - Const(Fraction(ck)) * Var(names[k])
            if not ex.is_zero(acc):
                entries[(i, j)] = acc
        return PoissonBivector(names, entries)


def structure_constants_from_matrices(basis: Sequence | _Span) -> LieAlgebra:
    """Exact structure constants from commutators of rational basis matrices.

    This is the builder of every built-in algebra: each commutator
    [E_i, E_j], i < j, is computed in exact arithmetic and re-expanded in the
    basis's span (a group passes its own, a raw basis gets one); any nonzero
    residual is an error.  Row (j, i) is the negated row (i, j), which is
    exact because `coords` has checked the expansion on every entry;
    verify's commutator-match reads every stored row back against the
    matrices (`verify.commutator_defect`).
    """
    span = basis if isinstance(basis, _Span) else _Span(basis)
    d = len(span.basis)
    rows = [{} for _ in range(d)]  # rows[b][t]: row t of E_b as (column, value)
    for E, by_row in zip(span.basis, rows):
        for (t, c), w in E.items():
            by_row.setdefault(t, []).append((c, w))
    constants: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            if i > j:
                row = {k: -v for k, v in constants.get((j, i), {}).items()}
            else:
                # E_i E_j - E_j E_i over the nonzero entries only
                comm: dict[tuple[int, int], Fraction] = {}
                for a, b, sign in ((i, j, 1), (j, i, -1)):
                    for (r, t), v in span.basis[a].items():
                        for c, w in rows[b].get(t, ()):
                            comm[r, c] = comm.get((r, c), 0) + sign * v * w
                row = {k: v for k, v in enumerate(span.coords(comm)) if v}
            if row:
                constants[(i, j)] = row
    labels = tuple(f"e{i + 1}" for i in range(d))
    return LieAlgebra(labels=labels, constants=constants)


def dual_names(L: LieAlgebra) -> tuple[str, ...]:
    return tuple("mu_" + lab for lab in L.labels)


def lie_poisson_sym(L: LieAlgebra, F: Expr, G: Expr) -> Expr:
    """{F, G} on the dual as a tree; the bench tracer times it by this name."""
    return L.lie_poisson.bracket(F, G)


# ---------------------------------------------------------------------------
# matrix groups
# ---------------------------------------------------------------------------

class MatrixGroup(ex.Frozen):
    """A matrix Lie group presented by an expression-valued chart.

    chart_fn / mul_fn / inv_fn are pure maps on expression lists, usable
    both symbolically and (through compilation) numerically, on the
    universal-cover lift of the chart: no parameter is wrapped.

    The exact basis, the algebra, the symbolic adjoint and Maurer-Cartan
    rows and the compiled maps (chart, product, inverse, adjoint) are
    cached properties: each is built once per group, on first use.  The
    numeric entry points take one value per parameter name, or per basis
    label for an algebra or dual vector (`bcalc.sequence_values`).
    `box` bounds each parameter's sample draws in the tests.
    """

    def __init__(self, name: str, param_names: tuple[str, ...], labels: tuple[str, ...],
                 chart_fn: Callable, mul_fn: Callable, inv_fn: Callable,
                 params_from_matrix: Callable, box: tuple = ()):
        self.__dict__.update(name=name, param_names=param_names, labels=labels,
                             chart_fn=chart_fn, mul_fn=mul_fn, inv_fn=inv_fn,
                             params_from_matrix=params_from_matrix, box=box)

    @property
    def dim(self) -> int:
        return len(self.param_names)

    @property
    def param_vars(self) -> list[Expr]:
        return [Var(n) for n in self.param_names]

    def chart(self, params: Sequence[float]) -> np.ndarray:
        m = self.matrix_dim
        vals = self._chart_compiled(sequence_values(self.param_names, params))
        return np.array(vals).reshape(m, m)

    @cached_property
    def matrix_dim(self) -> int:
        return len(self.chart_fn(self.param_vars))

    @cached_property
    def _chart_compiled(self):
        return ex.compile_exprs([e for row in self.chart_fn(self.param_vars) for e in row],
                                self.param_names)

    @cached_property
    def _inv_compiled(self):
        return ex.compile_exprs(self.inv_fn(self.param_vars), self.param_names)

    @cached_property
    def _mul_compiled(self):
        qn = ["q__" + n for n in self.param_names]
        return ex.compile_exprs(self.mul_fn(self.param_vars, [Var(n) for n in qn]),
                                list(self.param_names) + qn)

    @cached_property
    def adjoint_sym(self) -> list[list[Expr]]:
        """[Ad_g]^b_a over the chart variables (see adjoint_matrix_sym)."""
        return adjoint_matrix_sym(self, self.param_vars)

    @cached_property
    def maurer_cartan_sym(self) -> list[list[Expr]]:
        """Rows of the right Maurer-Cartan form over the chart variables:
        [a][j] = d(kk k^-1)_a / d kk_j at kk = k, exact."""
        kk = [Var("kk__" + n) for n in self.param_names]
        moved = self.mul_fn(kk, self.inv_fn(self.param_vars))
        back = {v.name: k for v, k in zip(kk, self.param_vars)}
        return [[ex.subs(ex.diff(e, v.name), back) for v in kk] for e in moved]

    @cached_property
    def adjoint_compiled(self):
        """params -> [Ad_g]^b_a, row-major in b, a."""
        return ex.compile_exprs([e for row in self.adjoint_sym for e in row], self.param_names)

    @cached_property
    def basis(self) -> list[FrMatrix]:
        """E_a = d(chart)/d(param_a) at 0, exact."""
        rows = self.chart_fn(self.param_vars)
        origin = {n: Fraction(0) for n in self.param_names}
        zero = {k: ZERO for k in self.param_names}
        return [tuple(tuple(ex.eval_exact(ex.subs(ex.diff(e, nm), zero), origin) for e in row)
                      for row in rows)
                for nm in self.param_names]

    @cached_property
    def algebra(self) -> LieAlgebra:
        L = structure_constants_from_matrices(self.span)
        return LieAlgebra(labels=self.labels, constants=L.constants)

    @cached_property
    def span(self) -> _Span:
        return _Span(self.basis)


def group_mul(G: MatrixGroup, p: Sequence[float], q: Sequence[float]) -> np.ndarray:
    """The product's parameters, as the compiled product gives them (no
    coordinate wrapped); p and q may hold N points as columns."""
    names = G.param_names
    return np.asarray(G._mul_compiled(joined(sequence_values(names, p),
                                             sequence_values(names, q))))


def group_inv(G: MatrixGroup, p: Sequence[float]) -> np.ndarray:
    """The inverse's parameters, as the compiled inverse gives them (no
    coordinate wrapped); p may hold N points as columns."""
    return np.asarray(G._inv_compiled(sequence_values(G.param_names, p)))


def adjoint_matrix_sym(G: MatrixGroup, params: Sequence[Expr]) -> list[list[Expr]]:
    """[Ad_g]^b_a with Ad_g e_a = sum_b [Ad]_{b,a} e_b, entries as expressions,
    read from the pivot entries of g E_a g^-1 (`_Span`).

    g E_a is formed over E_a's nonzero entries only: column t of row r is
    the sum over the rows s of E_a's column t, in ascending order.  A zero
    term drops out of `ex.dot` and nodes are interned, so every entry is
    the very node the dense product builds."""
    chart = G.chart_fn(list(params))
    chart_inv = G.chart_fn(G.inv_fn(list(params)))
    span = G.span
    cols = []
    for E in span.basis:
        by_col: dict[int, list] = {}  # t -> [(s, E_a[s][t])], t and s ascending
        for (s, t), w in sorted(E.items(), key=lambda kv: kv[0][::-1]):
            by_col.setdefault(t, []).append((s, Const(w)))
        at = []
        for r, c in span.pivots:
            left = [ex.dot([chart[r][s] for s, _ in col], [w for _, w in col])
                    for col in by_col.values()]
            at.append(ex.dot(left, [chart_inv[t][c] for t in by_col]))
        cols.append([ex.dot([w for _, w in row], [at[i] for i, _ in row]) for row in span.weights])
    return [list(col) for col in zip(*cols)]  # [b][a]


def adjoint(G: MatrixGroup, g: Sequence[float], X: Sequence[float]) -> np.ndarray:
    """Ad_g X by matrix conjugation, re-expanded in the basis (checked).

    The library reads the compiled symbolic adjoint (`adjoint_compiled`);
    this direct conjugation is the independent reference it is tested
    against, and the one float reader of `_Span.coords`."""
    X = sequence_values(G.labels, X)
    Xm = sum(c * np.array(B, dtype=float) for c, B in zip(X, G.basis))
    conj = G.chart(g) @ Xm @ G.chart(group_inv(G, g))
    entries = {k: v for k, v in np.ndenumerate(conj) if v}
    return np.array(G.span.coords(entries, 1e-10), dtype=float)


def coadjoint_star(G: MatrixGroup, g: Sequence[float], mu: Sequence[float]) -> np.ndarray:
    """<Ad*_g mu, X> = <mu, Ad_{g^-1} X>; g and mu may hold N points as columns."""
    d = G.dim
    # [b][a] of Ad_{g^-1}
    ad = np.asarray(G.adjoint_compiled(group_inv(G, g)))
    return vecmat(np.asarray(sequence_values(G.labels, mu)), ad.reshape(d, d, *ad.shape[1:]))


def _emat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[ex.dot(A[r], [B[t][c] for t in range(k)]) for c in range(m)] for r in range(n)]


# ---------------------------------------------------------------------------
# group pairs (closed codimension-one subgroup, transverse coordinate)
# ---------------------------------------------------------------------------

class BLieGroupPair(ex.Frozen):
    """A group with a marked codimension-one subgroup and a split chart.

    The trivialization maps group parameters to (subgroup parameters,
    transverse coordinate) equivariantly: left translation by the subgroup
    acts on the first factor only.  All reduction-side work happens in the
    trivialized chart: `triv_fn` maps params to (h_params, phi) and
    `triv_inv_fn` maps (h_params, phi) back to params.

    `_cache` holds the per-pair objects built in other modules (the lifted
    action and its invariant momenta, verify's connection cases and flow
    field), each under a string key (`memo`), in a dict of the pair's own
    unless one is given; objects lie derives itself are cached properties.
    """

    def __init__(self, name: str, group: MatrixGroup, phi_index: int,
                 triv_fn: Callable, triv_inv_fn: Callable,
                 quotient: str = "line (R^1)", _cache: dict | None = None):
        self.__dict__.update(name=name, group=group, phi_index=phi_index, triv_fn=triv_fn,
                             triv_inv_fn=triv_inv_fn, quotient=quotient,
                             _cache={} if _cache is None else _cache)

    def memo(self, key, build: Callable):
        """The per-pair object under key, made by build() on first use."""
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build()
        return got

    @property
    def h_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.group.dim) if i != self.phi_index)

    @property
    def h_names(self) -> tuple[str, ...]:
        return tuple(self.group.param_names[i] for i in self.h_indices)

    @property
    def phi_name(self) -> str:
        return self.group.param_names[self.phi_index]

    @property
    def h_labels(self) -> tuple[str, ...]:
        return tuple(self.group.labels[i] for i in self.h_indices)

    @cached_property
    def _triv_compiled(self):
        hp, phi = self.triv_fn(self.group.param_vars)
        return ex.compile_exprs([*hp, phi], self.group.param_names)

    @cached_property
    def _triv_inv_compiled(self):
        kv = [Var(n) for n in self.h_names]
        return ex.compile_exprs(self.triv_inv_fn(kv, Var(self.phi_name)),
                                [*self.h_names, self.phi_name])

    def triv(self, params: Sequence[float]) -> tuple[np.ndarray, float]:
        out = self._triv_compiled(sequence_values(self.group.param_names, params))
        return np.array(out[:-1]), out[-1]

    def triv_inv(self, k: Sequence[float], phi: float) -> np.ndarray:
        return np.array(self._triv_inv_compiled([*sequence_values(self.h_names, k), float(phi)]))

    @cached_property
    def h_group(self) -> MatrixGroup:
        G = self.group
        embed = lambda k: self.triv_inv_fn(list(k), ZERO)
        hi = self.h_indices
        pi = self.phi_index

        def h_pfm(M):
            p = G.params_from_matrix(M)
            if abs(p[pi]) > 1e-9:
                raise ValueError("matrix is not in the subgroup")
            return np.array([p[i] for i in hi])

        return MatrixGroup(
            name=self.name + ".H",
            param_names=self.h_names,
            labels=self.h_labels,
            chart_fn=lambda k: G.chart_fn(embed(k)),
            mul_fn=lambda p, q: self.triv_fn(G.mul_fn(embed(p), embed(q)))[0],
            inv_fn=lambda p: self.triv_fn(G.inv_fn(embed(p)))[0],
            params_from_matrix=h_pfm,
            box=tuple(G.box[i] for i in hi),
        )

    @property
    def h_algebra(self) -> LieAlgebra:
        return self.h_group.algebra


def _check_pair(pair: BLieGroupPair):
    # subgroup chart must sit inside the group chart at transverse value 0
    G = pair.group
    k = [Var(n) for n in pair.h_names]
    back = pair.triv_fn(pair.triv_inv_fn(k, Var(pair.phi_name)))
    names = [*pair.h_names, pair.phi_name]
    env = {n: 0.37 + 0.11 * i for i, n in enumerate(names)}
    for e, n in zip([*back[0], back[1]], names):
        if not abs(ex.evaluate(e, env) - env[n]) < 1e-12:
            raise TrivializationError("trivialization not invertible")
    return pair


# ---------------------------------------------------------------------------
# built-in groups
# ---------------------------------------------------------------------------

def _se2() -> BLieGroupPair:
    names = ("b1", "b2", "phi")

    def chart(p):
        b1, b2, phi = p
        return [[ex.cos(phi), -ex.sin(phi), b1],
                [ex.sin(phi), ex.cos(phi), b2],
                [ZERO, ZERO, ONE]]

    def mul(p, q):
        b1, b2, phi = p
        c, s = ex.cos(phi), ex.sin(phi)
        return [c * q[0] - s * q[1] + b1, s * q[0] + c * q[1] + b2, phi + q[2]]

    def inv(p):
        b1, b2, phi = p
        c, s = ex.cos(phi), ex.sin(phi)
        return [-(c * b1 + s * b2), s * b1 - c * b2, -phi]

    def pfm(M):
        return np.array([M[0, 2], M[1, 2], math.atan2(M[1, 0], M[0, 0])])

    G = MatrixGroup(
        name="se2", param_names=names, labels=("P1", "P2", "J"),
        chart_fn=chart, mul_fn=mul, inv_fn=inv, params_from_matrix=pfm,
        box=((-1.5, 1.5), (-1.5, 1.5), (-1.2, 1.2)),
    )
    ident = lambda p: ([p[0], p[1]], p[2])
    return _check_pair(BLieGroupPair(
        name="se2", group=G, phi_index=2,
        triv_fn=ident, triv_inv_fn=lambda k, phi: [k[0], k[1], phi],
        quotient="circle (S^1), two angle charts",
    ))


# cold, on 2 processors: describe 0.19 s at n = 8 and 0.31 s at 16, verify 0.8 s and 2.0 s
HEISENBERG_MAX_N = 16


def _heisenberg_q(n: int) -> BLieGroupPair:
    if not 1 <= n <= HEISENBERG_MAX_N:
        raise ValueError(f"heisenberg_q(n) needs 1 <= n <= {HEISENBERG_MAX_N}, got {n}")
    a_names = tuple(f"a{i + 1}" for i in range(n))
    b_names = tuple(f"b{i + 1}" for i in range(n))
    names = (*a_names, *b_names, "c")
    labels = (*(f"X{i + 1}" for i in range(n)), *(f"Y{i + 1}" for i in range(n)), "Z")
    m = n + 2

    def chart(p):
        a, b, c = p[:n], p[n:2 * n], p[2 * n]
        rows = []
        rows.append([ONE, *a, c])
        for i in range(n):
            rows.append([ZERO] * (1 + i) + [ONE] + [ZERO] * (n - 1 - i) + [b[i]])
        rows.append([ZERO] * (n + 1) + [ONE])
        return rows

    def mul(p, q):
        a, b, c = p[:n], p[n:2 * n], p[2 * n]
        ap, bp, cp = q[:n], q[n:2 * n], q[2 * n]
        return [*(x + y for x, y in zip(a, ap)), *(x + y for x, y in zip(b, bp)),
                c + cp + ex.dot(a, bp)]

    def inv(p):
        a, b, c = p[:n], p[n:2 * n], p[2 * n]
        return [*(-x for x in a), *(-x for x in b), -c + ex.dot(a, b)]

    def pfm(M):
        return np.array([*M[0, 1:n + 1], *M[1:n + 1, n + 1], M[0, n + 1]])

    G = MatrixGroup(
        name=f"heisenberg_q({n})", param_names=names, labels=labels,
        chart_fn=chart, mul_fn=mul, inv_fn=inv, params_from_matrix=pfm,
        box=((-1.5, 1.5),) * 2 * n + ((0.05, 0.95),),
    )
    # transverse coordinate a1; subgroup {a1 = 0}
    def triv(p):
        return [*p[1:n], *p[n:2 * n], p[2 * n]], p[0]

    def triv_inv(k, phi):
        return [phi, *k[:n - 1], *k[n - 1:2 * n - 1], k[2 * n - 1]]

    return _check_pair(BLieGroupPair(
        name=f"heisenberg_q({n})", group=G, phi_index=0,
        triv_fn=triv, triv_inv_fn=triv_inv,
        quotient="circle-bundle slice, transverse coordinate a1",
    ))


def _cayley_rotation(u: Sequence[Expr]) -> list[list[Expr]]:
    """R(u) = I + (4*hat(u) + 2*hat(u)^2)/(4 + |u|^2); dR/du_i(0) = J_i."""
    u1, u2, u3 = u
    den = Const(Fraction(4)) + u1 * u1 + u2 * u2 + u3 * u3
    hat = [[ZERO, -u3, u2], [u3, ZERO, -u1], [-u2, u1, ZERO]]
    hat2 = _emat_mul(hat, hat)
    rows = []
    for r in range(3):
        row = []
        for c in range(3):
            num = Const(Fraction(4)) * hat[r][c] + Const(Fraction(2)) * hat2[r][c]
            e = num / den
            if r == c:
                e = ONE + e
            row.append(e)
        rows.append(row)
    return rows


def _cayley_compose(u: Sequence[Expr], v: Sequence[Expr]) -> list[Expr]:
    """Parameters of R(u) R(v): (u + v + u x v / 2) / (1 - u.v / 4)."""
    cross = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
    dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    den = ONE - dot / 4
    return [(u[i] + v[i] + cross[i] / 2) / den for i in range(3)]


def _galilean() -> BLieGroupPair:
    names = ("u1", "u2", "u3", "v1", "v2", "v3", "a1", "a2", "a3", "s")
    labels = ("J1", "J2", "J3", "K1", "K2", "K3", "P1", "P2", "P3", "E")

    def split(p):
        return p[0:3], p[3:6], p[6:9], p[9]

    def chart(p):
        u, v, a, s = split(p)
        R = _cayley_rotation(u)
        rows = []
        for r in range(3):
            rows.append([*R[r], v[r], a[r]])
        rows.append([ZERO, ZERO, ZERO, ONE, s])
        rows.append([ZERO, ZERO, ZERO, ZERO, ONE])
        return rows

    def mul(p, q):
        u, v, a, s = split(p)
        up, vp, ap, sp = split(q)
        R = _cayley_rotation(u)
        Rv = [ex.dot(R[r], vp) for r in range(3)]
        Ra = [ex.dot(R[r], ap) for r in range(3)]
        return [*_cayley_compose(u, up),
                *(Rv[r] + v[r] for r in range(3)),
                *(Ra[r] + sp * v[r] + a[r] for r in range(3)),
                s + sp]

    def inv(p):
        u, v, a, s = split(p)
        R = _cayley_rotation(u)  # R(-u) = R(u)^T
        Rt = [[R[c][r] for c in range(3)] for r in range(3)]
        Rtv = [ex.dot(Rt[r], v) for r in range(3)]
        sva = [s * v[r] - a[r] for r in range(3)]
        Rtsva = [ex.dot(Rt[r], sva) for r in range(3)]
        return [*(-u[i] for i in range(3)), *(-Rtv[r] for r in range(3)), *Rtsva, -s]

    def pfm(M):
        R = M[:3, :3]
        den = R + np.eye(3)
        if abs(np.linalg.det(den)) < 1e-12:
            raise ValueError("rotation too far from the identity for the Cayley chart")
        Gm = (R - np.eye(3)) @ np.linalg.inv(den)
        u = 2 * np.array([Gm[2, 1], Gm[0, 2], Gm[1, 0]])
        return np.array([*u, *M[:3, 3], *M[:3, 4], M[3, 4]])

    G = MatrixGroup(
        name="galilean", param_names=names, labels=labels,
        chart_fn=chart, mul_fn=mul, inv_fn=inv, params_from_matrix=pfm,
        box=((-0.8, 0.8),) * 3 + ((-1.5, 1.5),) * 6 + ((-1.2, 1.2),),
    )

    # equivariant splitting: (u, v, a, s) -> ((u, v, a - s v), s)
    def triv(p):
        u, v, a, s = split(p)
        return [*u, *v, *(a[r] - s * v[r] for r in range(3))], s

    def triv_inv(k, phi):
        u, v, at = k[0:3], k[3:6], k[6:9]
        return [*u, *v, *(at[r] + phi * v[r] for r in range(3)), phi]

    return _check_pair(BLieGroupPair(
        name="galilean", group=G, phi_index=9,
        triv_fn=triv, triv_inv_fn=triv_inv,
        quotient="line (time translations)",
    ))


_BUILTINS = {"se2": _se2, "galilean": _galilean}
_BUILTIN_CACHE: dict[str, BLieGroupPair] = {}


def builtin(name: str) -> BLieGroupPair:
    """Built-in group pairs: se2, galilean, heisenberg_q(n); plain heisenberg_q is n = 1."""
    key = name.strip()
    m = re.fullmatch(r"heisenberg_q\s*(?:\(\s*(\d+)\s*\))?", key)
    if m:
        nn = int(m.group(1) or 1)
        key = f"heisenberg_q({nn})"
        if key not in _BUILTIN_CACHE:
            _BUILTIN_CACHE[key] = _heisenberg_q(nn)
        return _BUILTIN_CACHE[key]
    if key not in _BUILTINS:
        raise ValueError(f"unknown builtin group {name!r}")
    if key not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[key] = _BUILTINS[key]()
    return _BUILTIN_CACHE[key]
