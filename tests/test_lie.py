"""Lie layer: exact structure constants, group charts, adjoint actions.

The reference oracle is structure_constants_from_matrices: every bracket
table below is checked against exact rational matrix commutators, and the
group-level operations are checked against the charts by independent
routes (matrix products, finite differences of the adjoint flow).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import bsymp.expr as ex
from bsymp import lie
from bsymp.bcalc import _fr_inv, sequence_values

ALL_BUILTINS = ["se2", "heisenberg_q(1)", "heisenberg_q(2)", "galilean"]


def sample_params(G, rng):
    return np.array([rng.uniform(lo, hi) for lo, hi in G.box])


# ---------------------------------------------------------------------------
# exact structure constants
# ---------------------------------------------------------------------------

def test_oracle_sl2():
    # e, f, h with [h,e]=2e, [h,f]=-2f, [e,f]=h
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    h = [[1, 0], [0, -1]]
    L = lie.structure_constants_from_matrices([e, f, h])
    assert L.c(2, 0) == {0: Fraction(2)}
    assert L.c(2, 1) == {1: Fraction(-2)}
    assert L.c(0, 1) == {2: Fraction(1)}
    assert L.c(0, 0) == {}
    assert L.antisymmetry_defect() == 0
    assert L.jacobi_defect() == 0


def test_oracle_rational_entries():
    # rescaled basis keeps constants exact rationals
    e = [[0, Fraction(1, 3)], [0, 0]]
    f = [[0, 0], [Fraction(2, 5), 0]]
    h = [[Fraction(1, 2), 0], [0, Fraction(-1, 2)]]
    L = lie.structure_constants_from_matrices([e, f, h])
    # [e,f] = (2/15) diag(1,-1) = (4/15) h
    assert L.c(0, 1) == {2: Fraction(4, 15)}
    assert L.jacobi_defect() == 0


def test_oracle_span_error():
    # [E12, c E21] = c (E11 - E22) is outside span{E12, E21}; exact input
    # has no rounding tolerance, so c = 1e-11 is refused too
    for c, shown in ((1, "1.000e+00"), (Fraction(1, 10 ** 11), "1.000e-11")):
        with pytest.raises(lie.SpanError) as err:
            lie.structure_constants_from_matrices([[[0, 1], [0, 0]], [[0, 0], [c, 0]]])
        assert str(err.value) == f"matrix not in basis span (residual {shown})"


def test_span_residual_reads_entries_the_expansion_adds():
    # M agrees with the expansion J = [[0,-1],[1,0]] on its own nonzero
    # entry; only entry (1, 0), where M is 0, shows that M is not J
    span = lie._Span([[[0, -1], [1, 0]]])
    M = {(0, 1): Fraction(-1)}
    for tol in (0, 1e-10):
        with pytest.raises(lie.SpanError) as err:
            span.coords(M, tol)
        assert str(err.value) == "matrix not in basis span (residual 1.000e+00)"


@pytest.mark.parametrize("basis", [
    [[[0, 1], [0, 0]], [[0, 2], [0, 0]]],
    [[[0, 1], [0, 0]], [[0, 0], [0, 0]]],
    [[[0, 0], [0, 0]]],
], ids=["dependent", "zero-matrix", "only-zero"])
def test_dependent_basis_is_a_value_error(basis):
    with pytest.raises(ValueError, match="^basis matrices are linearly dependent$"):
        lie.structure_constants_from_matrices(basis)


def exact(v):
    """v as a Fraction, or an int when integral: the same exact value, and
    the dense references below multiply ints far faster."""
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def normal_equations(basis):
    """Reference left inverse of the vectorized basis over every entry, zeros
    included: (B^T B)^-1 B^T, the d x d Gram system inverted exactly."""
    m = len(basis[0])
    cols = [[exact(M[r][c]) for r in range(m) for c in range(m)] for M in basis]
    gram = [[Fraction(sum(x * y for x, y in zip(u, v))) for v in cols] for u in cols]
    ginv = _fr_inv(gram)  # its columns; the Gram matrix is symmetric, so also its rows
    return [[exact(sum(g * col[q] for g, col in zip(row, cols))) for q in range(m * m)]
            for row in ginv]


def dense_structure_constants(basis):
    """Reference: every product and weight, zeros included."""
    mats = [tuple(tuple(exact(v) for v in row) for row in M) for M in basis]
    d, m = len(mats), len(mats[0])
    pinv = normal_equations(mats)
    constants = {}
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            flat = [sum(mats[i][r][t] * mats[j][t][c] - mats[j][r][t] * mats[i][t][c]
                        for t in range(m))
                    for r in range(m) for c in range(m)]
            coeffs = [sum(pinv[a][q] * flat[q] for q in range(m * m)) for a in range(d)]
            if any(v != 0 for v in coeffs):
                constants[(i, j)] = {k: v for k, v in enumerate(coeffs) if v}
    return constants


@pytest.mark.parametrize("name", [*ALL_BUILTINS, "heisenberg_q(8)"])
def test_sparse_structure_constants_equal_dense(name):
    pair = lie.builtin(name)
    for G in (pair.group, pair.h_group):
        got = lie.structure_constants_from_matrices(G.basis).constants
        want = dense_structure_constants(G.basis)
        assert got == want
        assert all(type(v) is Fraction for row in got.values() for v in row.values())


def test_antisymmetry_defect_catches_corruption():
    L = lie.builtin("se2").group.algebra
    bad = dict(L.constants)
    i, j = 2, 0
    bad[(i, j)] = L.c(i, j)
    bad[(j, i)] = L.c(i, j)  # should be the negative
    corrupted = lie.LieAlgebra(labels=L.labels, constants=bad)
    assert corrupted.antisymmetry_defect() > 0
    assert L.antisymmetry_defect() == 0


def reference_antisymmetry_defect(L):
    """Max |c^k_ij + c^k_ji| and, on the diagonal, |c^k_ii| over all d^3
    entries: the dense loop `antisymmetry_defect` replaced."""
    worst = Fraction(0)
    for i in range(L.dim):
        for j in range(L.dim):
            ci, cj = L.c(i, j), L.c(j, i)
            for k in range(L.dim):
                worst = max(worst, abs(ci.get(k, 0) + cj.get(k, 0)))
                if i == j:
                    worst = max(worst, abs(ci.get(k, 0)))
    return worst


def test_antisymmetry_defect_matches_the_dense_loop():
    for name in [*ALL_BUILTINS, "heisenberg_q(8)"]:
        for L in (lie.builtin(name).group.algebra, lie.builtin(name).h_algebra):
            assert L.antisymmetry_defect() == reference_antisymmetry_defect(L) == 0
    one, half = Fraction(1), Fraction(1, 2)
    missing = lie.LieAlgebra(("X", "Y", "Z"), {(0, 1): {2: one}, (1, 0): {2: -one},
                                               (1, 2): {0: -half}})
    diagonal = lie.LieAlgebra(("X", "Y", "Z"), {(0, 1): {2: one}, (1, 0): {2: -one},
                                                (2, 2): {1: -half}})
    for L, want in [(missing, half), (diagonal, one), *((L, None) for L in corrupted_tables())]:
        got = L.antisymmetry_defect()
        assert got == reference_antisymmetry_defect(L), L.constants
        assert want is None or got == want


def test_jacobi_defect_catches_corruption():
    L = lie.builtin("galilean").group.algebra
    bad = dict(L.constants)
    assert L.c(0, 1) == {2: 1}  # [J1,J2] = J3
    bad[(0, 1)] = {3: Fraction(1)}  # pretend [J1,J2] = K1
    bad[(1, 0)] = {3: Fraction(-1)}
    corrupted = lie.LieAlgebra(labels=L.labels, constants=bad)
    assert corrupted.jacobi_defect() > 0


def bracket(L, X, Y):
    """[X, Y] coefficients from the constants table; exact on Fractions."""
    out = [X[0] * 0 for _ in range(L.dim)]
    for (i, j), row in L.constants.items():
        coef = X[i] * Y[j]
        if coef:
            for k, v in row.items():
                out[k] = out[k] + coef * v
    return out


def reference_jacobi_defect(L):
    """Max |coefficient| of [[e_i,e_j],e_k] + cyclic, by the dense bracket of
    unit vectors: the loop `jacobi_defect` replaced, kept as its reference."""
    n = L.dim
    worst = Fraction(0)
    basis = [[Fraction(int(a == b)) for a in range(n)] for b in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = [Fraction(0)] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    outer = bracket(L, bracket(L, basis[a], basis[b]), basis[c])
                    s = [x + y for x, y in zip(s, outer)]
                worst = max([worst] + [abs(v) for v in s])
    return worst


def corrupted_tables():
    """Galilean with [J1,J2] = K1, galilean with both orientations of
    [J1,K2] stated with one sign, and two 3-dim tables whose Jacobi fails:
    one with constants of 10^200, one with a diagonal entry [Y,Y]."""
    gal = lie.builtin("galilean").group.algebra
    swapped = dict(gal.constants)
    assert gal.c(0, 1) == {2: 1}
    swapped[(0, 1)] = {3: Fraction(1)}
    swapped[(1, 0)] = {3: Fraction(-1)}
    one_sign = dict(gal.constants)
    one_sign[(4, 0)] = gal.c(0, 4)
    c, one, third = Fraction(10 ** 200), Fraction(1), Fraction(1, 3)
    big = {(0, 1): {0: c}, (1, 0): {0: -c}, (1, 2): {1: c}, (2, 1): {1: -c}}
    diagonal = {(0, 1): {2: one}, (1, 0): {2: -one},
                (1, 2): {0: one, 2: third}, (2, 1): {0: -one, 2: -third},
                (2, 0): {1: one}, (0, 2): {1: -one}, (1, 1): {0: third}}
    return [lie.LieAlgebra(gal.labels, swapped), lie.LieAlgebra(gal.labels, one_sign),
            lie.LieAlgebra(("X", "Y", "Z"), big), lie.LieAlgebra(("X", "Y", "Z"), diagonal)]


def test_jacobi_defect_matches_the_dense_bracket_loop():
    for name in ALL_BUILTINS:
        for L in (lie.builtin(name).group.algebra, lie.builtin(name).h_algebra):
            assert L.jacobi_defect() == reference_jacobi_defect(L) == 0
    for L in corrupted_tables():
        assert L.jacobi_defect() == reference_jacobi_defect(L) > 0, L.constants


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_builtin_tables_exact(name):
    L = lie.builtin(name).group.algebra
    assert L.antisymmetry_defect() == 0
    assert L.jacobi_defect() == 0


def basis_vec(L, label):
    v = [Fraction(0)] * L.dim
    v[L.labels.index(label)] = Fraction(1)
    return v


def as_label_dict(L, vec):
    return {L.labels[k]: v for k, v in enumerate(vec) if v}


def test_se2_table():
    L = lie.builtin("se2").group.algebra
    J, P1, P2 = (basis_vec(L, s) for s in ("J", "P1", "P2"))
    assert as_label_dict(L, bracket(L, J, P1)) == {"P2": 1}
    assert as_label_dict(L, bracket(L, J, P2)) == {"P1": -1}
    assert as_label_dict(L, bracket(L, P1, P2)) == {}


def test_heisenberg_table():
    L = lie.builtin("heisenberg_q(2)").group.algebra
    for i in (1, 2):
        X = basis_vec(L, f"X{i}")
        Y = basis_vec(L, f"Y{i}")
        assert as_label_dict(L, bracket(L, X, Y)) == {"Z": 1}
    assert as_label_dict(L, bracket(L, basis_vec(L, "X1"), basis_vec(L, "Y2"))) == {}


def test_galilean_table():
    L = lie.builtin("galilean").group.algebra
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}

    def b(label):
        return basis_vec(L, label)

    for (i, j), k in eps.items():
        assert as_label_dict(L, bracket(L, b(f"J{i}"), b(f"J{j}"))) == {f"J{k}": 1}
        assert as_label_dict(L, bracket(L, b(f"J{i}"), b(f"K{j}"))) == {f"K{k}": 1}
        assert as_label_dict(L, bracket(L, b(f"J{i}"), b(f"P{j}"))) == {f"P{k}": 1}
    for i in (1, 2, 3):
        assert as_label_dict(L, bracket(L, b(f"K{i}"), b("E"))) == {f"P{i}": 1}
        assert as_label_dict(L, bracket(L, b(f"J{i}"), b("E"))) == {}
        assert as_label_dict(L, bracket(L, b(f"P{i}"), b("E"))) == {}
        for j in (1, 2, 3):
            assert as_label_dict(L, bracket(L, b(f"K{i}"), b(f"K{j}"))) == {}
            assert as_label_dict(L, bracket(L, b(f"P{i}"), b(f"P{j}"))) == {}
            assert as_label_dict(L, bracket(L, b(f"K{i}"), b(f"P{j}"))) == {}


# ---------------------------------------------------------------------------
# group charts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_chart_homomorphism(name):
    G = lie.builtin(name).group
    rng = random.Random(11)
    for _ in range(20):
        p = sample_params(G, rng)
        q = sample_params(G, rng)
        prod = lie.group_mul(G, p, q)
        via_chart = G.wrap_params(G.params_from_matrix(G.chart(p) @ G.chart(q)))
        assert lie.param_distance(G, prod, via_chart) < 1e-9


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_inverse_and_associativity(name):
    G = lie.builtin(name).group
    rng = random.Random(12)
    e = np.zeros(G.dim)
    for _ in range(20):
        p, q, r = (sample_params(G, rng) for _ in range(3))
        assert lie.param_distance(G, lie.group_mul(G, p, lie.group_inv(G, p)), e) < 1e-9
        assert lie.param_distance(G, lie.group_mul(G, lie.group_inv(G, p), p), e) < 1e-9
        left = lie.group_mul(G, lie.group_mul(G, p, q), r)
        right = lie.group_mul(G, p, lie.group_mul(G, q, r))
        assert lie.param_distance(G, left, right) < 1e-8


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_chart_at_zero_is_identity(name):
    G = lie.builtin(name).group
    m = G.matrix_dim
    assert np.max(np.abs(G.chart(np.zeros(G.dim)) - np.eye(m))) == 0.0


def test_heisenberg_group_law_values():
    G = lie.builtin("heisenberg_q(1)").group
    out = lie.group_mul(G, [0.25, 0.5, 0.125], [0.5, 0.25, 0.25])
    # (a+a', b+b', c+c'+a b') with c mod 1
    assert np.allclose(out, [0.75, 0.75, 0.125 + 0.25 + 0.25 * 0.25])
    out2 = lie.group_mul(G, [0.0, 0.0, 0.75], [0.0, 0.0, 0.75])
    assert abs(out2[2] - 0.5) < 1e-15  # central coordinate wraps mod 1


def test_se2_angle_wraps():
    G = lie.builtin("se2").group
    out = lie.group_mul(G, [0, 0, 2.5], [0, 0, 2.5])
    assert abs(out[2] - (5.0 - 2 * math.pi)) < 1e-12


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------

def group_exp(G, X):
    """Parameters of exp(sum X_a E_a), by scaling and squaring (Higham 2005).

    The Taylor series is summed for M / 2^s, with s the least making that
    1-norm at most 1/2, until a term no longer changes the sum (at once
    when M is nilpotent), and the sum is squared s times.  The library has
    no exponential: this is the reference the charts are checked against.
    """
    m = G.matrix_dim
    M = np.zeros((m, m))
    for coef, B in zip(sequence_values(G.labels, X), G.basis):
        M += coef * np.array(B, dtype=float)
    norm = float(np.max(np.sum(np.abs(M), axis=0)))
    s = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    A = M / 2.0 ** s
    P = np.eye(m)
    S = np.eye(m)
    for k in range(1, 30):
        P = P @ A / k
        if np.array_equal(S + P, S):
            break
        S = S + P
    for _ in range(s):
        S = S @ S
    return G.wrap_params(G.params_from_matrix(S))


def group_log(G, M):
    """Chart parameters of a matrix near the identity; checks the result."""
    params = G.params_from_matrix(np.asarray(M, dtype=float))
    err = float(np.max(np.abs(G.chart(params) - M)))
    if err > 1e-8:
        raise ValueError(f"matrix log did not converge in this chart (residual {err:.3e})")
    return G.wrap_params(params)


def test_exp_heisenberg_closed_form():
    G = lie.builtin("heisenberg_q(1)").group
    x, y, z = 0.3, -0.4, 0.2
    p = group_exp(G, [x, y, z])
    assert np.allclose(p, [x, y, (z + x * y / 2) % 1.0], atol=1e-14)


def test_exp_se2_subgroups():
    G = lie.builtin("se2").group
    assert np.allclose(group_exp(G, [0.7, 0, 0]), [0.7, 0, 0], atol=1e-12)
    assert np.allclose(group_exp(G, [0, 0, 0.9]), [0, 0, 0.9], atol=1e-12)


def test_exp_log_roundtrip():
    rng = random.Random(13)
    for name in ALL_BUILTINS:
        G = lie.builtin(name).group
        for _ in range(10):
            X = [rng.uniform(-0.4, 0.4) for _ in range(G.dim)]
            p = group_exp(G, X)
            back = group_log(G, G.chart(p))
            assert lie.param_distance(G, p, back) < 1e-9


def test_log_rejects_far_rotation():
    G = lie.builtin("galilean").group
    M = np.eye(5)
    M[0, 0] = -1.0
    M[1, 1] = -1.0  # rotation by pi about the third axis: outside the chart
    with pytest.raises(ValueError):
        group_log(G, M)


def test_log_rejects_non_member():
    G = lie.builtin("se2").group
    M = np.eye(3)
    M[2, 0] = 0.5  # bottom row broken: not in the group
    with pytest.raises(ValueError):
        group_log(G, M)


# ---------------------------------------------------------------------------
# adjoint and coadjoint
# ---------------------------------------------------------------------------

def test_adjoint_rotation_quarter_turn():
    G = lie.builtin("se2").group
    g = [0.0, 0.0, math.pi / 2]
    assert np.allclose(lie.adjoint(G, g, [1, 0, 0]), [0, 1, 0], atol=1e-12)
    assert np.allclose(lie.adjoint(G, g, [0, 1, 0]), [-1, 0, 0], atol=1e-12)
    assert np.allclose(lie.adjoint(G, g, [0, 0, 1]), [0, 0, 1], atol=1e-12)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_adjoint_homomorphism(name):
    G = lie.builtin(name).group
    rng = random.Random(14)
    for _ in range(5):
        g = sample_params(G, rng)
        h = sample_params(G, rng)
        X = np.array([rng.uniform(-1, 1) for _ in range(G.dim)])
        lhs = lie.adjoint(G, lie.group_mul(G, g, h), X)
        rhs = lie.adjoint(G, g, lie.adjoint(G, h, X))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_adjoint_derivative_recovers_bracket(name):
    # d/dt Ad_{exp(tX)} Y at t=0 equals [X, Y]: ties charts to the tables
    G = lie.builtin(name).group
    L = G.algebra
    rng = random.Random(15)
    h = 1e-6
    for _ in range(10):
        X = np.array([rng.uniform(-1, 1) for _ in range(G.dim)])
        Y = np.array([rng.uniform(-1, 1) for _ in range(G.dim)])
        plus = lie.adjoint(G, group_exp(G, h * X), Y)
        minus = lie.adjoint(G, group_exp(G, -h * X), Y)
        fd = (plus - minus) / (2 * h)
        exact = np.array([float(v) for v in bracket(L, list(X), list(Y))])
        assert np.max(np.abs(fd - exact)) < 1e-5


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_coadjoint_pairing(name):
    G = lie.builtin(name).group
    rng = random.Random(16)
    for _ in range(5):
        g = sample_params(G, rng)
        mu = np.array([rng.uniform(-2, 2) for _ in range(G.dim)])
        ad_mu = lie.coadjoint_star(G, g, mu)
        ginv = lie.group_inv(G, g)
        for a in range(G.dim):
            X = np.zeros(G.dim)
            X[a] = 1.0
            rhs = float(mu @ lie.adjoint(G, ginv, X))
            assert abs(ad_mu[a] - rhs) < 1e-9


def test_adjoint_span_error():
    G = lie.builtin("se2").group
    bad = {(2, 0): 1.0}  # not in the algebra
    with pytest.raises(lie.SpanError):
        G.span.coords(bad)


def fraction_matmul(A, B):
    return [[sum(x * B[t][c] for t, x in enumerate(row) if x) for c in range(len(B[0]))]
            for row in A]


@pytest.mark.parametrize("name", ["heisenberg_q(1)", "heisenberg_q(2)", "heisenberg_q(8)",
                                  "galilean"])
def test_adjoint_sym_is_exact_conjugation(name):
    # on a rational chart, Ad at a rational point g is g E_a g^-1 in
    # Fractions, expanded by the normal equations
    G = lie.builtin(name).group
    m, d = G.matrix_dim, G.dim
    pinv = normal_equations(G.basis)
    rng = random.Random(30)
    for _ in range(3):
        env = {n: Fraction(rng.randrange(-8, 9), rng.randrange(1, 7)) for n in G.param_names}
        g = [[ex.eval_exact(e, env) for e in row] for row in G.chart_fn(G.param_vars)]
        g_inv = [[exact(v) for v in row] for row in zip(*_fr_inv(g))]
        g = [[exact(v) for v in row] for row in g]
        got = [[ex.eval_exact(e, env) for e in row] for row in G.adjoint_sym]
        for a, E in enumerate(G.basis):
            conj = fraction_matmul(fraction_matmul(g, E), g_inv)
            flat = [conj[r][c] for r in range(m) for c in range(m)]
            want = [sum(w * v for w, v in zip(pinv[b], flat) if w) for b in range(d)]
            back = [sum(x * B[r][c] for x, B in zip(want, G.basis) if x)
                    for r in range(m) for c in range(m)]
            assert back == flat
            assert [got[b][a] for b in range(d)] == want


def dense_adjoint_sym(G):
    """[Ad_g]^b_a with every entry of chart * E_a formed by `ex.dot` over
    all m terms, zeros included, then read at the pivots of its product
    with chart^-1: the dense product `adjoint_matrix_sym` replaced."""
    chart = G.chart_fn(G.param_vars)
    chart_inv = G.chart_fn(G.inv_fn(G.param_vars))
    m = G.matrix_dim
    cols = []
    for E in G.basis:
        left = [[ex.dot(chart[r], [ex.Const(E[t][c]) for t in range(m)]) for c in range(m)]
                for r in range(m)]
        at = [ex.dot(left[r], [chart_inv[t][c] for t in range(m)]) for r, c in G.span.pivots]
        cols.append([ex.dot([w for _, w in row], [at[i] for i, _ in row])
                     for row in G.span.weights])
    return [list(col) for col in zip(*cols)]


def sheared_se2():
    """se2 with the translation basis E_02, E_02 + E_12: the second has two
    entries in one column, so the order its rows are summed in shows."""
    se2 = lie.builtin("se2").group
    to = lambda p: [p[0] + p[1], p[1], p[2]]
    back = lambda q: [q[0] - q[1], q[1], q[2]]
    return lie.MatrixGroup(
        name="sheared se2", param_names=("s1", "s2", "phi"), labels=("A", "B", "J"),
        chart_fn=lambda p: se2.chart_fn(to(p)), mul_fn=lambda p, q: back(se2.mul_fn(to(p), to(q))),
        inv_fn=lambda p: back(se2.inv_fn(to(p))),
        params_from_matrix=lambda M: np.array(back(list(se2.params_from_matrix(M)))),
        wrap=se2.wrap, box=se2.box)


@pytest.mark.parametrize("name", [*ALL_BUILTINS, "heisenberg_q(8)", "sheared se2"])
def test_adjoint_sym_entries_are_the_dense_product_nodes(name):
    # E_a's zero entries drop out of ex.dot and nodes are interned, so the
    # product over E_a's nonzero entries builds the very same nodes
    groups = ([sheared_se2()] if name == "sheared se2"
              else [lie.builtin(name).group, lie.builtin(name).h_group])
    for G in groups:
        got, want = G.adjoint_sym, dense_adjoint_sym(G)
        assert len(got) == len(want) == G.dim
        for row, ref in zip(got, want):
            assert len(row) == len(ref) and all(a is b for a, b in zip(row, ref))
    if name == "sheared se2":
        assert G.span.basis[1] == {(0, 2): 1, (1, 2): 1}


# ---------------------------------------------------------------------------
# group pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_pair_shapes(name):
    pair = lie.builtin(name)
    G, H = pair.group, pair.h_group
    assert H.dim == G.dim - 1
    assert pair.phi_index not in pair.h_indices
    assert H.algebra.jacobi_defect() == 0
    assert H.algebra.antisymmetry_defect() == 0


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_trivialization_roundtrip(name):
    pair = lie.builtin(name)
    G = pair.group
    rng = random.Random(17)
    for _ in range(20):
        g = sample_params(G, rng)
        k, phi = pair.triv(g)
        back = pair.triv_inv(k, phi)
        assert np.max(np.abs(back - g)) < 1e-12


def test_check_pair_rejects_non_inverse_trivialization():
    good = lie.builtin("se2")
    bad = lie.BLieGroupPair(
        name="se2-bad", group=good.group, phi_index=2,
        triv_fn=lambda p: ([2 * p[0], p[1]], p[2]),
        triv_inv_fn=good.triv_inv_fn)
    with pytest.raises(lie.TrivializationError, match="trivialization not invertible"):
        lie._check_pair(bad)
    assert issubclass(lie.TrivializationError, ValueError)
    assert lie._check_pair(good) is good


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_trivialization_equivariance(name):
    # left translation by the subgroup only moves the subgroup factor
    pair = lie.builtin(name)
    G, H = pair.group, pair.h_group
    rng = random.Random(18)
    for _ in range(20):
        g = sample_params(G, rng)
        kh = np.array([rng.uniform(lo, hi) for lo, hi in H.box])
        prod = lie.group_mul(G, pair.triv_inv(kh, 0.0), g)
        k2, phi2 = pair.triv(prod)
        kg, phig = pair.triv(g)
        assert lie.param_distance(H, k2, lie.group_mul(H, kh, kg)) < 1e-9
        dphi = phi2 - phig
        if G.wrap[pair.phi_index] == "mod1":
            dphi = min(abs(dphi) % 1.0, 1.0 - abs(dphi) % 1.0)
        assert abs(dphi) < 1e-9


def test_subgroup_membership():
    pair = lie.builtin("galilean")
    G, H = pair.group, pair.h_group
    rng = random.Random(19)
    kh = np.array([rng.uniform(lo, hi) for lo, hi in H.box])
    M = H.chart(kh)
    assert np.allclose(H.params_from_matrix(M), kh)
    g = pair.triv_inv(kh, 0.5)
    with pytest.raises(ValueError):
        H.params_from_matrix(G.chart(g))


# ---------------------------------------------------------------------------
# Lie-Poisson structure on the dual
# ---------------------------------------------------------------------------

def test_lie_poisson_heisenberg_value():
    L = lie.builtin("heisenberg_q(1)").group.algebra
    v = L.lie_poisson.bracket_value(ex.Var("mu_X1"), ex.Var("mu_Y1"), [0.0, 0.0, 1.0])
    assert v == -1.0  # minus convention


def test_lie_poisson_antisymmetry():
    L = lie.builtin("galilean").group.algebra
    rng = random.Random(20)
    names = lie.dual_names(L)
    for _ in range(10):
        F = random_quadratic(names, rng)
        G = random_quadratic(names, rng)
        mu = [rng.uniform(-2, 2) for _ in range(L.dim)]
        P = L.lie_poisson
        assert abs(P.bracket_value(F, G, mu) + P.bracket_value(G, F, mu)) < 1e-10


def test_lie_poisson_matches_symbolic_tree():
    # the point bracket, read at a point given as a sequence, against the
    # evaluated tree of the same bivector's symbolic bracket
    L = lie.builtin("galilean").group.algebra
    rng = random.Random(23)
    names = lie.dual_names(L)
    for _ in range(20):
        F = random_quadratic(names, rng) * ex.sin(ex.Var(rng.choice(names)))
        G = random_quadratic(names, rng)
        mu = [rng.uniform(-2, 2) for _ in range(L.dim)]
        want = ex.evaluate(L.lie_poisson.bracket(F, G), dict(zip(names, mu)))
        got = L.lie_poisson.bracket_value(F, G, mu)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    with pytest.raises(ex.UnboundVariableError):
        L.lie_poisson.bracket_value(F, G, mu[:-1])


def random_quadratic(names, rng):
    terms = []
    for _ in range(4):
        a, b = rng.choice(names), rng.choice(names)
        c = Fraction(rng.randint(-3, 3))
        if c:
            terms.append(ex.Const(c) * ex.Var(a) * ex.Var(b))
    acc = ex.ZERO
    for t in terms:
        acc = acc + t
    return acc


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_lie_poisson_jacobi(name):
    # Jacobi for the minus bracket holds on every coordinate triple, exactly,
    # so it holds for all functions
    assert lie.builtin(name).group.algebra.lie_poisson.coordinate_jacobi_defect() == 0


def test_heisenberg_casimir():
    L = lie.builtin("heisenberg_q(1)").group.algebra
    rng = random.Random(22)
    names = lie.dual_names(L)
    for _ in range(20):
        F = random_quadratic(names, rng)
        mu = [rng.uniform(-2, 2) for _ in range(3)]
        assert abs(L.lie_poisson.bracket_value(ex.Var("mu_Z"), F, mu)) < 1e-12


def test_dual_names():
    L = lie.builtin("se2").group.algebra
    assert lie.dual_names(L) == ("mu_P1", "mu_P2", "mu_J")


# ---------------------------------------------------------------------------
# symbolic adjoint agrees with the numeric route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_adjoint_matrix_sym_matches_numeric(name):
    G = lie.builtin(name).group
    mat = lie.adjoint_matrix_sym(G, G.param_vars)
    f = ex.compile_exprs([e for row in mat for e in row], G.param_names)
    rng = random.Random(23)
    for _ in range(5):
        g = sample_params(G, rng)
        ad = np.array(f(list(g))).reshape(G.dim, G.dim)
        for a in range(G.dim):
            X = np.zeros(G.dim)
            X[a] = 1.0
            direct = lie.adjoint(G, g, X)
            assert np.max(np.abs(ad[:, a] - direct)) < 1e-9


def test_builtin_unknown():
    with pytest.raises(ValueError):
        lie.builtin("so5")


# ---------------------------------------------------------------------------
# the input contract of the numeric entry points
# ---------------------------------------------------------------------------

G3 = [0.1, 0.2, 0.3]


@pytest.mark.parametrize("call,error,message", [
    (lambda P: P.group.chart(G3 + [0.4]), ValueError, "point has 4 values for 3 coordinates"),
    (lambda P: P.group.chart(G3[:2]), ex.UnboundVariableError, "unknown name 'phi'"),
    (lambda P: lie.group_mul(P.group, G3 + [0.4], [0.5, 0.6]), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda P: lie.group_mul(P.group, G3, G3[:2]), ex.UnboundVariableError,
     "unknown name 'phi'"),
    (lambda P: lie.group_inv(P.group, G3[:2]), ex.UnboundVariableError, "unknown name 'phi'"),
    (lambda P: group_exp(P.group, [0.3, 0.2]), ex.UnboundVariableError,
     "unknown name 'J'"),
    (lambda P: group_exp(P.group, G3 + [0.4]), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda P: lie.adjoint(P.group, G3, [1.0, 0.0, 0.0, 5.0]), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda P: lie.adjoint(P.group, G3[:2], [1.0, 0.0, 0.0]), ex.UnboundVariableError,
     "unknown name 'phi'"),
    (lambda P: lie.coadjoint_star(P.group, G3, [1.0, 2.0, 3.0, 4.0]), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda P: lie.param_distance(P.group, G3, G3 + [0.4]), ValueError,
     "point has 4 values for 3 coordinates"),
    (lambda P: P.triv(G3 + [0.4]), ValueError, "point has 4 values for 3 coordinates"),
    (lambda P: P.triv_inv([0.1], 0.3), ex.UnboundVariableError, "unknown name 'b2'"),
    (lambda P: P.triv_inv(G3, 0.3), ValueError, "point has 3 values for 2 coordinates"),
], ids=["chart-long", "chart-short", "group_mul-long-p", "group_mul-short-q",
        "group_inv-short", "group_exp-short-X", "group_exp-long-X", "adjoint-long-X",
        "adjoint-short-g", "coadjoint_star-long-mu", "param_distance-long-q", "triv-long",
        "triv_inv-short-k", "triv_inv-long-k"])
def test_numeric_entry_points_take_one_value_per_name(call, error, message):
    # a short input names the first missing value; a long one is refused,
    # not cut to length, padded, or shifted into group_mul's other factor
    P = lie.builtin("se2")
    with pytest.raises(error) as err:
        call(P)
    assert str(err.value) == message
    # lists, tuples and arrays of the right length all pass
    G, q = P.group, [0.4, 0.5, 0.6]
    assert list(lie.group_mul(G, G3, tuple(q))) == list(lie.group_mul(G, np.array(G3), q))
    assert list(lie.adjoint(G, tuple(G3), q)) == list(lie.adjoint(G, G3, np.array(q)))
