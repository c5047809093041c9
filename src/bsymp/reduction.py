"""Principal connections on the split group chart and Poisson reduction.

The split chart (k_1..k_m, phi) of a group/subgroup pair puts the subgroup
orbit directions in the k-legs and the transverse direction in phi, the
defining coordinate of the b-cotangent chart every map here lives on.  The
vertical bundle is spanned by the infinitesimal left translations zeta_a;
a connection is an algebra-valued 1-form theta with theta(zeta^X) = X that
transforms by Ad under left translation.

Conventions fixed here:

* the default connection is the right Maurer-Cartan form of the subgroup
  factor, `MatrixGroup.maurer_cartan_sym`, built once per subgroup on the
  chart of the lifted action's base; it has no dphi leg, so it kills the
  transverse frame field.
* a connection compiles three maps and nothing more: theta (with the
  chart shift's S and dS/dphi), psi_theta with its frame Jacobian, and
  the coupling target; the pair adds one, the
  frame coefficients of b_d(nu_b) for the bracket below.  Its equivariance
  check moves a covector by the cotangent lift, and its reduced points
  read psi_theta and the subgroup's compiled Ad.
* every numeric entry point but `reduced_bracket_via_invariants` reads one
  point, or N points given as the columns of a 2-D array
  (`bcalc.sequence_values`): each compiled map is then called once over
  all of them (`expr.compile_exprs`), and the contractions are einsums
  over the trailing sample axis (`bcalc.matvec`, `bcalc.vecmat`).  The
  axiom and orbit-invariance checks draw every sample first and read them
  so; a check whose residual is NaN fails.
* the coupled chart carries coordinates (k, phi, mu_a, p): mu_a are the
  vertical momenta alpha(zeta_a), p is the annihilator coefficient of the
  covector on the dphi/phi slot.
* psi_theta, the map from the cotangent chart onto the coupled one, is built
  once, symbolically (`psi_map_exprs`), and compiled once per connection
  with the nonzero entries of its frame Jacobian, b_d of its components.
  The point split `psi_theta` and the coupling identity both read that one
  compiled map; `psi_theta_inverse` rebuilds the covector as the coupling
  form <mu, theta> plus the transverse leg p.
* the reduced bivector is block diagonal: the subgroup's minus
  Lie-Poisson bivector `LieAlgebra.lie_poisson`, {mu_i, mu_j} =
  -sum_k c^k_ij mu_k, plus phi d/dphi ^ d/dp on the transverse pair.
* invariant fiber coordinates nu_b = <mu, Ad_k E_b> undo the orbit motion
  of the vertical momenta; they are the pullbacks of the reduced mu_b.
* a connection owns its reduced chart: `reduced_coordinates` lifts mu_b to
  nu_b, phi to phi and p to its annihilator coefficient p_theta, read at a
  point as psi_theta's (mu Ad_k, phi, p) by `reduced_point`, and
  `chart_shift` tau: p -> p - S <xi, mu> takes that chart to the default
  one.  The theorem reads {F o lift_theta, G o lift_theta} =
  {F o tau, G o tau}_reduced o lift_default for reduced F and G.
* the upstairs side of that theorem is one matrix: B = J P J^T holds the
  brackets of the reduced coordinates y_theta, P the constant frame
  matrix of the upstairs bivector and J's rows b_d(y_k)
  (`Connection.reduced_brackets`).  By the chain rule the theorem is
  y_theta = tau(y) and B = Dtau P_red(y) Dtau^T at the default reduced
  point y, entry by entry (`connection_independence_residual`), and a
  reduced F is never substituted into the lifted coordinates.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Sequence

from ._numpy import np
from . import expr as ex
from .expr import Expr, Var, ONE, ZERO
from .bcalc import (BChart, BForm, PoissonBivector, b_d, columns, joined, matvec,
                    sequence_values, vecmat)
from .blift import LiftedAction
from .lie import BLieGroupPair, dual_names


class SplittingError(ValueError):
    """A connection failed to split a covector into annihilator plus momenta."""


# ---------------------------------------------------------------------------
# infinitesimal action


def zeta(pair: BLieGroupPair, g: Sequence[float], X: Sequence[float]) -> np.ndarray:
    """Value of the infinitesimal left translation by X at the base point g.

    Components are b-frame components on the split chart, X @ Z(g) for the
    generator matrix Z; the transverse slot is structurally zero because
    left translation fixes phi.  g takes one value per chart coordinate and
    X one per algebra direction, or N of each as columns
    (`bcalc.sequence_values`).
    """
    act = _action(pair)
    m = act.h_dim
    g = sequence_values(act.cot.base.names, g)
    X = np.asarray(sequence_values(act._h_names, X))
    Z = np.asarray(act.zeta_compiled(g[:m]))
    z = vecmat(X, Z.reshape(m, m, *Z.shape[1:]))
    return np.concatenate([z, np.zeros((1, *z.shape[1:]))])


def _action(pair: BLieGroupPair) -> LiftedAction:
    """The pair's lifted action, built once and kept on the pair."""
    return pair.memo("lifted_action", lambda: LiftedAction(pair))


# ---------------------------------------------------------------------------
# connections


class Connection(ex.Frozen):
    """Algebra-valued 1-form on the split chart, one BForm per generator.

    Its dphi-frame slot is S * Ad_k xi (xi, S None for the default).  Its
    compiled maps, reduced coordinates and chart shift are cached on it.
    """

    def __init__(self, pair: BLieGroupPair, forms: tuple[BForm, ...], tag: str,
                 xi: tuple[float, ...] | None = None, S: Expr | None = None):
        self.__dict__.update(pair=pair, forms=forms, tag=tag, xi=xi, S=S)

    @property
    def chart(self) -> BChart:
        return self.forms[0].chart

    @property
    def h_dim(self) -> int:
        return len(self.pair.h_names)

    @cached_property
    def _theta_compiled(self):
        """point -> theta^a_j row-major: every coefficient in one call, then,
        if deformed, the scale S of `chart_shift` and dS/dphi."""
        names = self.chart.names
        flat = [form.coeff((j,)) for form in self.forms for j in range(len(names))]
        if self.S is not None:
            flat += [self.S, ex.diff(self.S, self.pair.phi_name)]
        return ex.compile_exprs(flat, list(names))

    def theta_matrix(self, point: Sequence[float]) -> np.ndarray:
        """Theta(x): row a holds theta^a's frame coefficients at the point;
        at N points given as columns, an (h, n, N) array."""
        names = self.chart.names
        vals = np.asarray(self._theta_compiled(sequence_values(names, point)))
        return vals[:self.h_dim * len(names)].reshape(self.h_dim, len(names), *vals.shape[1:])

    def theta(self, point: Sequence[float], v: Sequence[float]) -> np.ndarray:
        """Apply theta to a b-tangent vector given in frame components; point
        and v may hold N samples as columns."""
        return matvec(self.theta_matrix(point), np.asarray(sequence_values(self.chart.names, v)))

    def phi_slot_exprs(self) -> list[Expr]:
        """The dphi-leg coefficients t_a, zero for the default connection."""
        m = self.h_dim
        return [form.coeff((m,)) for form in self.forms]

    @cached_property
    def reduced_coordinates(self) -> dict[str, Expr]:
        """mu_b -> nu_b, p -> p_theta as functions on the cotangent chart;
        phi, shared by both charts, maps to itself and has no entry."""
        nu = invariant_moment_exprs(self.pair)
        return {**dict(zip(dual_names(self.pair.h_algebra), nu)), "p": psi_map_exprs(self)[-1]}

    @cached_property
    def _orbit_residual(self) -> float:
        """How far `reduced_point` moves along the lifted orbits on 20 seeded
        samples, relative to the points' size, computed once; NaN if a
        sample's is."""
        act = _action(self.pair)
        names = act.cot.chart.names
        m = self.h_dim
        rng = random.Random(211)
        draws = []
        for t in range(20):
            x = [rng.uniform(-0.8, 0.8) for _ in names]
            if t % 4 == 0:
                x[m] = 0.0
            draws.append((x, [rng.uniform(-0.5, 0.5) for _ in range(m)]))
        x, h = columns(draws)
        a, b = self.reduced_point(x), self.reduced_point(act.act(h, x))
        # np.max keeps a NaN
        return float(np.max(np.abs(a - b)) / np.max(np.abs(a), initial=1.0))

    def reduced_point(self, point: Sequence[float]) -> list[float] | np.ndarray:
        """The reduced point [nu, phi, p] of a cotangent-chart point, read
        from psi_theta's [k, phi, mu, p] as nu = mu Ad_k; at N points given
        as columns, an (m + 2, N) array."""
        names, fn, _ = self._psi_compiled
        y = self._reduced(np.asarray(fn(sequence_values(names, point))))
        return y.tolist() if y.ndim == 1 else y

    def _reduced(self, psi: np.ndarray) -> np.ndarray:
        """[nu, phi, p] from psi_theta's values [k, phi, mu, p, ...]."""
        m = self.h_dim
        Ad = np.asarray(self.pair.h_group.adjoint_compiled(psi[:m]))
        nu = vecmat(psi[m + 1:2 * m + 1], Ad.reshape(m, m, *Ad.shape[1:]))
        return np.concatenate([nu, psi[m:m + 1], psi[2 * m + 1:2 * m + 2]])

    def reduced_brackets(self, point: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """(y, B) at a cotangent-chart point, or at N points given as columns:
        y the reduced point [nu, phi, p] and B[k, l] = {y_k, y_l} upstairs.

        B = J P J^T, with P the lifted action's constant `poisson_matrix` and
        J's rows the frame coefficients b_d(y_k): the nu rows from
        `_invariant_moment_jacobian`, phi's row phi on the defining slot, and
        p's row the last row of psi_theta's Jacobian.  So {F o y, G o y} is
        dF(y) B dG(y), by the chain rule.  The first call checks
        `reduced_point` constant along the lifted orbits; a ValueError if not.
        """
        if not self._orbit_residual <= 1e-8:
            raise ValueError(f"reduced coordinates of the {self.tag} connection are "
                             f"not orbit-invariant, residual {self._orbit_residual:.3e}")
        names, fn, (ji, jj) = self._psi_compiled
        nfn, (ni, nj) = _invariant_moment_jacobian(self.pair)
        m = self.h_dim
        n = len(names)
        x = sequence_values(names, point)
        vals = np.asarray(fn(x))
        J = np.zeros((m + 2, n, *vals.shape[1:]))
        J[ni, nj] = nfn(x)
        J[m, m] = x[m]
        last = ji == n - 1
        J[m + 1, jj[last]] = vals[n:][last]
        JP = np.einsum("ki...,il->kl...", J, _action(self.pair).poisson_matrix)
        return self._reduced(vals[:n]), np.einsum("ki...,li...->kl...", JP, J)

    @cached_property
    def chart_shift(self) -> dict[str, Expr]:
        """tau: p -> p - S <xi, mu>, empty for the default connection.

        F read through this connection is F o tau read through the default
        one, since p_theta = p_default - S <xi, nu>.
        """
        if self.xi is None:
            return {}
        mu = map(Var, dual_names(self.pair.h_algebra))
        return {"p": Var("p") - self.S * ex.dot(self.xi, mu)}

    @cached_property
    def _psi_compiled(self):
        """psi_theta and the nonzero entries of its frame Jacobian as one
        compiled map over the cotangent chart, built once per connection:
        (the chart names, the map, the Jacobian's row and column index arrays).

        Row i of the Jacobian is b_d of psi's component i, and the mu rows
        are the lifted action's cached b_d(mu_a).  psi fixes phi, so the
        singular slot transports with ratio one: its row is the unit row.
        """
        act = _action(self.pair)
        cch = act.cot.chart
        m = self.h_dim
        psi = psi_map_exprs(self)

        def row(e):
            return b_d(BForm(cch, 0, {(): e})).coeffs

        rows = [*map(row, psi[:m + 1]), *(f.coeffs for f in act.moment_differentials),
                row(psi[-1])]
        rows[m] = {(m,): ONE}
        jac = {(i, j): c for i, r in enumerate(rows) for (j,), c in r.items()}
        jkeys = sorted(jac)
        fn = ex.compile_exprs([*psi, *(jac[k] for k in jkeys)], list(cch.names))
        return cch.names, fn, _index_arrays(jkeys)

    @cached_property
    def _coupling_compiled(self):
        """The target form coupling_identity_residual pairs, built once per
        connection: (its coefficients compiled over the coupled chart, and
        their index arrays)."""
        rhs = coupling_rhs_form(self)
        rkeys = sorted(rhs.coeffs)
        rfn = ex.compile_exprs([rhs.coeffs[k] for k in rkeys], list(rhs.chart.names))
        return rfn, _index_arrays(rkeys)


def _index_arrays(keys: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second entries of index pairs, as two index arrays."""
    return tuple(np.array(col, dtype=np.intp) for col in zip(*keys))


def make_connection(pair: BLieGroupPair, deformation: tuple | None = None) -> Connection:
    """Build the default connection, optionally deformed along dphi.

    deformation = (xi, c, b_flag): xi an algebra coefficient vector, c an
    Expr in phi (or a string to parse), b_flag True for a dphi/phi leg and
    False for a plain dphi leg.  The deformed form stays a connection
    because the added leg is horizontal and transforms by Ad; both axioms
    are still re-checked on samples and a residual above 1e-8 is an error;
    a sample where the form cannot be evaluated is a DomainError naming
    its phi.
    """
    ch = _action(pair).cot.base
    m = len(pair.h_names)
    rows = pair.h_group.maurer_cartan_sym
    coeffs = [{(j,): rows[a][j] for j in range(m) if not ex.is_zero(rows[a][j])}
              for a in range(m)]
    tag, xi, S = "default", None, None
    if deformation is not None:
        xi, c, b_flag = deformation
        xi = tuple(xi)
        if isinstance(c, str):
            c = ex.parse(c)
        # a smooth dphi leg on the b chart picks up one phi factor
        S = c if b_flag else c * Var(pair.phi_name)
        adm = pair.h_group.adjoint_sym
        for a in range(m):
            leg = ex.dot(adm[a], xi) * c
            if not b_flag:
                leg = leg * Var(pair.phi_name)
            if not ex.is_zero(leg):
                coeffs[a][(m,)] = leg
        tag = "deformed-b" if b_flag else "deformed-smooth"
    forms = tuple(BForm(ch, 1, c) for c in coeffs)
    theta = Connection(pair=pair, forms=forms, tag=tag, xi=xi, S=S)
    resid = _axiom_residual(theta, samples=40, seed=101)
    if not resid <= 1e-8:
        raise ValueError(f"connection axioms fail, residual {resid:.3e}")
    return theta


def _axiom_residual(theta: Connection, samples: int, seed: int) -> float:
    """Max residual of the reproducing and equivariance axioms on samples,
    NaN if a sample's is.

    Every sample is drawn first, in one seeded order, and each map reads
    them all as columns.  If a map cannot be evaluated, the samples are
    read again one at a time, so the DomainError is the first failing
    sample's, naming its phi.
    """
    rng = random.Random(seed)
    m = theta.h_dim
    draws = []
    for t in range(samples):
        g = [rng.uniform(-0.7, 0.7) for _ in range(m + 1)]
        if t % 3 == 0:
            g[m] = 0.0
        X = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        h = [rng.uniform(-0.6, 0.6) for _ in range(m)]
        draws.append((g, X, h, [rng.uniform(-1.0, 1.0) for _ in range(m)]))
    g, X, h, c = columns(draws)
    try:
        return _axiom_worst(theta, g, X, h, c)
    except ex.DomainError:
        for s in range(g.shape[1]):
            try:
                _axiom_worst(theta, *(part[:, s:s + 1] for part in (g, X, h, c)))
            except ex.DomainError as err:
                raise ex.DomainError(f"cannot be evaluated at {theta.pair.phi_name}="
                                     f"{g[m, s]:.6g}: {err}") from err
        raise


def _axiom_worst(theta: Connection, g, X, h, c) -> float:
    """The axioms' largest residual over columns of base points g, algebra
    directions X, subgroup elements h and covectors c.

    Equivariance, Theta(hg) dL_h = Ad_h Theta(g), is read through the
    cotangent lift: it moves alpha = (c Ad_h) Theta(g) by dL_h^{-T}, so the
    moved covector must be c Theta(hg).
    """
    pair = theta.pair
    m = theta.h_dim
    rep = theta.theta(g, zeta(pair, g, X))
    Ad = np.asarray(pair.h_group.adjoint_compiled(h)).reshape(m, m, -1)
    alpha = vecmat(vecmat(c, Ad), theta.theta_matrix(g))
    moved = _action(pair).act(h, np.vstack([g, alpha]))
    lhs = vecmat(c, theta.theta_matrix(moved[:m + 1]))
    return float(np.max([np.max(np.abs(rep - X)), np.max(np.abs(lhs - moved[m + 1:]))]))


def phi_theta(theta: Connection, point: Sequence[float],
              v: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Split a b-tangent vector into (ker theta part, algebra part)."""
    X = theta.theta(point, v)
    u = np.array(v, dtype=float) - zeta(theta.pair, point, X)
    return u, X


def phi_theta_inverse(theta: Connection, point: Sequence[float],
                      u: Sequence[float], X: Sequence[float]) -> np.ndarray:
    return np.array(sequence_values(theta.chart.names, u)) + zeta(theta.pair, point, X)


# ---------------------------------------------------------------------------
# covector side


def psi_theta(theta: Connection, point: Sequence[float],
              alpha: Sequence[float]) -> np.ndarray:
    """Split a covector (frame coefficients) at a base point into the
    coupled-chart point [k, phi, mu, p], read from the connection's compiled
    psi_theta; alpha - mu Theta(x) must be its dphi leg alone, else, or if
    that test reads NaN, a SplittingError.  point and alpha may hold N
    samples as columns; the points are then the result's columns."""
    names, fn, _ = theta._psi_compiled
    m = theta.h_dim
    point = sequence_values(theta.chart.names, point)
    alpha = sequence_values(names[m + 1:], alpha)
    y = np.asarray(fn(joined(point, alpha)))[:len(names)]
    alpha = np.asarray(alpha)
    with np.errstate(invalid="ignore"):  # a NaN here fails the test below
        beta = alpha - vecmat(y[m + 1:-1], theta.theta_matrix(point))
    vertical = np.max(np.abs(beta[:m]), axis=0)
    if not np.all(vertical <= 1e-9 * (1.0 + np.max(np.abs(alpha), axis=0))):
        raise SplittingError("annihilator part kept a vertical leg")
    return y


def psi_theta_inverse(theta: Connection, y: Sequence[float]) -> np.ndarray:
    """The covector p e_m + mu Theta(x) of a coupled-chart point [k, phi, mu, p]:
    the coupling form <mu, theta> plus the transverse leg; y may hold N
    points as columns."""
    m = theta.h_dim
    y = np.asarray(sequence_values(coupled_chart(theta).names, y))
    out = vecmat(y[m + 1:-1], theta.theta_matrix(y[:m + 1]))
    out[m] += y[-1]
    return out


# ---------------------------------------------------------------------------
# the coupling identity


def coupled_chart(theta: Connection) -> BChart:
    """Chart (k, phi, mu_a, p) that psi_theta maps the cotangent chart onto."""
    base = theta.chart
    mu_names = tuple(dual_names(theta.pair.h_algebra))
    return BChart(base.names + mu_names + ("p",), base.defining)


def psi_map_exprs(theta: Connection) -> list[Expr]:
    """psi_theta as a chart map from the cotangent chart to the coupled one."""
    act = _action(theta.pair)
    m = theta.h_dim
    cn = act.cot.chart.names
    mu = act.moment_exprs
    p0 = Var(cn[2 * m + 1])
    for a, ta in enumerate(theta.phi_slot_exprs()):
        p0 = p0 - mu[a] * ta
    return [*map(Var, cn[: m + 1]), *mu, p0]


def coupling_rhs_form(theta: Connection) -> BForm:
    """The target 2-form: pulled-back reduced form minus d<mu, theta>."""
    ch = coupled_chart(theta)
    m = theta.h_dim
    lam_coeffs = {}
    for j in range(m + 1):
        acc = ex.dot(map(Var, ch.names[m + 1:2 * m + 1]), [f.coeff((j,)) for f in theta.forms])
        if not ex.is_zero(acc):
            lam_coeffs[(j,)] = acc
    dlam = b_d(BForm(ch, 1, lam_coeffs))
    coeffs = {k: ex.sub(ZERO, c) for k, c in dlam.coeffs.items()}
    key = (m, 2 * m + 1)
    coeffs[key] = coeffs.get(key, ZERO) + ONE
    return BForm(ch, 2, coeffs)


def coupling_identity_residual(theta: Connection, point: Sequence[float],
                               v: Sequence[float], w: Sequence[float]) -> float | np.ndarray:
    """|omega(v, w) - rhs(dpsi v, dpsi w)| at one cotangent-chart point, or
    one residual per column when point, v and w hold N samples as columns.

    Two compiled calls, then numpy contractions: the Jacobian's nonzero
    entries move v and w (J v and J w, scattered by row), the target form
    pairs J v with J w over its coefficient index pairs, and omega(v, w) is
    v W w with the lifted action's constant frame matrix W.
    """
    names, fn, (ji, jj) = theta._psi_compiled
    rfn, (ri, rk) = theta._coupling_compiled
    n = len(names)
    pt = sequence_values(names, point)
    v = np.asarray(sequence_values(names, v))
    w = np.asarray(sequence_values(names, w))
    vals = np.asarray(fn(pt))
    pv = np.zeros(v.shape)
    pw = np.zeros(w.shape)
    np.add.at(pv, ji, vals[n:] * v[jj])
    np.add.at(pw, ji, vals[n:] * w[jj])
    rhs = np.einsum("k...,k...->...", np.asarray(rfn(vals[:n])),
                    pv[ri] * pw[rk] - pv[rk] * pw[ri])
    lhs = np.einsum("i...,ij,j...->...", v, _action(theta.pair).omega_matrix, w)
    out = np.abs(lhs - rhs)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the reduced structure


def reduced_poisson(pair: BLieGroupPair) -> PoissonBivector:
    """The subgroup's Lie-Poisson bivector plus {phi, p} = phi:
    the theorem gives it for every connection, which verify's
    connection-independence section and an exact Tier-1 test check."""
    lp = pair.h_algebra.lie_poisson
    m = len(lp.names)
    entries = {**lp.entries, (m, m + 1): Var(pair.phi_name)}
    return PoissonBivector(lp.names + (pair.phi_name, "p"), entries)


def connection_independence_residual(theta: Connection, default: Connection,
                                     point: Sequence[float]) -> float | np.ndarray:
    """The reduction theorem, entry by entry, at one cotangent-chart point,
    or one residual per column at N points given as columns: the largest
    of |y_theta - tau(y)| and |B - Dtau P(y) Dtau^T|.

    y is the default connection's reduced point [nu, phi, p], (y_theta, B)
    theta's `reduced_brackets`, P the reduced bivector (`affine_matrix`),
    and tau and Dtau the identity but for p's row.  `chart_shift` is
    affine in (nu, p), so that row needs only the values of S and S' =
    dS/dphi, which theta's compiled map gives at every column at once:
    tau_p = p - S <xi, nu>, and the row of Dtau is (-S xi, -S' <xi, nu>, 1).
    """
    rp = reduced_poisson(theta.pair)
    m = theta.h_dim
    x = np.asarray(sequence_values(_action(theta.pair).cot.chart.names, point))
    cols = x if x.ndim == 2 else x[:, None]
    y_theta, B = theta.reduced_brackets(cols)
    y = default.reduced_point(cols)
    ty = y.copy()
    D = np.repeat(np.eye(len(y))[:, :, None], y.shape[1], axis=2)
    if theta.S is not None:
        S, dS = np.asarray(theta._theta_compiled(cols[:m + 1]))[-2:]
        xi_nu = sum(c * y[b] for b, c in enumerate(theta.xi) if c)  # left to right, as ex.dot
        ty[m + 1] = y[m + 1] - S * xi_nu
        D[m + 1, :m] = -np.multiply.outer(theta.xi, S)
        D[m + 1, m] = -(dS * xi_nu)
    want = np.einsum("ak...,kl...,bl...->ab...", D, rp.affine_matrix(y), D)
    out = np.maximum(np.max(np.abs(B - want), axis=(0, 1)), np.max(np.abs(y_theta - ty), axis=0))
    return out if x.ndim == 2 else float(out[0])


def invariant_moment_exprs(pair: BLieGroupPair) -> tuple[Expr, ...]:
    """nu_b = <mu, Ad_k E_b> on the cotangent chart, constant along orbits;
    built once per pair, so every connection lifts through them."""
    def build():
        adm = pair.h_group.adjoint_sym
        mus = _action(pair).moment_exprs
        return tuple(ex.dot(mus, column) for column in zip(*adm))

    return pair.memo("invariant_moments", build)


def _invariant_moment_jacobian(pair: BLieGroupPair):
    """The nonzero frame coefficients of b_d(nu_b), every b, as one compiled
    map over the cotangent chart, built once per pair: (the map, the
    entries' row and column index arrays)."""
    def build():
        cch = _action(pair).cot.chart
        jac = {(b, j): c for b, nu in enumerate(invariant_moment_exprs(pair))
               for (j,), c in b_d(BForm(cch, 0, {(): nu})).coeffs.items()}
        keys = sorted(jac)
        return ex.compile_exprs([jac[k] for k in keys], list(cch.names)), _index_arrays(keys)

    return pair.memo("invariant_moment_jacobian", build)


def reduced_bracket_via_invariants(theta: Connection, F: Expr, G: Expr,
                                   point: Sequence[float]) -> float:
    """{F, G} of reduced F and G, lifted through the connection's reduced
    coordinates y and bracketed upstairs at one cotangent-chart point:
    dF(y) B dG(y) with (y, B) from `Connection.reduced_brackets`, the chain
    rule over the one upstairs bivector, and dF(y) the evaluated `diff`
    trees.  Functions of orbit-invariant coordinates need no check of their
    own."""
    names = (*dual_names(theta.pair.h_algebra), theta.pair.phi_name, "p")
    y, B = theta.reduced_brackets(point)
    if y.ndim != 1:
        raise ValueError("reduced_bracket_via_invariants reads one point, not columns")
    env = dict(zip(names, y.tolist()))
    dF, dG = (np.array([ex.evaluate(ex.diff(H, n), env) for n in names]) for H in (F, G))
    return float(dF @ B @ dG)
