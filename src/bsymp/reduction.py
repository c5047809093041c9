"""Principal connections on the split group chart and Poisson reduction.

The split chart (k_1..k_m, phi) of a group/subgroup pair puts the subgroup
orbit directions in the k-legs and the transverse direction in phi.  The
vertical bundle is spanned by the infinitesimal left translations zeta_a;
a connection is an algebra-valued 1-form theta with theta(zeta^X) = X that
transforms by Ad under left translation.

Conventions fixed here:

* the default connection is the right Maurer-Cartan form of the subgroup
  factor, `MatrixGroup.maurer_cartan_sym`, built once per subgroup on the
  chart of the lifted action's base; it has no dphi leg, so it kills the
  transverse frame field.
* a connection compiles three maps and nothing more: theta, psi_theta with
  its frame Jacobian, and the coupling target.  Its equivariance check
  moves a covector by the cotangent lift, and its reduced points read
  psi_theta and the subgroup's compiled Ad.
* the coupled chart carries coordinates (k, phi, mu_a, p): mu_a are the
  vertical momenta alpha(zeta_a), p is the annihilator coefficient of the
  covector on the dphi/phi (or dphi, classical mode) slot.
* psi_theta, the map from the cotangent chart onto the coupled one, is built
  once, symbolically (`psi_map_exprs`), and compiled once per connection
  with the nonzero entries of its frame Jacobian, b_d of its components.
  The point split `psi_theta` and the coupling identity both read that one
  compiled map; `psi_theta_inverse` rebuilds the covector as the coupling
  form <mu, theta> plus the transverse leg p.
* the reduced bivector is block diagonal: the subgroup's minus
  Lie-Poisson bivector `LieAlgebra.lie_poisson`, {mu_i, mu_j} =
  -sum_k c^k_ij mu_k, plus phi d/dphi ^ d/dp (or d/dphi ^ d/dp in
  classical mode) on the transverse pair.
* invariant fiber coordinates nu_b = <mu, Ad_k E_b> undo the orbit motion
  of the vertical momenta; they are the pullbacks of the reduced mu_b.
* a connection owns its reduced chart: `reduced_coordinates` lifts mu_b to
  nu_b, phi to phi and p to its annihilator coefficient p_theta, read at a
  point as psi_theta's (mu Ad_k, phi, p) by `reduced_point`, and
  `chart_shift` tau: p -> p - S <xi, mu> takes that chart to the default
  one.  The theorem reads {F o lift_theta, G o lift_theta} =
  {F o tau, G o tau}_reduced o lift_default for reduced F and G.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from .expr import Expr, Var, ONE, ZERO
from .bcalc import BChart, BForm, PoissonBivector, b_d, sequence_values
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
    X one per algebra direction (`bcalc.sequence_values`).
    """
    act = _action(pair)
    m = act.h_dim
    g = sequence_values(act.cot.base.names, g)
    X = np.array(sequence_values(act._h_names, X))
    return np.append(X @ np.array(act.zeta_compiled(g[:m])).reshape(m, m), 0.0)


def _action(pair: BLieGroupPair, mode: str = "b") -> LiftedAction:
    """The pair's lifted action in one mode, built once and kept on the pair."""
    return pair.memo(("lifted_action", mode), lambda: LiftedAction(pair, mode=mode))


# ---------------------------------------------------------------------------
# connections


@dataclass(frozen=True, eq=False)
class Connection:
    """Algebra-valued 1-form on the split chart, one BForm per generator.

    Its dphi-frame slot is S * Ad_k xi (xi, S None for the default).  Its
    compiled maps, reduced coordinates and chart shift are cached on it.
    """

    pair: BLieGroupPair
    mode: str
    forms: tuple[BForm, ...]
    tag: str
    xi: tuple[float, ...] | None = None
    S: Expr | None = None

    @property
    def chart(self) -> BChart:
        return self.forms[0].chart

    @property
    def h_dim(self) -> int:
        return len(self.pair.h_names)

    @cached_property
    def _theta_compiled(self):
        """point -> theta^a_j row-major: every coefficient in one call."""
        names = self.chart.names
        flat = [form.coeff((j,)) for form in self.forms for j in range(len(names))]
        return ex.compile_exprs(flat, list(names))

    def theta_matrix(self, point: Sequence[float]) -> np.ndarray:
        """Theta(x): row a holds theta^a's frame coefficients at the point."""
        names = self.chart.names
        vals = self._theta_compiled(sequence_values(names, point))
        return np.array(vals).reshape(self.h_dim, len(names))

    def theta(self, point: Sequence[float], v: Sequence[float]) -> np.ndarray:
        """Apply theta to a b-tangent vector given in frame components."""
        return self.theta_matrix(point) @ np.array(sequence_values(self.chart.names, v))

    def phi_slot_exprs(self) -> list[Expr]:
        """The dphi-leg coefficients t_a, zero for the default connection."""
        m = self.h_dim
        return [form.coeff((m,)) for form in self.forms]

    @cached_property
    def reduced_coordinates(self) -> dict[str, Expr]:
        """mu_b -> nu_b, p -> p_theta as orbit-invariant functions on the
        cotangent chart; phi, shared by both charts, maps to itself and has
        no entry.  The first use checks `reduced_point` constant along the
        lifted orbits on 20 seeded samples and raises ValueError if not."""
        act = _action(self.pair, self.mode)
        names = act.cot.chart.names
        m = self.h_dim
        rng = random.Random(211)
        scale = 1.0
        worst = 0.0
        for t in range(20):
            x = [rng.uniform(-0.8, 0.8) for _ in names]
            if self.mode == "b" and t % 4 == 0:
                x[m] = 0.0
            h = [rng.uniform(-0.5, 0.5) for _ in range(m)]
            a, b = self.reduced_point(x), self.reduced_point(act.act(h, x))
            scale = max(scale, *map(abs, a))
            worst = max(worst, *(abs(u - v) for u, v in zip(a, b)))
        if worst > 1e-8 * scale:
            raise ValueError(f"reduced coordinates of the {self.tag} connection are "
                             f"not orbit-invariant, residual {worst:.3e}")
        nu = invariant_moment_exprs(self.pair, self.mode)
        return {**dict(zip(dual_names(self.pair.h_algebra), nu)), "p": psi_map_exprs(self)[-1]}

    def reduced_point(self, point: Sequence[float]) -> list[float]:
        """The reduced point [nu, phi, p] of a cotangent-chart point, read
        from psi_theta's [k, phi, mu, p] as nu = mu Ad_k."""
        names, fn, _ = self._psi_compiled
        m = self.h_dim
        y = fn(sequence_values(names, point))
        Ad = np.array(self.pair.h_group.adjoint_compiled(y[:m])).reshape(m, m)
        return [*(np.array(y[m + 1:2 * m + 1]) @ Ad).tolist(), y[m], y[2 * m + 1]]

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
        act = _action(self.pair, self.mode)
        cch = act.cot.chart
        m = self.h_dim
        psi = psi_map_exprs(self)

        def row(e):
            return b_d(BForm(cch, 0, {(): e})).coeffs

        rows = [*map(row, psi[:m + 1]), *(f.coeffs for f in act.moment_differentials),
                row(psi[-1])]
        if cch.defining is not None:
            rows[cch.defining] = {(cch.defining,): ONE}
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


def make_connection(pair: BLieGroupPair, mode: str = "b",
                    deformation: tuple | None = None) -> Connection:
    """Build the default connection, optionally deformed along dphi.

    deformation = (xi, c, b_flag): xi an algebra coefficient vector, c an
    Expr in phi (or a string to parse), b_flag True for a dphi/phi leg and
    False for a plain dphi leg.  The deformed form stays a connection
    because the added leg is horizontal and transforms by Ad; both axioms
    are still re-checked on samples and a residual above 1e-8 is an error.
    """
    ch = _action(pair, mode).cot.base  # the lifted action refuses a bad mode
    m = len(pair.h_names)
    rows = pair.h_group.maurer_cartan_sym
    coeffs = [{(j,): rows[a][j] for j in range(m) if not ex.is_zero(rows[a][j])}
              for a in range(m)]
    tag, xi, S = "default", None, None
    if deformation is not None:
        xi, c, b_flag = deformation
        xi = tuple(xi)
        if b_flag and mode == "classical":
            raise ValueError("a dphi/phi deformation needs the b chart")
        if isinstance(c, str):
            c = ex.parse(c)
        # a smooth dphi leg on the b chart picks up one phi factor
        smooth_on_b = mode == "b" and not b_flag
        S = c * Var(pair.phi_name) if smooth_on_b else c
        adm = pair.h_group.adjoint_sym
        for a in range(m):
            leg = ex.dot(adm[a], xi) * c
            if smooth_on_b:
                leg = leg * Var(pair.phi_name)
            if not ex.is_zero(leg):
                coeffs[a][(m,)] = leg
        tag = "deformed-b" if b_flag else "deformed-smooth"
    forms = tuple(BForm(ch, 1, c) for c in coeffs)
    theta = Connection(pair=pair, mode=mode, forms=forms, tag=tag, xi=xi, S=S)
    resid = _axiom_residual(theta, samples=40, seed=101)
    if resid > 1e-8:
        raise ValueError(f"connection axioms fail, residual {resid:.3e}")
    return theta


def _axiom_residual(theta: Connection, samples: int, seed: int) -> float:
    """Max residual of the reproducing and equivariance axioms on samples.

    Equivariance, Theta(hg) dL_h = Ad_h Theta(g), is read through the
    cotangent lift: it moves alpha = (c Ad_h) Theta(g) by dL_h^{-T}, so the
    moved covector must be c Theta(hg).
    """
    pair = theta.pair
    act = _action(pair, theta.mode)
    Adf = pair.h_group.adjoint_compiled
    m = theta.h_dim
    rng = random.Random(seed)

    worst = 0.0
    for t in range(samples):
        g = [rng.uniform(-0.7, 0.7) for _ in range(m + 1)]
        if t % 3 == 0:
            g[m] = 0.0
        X = np.array([rng.uniform(-1.0, 1.0) for _ in range(m)])
        rep = theta.theta(g, zeta(pair, g, X))
        worst = max(worst, float(np.max(np.abs(rep - X))))

        h = [rng.uniform(-0.6, 0.6) for _ in range(m)]
        c = np.array([rng.uniform(-1.0, 1.0) for _ in range(m)])
        alpha = (c @ np.array(Adf(h)).reshape(m, m)) @ theta.theta_matrix(g)
        moved = act.act(h, [*g, *alpha])
        lhs = c @ theta.theta_matrix(moved[:m + 1])
        worst = max(worst, float(np.max(np.abs(lhs - moved[m + 1:]))))
    return worst


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
    psi_theta; alpha - mu Theta(x) must be its dphi leg alone."""
    names, fn, _ = theta._psi_compiled
    m = theta.h_dim
    point = sequence_values(theta.chart.names, point)
    alpha = sequence_values(names[m + 1:], alpha)
    y = np.array(fn(point + alpha)[:len(names)])
    beta = np.array(alpha) - y[m + 1:-1] @ theta.theta_matrix(point)
    if np.max(np.abs(beta[:m])) > 1e-9 * (1.0 + np.max(np.abs(alpha))):
        raise SplittingError("annihilator part kept a vertical leg")
    return y


def psi_theta_inverse(theta: Connection, y: Sequence[float]) -> np.ndarray:
    """The covector p e_m + mu Theta(x) of a coupled-chart point [k, phi, mu, p]:
    the coupling form <mu, theta> plus the transverse leg."""
    m = theta.h_dim
    y = sequence_values(coupled_chart(theta).names, y)
    out = np.array(y[m + 1:-1]) @ theta.theta_matrix(y[:m + 1])
    out[m] += y[-1]
    return out


# ---------------------------------------------------------------------------
# the coupling identity


def coupled_chart(theta: Connection) -> BChart:
    """Chart (k, phi, mu_a, p) that psi_theta maps the cotangent chart onto."""
    base = theta.chart
    mu_names = tuple(dual_names(theta.pair.h_algebra))
    names = base.names + mu_names + ("p",)
    box = base.box + tuple((-1.5, 1.5) for _ in range(len(mu_names) + 1))
    return BChart(names, base.defining, box)


def psi_map_exprs(theta: Connection) -> list[Expr]:
    """psi_theta as a chart map from the cotangent chart to the coupled one."""
    act = _action(theta.pair, theta.mode)
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
                               v: Sequence[float], w: Sequence[float]) -> float:
    """|omega(v, w) - rhs(dpsi v, dpsi w)| at one cotangent-chart point.

    Two compiled calls, then numpy contractions: the Jacobian is scattered
    into a dense matrix J, the target form pairs J v with J w over its
    coefficient index pairs, and omega(v, w) is v W w with the lifted
    action's constant frame matrix W.
    """
    names, fn, (ji, jj) = theta._psi_compiled
    rfn, (ri, rk) = theta._coupling_compiled
    n = len(names)
    pt = sequence_values(names, point)
    v = np.array(sequence_values(names, v))
    w = np.array(sequence_values(names, w))
    vals = fn(pt)
    J = np.zeros((n, n))
    J[ji, jj] = vals[n:]
    pv = J @ v
    pw = J @ w
    rhs = np.array(rfn(vals[:n])) @ (pv[ri] * pw[rk] - pv[rk] * pw[ri])
    lhs = v @ _action(theta.pair, theta.mode).omega_matrix @ w
    return float(abs(lhs - rhs))


# ---------------------------------------------------------------------------
# the reduced structure


def reduced_poisson(pair: BLieGroupPair, mode: str = "b") -> PoissonBivector:
    """The subgroup's Lie-Poisson bivector plus {phi, p} = phi (1 classical):
    the theorem gives it for every connection, which verify's
    connection-independence section and an exact Tier-1 test check."""
    lp = pair.h_algebra.lie_poisson
    m = len(lp.names)
    entries = {**lp.entries, (m, m + 1): Var(pair.phi_name) if mode == "b" else ONE}
    return PoissonBivector(lp.names + (pair.phi_name, "p"), entries)


def invariant_moment_exprs(pair: BLieGroupPair, mode: str = "b") -> tuple[Expr, ...]:
    """nu_b = <mu, Ad_k E_b> on the cotangent chart, constant along orbits;
    built once per pair and mode, so every connection lifts through them."""
    def build():
        adm = pair.h_group.adjoint_sym
        mus = _action(pair, mode).moment_exprs
        return tuple(ex.dot(mus, column) for column in zip(*adm))

    return pair.memo(("invariant_moments", mode), build)


def reduced_bracket_via_invariants(theta: Connection, F: Expr, G: Expr,
                                   point: Sequence[float]) -> float:
    """{F, G} of reduced F and G, lifted through the connection's checked
    reduced coordinates and bracketed upstairs at a cotangent-chart point;
    functions of orbit-invariant coordinates need no check of their own."""
    lift = theta.reduced_coordinates
    up = _action(theta.pair, theta.mode).upstairs_poisson
    return up.bracket_value(ex.subs(F, lift), ex.subs(G, lift),
                            [float(x) for x in point])
