"""Principal connections on the split group chart and Poisson reduction.

The split chart (k_1..k_m, phi) of a group/subgroup pair puts the subgroup
orbit directions in the k-legs and the transverse direction in phi.  The
vertical bundle is spanned by the infinitesimal left translations zeta_a;
a connection is an algebra-valued 1-form theta with theta(zeta^X) = X that
transforms by Ad under left translation.

Conventions fixed here:

* the default connection is the right Maurer-Cartan form of the subgroup
  factor, computed exactly by differentiating kk -> kk * k^{-1} at kk = k;
  it has no dphi leg, so it kills the transverse frame field.
* the coupled chart carries coordinates (k, phi, mu_a, p): mu_a are the
  vertical momenta alpha(zeta_a), p is the annihilator coefficient of the
  covector on the dphi/phi (or dphi, classical mode) slot.
* the reduced bivector is block diagonal: the subgroup's minus
  Lie-Poisson bivector `LieAlgebra.lie_poisson`, {mu_i, mu_j} =
  -sum_k c^k_ij mu_k, plus phi d/dphi ^ d/dp (or d/dphi ^ d/dp in
  classical mode) on the transverse pair.
* invariant fiber coordinates nu_b = <mu, Ad_k E_b> undo the orbit motion
  of the vertical momenta; they are the pullbacks of the reduced mu_b.
* a connection owns its reduced chart: `reduced_coordinates` lifts mu_b to
  nu_b, phi to phi and p to its annihilator coefficient p_theta, and
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
from .blift import LiftedAction, canonical_bsymplectic, trivialized_base_chart
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
    g = sequence_values(act.cot.base.names, g)
    X = np.array(sequence_values(act._h_names, X))
    return np.append(X @ _zeta_matrix(act, g), 0.0)


def _zeta_matrix(act: LiftedAction, g: Sequence[float]) -> np.ndarray:
    """Z(g): row a holds zeta_a's k-frame components at the base point g."""
    m = act.h_dim
    return np.array(act.zeta_compiled(g[:m])).reshape(m, m)


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
    def _reduction(self):
        """(reduced coordinates on the cotangent chart, their compiled map),
        checked constant along the lifted orbits once, on 20 seeded samples."""
        act = _action(self.pair, self.mode)
        names = list(act.cot.chart.names)
        m = self.h_dim
        nu = invariant_moment_exprs(self.pair, self.mode)
        p_theta = psi_map_exprs(self)[-1]
        coords = {**dict(zip(dual_names(self.pair.h_algebra), nu)), "p": p_theta}
        fn = ex.compile_exprs([*nu, Var(self.pair.phi_name), p_theta], names)
        rng = random.Random(211)
        scale = 1.0
        worst = 0.0
        for t in range(20):
            x = [rng.uniform(-0.8, 0.8) for _ in names]
            if self.mode == "b" and t % 4 == 0:
                x[m] = 0.0
            h = [rng.uniform(-0.5, 0.5) for _ in range(m)]
            a, b = fn(x), fn(list(act.act(h, x)))
            scale = max(scale, *map(abs, a))
            worst = max(worst, *(abs(u - v) for u, v in zip(a, b)))
        if worst > 1e-8 * scale:
            raise ValueError(f"reduced coordinates of the {self.tag} connection are "
                             f"not orbit-invariant, residual {worst:.3e}")
        return coords, fn

    @property
    def reduced_coordinates(self) -> dict[str, Expr]:
        """mu_b -> nu_b, p -> p_theta as orbit-invariant functions on the
        cotangent chart; phi, shared by both charts, maps to itself and has
        no entry.  The first use raises ValueError if one is not invariant."""
        return self._reduction[0]

    def reduced_point(self, point: Sequence[float]) -> list[float]:
        """The reduced point (mu, phi, p) of a cotangent-chart point."""
        names = _action(self.pair, self.mode).cot.chart.names
        return self._reduction[1](sequence_values(names, point))

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
    def _coupling_compiled(self):
        """What coupling_identity_residual reads, built once per connection:
        (the cotangent chart names, psi and the nonzero entries of its
        Jacobian as one compiled map, the target form's coefficients
        compiled over the coupled chart, the canonical form's constant
        coefficients, and the row and column index arrays of the Jacobian
        entries, the target coefficients and the canonical ones)."""
        act = _action(self.pair, self.mode)
        cch = act.cot.chart
        names = list(cch.names)
        n = len(names)
        d = cch.defining
        psi = psi_map_exprs(self)
        # exact frame-to-frame Jacobian; psi fixes phi so the singular
        # slot transports with ratio one
        jac = {}
        for i in range(n):
            for j in range(n):
                if i == d:
                    e = ONE if j == d else ZERO
                else:
                    e = ex.diff(psi[i], names[j])
                    if j == d and d is not None:
                        e = e * Var(names[d])
                if not ex.is_zero(e):
                    jac[(i, j)] = e
        rhs = coupling_rhs_form(self)
        rkeys = sorted(rhs.coeffs)
        jkeys = sorted(jac)
        body = [psi[i] for i in range(n)]
        body += [jac[k] for k in jkeys]
        fn = ex.compile_exprs(body, names)
        rfn = ex.compile_exprs([rhs.coeffs[k] for k in rkeys], list(rhs.chart.names))
        omega = canonical_bsymplectic(act.cot).coeffs
        okeys = sorted(omega)
        # the canonical frame matrix is constant: evaluate raises if it is not
        oc = np.array([ex.evaluate(omega[k], {}) for k in okeys])
        return (cch.names, fn, rfn, oc,
                _index_arrays(jkeys), _index_arrays(rkeys), _index_arrays(okeys))


def _index_arrays(keys: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second entries of index pairs, as two index arrays."""
    return tuple(np.array(col, dtype=np.intp) for col in zip(*keys))


def _default_theta_exprs(pair: BLieGroupPair) -> list[list[Expr]]:
    H = pair.h_group
    names = list(pair.h_names)
    kk = [Var("kk__" + n) for n in names]
    k = [Var(n) for n in names]
    moved = H.mul_fn(kk, H.inv_fn(k))
    back = {"kk__" + n: Var(n) for n in names}
    rows = []
    for a in range(len(names)):
        row = []
        for j in range(len(names)):
            row.append(ex.subs(ex.diff(moved[a], "kk__" + names[j]), back))
        rows.append(row)
    return rows


def make_connection(pair: BLieGroupPair, mode: str = "b",
                    deformation: tuple | None = None) -> Connection:
    """Build the default connection, optionally deformed along dphi.

    deformation = (xi, c, b_flag): xi an algebra coefficient vector, c an
    Expr in phi (or a string to parse), b_flag True for a dphi/phi leg and
    False for a plain dphi leg.  The deformed form stays a connection
    because the added leg is horizontal and transforms by Ad; both axioms
    are still re-checked on samples and a residual above 1e-8 is an error.
    """
    if mode not in ("b", "classical"):
        raise ValueError("mode must be 'b' or 'classical'")
    ch = trivialized_base_chart(pair, mode=mode)
    m = len(pair.h_names)
    rows = _default_theta_exprs(pair)
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
    """Max residual of the reproducing and equivariance axioms on samples."""
    pair = theta.pair
    H = pair.h_group
    Jf = H.translation_jacobian_compiled
    Adf = H.adjoint_compiled
    m = theta.h_dim
    rng = random.Random(seed)

    worst = 0.0
    for t in range(samples):
        g = [rng.uniform(-0.7, 0.7) for _ in range(m + 1)]
        if t % 3 == 0:
            g[m] = 0.0
        X = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        zg = zeta(pair, g, X)
        rep = theta.theta(g, zg)
        worst = max(worst, max(abs(rep[a] - X[a]) for a in range(m)))

        h = [rng.uniform(-0.6, 0.6) for _ in range(m)]
        v = [rng.uniform(-1.0, 1.0) for _ in range(m + 1)]
        out = Jf([*h, *g[:m]])
        Jv = [sum(out[j * m + i] * v[i] for i in range(m)) for j in range(m)]
        moved = list(out[m * m:]) + [g[m]]
        pushed = [*Jv, v[m]]
        lhs = theta.theta(moved, pushed)
        ad = Adf(h)
        tv = theta.theta(g, v)
        rhs = [sum(ad[b * m + a] * tv[a] for a in range(m)) for b in range(m)]
        worst = max(worst, max(abs(x - y) for x, y in zip(lhs, rhs)))
    return worst


def horizontal_projection(theta: Connection, point: Sequence[float],
                          v: Sequence[float]) -> np.ndarray:
    """Project v onto the orbit directions: zeta(theta(v)) at the point."""
    X = theta.theta(point, v)
    return zeta(theta.pair, point, X)


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


@dataclass(frozen=True)
class AnnihilatorElement:
    """Covector with no vertical leg: p times the transverse coframe slot."""

    base: tuple[float, ...]
    p: float

    def covector(self, m: int) -> np.ndarray:
        out = np.zeros(m + 1)
        out[m] = self.p
        return out


@dataclass(frozen=True)
class CoupledPoint:
    element: AnnihilatorElement
    mu: tuple[float, ...]


def psi_theta(theta: Connection, point: Sequence[float],
              alpha: Sequence[float]) -> CoupledPoint:
    """Split a covector (frame coefficients) into annihilator plus momenta:
    mu = Z(k) alpha_k, and alpha - mu Theta(x) must be its dphi leg alone."""
    act = _action(theta.pair)  # the generators do not depend on the mode
    point = sequence_values(theta.chart.names, point)
    alpha = np.array(sequence_values(act.cot.fiber_names, alpha))
    m = theta.h_dim
    mu = _zeta_matrix(act, point) @ alpha[:m]
    beta = alpha - mu @ theta.theta_matrix(point)
    if np.max(np.abs(beta[:m])) > 1e-9 * (1.0 + np.max(np.abs(alpha))):
        raise SplittingError("annihilator part kept a vertical leg")
    return CoupledPoint(AnnihilatorElement(tuple(point), float(beta[m])),
                        tuple(mu.tolist()))


def psi_theta_inverse(theta: Connection, cp: CoupledPoint) -> np.ndarray:
    return (cp.element.covector(theta.h_dim)
            + np.array(cp.mu) @ theta.theta_matrix(cp.element.base))


def project_annihilator(a: AnnihilatorElement) -> tuple[float, float]:
    """Push p (dphi/phi) at (k, phi) down to p (dphi/phi) at phi."""
    return (a.base[-1], a.p)


def lambda_theta(theta: Connection, cp: CoupledPoint,
                 w: Sequence[float]) -> float:
    """Pair mu with theta of the base legs of a tangent vector at (alpha, mu).

    w carries frame components over (k, phi, p); the fiber leg never enters.
    """
    base_legs = [float(x) for x in w[: theta.h_dim + 1]]
    tv = theta.theta(cp.element.base, base_legs)
    return float(sum(m * t for m, t in zip(cp.mu, tv)))


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
    """The target 2-form: pulled-back reduced form minus d(lambda_theta)."""
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
    into a dense matrix J, and the forms pair J v with J w (rhs) and v
    with w (omega) over their coefficient index pairs.
    """
    names, fn, rfn, oc, (ji, jj), (ri, rk), (oi, ok) = theta._coupling_compiled
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
    lhs = oc @ (v[oi] * w[ok] - v[ok] * w[oi])
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
