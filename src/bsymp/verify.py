"""Section-based self-checks behind the command line verify command.

Each section recomputes one family of invariants for a configured group
and reports a residual against its tolerance.  The tolerance and the
number of draws are literals in the section that no option or config key
moves; more draws come from more seeds.  Exact algebraic checks
carry tolerance zero; sampled analytic identities carry the tolerances the
test suite enforces.  Lie-Poisson-Jacobi and reduced-Jacobi decide Jacobi
exactly on coordinate triples and keep their tolerance of 1e-9.  The bcalc
sections are exact: derivative-squared and log-derivative evaluate in
rationals, and the two b-symplectic verdicts, normal-form-model and
canonical-layout, decide from an exact constant frame matrix and read
0.0, or 1.0 on failure (normal-form-model keeps its tolerance of 1e-9).
Everything is seeded from one integer, so reruns of the same
configuration produce the same bytes.

The sampled sections draw every sample first, in one seeded order, and
then read them all as columns: each compiled map is called once per
section and connection, and the residuals come from einsum and scatter
contractions over the sample axis.  A section's residual is the np.max
of every sample's (`_worst`), so a NaN sample fails it.
connection-independence draws points only: through each connection it
compares the reduced point and every upstairs bracket of the reduced
coordinates with the reduced bivector at the default connection's
reduced point, moved by the chart shift
(`reduction.connection_independence_residual`).

Groups given only by structure constants (no matrix chart) run the algebra
sections, and commutator-match when a matrix basis comes with them, and
skip everything that needs the group or its cotangent side.
commutator-match reads the stored constants against the matrices with a
product of its own (`commutator_defect`); it never rebuilds the algebra.

The sections of one pair share its lifted action and its three checked
connections, both kept on the pair, so a rerun on the same pair builds
neither again.

Where os.fork exists, `run_suite` on a group pair runs its sections in
three processes, by each section's place in the section table
(`_GROUP_TABLE`: FIRST, OWN or HERE), all forked through `_fork.Fork`:
- FIRST: a child forked before the first section runs every section that
  needs no numpy and reads nothing the sampled sections build: the exact
  lie, commutator-match, bcalc and reduced-Jacobi sections and the four
  dynamics ones, which integrate plain floats.  It never loads numpy,
  so it stays small and starts no BLAS thread.
- OWN: coupling-identity, the largest sampled section, whose coupling
  maps nothing after it reads, runs in a second child, forked on reaching
  it, so that child inherits the connections and splitting maps the two
  sections before it built, and compiles the coupling maps away from
  this process.  That saves memory, not time: run here, it left a cold
  galilean verify at 0.423 s against 0.427 s, but raised the peak RSS
  from 34.0 to 36.0 MiB (2 processors, Python 3.11.7).
- HERE: this process runs the other six sampled sections meanwhile.
A bare algebra has no flows to run beside the rest: it forks nothing.
Each child returns each (residual, tolerance) as 8-byte doubles, which
`_fork` sends through a pipe before the child leaves by os._exit,
flushing no inherited stdio buffer; the report is assembled in the fixed
section order and is byte-identical to the serial one.  A child that
fails or reports incompletely leaves its sections to this process, which
runs them again: they are deterministic, so one that raised there raises
here with its real traceback.  If a section here raises, or a
KeyboardInterrupt arrives, `_fork` kills and reaps each child before the
exception propagates, so no process outlives `run_suite`.  Without
os.fork every section runs here, in order.
"""

from __future__ import annotations

import contextlib
import math
import random
import struct
import sys
from fractions import Fraction
from typing import Callable

from bsymp._numpy import np
import bsymp.expr as ex
from bsymp.expr import Const, Expr, Var
from bsymp import _fork, bcalc, dynamics as dyn, lie
from bsymp import reduction as red


class SectionResult(ex.Frozen):
    """One section's name, residual and tolerance; it passes at or under the tolerance."""

    def __init__(self, name: str, residual: float, tolerance: float):
        self.__dict__.update(name=name, residual=residual, tolerance=tolerance)

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance


class VerifyReport(ex.Frozen):
    """A suite's sections in order, for one subject and seed."""

    def __init__(self, subject: str, seed: int, sections: tuple[SectionResult, ...]):
        self.__dict__.update(subject=subject, seed=seed, sections=sections)

    @property
    def passed(self) -> bool:
        return all(s.ok for s in self.sections)

    def failing(self) -> list[str]:
        return [s.name for s in self.sections if not s.ok]

    def lines(self) -> list[str]:
        out = [f"subject: {self.subject}", f"seed: {self.seed}",
               f"sections: {len(self.sections)}"]
        for s in self.sections:
            mark = "ok" if s.ok else "FAIL"
            out.append(f"{mark} | {s.name} | residual: {s.residual!r}"
                       f" | tolerance: {s.tolerance!r}")
        out.append("result: " + ("pass" if self.passed else
                                 "fail: " + "; ".join(self.failing())))
        return out

    def text(self) -> str:
        return "\n".join(self.lines())


def _poly(rng, names, terms=3, deg=2):
    acc = ex.as_expr(rng.uniform(-1, 1))
    for _ in range(terms):
        t = ex.as_expr(rng.uniform(-1, 1))
        for _ in range(rng.randrange(1, deg + 1)):
            t = t * Var(rng.choice(names))
        acc = acc + t
    return acc


# ---------------------------------------------------------------------------
# algebra-level sections


def _sec_antisymmetry(L: lie.LieAlgebra, seed):
    return L.antisymmetry_defect(), 0.0


def _sec_jacobi(L: lie.LieAlgebra, seed):
    return L.jacobi_defect(), 0.0


def _sec_lp_jacobi(L: lie.LieAlgebra, seed):
    return L.lie_poisson.coordinate_jacobi_defect(), 1e-9


# Where a group pair runs a section (see the module docstring): in the child
# forked before the first section, in a child of its own forked on reaching
# it, or here.  A bare algebra runs every section here.
FIRST, OWN, HERE = "first child", "own child", "here"

_ALGEBRA_TABLE = [  # title, section, where a group pair runs it
    ("lie: antisymmetry", _sec_antisymmetry, FIRST),
    ("lie: Jacobi", _sec_jacobi, FIRST),
    ("lie: Lie-Poisson-Jacobi", _sec_lp_jacobi, FIRST),
]
ALGEBRA_SECTIONS: list[tuple[str, Callable]] = [(t, fn) for t, fn, _ in _ALGEBRA_TABLE]


# ---------------------------------------------------------------------------
# group-level sections


def commutator_defect(L: lie.LieAlgebra, basis) -> Fraction:
    """Largest |entry| of [E_i, E_j] - sum_k c^k_ij E_k over every ordered
    pair (i, j), with c read from L's stored rows and E the basis matrices
    as given; exact, so a match is 0.

    The commutators come from a sparse product of this function's own, not
    from the builder or its span (`lie.structure_constants_from_matrices`,
    `lie._Span`), so a fault in either shows here, in a (j, i) row too.
    [E_j, E_i] is read as -[E_i, E_j], formed once per pair i <= j."""
    mats = [{(r, c): Fraction(v) for r, row in enumerate(M) for c, v in enumerate(row) if v}
            for M in basis]
    rows = [{} for _ in mats]  # rows[b][t]: row t of E_b as (column, value)
    for E, by_row in zip(mats, rows):
        for (t, c), w in E.items():
            by_row.setdefault(t, []).append((c, w))
    worst = Fraction(0)
    for i in range(len(mats)):
        for j in range(i, len(mats)):
            comm: dict[tuple[int, int], Fraction] = {}
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                for (r, t), v in mats[a].items():
                    for c, w in rows[b].get(t, ()):
                        comm[r, c] = comm.get((r, c), 0) + sign * v * w
            for (p, q), sign in (((i, j), 1), ((j, i), -1)):
                resid = {key: sign * v for key, v in comm.items()}
                for k, ck in L.c(p, q).items():
                    for key, w in mats[k].items():
                        resid[key] = resid.get(key, 0) - ck * w
                worst = max([worst, *map(abs, resid.values())])
    return worst


def _sec_commutator_match(pair, seed):
    return commutator_defect(pair.group.algebra, pair.group.basis), 0.0


def _rational_point(rng, names, defining):
    pt = {}
    for i, nm in enumerate(names):
        num = rng.randrange(-8, 9)
        if i == defining and num == 0:
            num = 3
        pt[nm] = Fraction(num, rng.randrange(1, 7))
    return pt


def _sec_d_squared(pair, seed):
    act = red._action(pair)
    ch = act.cot.chart
    rng = random.Random(seed * 7 + 2)
    names = list(ch.names)
    worst = Fraction(0)
    for _ in range(12):
        deg = rng.choice([0, 1, 2])
        if deg == 0:
            coeffs = {(): _rat_poly(rng, names)}
        else:
            coeffs = {}
            for _ in range(3):
                idx = tuple(sorted(rng.sample(range(ch.dim), deg)))
                coeffs[idx] = _rat_poly(rng, names)
        w = bcalc.BForm(ch, deg, coeffs)
        dd = bcalc.b_d(bcalc.b_d(w))
        for _ in range(3):
            pt = _rational_point(rng, names, ch.defining)
            for c in dd.coeffs.values():
                worst = max(worst, abs(ex.eval_exact(c, pt)))
    return float(worst), 0.0


def _rat_poly(rng, names):
    acc: Expr = Const(Fraction(rng.randrange(-3, 4)))
    for _ in range(2):
        t: Expr = Const(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)))
        for _ in range(rng.randrange(1, 3)):
            t = t * Var(rng.choice(names))
        acc = acc + t
    return acc


def _sec_log_derivative(pair, seed):
    act = red._action(pair)
    ch = act.cot.chart
    rng = random.Random(seed * 11 + 3)
    d = ch.defining
    names = list(ch.names)
    worst = Fraction(0)
    for _ in range(6):
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        g = _rat_poly(rng, names)
        u = bcalc.BFunction(ch, c, g)
        du = bcalc.d_bfunction(u)
        # expected: c on the rescaled defining slot plus the plain derivative
        for j in range(ch.dim):
            want = ex.diff(g, names[j])
            if j == d:
                want = Var(names[d]) * want + Const(c)
            diff = du.coeff((j,)) - want
            for _ in range(3):
                pt = _rational_point(rng, names, d)
                worst = max(worst, abs(ex.eval_exact(diff, pt)))
    return float(worst), 0.0


def _sec_normal_form_model(pair, seed):
    # b-symplectic, and its inverse is exactly {x1, y1} = y1, {xi, yi} = 1
    model = bcalc.bdarboux_model(3)
    want = {(0, 1): Var(model.chart.defining_name), (2, 3): ex.ONE, (4, 5): ex.ONE}
    exact = (bcalc.is_b_symplectic(model)
             and bcalc.invert_to_poisson(model).entries == want)
    return float(not exact), 1e-9


def _sec_canonical_layout(pair, seed):
    # the canonical form is exactly sum_i e^i ^ dp_i over the coframe
    # e = (df/f, dz_i), and b-symplectic
    act = red._action(pair)
    n = act.cot.n
    layout = act.omega.coeffs == {(i, i + n): ex.ONE for i in range(n)}
    return float(not (layout and bcalc.is_b_symplectic(act.omega))), 0.0


def _worst(*residuals) -> float:
    """The largest of every sample's residual; NaN if one is NaN, which
    np.max keeps and a running max(0.0, nan) would drop."""
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals])))


def _sec_action_law(pair, seed):
    act = red._action(pair)
    H = pair.h_group
    names = act.cot.chart.names
    m = len(pair.h_names)
    rng = random.Random(seed * 13 + 4)
    h1, h2, x = bcalc.columns([
        ([rng.uniform(-0.5, 0.5) for _ in range(m)],
         [rng.uniform(-0.5, 0.5) for _ in range(m)],
         [rng.uniform(-0.6, 0.6) for _ in names]) for _ in range(100)])
    one = act.act(h1, act.act(h2, x))
    two = act.act(lie.group_mul(H, h1, h2), x)
    return _worst(np.abs(one - two)), 1e-9


def _sec_moment_hamilton(pair, seed):
    act = red._action(pair)
    ch = act.cot.chart
    # the canonical frame matrix is constant, so iota_{X#} omega = X#(x) @ W
    W = act.omega_matrix
    m = len(pair.h_names)
    n = ch.dim
    # X# and d<mu, X> are linear in X: one compiled map gives the generator
    # matrix G and the b-differential of each mu_a, and the samples contract them
    fn = ex.compile_exprs([*(e for row in act.generator_exprs for e in row),
                           *(dmu.coeff((j,)) for dmu in act.moment_differentials
                             for j in range(n))],
                          list(ch.names))
    rng = random.Random(seed * 17 + 5)
    draws = []
    for _ in range(25):
        X = [rng.uniform(-1, 1) for _ in range(m)]
        for t in range(4):
            x = [rng.uniform(-0.7, 0.7) for _ in ch.names]
            if t % 2 == 0:
                x[m] = 0.0
            draws.append((X, x))
    X, x = bcalc.columns(draws)
    G, dmu = fn(x).reshape(2, m, n, -1)
    lhs = np.einsum("as,ajs,jk->ks", X, G, W)
    return _worst(np.abs(lhs - np.einsum("as,ajs->js", X, dmu))), 1e-8


def _sec_moment_equivariance(pair, seed):
    act = red._action(pair)
    names = act.cot.chart.names
    m = len(pair.h_names)
    rng = random.Random(seed * 19 + 6)
    h, x = bcalc.columns([([rng.uniform(-0.5, 0.5) for _ in range(m)],
                           [rng.uniform(-0.6, 0.6) for _ in names]) for _ in range(100)])
    lhs = act.moment_vector(act.act(h, x))
    rhs = lie.coadjoint_star(pair.h_group, h, act.moment_vector(x))
    return _worst(np.abs(lhs - rhs)), 1e-9


def _connection_cases(pair):
    """The default and two deformed connections, built and axiom-checked once
    per pair and kept on it, so the four reduction sections share their
    compiled functions, forms and reduced coordinates."""
    return pair.memo("verify_connection_cases", lambda: _build_connection_cases(pair))


def _build_connection_cases(pair):
    m = len(pair.h_names)
    phi = pair.phi_name
    xi1 = [0.3 if a % 2 == 0 else -0.2 for a in range(m)]
    xi2 = [0.1 if a % 3 == 0 else 0.4 for a in range(m)]
    return (
        red.make_connection(pair),
        red.make_connection(pair, deformation=(xi1, f"1 + {phi}^2", True)),
        red.make_connection(pair, deformation=(xi2, f"cos({phi})", False)),
    )


def _sec_connection_axioms(pair, seed):
    return _worst([red._axiom_residual(theta, 30, seed + 7)
                   for theta in _connection_cases(pair)]), 1e-9


def _tangent_split_residuals(theta, g, v):
    """|phi_theta^-1(phi_theta(v)) - v| and |theta(u)| per sample, u the
    horizontal part: the round trip adds back the z it took away, so it
    reads 0 for any theta, and u must also lie in ker theta."""
    u, X = red.phi_theta(theta, g, v)
    return np.abs(red.phi_theta_inverse(theta, g, u, X) - v), np.abs(theta.theta(g, u))


def _sec_splitting_roundtrip(pair, seed):
    rng = random.Random(seed * 23 + 8)
    m = len(pair.h_names)
    worst = []
    for theta in _connection_cases(pair):
        g, v, alpha = bcalc.columns([([rng.uniform(-0.6, 0.6) for _ in range(m + 1)],
                                      [rng.uniform(-1, 1) for _ in range(m + 1)],
                                      [rng.uniform(-1, 1) for _ in range(m + 1)])
                                     for _ in range(20)])
        worst.extend(_tangent_split_residuals(theta, g, v))
        back = red.psi_theta_inverse(theta, red.psi_theta(theta, g, alpha))
        worst.append(np.abs(back - alpha))
    return _worst(*worst), 1e-12


def _sec_coupling_identity(pair, seed):
    rng = random.Random(seed * 29 + 9)
    act = red._action(pair)
    names = act.cot.chart.names
    m = len(pair.h_names)

    def draw(t):
        x = [rng.uniform(-0.7, 0.7) for _ in names]
        if t % 2 == 0:
            x[m] = 0.0
        else:
            x[m] = math.copysign(rng.uniform(0.05, 1.0), x[m] or 1.0)
        return x, [rng.uniform(-1, 1) for _ in names], [rng.uniform(-1, 1) for _ in names]

    # the draws are arrays before the first call builds the coupling maps,
    # whose compile sets the process's peak memory
    return _worst(*(red.coupling_identity_residual(theta, *bcalc.columns(map(draw, range(200))))
                    for theta in _connection_cases(pair))), 1e-8


def _sec_connection_independence(pair, seed):
    rng = random.Random(seed * 31 + 10)
    cn = red._action(pair).cot.chart.names
    m = len(pair.h_names)
    cases = _connection_cases(pair)
    worst = []
    for theta in cases:
        draws = []
        for _ in range(50):
            x = [rng.uniform(-0.6, 0.6) for _ in cn]
            if rng.random() < 0.4:
                x[m] = 0.0
            draws.append(x)
        worst.append(red.connection_independence_residual(theta, cases[0], np.array(draws).T))
    return _worst(*worst), 1e-8


def _sec_reduced_jacobi(pair, seed):
    return red.reduced_poisson(pair).coordinate_jacobi_defect(), 1e-9


def _reduced_flow_field(pair):
    """The reduced bracket, the H = p field and the slot of phi, kept on the
    pair so flow-endpoint and order-factor share the field's generated loop."""
    return pair.memo("verify_flow_field", lambda: _build_flow_field(pair))


def _build_flow_field(pair):
    rp = red.reduced_poisson(pair)
    m = len(rp.names) - 2
    vf = dyn.hamiltonian_vf(rp, Var(rp.names[m + 1]), phi_slot=m)
    return rp, vf, m


def _sec_flow_endpoint(pair, seed):
    rp, vf, m = _reduced_flow_field(pair)
    x0 = [0.0] * m + [1.0, 0.0]
    tr = dyn.integrate(vf, x0, 1e-3, 1.0)
    return abs(tr.final[m] - math.e), 1e-6


def _sec_slice_hold(pair, seed):
    rng = random.Random(seed * 41 + 12)
    rp = red.reduced_poisson(pair)
    m = len(rp.names) - 2
    H = _poly(rng, list(rp.names))
    vf = dyn.hamiltonian_vf(rp, H, phi_slot=m)
    x0 = [rng.uniform(-0.5, 0.5) for _ in rp.names]
    x0[m] = 0.0
    tr = dyn.integrate(vf, x0, 1e-2, 2.0)
    return max(map(abs, tr.column(m))), 0.0


def _sec_order_factor(pair, seed):
    rp, vf, m = _reduced_flow_field(pair)
    errs = []
    for dt in (0.1, 0.05):
        tr = dyn.integrate(vf, [0.0] * m + [1.0, 0.0], dt, 1.0)
        errs.append(abs(tr.final[m] - math.e))
    factor = errs[0] / errs[1]
    return abs(math.log2(factor / 16.0)), 1.0


_ENERGY_DRIFT_HALVINGS = 20


def _sec_energy_drift(pair, seed):
    rng = random.Random(seed * 43 + 13)
    rp = red.reduced_poisson(pair)
    m = len(rp.names) - 2
    worst = 0.0
    for _ in range(3):
        H = _poly(rng, list(rp.names))
        vf = dyn.hamiltonian_vf(rp, H, phi_slot=m)
        x0 = [rng.uniform(-0.6, 0.6) for _ in rp.names]
        # quadratic terms can drive finite-time escape, and each halving of
        # the start only doubles the exit time; shrink it deterministically
        # until the full horizon stays on the chart, else fail the section;
        # an H that cannot be evaluated on a row, or is not finite at the
        # start, fails it too
        for _ in range(_ENERGY_DRIFT_HALVINGS):
            try:
                tr = dyn.integrate(vf, x0, 1e-3, 10.0)
                break
            except dyn.ChartExitError:
                x0 = [0.5 * v for v in x0]
            except dyn.InvariantError:
                return math.inf, 1e-6
        else:
            return math.inf, 1e-6
        worst = max(worst, tr.energy_drift / (1.0 + abs(tr.invariants[0])))
    return worst, 1e-6


_GROUP_TABLE = [  # title, section, where a group pair runs it
    ("lie: commutator-match", _sec_commutator_match, FIRST),
    ("bcalc: derivative-squared", _sec_d_squared, FIRST),
    ("bcalc: log-derivative", _sec_log_derivative, FIRST),
    ("bcalc: normal-form-model", _sec_normal_form_model, FIRST),
    ("bcalc: canonical-layout", _sec_canonical_layout, FIRST),
    ("blift: action-law", _sec_action_law, HERE),
    ("blift: moment-Hamilton", _sec_moment_hamilton, HERE),
    ("blift: moment-equivariance", _sec_moment_equivariance, HERE),
    ("reduction: connection-axioms", _sec_connection_axioms, HERE),
    ("reduction: splitting-roundtrip", _sec_splitting_roundtrip, HERE),
    ("reduction: coupling-identity", _sec_coupling_identity, OWN),
    ("reduction: connection-independence", _sec_connection_independence, HERE),
    ("reduction: reduced-Jacobi", _sec_reduced_jacobi, FIRST),
    ("dynamics: flow-endpoint", _sec_flow_endpoint, FIRST),
    ("dynamics: slice-hold", _sec_slice_hold, FIRST),
    ("dynamics: order-factor", _sec_order_factor, FIRST),
    ("dynamics: energy-drift", _sec_energy_drift, FIRST),
]
# the (title, section) rows run_suite reads: a test or a tracer may replace
# a section, which keeps the place of its title
GROUP_SECTIONS: list[tuple[str, Callable]] = [(t, fn) for t, fn, _ in _GROUP_TABLE]
_PLACE = {t: place for t, _, place in _ALGEBRA_TABLE + _GROUP_TABLE}


def _run_section(fn, arg, seed) -> tuple[float, float]:
    resid, tol = fn(arg, seed)
    # an exact residual past the float range reads inf, and fails
    return (math.inf if resid > sys.float_info.max else float(resid)), float(tol)


@contextlib.contextmanager
def _child(run: Callable[[int], tuple[float, float]], ks: list[int],
           results: dict[int, tuple[float, float]]):
    """A `_fork.Fork` child that runs sections ks, none if ks is empty.  The
    block gets whether one was forked; at its end, each (residual,
    tolerance) the child reported as two 8-byte doubles goes into results."""
    doubles = struct.Struct(f"{2 * len(ks)}d")

    def work() -> list[bytes]:
        return [doubles.pack(*(x for k in ks for x in run(k)))]

    with _fork.Fork(work if ks else None) as child:
        yield child.forked
        data = child.read()
    if len(data) == doubles.size:
        values = doubles.unpack(data)
        results.update(zip(ks, zip(values[::2], values[1::2])))


def run_suite(subject, seed: int = 42, basis=None) -> VerifyReport:
    """Run every applicable section for a group pair or a bare algebra; a
    bare algebra's matrix `basis`, if given, adds commutator-match last.
    Where os.fork exists, a group pair's sections run in two forked
    children and here, by their place in the section table (see the module
    docstring)."""
    if isinstance(subject, lie.LieAlgebra):
        label, algebra, rest = "algebra(" + ",".join(subject.labels) + ")", subject, []
        if basis is not None:
            rest = [("lie: commutator-match",
                     lambda _, s: (commutator_defect(algebra, basis), 0.0))]
    else:
        label, algebra, rest = subject.name, subject.group.algebra, GROUP_SECTIONS
    sections = [*((n, f, algebra) for n, f in ALGEBRA_SECTIONS),
                *((n, f, subject) for n, f in rest)]
    places = [HERE if subject is algebra else _PLACE[n] for n, _, _ in sections]
    results: dict[int, tuple[float, float]] = {}

    def run(k: int) -> tuple[float, float]:
        return _run_section(*sections[k][1:], seed)

    with contextlib.ExitStack() as children:
        first = children.enter_context(
            _child(run, [k for k, place in enumerate(places) if place is FIRST], results))
        for k, place in enumerate(places):
            if place is OWN:
                forked = children.enter_context(_child(run, [k], results))
            else:
                forked = place is FIRST and first
            if not forked:
                results[k] = run(k)
    # here run those no child reported, in order; they are deterministic,
    # so one that raised there raises again with its traceback
    for k in range(len(sections)):
        if k not in results:
            results[k] = run(k)
    return VerifyReport(label, seed, tuple(SectionResult(n, *results[k])
                                            for k, (n, _, _) in enumerate(sections)))
