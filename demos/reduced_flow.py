"""Hamiltonian flow on the reduced space, with the slice as a wall.

Integrates a reduced Hamiltonian for the planar motion group and shows
the qualitative signature of the transverse pair {phi, p} = phi: the
hyperplane phi = 0 is invariant, trajectories never cross it, and a
start on the slice stays on it exactly.  Also compares the plain
fixed-step integrator with the logarithmic substitution that follows
phi through many orders of magnitude.
"""

from bsymp import dynamics as dyn, expr as ex, lie, reduction as red

pair = lie.builtin("se2")
rp = red.reduced_poisson(pair)
print("reduced coordinates:", ", ".join(rp.names))

H = ex.parse("p^2/2 + 0.3*phi*mu_P1 + mu_P2")
vf = dyn.hamiltonian_vf(rp, H, phi_slot=2)
print("Hamiltonian:", ex.to_str(H))
print("equations of motion:")
for name, comp in zip(vf.names, vf.components):
    print(f"  d{name}/dt = {ex.to_str(comp)}")
print()

mus = [ex.Var("mu_P1"), ex.Var("mu_P2")]

# three launches: above the slice, below it, and exactly on it
for phi0 in (0.5, -0.5, 0.0):
    x0 = [0.4, -0.2, phi0, 0.3]
    traj = dyn.integrate(vf, x0, dt=1e-3, T=3.0, casimirs=mus)
    rep = dyn.leaf_report(rp, traj)
    phi_final = traj.final[2]
    print(f"start phi = {phi0:+.2f}:")
    print(f"  final phi = {phi_final:+.6f}, sign constant: {rep.sign_constant}")
    print(f"  stays on slice: {rep.on_slice}")
    print(f"  energy drift {rep.energy_drift:.2e}, "
          f"momentum drifts {[f'{v:.1e}' for v in rep.casimir_drifts.values()]}")

# exponential growth: H = p gives dphi/dt = phi, so phi(1) = e * phi(0)
import math

vf_exp = dyn.hamiltonian_vf(rp, ex.parse("p"), phi_slot=2)
x0 = [0.0, 0.0, 1.0, 0.0]
plain = dyn.integrate(vf_exp, x0, dt=1e-3, T=1.0)
logged = dyn.integrate(vf_exp, x0, dt=1e-3, T=1.0, substitution=True)
print()
print("linear-rate growth dphi/dt = phi from phi(0) = 1:")
print(f"  exact          phi(1) = {math.e:.15f}")
print(f"  fixed-step     phi(1) = {plain.final[2]:.15f}"
      f"  (error {abs(plain.final[2] - math.e):.1e})")
print(f"  log substitute phi(1) = {logged.final[2]:.15f}"
      f"  (error {abs(logged.final[2] - math.e):.1e})")
