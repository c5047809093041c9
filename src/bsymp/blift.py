"""Rescaled cotangent charts, the tautological 1-form, and lifted actions.

The chart of the cotangent space over a base chart doubles the coordinates
with fiber momenta dual to the rescaled frame: the momentum over the
defining slot pairs with f d/df, so the tautological form and its
derivative have smooth coefficients and the total space is again a chart
with the same defining coordinate.

The lifted action implemented here is the subgroup acting by left
translation on a trivialized group chart (k, phi) -> (m_H(h, k), phi), phi
defining (the one chart the package builds), and on momenta by the
transpose Jacobian of the inverse translation.  Its fundamental fields are
the derivative of that one lifted map in h at the identity, and the
momentum map pairs the fiber coordinates with their base part.  All
Jacobians are exact expression calculus, no finite differences.

The lifted action is also the one owner of the numbers its readers share:
the compiled lift moves covectors by dL_h^{-T}, which is what a connection's
equivariance check reads.  The canonical form `omega` is built once, and
its one exact frame matrix (`bcalc.frame_matrix`) is read four ways: the
upstairs Poisson structure inverts it, `poisson_matrix` is the float copy
of that inverse, which the reduced bracket's chain rule contracts with,
`omega_matrix` is its float copy, which the coupling identity and the
moment-Hamilton check contract with, and verify's canonical-layout
section decides its nondegeneracy.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from ._numpy import np
from . import expr as ex
from .expr import Expr, Var, ZERO
from .bcalc import (BChart, BForm, BVectorField, PoissonBivector, b_d, frame_matrix,
                    invert_to_poisson, joined, poisson_frame_matrix, sequence_values)
from .lie import BLieGroupPair

__all__ = [
    "BCotangentChart", "LiftedAction", "liouville", "canonical_bsymplectic",
    "trivialized_base_chart",
]


class BCotangentChart(ex.Frozen):
    """A base chart plus fiber momenta dual to its rescaled frame."""

    def __init__(self, base: BChart):
        self.__dict__["base"] = base

    @property
    def n(self) -> int:
        return self.base.dim

    @property
    def fiber_names(self) -> tuple[str, ...]:
        return tuple("p_" + n for n in self.base.names)

    @cached_property
    def chart(self) -> BChart:
        return BChart(self.base.names + self.fiber_names, self.base.defining)


def liouville(c: BCotangentChart) -> BForm:
    """p_f df/f + sum p_i dz_i: fiber momenta against the base coframe."""
    coeffs = {(i,): Var(c.fiber_names[i]) for i in range(c.n)}
    return BForm(c.chart, 1, coeffs)


def canonical_bsymplectic(c: BCotangentChart) -> BForm:
    """The negative derivative of the tautological form; constant frame matrix."""
    return b_d(liouville(c)).scaled(-1)


def trivialized_base_chart(pair: BLieGroupPair) -> BChart:
    """Chart (k_1..k_{n-1}, phi) of the split group chart, phi defining."""
    names = pair.h_names + (pair.phi_name,)
    return BChart(names, len(names) - 1)


class LiftedAction(ex.Frozen):
    """Left translation by the subgroup, lifted to the cotangent chart,
    whose momenta are dual to the rescaled frame with phi defining.

    The action owns what it derives: the generator and moment expressions,
    their compiled maps, the canonical form, its frame matrix and the
    upstairs Poisson structure are cached properties, each built on first
    use.
    """

    def __init__(self, pair: BLieGroupPair):
        self.__dict__["pair"] = pair

    @cached_property
    def cot(self) -> BCotangentChart:
        return BCotangentChart(trivialized_base_chart(self.pair))

    @property
    def h_dim(self) -> int:
        return len(self.pair.h_names)

    # -- symbolic building blocks ------------------------------------------

    def _k_vars(self) -> list[Expr]:
        return [Var(n) for n in self.pair.h_names]

    @cached_property
    def _h_names(self) -> tuple[str, ...]:
        """The names of h, and of a direction X in its algebra, in the lift."""
        return tuple("h__" + n for n in self.pair.h_names)

    def _h_vars(self) -> list[Expr]:
        return [Var(n) for n in self._h_names]

    def translation_exprs(self) -> list[Expr]:
        """m_H(h, k) as expressions in h__* and the base names."""
        return self.pair.h_group.mul_fn(self._h_vars(), self._k_vars())

    def jacobian_exprs(self) -> list[list[Expr]]:
        """J[j][i] = d m_H(h^-1, k')_j / d k'_i in h__* and the base names.

        This is the derivative of the inverse translation at the moved
        point, the transpose of which carries momenta forward.
        """
        H = self.pair.h_group
        kp = self._k_vars()
        back = H.mul_fn(H.inv_fn(self._h_vars()), kp)
        return [[ex.diff(back[j], n) for n in self.pair.h_names] for j in range(self.h_dim)]

    @cached_property
    def generator_exprs(self) -> list[list[Expr]]:
        """gen[a][i]: chart component i of the fundamental field of basis
        direction a, d/dh_a of `lift_exprs` at h = 0.

        Exact, and independent of the curve chosen through the identity.
        The lift fixes phi and p_phi, so those entries are structural zeros.
        """
        zero = dict.fromkeys(self._h_names, ZERO)
        lift = self.lift_exprs()
        return [[ex.subs(ex.diff(c, a), zero) for c in lift] for a in self._h_names]

    @cached_property
    def zeta_exprs(self) -> list[list[Expr]]:
        """zeta[a][j]: the base part of each generator, in the frame of k."""
        return [row[:self.h_dim] for row in self.generator_exprs]

    def xsharp(self, X: Sequence[float]) -> BVectorField:
        """Fundamental field of the lifted action on the cotangent chart.

        Public API, though the library reads `generator_exprs` directly: the
        benchmark tracer times it, so it stays until that target changes."""
        x = sequence_values(self._h_names, X)
        return BVectorField(self.cot.chart,
                            tuple(ex.dot(x, col) for col in zip(*self.generator_exprs)))

    @cached_property
    def moment_exprs(self) -> list[Expr]:
        """mu_a = sum_j p_j zeta[a][j](k): smooth momentum of each basis direction."""
        return [ex.dot(map(Var, self.cot.fiber_names[:self.h_dim]), zrow)
                for zrow in self.zeta_exprs]

    @cached_property
    def moment_differentials(self) -> tuple[BForm, ...]:
        """b_d(mu_a) for each basis direction a, 1-forms on the cotangent chart."""
        ch = self.cot.chart
        return tuple(b_d(BForm(ch, 0, {(): mu})) for mu in self.moment_exprs)

    def lift_exprs(self) -> list[Expr]:
        """All components of the lifted map in h__* and the chart names.

        Order matches the cotangent chart: moved base, phi, transported
        momenta, p_phi (phi and its momentum ride along unchanged).
        """
        names = self.pair.h_names
        m = self.h_dim
        moved = self.translation_exprs()
        J = self.jacobian_exprs()
        moved_sub = {n: mv for n, mv in zip(names, moved)}
        p_new = [ex.dot([ex.subs(J[j][i], moved_sub) for j in range(m)],
                        map(Var, self.cot.fiber_names[:m]))
                 for i in range(m)]
        return [*moved, Var(self.pair.phi_name), *p_new, Var(self.cot.fiber_names[m])]

    # -- compiled maps and derived structures --------------------------------

    @cached_property
    def _lift_compiled(self):
        args = [*self._h_names, *self.cot.chart.names]
        return ex.compile_exprs(self.lift_exprs(), args)

    @cached_property
    def zeta_compiled(self):
        """k -> zeta[a][j] flattened row-major: every generator at a base point."""
        return ex.compile_exprs([e for row in self.zeta_exprs for e in row],
                                list(self.pair.h_names))

    @cached_property
    def _moment_compiled(self):
        return ex.compile_exprs(self.moment_exprs, list(self.cot.chart.names))

    @cached_property
    def omega(self) -> BForm:
        """The canonical b-symplectic form on the cotangent chart."""
        return canonical_bsymplectic(self.cot)

    @cached_property
    def omega_matrix(self) -> np.ndarray:
        """W_ij = omega(E_i, E_j), the float copy of `frame_matrix(omega)`."""
        return np.array(frame_matrix(self.omega), dtype=float)

    @cached_property
    def poisson_matrix(self) -> np.ndarray:
        """P = transpose(W^-1), the float frame matrix of `upstairs_poisson`:
        {f, g} = b_d(f) P b_d(g) at a point."""
        return np.array(poisson_frame_matrix(self.omega), dtype=float)

    @cached_property
    def upstairs_poisson(self) -> PoissonBivector:
        """The Poisson bivector inverse to the canonical form on the cotangent chart."""
        return invert_to_poisson(self.omega)

    def act(self, h: Sequence[float], point: Sequence[float]) -> np.ndarray:
        """Cotangent lift of translation by h applied to (base, momenta).

        h and point may also hold N samples as columns (`sequence_values`);
        the moved points are then the columns of the result, from one
        compiled call.  Raises DomainError when a translated point falls
        off the chart, which for the rotation-fraction parametrization
        happens at the composition singularity.
        """
        out = np.asarray(self._lift_compiled(joined(sequence_values(self._h_names, h),
                                                    sequence_values(self.cot.chart.names, point))))
        if not np.isfinite(out).all():
            raise ex.DomainError("translated point leaves the chart")
        return out

    def moment_vector(self, point: Sequence[float]) -> np.ndarray:
        """mu at a point, or at N points given as columns."""
        return np.array(self._moment_compiled(sequence_values(self.cot.chart.names, point)))
