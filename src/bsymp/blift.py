"""Rescaled cotangent charts, the tautological 1-form, and lifted actions.

The chart of the cotangent space over a base chart doubles the coordinates
with fiber momenta dual to the rescaled frame: the momentum over the
defining slot pairs with f d/df, so the tautological form and its
derivative have smooth coefficients and the total space is again a chart
with the same defining coordinate.

The lifted action implemented here is the subgroup acting by left
translation on a trivialized group chart (k, phi) -> (m_H(h, k), phi) and
on momenta by the transpose Jacobian of the inverse translation.  Its
fundamental fields are the derivative of that one lifted map in h at the
identity, and the momentum map pairs the fiber coordinates with their base
part.  All Jacobians are exact expression calculus, no finite differences.

The lifted action is also the one owner of the numbers its readers share:
the compiled lift moves covectors by dL_h^{-T}, which is what a connection's
equivariance check reads, and `omega_matrix` is the canonical form's
constant frame matrix, evaluated once, which the coupling identity and the
moment-Hamilton check contract with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from .expr import Expr, Var, ZERO
from .bcalc import (BChart, BForm, BVectorField, PoissonBivector, b_d, frame_matrix,
                    invert_to_poisson, sequence_values)
from .lie import BLieGroupPair

__all__ = [
    "BCotangentChart", "LiftedAction", "liouville", "canonical_bsymplectic",
    "trivialized_base_chart",
]


@dataclass(frozen=True, eq=False)
class BCotangentChart:
    """A base chart plus fiber momenta dual to its rescaled frame."""

    base: BChart

    @property
    def n(self) -> int:
        return self.base.dim

    @property
    def fiber_names(self) -> tuple[str, ...]:
        return tuple("p_" + n for n in self.base.names)

    @cached_property
    def chart(self) -> BChart:
        return BChart(
            names=self.base.names + self.fiber_names,
            defining=self.base.defining,
            box=self.base.box + ((-1.5, 1.5),) * self.n,
        )

    def split(self, point) -> tuple[np.ndarray, np.ndarray]:
        pt = np.asarray(point, dtype=float)
        return pt[: self.n], pt[self.n:]


def liouville(c: BCotangentChart) -> BForm:
    """p_f df/f + sum p_i dz_i: fiber momenta against the base coframe."""
    coeffs = {(i,): Var(c.fiber_names[i]) for i in range(c.n)}
    return BForm(c.chart, 1, coeffs)


def canonical_bsymplectic(c: BCotangentChart) -> BForm:
    """The negative derivative of the tautological form; constant frame matrix."""
    return b_d(liouville(c)).scaled(-1)


def trivialized_base_chart(pair: BLieGroupPair, mode: str = "b") -> BChart:
    """Chart (k_1..k_{n-1}, phi) of the split group chart; phi is defining in b mode."""
    if mode not in ("b", "classical"):
        raise ValueError("mode must be 'b' or 'classical'")
    H = pair.h_group
    names = pair.h_names + (pair.phi_name,)
    box = H.box + ((-1.5, 1.5),)
    defining = len(names) - 1 if mode == "b" else None
    return BChart(tuple(names), defining, tuple(box))


@dataclass(frozen=True, eq=False)
class LiftedAction:
    """Left translation by the subgroup, lifted to the cotangent chart.

    mode 'b' treats phi as the defining coordinate (momenta dual to the
    rescaled frame); 'classical' runs the identical formulas on the plain
    frame.  The translation fixes phi, so the two modes share all Jacobian
    data and differ only in which chart the forms live on.

    The action owns what it derives: the generator and moment expressions,
    their compiled maps, the canonical frame matrix and the upstairs
    Poisson structure are cached properties, each built on first use.
    """

    pair: BLieGroupPair
    mode: str = "b"

    def __post_init__(self):
        if self.mode not in ("b", "classical"):
            raise ValueError("mode must be 'b' or 'classical'")

    @cached_property
    def cot(self) -> BCotangentChart:
        return BCotangentChart(trivialized_base_chart(self.pair, self.mode))

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
        """Fundamental field of the lifted action on the cotangent chart."""
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
    def omega_matrix(self) -> np.ndarray:
        """W_ij = omega(E_i, E_j) of the canonical form, evaluated once;
        evaluate raises if an entry is not constant."""
        W = frame_matrix(canonical_bsymplectic(self.cot))
        return np.array([[ex.evaluate(e, {}) for e in row] for row in W])

    @cached_property
    def upstairs_poisson(self) -> PoissonBivector:
        """The Poisson bivector inverse to the canonical form on the cotangent chart."""
        return invert_to_poisson(canonical_bsymplectic(self.cot))

    def act(self, h: Sequence[float], point: Sequence[float]) -> np.ndarray:
        """Cotangent lift of translation by h applied to (base, momenta).

        Raises DomainError when the translated point falls off the chart,
        which for the rotation-fraction parametrization happens at the
        composition singularity.
        """
        out = self._lift_compiled([*sequence_values(self._h_names, h),
                                   *sequence_values(self.cot.chart.names, point)])
        if not all(math.isfinite(v) for v in out):
            raise ex.DomainError("translated point leaves the chart")
        return np.array(out)

    def moment(self, point: Sequence[float], X: Sequence[float]) -> float:
        mu = self._moment_compiled(sequence_values(self.cot.chart.names, point))
        return float(sum(x * m for x, m in zip(sequence_values(self._h_names, X), mu)))

    def moment_vector(self, point: Sequence[float]) -> np.ndarray:
        return np.array(self._moment_compiled(sequence_values(self.cot.chart.names, point)))
