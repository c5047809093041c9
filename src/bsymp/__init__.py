"""Singular (b-)symplectic geometry on Lie group cotangent bundles.

Subpackages:
    expr       exact symbolic expression trees (parse / evaluate / diff)
    lie        Lie algebras, matrix group charts, group pairs, Lie-Poisson
    bcalc      charts with a marked hypersurface, singular forms, Poisson inversion
    blift      cotangent-bundle charts, tautological form, lifted actions, momenta
    reduction  principal connections, minimal coupling, reduced Poisson structures
    dynamics   Hamiltonian vector fields and fixed-step flows
    cli        configuration-driven command line front end

Every module that uses numpy reads it as `np` from the private loader
`_numpy`, which imports it on first attribute access, so the exact paths
(`describe`, `bracket-table`) never load it.
"""

__version__ = "0.1.0"
