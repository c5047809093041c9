"""DAG node counts of the galilean symbolic builds, walked from outside.

    python bench/nodes.py

Prints one JSON object of exact counts.  A node is any bsymp.expr.Expr
object; its children are the Expr values among its attributes (directly or
inside tuples and lists).  Each build is one list of roots and every node
reachable from them is counted once, by object identity, so shared
subtrees count once however often they are used.

    nu_galilean        reduction.invariant_moment_exprs(galilean)
    lift_galilean      LiftedAction(galilean).lift_exprs()
    adjoint_galilean   lie.adjoint_matrix_sym on the subgroup chart variables
    coupling_galilean  every expression compiled while the coupling identity
                       of the default connection is first evaluated
"""

from __future__ import annotations

import json


def _children(node, expr_type):
    fields = getattr(node, "__dict__", None)
    if fields is None:
        fields = {s: getattr(node, s, None)
                  for c in type(node).__mro__ for s in getattr(c, "__slots__", ())}
    for v in fields.values():
        if isinstance(v, expr_type):
            yield v
        elif isinstance(v, (tuple, list)):
            yield from (w for w in v if isinstance(w, expr_type))


def count_nodes(roots, expr_type) -> int:
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        stack.extend(_children(n, expr_type))
    return len(seen)


def _flatten(obj):
    if isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _flatten(v)
    else:
        yield obj


def main() -> None:
    import bsymp.expr as ex
    from bsymp import blift, lie, reduction as red

    pair = lie.builtin("galilean")
    roots = {
        "nu_galilean": list(red.invariant_moment_exprs(pair)),
        "lift_galilean": list(blift.LiftedAction(pair).lift_exprs()),
        "adjoint_galilean": list(_flatten(lie.adjoint_matrix_sym(
            pair.h_group, [ex.Var(n) for n in pair.h_names]))),
    }

    compiled = []
    compile_exprs = ex.compile_exprs

    def capture(exprs, names):
        compiled.extend(exprs)
        return compile_exprs(exprs, names)

    theta = red.make_connection(pair)
    dim = len(blift.LiftedAction(pair).cot.chart.names)
    ex.compile_exprs = capture
    try:
        red.coupling_identity_residual(theta, [0.1] * dim, [1.0] * dim,
                                       [0.5] * dim)
    finally:
        ex.compile_exprs = compile_exprs
    roots["coupling_galilean"] = compiled

    # keep the roots alive while counting, so ids stay unique
    counts = {k: count_nodes(v, ex.Expr) for k, v in roots.items()}
    print(json.dumps(counts, sort_keys=True))


if __name__ == "__main__":
    main()
