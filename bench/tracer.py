"""Run one bsymp command with spans around the public functions of each module.

    python bench/tracer.py SPANS.json <bsymp arguments...>

Imports bsymp.cli, replaces the functions listed in TARGETS (in every bsymp
module that holds them, so `from .bcalc import b_d` style aliases are
covered too) by wrappers that record a span per call, then runs the command
exactly as the `bsymp` entry point would.  Spans stay in memory and are
written to SPANS.json when the command ends, together with counters that
are not spans.  The command's stdout, files and exit code are unchanged.
A target the program no longer has is listed under "missing" and skipped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

_now = time.perf_counter

# span name -> "module:function" or "module:Class.member"
TARGETS = {
    "expr.diff": "expr:diff",
    "expr.subs": "expr:subs",
    "expr.evaluate": "expr:evaluate",
    "expr.compile_exprs": "expr:compile_exprs",
    "lie.builtin": "lie:builtin",
    "lie.adjoint_matrix_sym": "lie:adjoint_matrix_sym",
    "lie.lie_poisson_sym": "lie:lie_poisson_sym",
    "lie.structure_constants_from_matrices": "lie:structure_constants_from_matrices",
    "bcalc.bracket_value": "bcalc:PoissonBivector.bracket_value",
    "bcalc.invert_to_poisson": "bcalc:invert_to_poisson",
    "bcalc.b_d": "bcalc:b_d",
    "bcalc.pair": "bcalc:pair",
    "bcalc.is_b_symplectic": "bcalc:is_b_symplectic",
    "blift.lift_exprs": "blift:LiftedAction.lift_exprs",
    "blift.moment_exprs": "blift:LiftedAction.moment_exprs",
    "blift.act": "blift:LiftedAction.act",
    "blift.xsharp": "blift:LiftedAction.xsharp",
    "reduction.make_connection": "reduction:make_connection",
    "reduction.coupling_identity_residual": "reduction:coupling_identity_residual",
    "reduction.reduced_bracket_via_invariants": "reduction:reduced_bracket_via_invariants",
    "reduction.invariant_moment_exprs": "reduction:invariant_moment_exprs",
    "reduction.reduced_poisson": "reduction:reduced_poisson",
    "dynamics.integrate": "dynamics:integrate",
    "dynamics.write_csv": "dynamics:write_csv",
    "cli.load_config": "cli:load_config",
    "cli.main": "cli:main",
}

SECTION_PREFIX = "verify.section."

spans: list[list] = []          # [name, start, end, parent index or -1]
_open: list[int] = []
counters = {"blift.LiftedAction.count": 0,
            "expr.compiled.calls": 0, "expr.compiled.s": 0.0,
            "dynamics.rhs.calls": 0, "dynamics.rhs.s": 0.0,
            "dynamics.steps": 0}
missing: list[str] = []


def span(name, fn, post=None):
    """fn wrapped so each call records a span; post may replace the result."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = len(spans)
        spans.append([name, 0.0, 0.0, _open[-1] if _open else -1])
        _open.append(i)
        t0 = _now()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = _now()
            _open.pop()
            rec = spans[i]
            rec[1] = t0
            rec[2] = t1
        return out if post is None else post(out)
    return traced


def timed_calls(key):
    """A post hook timing every call of the returned function, without spans."""
    calls, secs = key + ".calls", key + ".s"

    def post(fn):
        def timed(x):
            t0 = _now()
            try:
                return fn(x)
            finally:
                counters[secs] += _now() - t0
                counters[calls] += 1
        return timed
    return post


def count_steps(tr):
    counters["dynamics.steps"] += len(tr.times) - 1
    return tr


def section_slug(title: str) -> str:
    return title.replace(": ", ".").replace(" ", "-")


def _wrap_member(cls, attr, wrap) -> bool:
    raw = inspect.getattr_static(cls, attr, None)
    if isinstance(raw, functools.cached_property):
        new = functools.cached_property(wrap(raw.func))
        new.__set_name__(cls, attr)
    elif isinstance(raw, property):
        new = property(wrap(raw.fget), raw.fset, raw.fdel)
    elif inspect.isfunction(raw):
        new = wrap(raw)
    else:
        return False
    setattr(cls, attr, new)
    return True


def _wrap_function(modules, mod, attr, wrap) -> bool:
    old = getattr(mod, attr, None)
    if not inspect.isfunction(old):
        return False
    new = wrap(old)
    for m in modules:
        for k, v in list(vars(m).items()):
            if v is old:
                setattr(m, k, new)
    return True


def install():
    import bsymp.cli  # noqa: F401  (imports every bsymp module)

    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "bsymp" or k.startswith("bsymp."))]
    posts = {"expr.compile_exprs": timed_calls("expr.compiled"),
             "dynamics.integrate": count_steps}
    for name, where in TARGETS.items():
        modname, attr = where.split(":")
        mod = sys.modules.get("bsymp." + modname)
        wrap = functools.partial(span, name, post=posts.get(name))
        if mod is None:
            ok = False
        elif "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(mod, cls_name, None)
            ok = cls is not None and _wrap_member(cls, member, wrap)
        else:
            ok = _wrap_function(modules, mod, attr, wrap)
        if not ok:
            missing.append(name)

    dynamics = sys.modules["bsymp.dynamics"]
    rhs = timed_calls("dynamics.rhs")
    if not _wrap_member(dynamics.VectorField, "compiled",
                        lambda fn: functools.wraps(fn)(
                            lambda self: rhs(fn(self)))):
        missing.append("dynamics.rhs")

    blift = sys.modules["bsymp.blift"]
    init = blift.LiftedAction.__init__

    @functools.wraps(init)
    def init_counted(self, *args, **kwargs):
        counters["blift.LiftedAction.count"] += 1
        init(self, *args, **kwargs)
    blift.LiftedAction.__init__ = init_counted

    verify = sys.modules["bsymp.verify"]
    for table in (getattr(verify, "ALGEBRA_SECTIONS", None),
                  getattr(verify, "GROUP_SECTIONS", None)):
        if not isinstance(table, list):
            missing.append("verify.section")
            continue
        for k, (title, fn) in enumerate(table):
            table[k] = (title, span(SECTION_PREFIX + section_slug(title), fn))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = _now()
    import bsymp.cli
    import_s = _now() - t0
    install()
    try:
        code = bsymp.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "counters": counters,
                       "missing": missing, "spans": spans},
                      fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
