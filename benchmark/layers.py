"""Per-layer measurement for the traced pass: cProfile self time grouped by
module, exact call counts, and spans around public entry points.

Spans are recorded by wrappers the benchmark installs from outside the
package; no span lives inside ``pcomod``.  A function is wrapped under every
name it is looked up by: a module-level function is replaced in each loaded
``pcomod`` module that holds it (``suites`` imports ``check_hopf_axioms`` by
name), a method on its class.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import os
import sys
import time

# metric -> (module, attribute): inclusive time of the outermost spans
SPANS = {
    "rewrite.confluence_s": ("pcomod.rewrite", "RewriteSystem.check_local_confluence"),
    "tensors.merge_legs_s": ("pcomod.tensors", "Tensor.merge_legs"),
    "hopf.check_hopf_axioms_s": ("pcomod.hopf", "check_hopf_axioms"),
    "comodule.check_axioms_s": ("pcomod.comodule", "ComoduleAlgebra.check_axioms"),
    "numgeom.decomposition_report_s": ("pcomod.numgeom", "decomposition_report"),
    "numgeom.mattprop_report_s": ("pcomod.numgeom", "mattprop_report"),
    "numgeom.parity_probe_s": ("pcomod.numgeom", "equivariant_parity_probe"),
}
# Root spans, so that every layer span has a suite run as an ancestor.
ROOT_SPAN = ("pcomod.suites", "run_suite")

# metric -> (module, attribute): number of calls, from the profiler
COUNTS = {
    "scalars.scalar_mul_calls": ("pcomod.scalars", "Scalar.__mul__"),
    "scalars.scalar_add_calls": ("pcomod.scalars", "Scalar.__add__"),
    "scalars.gaussrat_mul_calls": ("pcomod.scalars", "GaussRat.__mul__"),
    "rewrite.normal_form_calls": ("pcomod.rewrite", "RewriteSystem.normal_form"),
    "rewrite.nf_word_calls": ("pcomod.rewrite", "RewriteSystem._nf_word"),
    "tensors.merge_legs_calls": ("pcomod.tensors", "Tensor.merge_legs"),
    "hopf.delta_word_calls": ("pcomod.hopf", "HopfAlgebra.delta_word"),
    "builtin.toeplitz_system_calls": ("pcomod.builtin", "toeplitz_system"),
    "builtin.build_calls": ("pcomod.builtin", "build"),
    "exprs.load_presentation_calls": ("pcomod.exprs", "load_presentation"),
}

# layer -> predicate on the profiler's file name; self time of every function
# defined in a matching file.
SELF_TIME_LAYERS = ("scalars", "rewrite", "ncpoly", "tensors", "exprs", "numgeom", "pullback", "linalg")


def _layer_of(filename: str, package_dir: str) -> str | None:
    if filename.startswith(package_dir):
        rel = filename[len(package_dir):]
        if rel.startswith("numgeom" + os.sep):
            return "numgeom"
        return os.path.splitext(rel)[0]
    if filename.endswith(os.sep + "fractions.py"):
        return "scalars"
    if os.sep + "numpy" + os.sep in filename:
        return "numgeom"
    return None


def _resolve(module: str, attr: str):
    """(owner, name, value) of ``module.attr`` where attr may be ``Class.method``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Profiler plus span recorder for one pass.  Use ``install()`` once after
    the package is imported, then run the work inside ``with tracer:``."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self._count_keys: dict[str, tuple] = {}

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter() - self._t0,
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter() - self._t0

        return spanned

    def install(self) -> None:
        for metric, (module, attr) in COUNTS.items():
            try:
                code = inspect.unwrap(_resolve(module, attr)[2]).__code__
            except AttributeError:
                print(f"benchmark: {module}.{attr} not found; {metric} reads 0", file=sys.stderr)
                continue
            self._count_keys[metric] = (code.co_filename, code.co_firstlineno, code.co_name)
        targets = {"suites.run_suite": ROOT_SPAN}
        targets.update({m.removesuffix("_s"): t for m, t in SPANS.items()})
        for span_name, (module, attr) in targets.items():
            owner, name, fn = _resolve(module, attr)
            wrapped = self._wrap(span_name, fn)
            if inspect.isclass(owner):
                setattr(owner, name, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "pcomod" or mod_name.startswith("pcomod."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

    def __enter__(self):
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        return False

    def _span_total(self, name: str) -> float:
        by_id = {s["id"]: s for s in self.spans}

        def nested_in_same(s):
            p = s["parent"]
            while p is not None:
                if by_id[p]["name"] == name:
                    return True
                p = by_id[p]["parent"]
            return False

        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name and not nested_in_same(s))

    def layer_metrics(self) -> dict[str, float]:
        import pcomod

        package_dir = os.path.dirname(pcomod.__file__) + os.sep
        self.profile.create_stats()
        stats = self.profile.stats  # (file, line, func) -> (cc, nc, tottime, cumtime, callers)
        out = {f"{layer}.self_s": 0.0 for layer in SELF_TIME_LAYERS}
        for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.items():
            layer = _layer_of(filename, package_dir)
            if layer in SELF_TIME_LAYERS:
                out[f"{layer}.self_s"] += tottime
        for metric in COUNTS:
            key = self._count_keys.get(metric)
            out[metric] = stats[key][1] if key in stats else 0
        for metric in SPANS:
            out[metric] = self._span_total(metric.removesuffix("_s"))
        return out
