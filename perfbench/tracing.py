"""Timing spans recorded from outside the package.

The tracer wraps caustyk's public entry points, the ``CausObject``,
``AffineSubspace`` and ``ChoiMap`` methods that every caller goes through,
and the numpy/scipy factorization and eigen kernels.  caustyk reaches all
of them by attribute lookup at call time, so swapping the attributes is
enough: nothing under ``src/`` changes.  Patches go in with
:meth:`Tracer.install` and come out with :meth:`Tracer.remove`, so rounds
that are not traced run the unpatched code.

A span is ``(op_id, span_id, parent_id, name, start_ns, end_ns)``.  All
spans of one benchmark op share ``op_id``; the op itself is the root span.
Spans stay in memory until :meth:`Tracer.write`.  A span's self time is its
duration minus the durations of its direct children (children of one span
never overlap: the program is single threaded).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# span groups: which names count toward which per-layer metric
_FACTOR = ("numpy.linalg.svd", "numpy.linalg.lstsq", "scipy.linalg.null_space")
_EIG = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
_HULL_BUILD = ("from_span", "from_span_coords", "from_point", "from_constraints",
               "dual", "intersect_linear", "dirs_coords", "cons_rows")
_HULL_QUERY = ("distance", "distances", "contains", "contains_vec",
               "project_vec", "is_subset", "equals")

_CONSTRUCTORS = ("mk_first_order", "mk_unit", "mk_classical", "mk_all_states",
                 "dual_obj", "tensor_obj", "par_obj", "hom_obj", "seq_obj")
_CHOI_FUNCS = ("act_on_factors", "choi_of_kraus", "structural",
               "transpose_channel", "dilation_isometry", "shadow")

# module-level functions, wrapped wherever a caustyk module holds them
_FUNCTIONS = {
    "caustyk.causobj": _CONSTRUCTORS + ("member", "membership_report",
                                        "par_member", "seq_member",
                                        "check_morphism"),
    "caustyk.cpmaps": _CHOI_FUNCS + ("stinespring",),
    "caustyk.signalling": ("nonsignalling_test", "comb_decompose",
                           "coend_equiv", "equiv_certificate"),
    "caustyk.embedding": ("F_eval", "F_mor", "fullness_reconstruct",
                          "law_suite"),
    "caustyk.sampling": ("sample_member", "random_density"),
    "caustyk.dsl": ("parse_type", "elaborate"),
    "caustyk.io": ("load_matrix", "load_choi", "load_pair"),
    "caustyk.cli": ("main", "_cmd_typeinfo", "_cmd_member", "_cmd_morphism",
                    "_cmd_signalling", "_cmd_decompose", "_cmd_equiv",
                    "_cmd_laws", "_cmd_reconstruct"),
}

# per-layer metric -> span names whose self time it sums
_SELF_TIME = {
    "hermspace.factor_s": _FACTOR,
    "hermspace.construct_s": tuple(f"AffineSubspace.{m}" for m in _HULL_BUILD),
    "hermspace.query_s": tuple(f"AffineSubspace.{m}" for m in _HULL_QUERY),
    "hermspace.eig_s": _EIG,
    "causobj.construct_s": ("CausObject.__init__",) + tuple(
        f"causobj.{f}" for f in _CONSTRUCTORS),
    "causobj.member_s": ("causobj.member", "causobj.membership_report",
                         "causobj.par_member", "causobj.seq_member"),
    "causobj.morphism_s": ("causobj.check_morphism",),
    "cpmaps.stinespring_s": ("cpmaps.stinespring",),
    "signalling.nonsignalling_s": ("signalling.nonsignalling_test",),
    "signalling.decompose_s": ("signalling.comb_decompose",),
    "signalling.equiv_s": ("signalling.coend_equiv",),
    "signalling.certificate_s": ("signalling.equiv_certificate",),
    "embedding.F_eval_s": ("embedding.F_eval",),
    "embedding.F_mor_s": ("embedding.F_mor",),
    "embedding.reconstruct_s": ("embedding.fullness_reconstruct",),
    "embedding.laws_s": ("embedding.law_suite",),
    "sampling.sample_member_s": ("sampling.sample_member",
                                 "sampling.random_density"),
    "dsl.parse_s": ("dsl.parse_type",),
    "dsl.elaborate_self_s": ("dsl.elaborate",),
    "io.load_s": ("io.load_matrix", "io.load_choi", "io.load_pair"),
    "cli.verb_self_s": tuple(f"cli.{f}" for f in _FUNCTIONS["caustyk.cli"]),
}


def _svd_flops(shape, full: bool) -> float:
    """Golub-Van Loan operation count of an SVD with singular vectors."""
    m, n = shape[-2], shape[-1]
    big, k = max(m, n), min(m, n)
    if full:
        return 4.0 * big * big * k + 22.0 * k ** 3
    return 6.0 * big * k * k + 20.0 * k ** 3


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.labels: list[str] = []       # label of every CausObject built
        self.flops = 0.0
        self.max_bytes = 0
        self.certificates = 0
        self.certificates_ok = 0
        self._op = None
        self._stack: list[int] = []
        self._next = 0
        self._patches = self._plan()

    # -- ops ---------------------------------------------------------------

    def run_op(self, op_id: int, kind: str, fn, args):
        """Call ``fn(*args)`` as the root span of one op; returns its result."""
        self._op = op_id
        self._next += 1
        root = self._next
        self._stack = [root]
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self.spans.append((op_id, root, 0, f"op.{kind}", t0, t1))
            self._op = None
            self._stack = []

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack
            parent = stack[-1]
            tracer._next += 1
            sid = tracer._next
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((tracer._op, sid, parent, name, t0, t1))
            if after is not None:
                after(args, result)
            return result
        return traced

    def _kernel_cost(self, full_default):
        def before(args, kwargs):
            a = args[0]
            shape = getattr(a, "shape", ())
            if len(shape) < 2:
                return
            self.flops += _svd_flops(shape, kwargs.get("full_matrices", full_default))
            self.max_bytes = max(self.max_bytes, int(a.size) * a.itemsize)
        return before

    def _on_object(self, args, result):
        self.labels.append(args[0].label)

    def _on_certificate(self, args, result):
        self.certificates += 1
        self.certificates_ok += bool(result.ok)

    def _plan(self) -> list[tuple]:
        """Every ``(owner, attribute, original, wrapped)`` the tracer swaps."""
        import numpy as np

        from caustyk.causobj import CausObject
        from caustyk.cpmaps import ChoiMap
        from caustyk.hermspace import AffineSubspace

        plan = []
        kernels = [(np.linalg, "svd", "numpy.linalg.svd", True),
                   (np.linalg, "lstsq", "numpy.linalg.lstsq", False),
                   (np.linalg, "eigh", "numpy.linalg.eigh", None),
                   (np.linalg, "eigvalsh", "numpy.linalg.eigvalsh", None)]
        try:
            import scipy.linalg
            kernels.append((scipy.linalg, "null_space",
                            "scipy.linalg.null_space", True))
        except ImportError:
            pass
        for owner, attr, name, full in kernels:
            orig = getattr(owner, attr)
            before = None if full is None else self._kernel_cost(full)
            plan.append((owner, attr, orig, self._wrap(orig, name, before)))

        holders = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "caustyk" or n.startswith("caustyk."))]
        for modname, names in _FUNCTIONS.items():
            mod = importlib.import_module(modname)
            for attr in names:
                orig = getattr(mod, attr)
                after = (self._on_certificate if attr == "equiv_certificate"
                         else None)
                short = modname.split(".")[-1]
                wrapped = self._wrap(orig, f"{short}.{attr}", after=after)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            plan.append((holder, key, orig, wrapped))

        raw = CausObject.__dict__["__init__"]
        plan.append((CausObject, "__init__", raw,
                     self._wrap(raw, "CausObject.__init__",
                                after=self._on_object)))
        for attr in _HULL_BUILD + _HULL_QUERY:
            plan.append(self._method(AffineSubspace, attr))
        for attr, raw in list(vars(ChoiMap).items()):
            if attr == "__init__" or (not attr.startswith("_") and (
                    callable(raw) or isinstance(raw, classmethod))):
                plan.append(self._method(ChoiMap, attr))
        return plan

    def _method(self, cls, attr):
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            return cls, attr, raw, classmethod(self._wrap(raw.__func__, name))
        return cls, attr, raw, self._wrap(raw, name)

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        child = defaultdict(int)
        for _, _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out = defaultdict(float)
        for _, sid, _, name, t0, t1 in self.spans:
            out[name] += (t1 - t0 - child.get(sid, 0)) / 1e9
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values named as in BENCHMARK.json (minus the run-level ones)."""
        calls = Counter(s[3] for s in self.spans)
        own = self.self_times()
        out = {name: sum(own.get(n, 0.0) for n in names)
               for name, names in _SELF_TIME.items()}
        built = len(self.labels)
        choi = [n for n in calls if n.startswith("ChoiMap.")]
        choi += [f"cpmaps.{f}" for f in _CHOI_FUNCS]
        out.update({
            "hermspace.svd_calls": calls["numpy.linalg.svd"],
            "hermspace.null_space_calls": calls["scipy.linalg.null_space"],
            "hermspace.factor_flop_est": self.flops,
            "hermspace.factor_max_mb": self.max_bytes / 1e6,
            "hermspace.eig_calls": sum(calls[n] for n in _EIG),
            "causobj.objects_built": built,
            "causobj.distinct_ratio": len(set(self.labels)) / built if built else 0.0,
            "cpmaps.choi_ops": sum(calls[n] for n in choi),
            "cpmaps.choi_s": sum(own.get(n, 0.0) for n in choi),
            "signalling.certificate_ok_ratio": (
                self.certificates_ok / self.certificates if self.certificates else 0.0),
            "sampling.draws_per_sample": (
                calls["sampling.random_density"] / calls["sampling.sample_member"]
                if calls["sampling.sample_member"] else 0.0),
        })
        return out

    def write(self, path) -> None:
        """One JSON line per span: op, id, parent, name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
