"""Span tracer for the traced benchmark run.

The package is not edited: after import, the worker replaces the public
functions of each freefock module with wrappers, in every freefock module
that imported them, plus a few methods and numpy's eigh.  A wrapper records
a span (calls, inclusive and self time; self time is the span minus the
spans of its children) and, for the size-scaling layers, a per-call row
(key, n, d, p, seconds).  Hot leaf functions only count calls, because a
timed wrapper would cost more than their body.  GROUPS and SCALING say
which keys each per-layer metric reads; a key of theirs (REQUIRED) that
no longer exists is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "words", "fock", "series", "pluriharmonic", "transforms", "toeplitz",
    "linalg", "caratheodory", "jsonio", "cli", "selftest",
)

COUNT_ONLY = {
    "words.right_quotient", "words.left_quotient", "words.validate_word",
    "words.word_to_string", "words.word_from_string", "words.reverse",
    "fock.word_operator", "linalg.adjoint", "linalg.as_cmatrix", "linalg.frobenius",
    "jsonio.complex_to_json", "jsonio.json_to_complex", "jsonio.matrix_to_json",
    "jsonio.json_to_matrix",
}

# per-layer metric stem -> tracer keys summed into it
GROUPS = {
    "toeplitz.assemble_T": ["toeplitz.assemble_T"],
    "fock.shift_matrix": ["fock.shift_matrix"],
    "linalg.kron": ["linalg.kron"],
    "caratheodory.extend": ["caratheodory.extend"],
    "linalg.eigh": ["linalg.eigh"],
    "toeplitz.project_affine": ["toeplitz.project_affine"],
    "toeplitz.orbit_structure": ["toeplitz.orbit_structure"],
    "words.quotient": ["words.right_quotient", "words.left_quotient"],
    "words.GradedBasis": ["words.GradedBasis"],
    "caratheodory.check_feasibility": ["caratheodory.check_feasibility"],
    "caratheodory.verify_solution": ["caratheodory.verify_solution"],
    "fock.poisson_kernel": ["fock.poisson_kernel"],
    "fock.poisson_transform": ["fock.poisson_transform", "fock.poisson_transform_block",
                               "fock.poisson_transform_word_symbol"],
    "pluriharmonic.radial_boundary": ["pluriharmonic.radial_boundary"],
    "series.eval": ["series.eval_report"],
    "series.eval_at_creation": ["series.eval_at_creation"],
    "series.cayley": ["series.cayley_forward", "series.cayley_inverse"],
    "series.multiply": ["series.multiply"],
    "series.truncated_cayley": ["series.truncated_cayley"],
    "fock.get_trunc": ["fock.get_trunc"],
    "fock.word_operator": ["fock.word_operator"],
    "jsonio.load": ["jsonio.load_json", "jsonio.json_to_problem", "jsonio.json_to_series",
                    "jsonio.json_to_tuple", "jsonio.json_to_pluriharmonic"],
    "jsonio.dump": ["jsonio.write_json_atomic", "jsonio.extension_to_json",
                    "jsonio.series_to_json"],
    "transforms.from_vector_states": ["transforms.from_vector_states"],
    "transforms.positivity_equivalence": ["transforms.positivity_equivalence_check"],
    "pluriharmonic.checks": ["pluriharmonic.check_positive", "pluriharmonic.coefficient_bound_check",
                             "pluriharmonic.harnack_check", "pluriharmonic.mean_value_check",
                             "pluriharmonic.is_multi_toeplitz"],
    "caratheodory.reduction": ["caratheodory.cayley_route", "caratheodory.cf_check",
                               "caratheodory.cf_to_caratheodory", "caratheodory.cf_matrix"],
}

# scaling.<name>.slope -> tracer keys whose per-call rows it fits
SCALING = {
    "assemble_T": ["toeplitz.assemble_T"],
    "eigh": ["linalg.eigh"],
    "kron": ["linalg.kron"],
    "poisson_transform": GROUPS["fock.poisson_transform"],
    "eval_at_creation": ["series.eval_at_creation"],
}

# Every key a per-layer metric reads; a missing one is reported absent.
REQUIRED = tuple(sorted(
    {k for keys in GROUPS.values() for k in keys}
    | {k for keys in SCALING.values() for k in keys}
    | {"cli.main", "selftest.run_suite"}
))


def _tuple_arg(args):
    return next(a for a in args if hasattr(a, "matrices"))


# key -> (args, result) -> (n, d, p); these keys get per-call rows.
SIZES = {
    "toeplitz.assemble_T": lambda a, r: (a[1], r.basis.size, r.block_size),
    "linalg.eigh": lambda a, r: (0, a[0].shape[-1], 1),
    "linalg.kron": lambda a, r: (0, max(r.shape), 1),
    "fock.poisson_transform": lambda a, r: (a[0].n, a[0].dim, _tuple_arg(a).dim),
    "fock.poisson_transform_block": lambda a, r: (a[0].n, a[0].dim, _tuple_arg(a).dim),
    "fock.poisson_transform_word_symbol": lambda a, r: (a[0].n, a[0].dim, _tuple_arg(a).dim),
    "series.eval_at_creation": lambda a, r: (a[0].n, r.shape[0] // a[0].shape[0], a[0].shape[0]),
}

# key -> result -> bytes written (computed from output sizes).
BYTES = {
    "linalg.kron": lambda r: r.nbytes,
    "fock.shift_matrix": lambda r: r.nbytes,
}

# key -> result -> extra count (Dykstra iterations of extend).
EXTRA = {
    "caratheodory.extend": lambda r: r.certificate.get("iterations", 0),
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "bytes", "hits", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.bytes = 0
        self.hits = 0
        self.extra = 0

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.rows = []
        self.per_request = {}
        self.unreadable = set()  # keys whose size, bytes or extra failed to read
        self._request = None
        self._stack = [0.0]

    def begin_request(self, rid):
        """Attribute the self time of the following spans to request rid
        (None stops attributing)."""
        self._request = None if rid is None else self.per_request.setdefault(rid, {})

    # -- wrappers -----------------------------------------------------------

    def _counted(self, key, fn):
        stat = self.stats.setdefault(key, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        layer = key.split(".")[0]
        stack = self._stack
        rows = self.rows
        clock = time.perf_counter
        size = SIZES.get(key)
        nbytes = BYTES.get(key)
        extra = EXTRA.get(key)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                stack[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += own
                req = self._request
                if req is not None:
                    req[layer] = req.get(layer, 0.0) + own
            if cache_info:
                stat.hits += cache_info().hits - hits
            # a later signature change must not break the traced program
            try:
                if size:
                    rows.append((key, *size(args, result), elapsed))
                if nbytes:
                    stat.bytes += nbytes(result)
                if extra:
                    stat.extra += extra(result)
            except (AttributeError, IndexError, KeyError, TypeError, StopIteration):
                self.unreadable.add(key)
            return result

        return wrapper

    def _wrap(self, key, fn):
        return (self._counted if key in COUNT_ONLY else self._timed)(key, fn)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public function of each layer in every freefock module
        that holds a reference to it, plus the listed methods and eigh."""
        holders = [m for name, m in sys.modules.items()
                   if name == "freefock" or name.startswith("freefock.")]
        for layer in LAYERS:
            mod = sys.modules.get(f"freefock.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{name}", obj)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, attr, wrapped)
        self._wrap_method("freefock.fock", "FockTrunc", "_shift_matrix", "fock.shift_matrix")
        self._wrap_method("freefock.words", "GradedBasis", "__init__", "words.GradedBasis")
        np.linalg.eigh = self._wrap("linalg.eigh", np.linalg.eigh)

    def _wrap_method(self, module, cls_name, attr, key):
        cls = getattr(sys.modules.get(module), cls_name, None)
        fn = getattr(cls, attr, None) if cls is not None else None
        if fn is not None:
            setattr(cls, attr, self._wrap(key, fn))

    # -- results ------------------------------------------------------------

    def absent(self):
        return [key for key in REQUIRED if key not in self.stats]

    def report(self):
        return {
            "stats": {k: s.as_dict() for k, s in self.stats.items()},
            "rows": self.rows,
            "per_request": self.per_request,
            "absent": self.absent(),
            "unreadable": sorted(self.unreadable),
        }
