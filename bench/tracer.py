"""Spans recorded from outside the library, and the per-layer table built from them.

The tracer replaces each traced function with a wrapper in every module of
the package that holds a reference to it, so a call is recorded whichever
name it was reached through (`estimators.apply_poly` and
`qsvtpoly.apply_poly` are one function).  A span is (name, start, end,
parent index); a layer's self time is its span minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

# Functions wrapped in a traced run, as "<module>.<name>" under the package.
# A dotted name with a class ("blockenc.BlockEncoding") traces the class's
# __post_init__, the constructor's invariant checks.
TRACED = (
    "cli.main",
    "estimators.renyi_integer",
    "estimators.renyi_case_odd",
    "estimators.renyi_case_even",
    "estimators.renyi_sub_one",
    "estimators.vn_qsvt",
    "estimators.vn_poly",
    "estimators.measure_p0",
    "accountant.delta_budget",
    "accountant.predicted_samples",
    "states.random_density",
    "states.from_spectrum",
    "states.exact_entropies",
    "blockenc.BlockEncoding",
    "blockenc.encode_density",
    "blockenc.encode_state_side",
    "blockenc.be_power",
    "blockenc.be_product",
    "blockenc.rescale",
    "qsvtpoly.cheb_fit",
    "qsvtpoly.apply_poly",
    "qsvtpoly.to_monomial",
    "numkernel.hermitian_eig",
    "numkernel.op_norm_dist",
)

# Arguments that make two fits the same fit; reuse_frac counts repeats.
FIT_KEY = ("target_tag", "lo", "hi", "eps", "k_cap")


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.fit_keys: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, key_of=None):
        clock, spans, stack = self.clock, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_of is not None:
                self.fit_keys.append(key_of(args, kwargs))
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        wrapper.__bench_original__ = fn
        return wrapper

    def install(self, package: types.ModuleType) -> list[tuple[str, object]]:
        """Wrap every TRACED function in every namespace that imported it.

        Returns (place, original) pairs for references a module-level
        replacement cannot reach (class attributes, defaults, closures); an
        empty list means every call goes through a wrapper.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        wrappers = {}
        for dotted in TRACED:
            mod_name, _, attr = dotted.partition(".")
            owner = sys.modules[f"{package.__name__}.{mod_name}"]
            obj = getattr(owner, attr)
            if isinstance(obj, type):
                obj.__post_init__ = self.wrap(dotted, obj.__post_init__)
                continue
            key_of = None
            if attr == "cheb_fit":
                sig = inspect.signature(obj)

                def key_of(args, kwargs, sig=sig):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    return tuple(bound.arguments[k] for k in FIT_KEY)

            wrappers[id(obj)] = (obj, self.wrap(dotted, obj, key_of))

        def is_original(value):
            return id(value) in wrappers and wrappers[id(value)][0] is value

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if is_original(value):
                    setattr(mod, attr, wrappers[id(value)][1])
        return [(where, value) for mod in modules for where, value in _references(mod)
                if is_original(value)]


def _references(mod: types.ModuleType):
    """Module globals, class attributes, and function defaults and closure
    cells: the places a call can be reached from without a global lookup."""
    for attr, value in vars(mod).items():
        where = f"{mod.__name__}.{attr}"
        yield where, value
        if isinstance(value, type) and value.__module__ == mod.__name__:
            for name, member in vars(value).items():
                yield f"{where}.{name}", member
        if isinstance(value, types.FunctionType) and not hasattr(value, "__bench_original__"):
            for held in (value.__defaults__ or ()) + tuple((value.__kwdefaults__ or {}).values()):
                yield f"{where} (default)", held
            for cell in value.__closure__ or ():
                yield f"{where} (closure)", cell.cell_contents


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per-name calls, inclusive total_s and self_s."""
    table: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table


def reuse_frac(keys) -> float:
    """Share of calls whose key an earlier call already had (0 with no calls)."""
    if not keys:
        return 0.0
    return (len(keys) - len(set(keys))) / len(keys)


def root_time(spans) -> float:
    """Wall time covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
