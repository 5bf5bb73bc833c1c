"""Span tracer that wraps fbmlab's public functions from the outside.

The benchmark never edits the package.  `Tracer.install` replaces each
function in `WRAPPED` in every fbmlab module namespace that holds it, which
is where callers look it up at call time (`fbmlab.cli.holder_norm`,
`fbmlab.calibration.holder_norm`, ... all point at one wrapper).  Each call
becomes a span: id, parent id, name, start, end and an info dict filled by
an optional hook.  A layer's self time is its spans' durations minus the
parts covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc

# layer (= fbmlab module) -> the functions the workloads enter, timed as
# spans; the private names are the transport solver branches
WRAPPED = {
    "fbm": ("sample_fbm_circulant_batch", "sample_fbm_circulant",
            "sample_fbm_transfer", "transfer_kernel_matrix"),
    "grid": ("holder_seminorm_ensemble", "holder_norm"),
    "sde": ("euler_additive_ensemble", "solve_additive", "solve_scalar",
            "solve_scalar_via_lamperti", "drift_coupled_pair"),
    "fractional": ("young_integral_rs", "young_integral_frac",
                   "lemma_esti_int_check", "operator_kh"),
    "transport": ("pairwise_cost_matrix", "wasserstein_empirical",
                  "_transport_lp", "_sinkhorn"),
    "concentration": ("verify_fernique", "verify_hoeffding_small_time",
                      "verify_hoeffding_large_time", "tail_constant_scaling",
                      "pair_distances", "estimate_t1_constant",
                      "gaussian_tail_c_delta", "phi_argmax", "phi_link"),
    "calibration": ("kappa_analytic", "kappa_empirical", "calibrate_k_hat",
                    "run_calibration"),
    "pathio": ("write_path_csv", "write_path_binary", "read_path_csv",
               "read_path_binary", "write_json_report", "tail_report_csv"),
    "config": ("load_config",),
    "cli": ("main", "cmd_sample", "cmd_solve", "cmd_verify", "cmd_calibrate"),
}
LAYERS = tuple(WRAPPED)

# name of the exact-assignment span; scipy's function is reached through the
# `optimize` module attribute of fbmlab.transport
LSA_SPAN = "transport.linear_sum_assignment"


class _ModuleView:
    """Stands in for a module attribute, overriding some of its names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _hook_circulant_batch(fn, args, kwargs, result, info):
    a = _bound(fn, args, kwargs)
    grid = a["grid"]
    info["key"] = (int(a["seed"]), grid.t_max, grid.n_steps, a["h"].h,
                   int(a["component"]))
    info["n_paths"] = int(a["n_paths"])


def _hook_transfer_kernel(fn, args, kwargs, result, info):
    a = _bound(fn, args, kwargs)
    info["key"] = (a["grid"].t_max, a["grid"].n_steps, a["h"].h)


def _hook_holder_ensemble(fn, args, kwargs, result, info):
    info["shape"] = tuple(_bound(fn, args, kwargs)["paths"].shape)


def _hook_cost_matrix(fn, args, kwargs, result, info):
    a = _bound(fn, args, kwargs)
    n, t, d = a["mu"].paths.shape
    info["shape"] = (n, a["nu"].paths.shape[0], t, d)


def _hook_sinkhorn(fn, args, kwargs, result, info):
    info["primal"], info["gap"] = (float(v) for v in result)


def _hook_file_written(fn, args, kwargs, result, info):
    info["bytes"] = os.path.getsize(_bound(fn, args, kwargs)["path"])


HOOKS = {
    "fbm.sample_fbm_circulant_batch": _hook_circulant_batch,
    "fbm.transfer_kernel_matrix": _hook_transfer_kernel,
    "grid.holder_seminorm_ensemble": _hook_holder_ensemble,
    "transport.pairwise_cost_matrix": _hook_cost_matrix,
    "transport._sinkhorn": _hook_sinkhorn,
    "pathio.write_path_csv": _hook_file_written,
    "pathio.write_path_binary": _hook_file_written,
    "pathio.write_json_report": _hook_file_written,
}
# spans whose peak Python-visible allocation is measured with tracemalloc
PEAK_ALLOC = {"transport.pairwise_cost_matrix"}


class Span:
    __slots__ = ("sid", "parent", "name", "phase", "t0", "t1", "info")

    def __init__(self, sid, parent, name, phase, t0):
        self.sid, self.parent, self.name, self.phase = sid, parent, name, phase
        self.t0, self.t1, self.info = t0, t0, {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans while `phase` is set; installs and removes wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        peak = name in PEAK_ALLOC

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name, self.phase, 0.0)
            self.spans.append(span)
            self._stack.append(span.sid)
            if peak:
                tracemalloc.start()
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                if peak:
                    span.info["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if hook is not None:
                hook(fn, args, kwargs, result, span.info)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "fbmlab" or n.startswith("fbmlab.")) and m is not None]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"fbmlab.{layer}"]
            for attr in names:
                orig = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapper)
        transport = sys.modules["fbmlab.transport"]
        opt = transport.optimize
        self._patch(transport, "optimize", _ModuleView(
            opt, linear_sum_assignment=self._wrap(LSA_SPAN, opt.linear_sum_assignment)))

    def _patch(self, mod, key, new):
        self._patched.append((mod, key, getattr(mod, key)))
        setattr(mod, key, new)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def select(self, phase: str | None = None, name: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if (phase is None or s.phase == phase)
                and (name is None or s.name == name)]

    def self_times(self) -> dict[str, float]:
        """Self time per layer, over every recorded span."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.dur
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            out[s.layer] += s.dur - covered[s.sid]
        return out
