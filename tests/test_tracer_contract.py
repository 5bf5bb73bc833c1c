"""The benchmark's span tracer wraps fbmlab functions by name and binds some
of their parameters by name; pruning the API must not break `--trace 1`."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# parameters each hook of bench/tracing.py binds by name
HOOK_PARAMS = {
    "fbm.sample_fbm_circulant_batch": ("grid", "h", "n_paths", "seed", "component"),
    "fbm.transfer_kernel_matrix": ("grid", "h"),
    "grid.holder_seminorm_ensemble": ("paths",),
    "transport.pairwise_cost_matrix": ("mu", "nu"),
    "transport._sinkhorn": (),
    "pathio.write_path_csv": ("path",),
    "pathio.write_path_binary": ("path",),
    "pathio.write_json_report": ("path",),
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_wrapped_names_exist():
    tracing = _load_tracing()
    missing = [f"{layer}.{name}" for layer, names in tracing.WRAPPED.items()
               for name in names
               if not hasattr(importlib.import_module(f"fbmlab.{layer}"), name)]
    assert missing == []
    assert callable(importlib.import_module("fbmlab.transport").optimize.linear_sum_assignment)


def test_component_rng_signature():
    # bench/run.py times the per-path stream setup through this accessor
    fn = importlib.import_module("fbmlab.fbm").component_rng
    assert tuple(inspect.signature(fn).parameters) == ("seed", "path_index", "component")


def test_hook_parameters_in_signatures():
    tracing = _load_tracing()
    assert set(tracing.HOOKS) == set(HOOK_PARAMS)
    for qualified, params in HOOK_PARAMS.items():
        layer, name = qualified.split(".")
        fn = getattr(importlib.import_module(f"fbmlab.{layer}"), name)
        assert set(params) <= set(inspect.signature(fn).parameters), qualified
