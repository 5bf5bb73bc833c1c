"""The benchmark's pathwise workload drives the single-path API by name and
keyword; pruning that API must not turn into failed benchmark operations,
nor leave a span that `bench/run.py` reads unentered under `--trace 1`."""

import importlib
import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = BENCH / "workloads.py"
LAB_MODULES = ("cli", "config", "fbm", "grid", "sde", "fractional", "transport",
               "concentration", "calibration", "pathio", "fixtures")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _pathwise_medians():
    """Span names whose median duration `bench/run.py` `per_layer` takes
    over the traced pathwise pass; a name never entered makes that median
    raise, and `--trace 1` with it."""
    source = (BENCH / "run.py").read_text()
    return set(re.findall(r'median_ms\(\s*"pathwise",\s*"([^"]+)"\s*\)', source))


def test_pathwise_pass_has_no_failed_operations(tmp_path):
    workloads = _load("bench_workloads", WORKLOADS)
    tracer = _load("bench_tracing", BENCH / "tracing.py").Tracer()
    lab = SimpleNamespace(**{m: importlib.import_module(f"fbmlab.{m}")
                             for m in LAB_MODULES})
    wl = workloads.Pathwise(lab, 0, str(tmp_path))
    wl.setup()
    tally = workloads.Tally()
    tracer.install()
    try:
        tracer.phase = "pathwise"
        out = wl.run_pass(tally)
    finally:
        tracer.phase = None
        tracer.uninstall()
    wl.check(out, tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.errors + tally.wrong
    medians = _pathwise_medians()
    assert len(medians) >= 7  # the parse still finds run.py's calls
    entered = {s.name for s in tracer.select("pathwise")}
    assert medians <= entered, sorted(medians - entered)
