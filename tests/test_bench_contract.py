"""The benchmark's pathwise workload drives the single-path API by name and
keyword; pruning that API must not turn into failed benchmark operations."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
LAB_MODULES = ("cli", "config", "fbm", "grid", "sde", "fractional", "transport",
               "concentration", "calibration", "pathio", "fixtures")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_pathwise_pass_has_no_failed_operations(tmp_path):
    workloads = _load_workloads()
    lab = SimpleNamespace(**{m: importlib.import_module(f"fbmlab.{m}")
                             for m in LAB_MODULES})
    wl = workloads.Pathwise(lab, 0, str(tmp_path))
    wl.setup()
    tally = workloads.Tally()
    wl.check(wl.run_pass(tally), tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.errors + tally.wrong
