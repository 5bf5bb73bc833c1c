"""The benchmark's pathwise workload drives the single-path API by name and
keyword, and its campaign workload runs `fbmlab verify`; pruning that API or
rewiring the verifiers must not turn into failed benchmark operations, nor
leave a span that `bench/run.py` reads unentered under `--trace 1`.  The
same holds for the transport workload and the solver spans it enters."""

import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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


def _lab():
    """fbmlab's modules by layer name, all imported, as the tracer needs."""
    return SimpleNamespace(**{m: importlib.import_module(f"fbmlab.{m}") for m in LAB_MODULES})


def _campaign_reads():
    """Span names whose spans `bench/run.py` `per_layer` reduces over the
    traced campaign pass (a median, a path-count ratio, a sum of cost
    models); a name never entered makes that reduction raise, and
    `--trace 1` with it."""
    source = (BENCH / "run.py").read_text()
    return set(re.findall(r'(?:spans|median_ms)\(\s*"campaign",\s*"([^"]+)"\s*\)', source))


def _transport_reads():
    """Span names whose spans `bench/run.py` `per_layer` indexes or reduces
    over the traced transport pass (the cost models and peak allocations of
    the cost matrices, the primal of the last Sinkhorn call); a name never
    entered makes that read raise, and `--trace 1` with it.  Its `total`
    reads (LSA, LP) sum to 0 when not entered."""
    source = (BENCH / "run.py").read_text()
    return set(re.findall(r'spans\(\s*"transport",\s*"([^"]+)"\s*\)', source))


def test_transport_pass_enters_the_spans_per_layer_reads(tmp_path, monkeypatch):
    # counting stubs stand in for the solvers, so the pass costs its three
    # cost matrices only; each case must still reach one solver call
    tr, calls = _lab().transport, Counter()

    def stub(name, result):
        def solver(cost):
            calls[name] += 1
            return result(cost)
        return solver

    monkeypatch.setattr(tr, "optimize", SimpleNamespace(linear_sum_assignment=stub(
        "lsa", lambda cost: (np.arange(len(cost)), np.arange(len(cost))))))
    monkeypatch.setattr(tr, "_transport_lp", stub("lp", lambda cost: 1.0))
    monkeypatch.setattr(tr, "_sinkhorn", stub("sinkhorn", lambda cost: (1.0, 0.0)))
    workloads = _load("bench_workloads", WORKLOADS)
    tracer = _load("bench_tracing", BENCH / "tracing.py").Tracer()
    wl = workloads.Transport(_lab(), 0, str(tmp_path))
    wl.setup()
    tally = workloads.Tally()
    tracer.install()
    try:
        tracer.phase = "transport"
        wl.run_pass(tally)
    finally:
        tracer.phase = None
        tracer.uninstall()
    assert tally.attempted == len(wl.CASES) and tally.failed == 0, tally.errors
    assert sum(calls.values()) == len(wl.CASES) and calls["sinkhorn"] == 1, calls
    reads = _transport_reads()
    assert reads == {"transport.pairwise_cost_matrix", "transport._sinkhorn"}
    entered = {s.name for s in tracer.select("transport")}
    assert reads <= entered, sorted(reads - entered)
    cost = tracer.select("transport", "transport.pairwise_cost_matrix")
    assert len(cost) == len(wl.CASES) and all("peak_alloc" in s.info for s in cost)
    assert tracer.select("transport", "transport._sinkhorn")[-1].info["primal"] == 1.0


def test_traced_verify_enters_the_campaign_spans(tmp_path):
    tracer = _load("bench_tracing", BENCH / "tracing.py").Tracer()
    cli = _lab().cli
    ini = tmp_path / "c.ini"
    ini.write_text("[grid]\nt_max = 0.5\nn_steps = 32\n"
                   "[verify]\nn_paths = 200\nhorizons = 1,2\n")
    tracer.install()
    try:
        tracer.phase = "campaign"
        cli.main(["verify", "--config", str(ini), "--out", str(tmp_path / "out")])
    finally:
        tracer.phase = None
        tracer.uninstall()
    reads = _campaign_reads()
    assert reads == {"fbm.sample_fbm_circulant_batch", "grid.holder_seminorm_ensemble",
                     "grid.holder_norm"}  # the parse still finds run.py's reads
    entered = {s.name for s in tracer.select("campaign")}
    assert reads <= entered, sorted(reads - entered)
    batch = tracer.select("campaign", "fbm.sample_fbm_circulant_batch")
    assert sum(s.info["n_paths"] for s in batch) > 0


def test_pathwise_pass_has_no_failed_operations(tmp_path):
    workloads = _load("bench_workloads", WORKLOADS)
    tracer = _load("bench_tracing", BENCH / "tracing.py").Tracer()
    lab = _lab()
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
