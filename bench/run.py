"""fbmlab benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload campaign|transport|pathwise \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the workload's passes run untraced and the last
stdout line is the JSON result with the end-to-end metrics.  With
`--trace 1` every workload runs one untraced and one traced pass (so
every per-layer metric is measured on the workload it belongs to, whatever
`--workload` names) and the last line carries the per-layer metrics.
Earlier lines are a human-readable table, the environment record and a
`bench-detail` JSON line that bench/report.py reads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

SETUP_REPS = 9   # set-up repeats per run; setup_s is their median
# The machine's speed drifts by up to 90% for seconds to minutes at a time.
# So every timed unit (a set-up, and a program call or a whole pass, as the
# workload's SCALED_UNIT says) runs between two runs of a fixed reference
# computation of about 0.15 s, and its time is scaled to the speed at which
# that computation takes REF_NOMINAL_S, its usual time on the 2-vCPU build
# VM in a fast spell.
REF_NOMINAL_S = 0.14
MIN_PASSES = 2   # reports are compared byte for byte across passes
LAB_MODULES = ("cli", "config", "fbm", "grid", "sde", "fractional", "transport",
               "concentration", "calibration", "pathio", "fixtures")
# imported once before any timed set-up, so setup_s times fbmlab itself
THIRD_PARTY = ("numpy", "scipy.special", "scipy.stats", "scipy.optimize",
               "scipy.integrate", "scipy.sparse")


def quartiles(values) -> dict:
    vals = sorted(values)
    q1, med, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                   if len(vals) > 1 else vals * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def import_lab() -> SimpleNamespace:
    """Import fbmlab afresh: drop it from the module table, then import."""
    for name in [n for n in sys.modules if n == "fbmlab" or n.startswith("fbmlab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"fbmlab.{m}")
                              for m in LAB_MODULES})


class Reference:
    """A fixed computation that no change to fbmlab can alter: a pure-Python
    loop, FFTs and a memory-bound numpy pass, in about equal shares."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.small, self.big = rng.standard_normal(1 << 16), rng.standard_normal(1 << 20)
        self.times: list[float] = []

    def run(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc += i * i % 7
        for _ in range(24):
            np.fft.irfft(np.fft.rfft(self.small))
        for _ in range(12):
            np.abs(self.big - self.big[::-1]).max()
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    @staticmethod
    def scale(raw: float, before: float, after: float) -> float:
        """`raw` seconds at the speed of the reference runs `before` and
        `after` it, as seconds at the nominal speed."""
        return raw * REF_NOMINAL_S / ((before + after) / 2)

    def last(self) -> float:
        """The latest reference time, which also serves as the one before
        the next unit: units follow one another with little in between."""
        return self.times[-1] if self.times else self.run()

    def timed(self, fn):
        """Run fn(); returns (its result, raw seconds, scaled seconds)."""
        before = self.last()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return result, raw, self.scale(raw, before, self.run())


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import numpy as np
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def untraced_run(workload, seed, seconds, work):
    from workloads import WORKLOADS, Tally
    ref = Reference()
    raw = {"wall_s": [], "setup_s": []}
    scaled = {"wall_s": [], "setup_s": []}

    def timed(name, fn):
        result, r, sc = ref.timed(fn)
        raw[name].append(r)
        scaled[name].append(sc)
        return result

    def set_up():
        def fresh():
            wl = WORKLOADS[workload](import_lab(), seed, work)
            wl.setup()
            return wl
        return timed("setup_s", fresh)

    # set-ups are timed before and after the passes, so that their median
    # samples the machine's speed at both ends of the run
    for _ in range(SETUP_REPS - SETUP_REPS // 2):
        wl = set_up()
    per_op = wl.SCALED_UNIT == "op"
    tally = Tally(ref if per_op else None)
    t_start = time.perf_counter()
    # a pass starts only if it should end within `seconds`, so a run of
    # long passes does not overshoot by most of a pass
    while (len(raw["wall_s"]) < MIN_PASSES or time.perf_counter() - t_start
           + statistics.median(raw["wall_s"]) <= seconds):
        if per_op:
            op_raw, op_scaled = tally.op_raw_s, tally.op_scaled_s
            out = wl.run_pass(tally)
            raw["wall_s"].append(tally.op_raw_s - op_raw)
            scaled["wall_s"].append(tally.op_scaled_s - op_scaled)
        else:
            out = timed("wall_s", lambda: wl.run_pass(tally))
        wl.check(out, tally)
        shutil.rmtree(os.path.join(work, f"pass{wl.passes}"), ignore_errors=True)
    for _ in range(SETUP_REPS // 2):
        set_up()
    timings = dict(scaled)
    timings.update({f"raw_{k}": v for k, v in raw.items()})
    timings["reference_s"] = ref.times
    timings.update({k: v for k, v in tally.times.items()
                    if k.startswith("w_") or k == "calibrate_s"})
    detail = {k: quartiles(v) for k, v in timings.items()}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["peak_rss_mib"] = {"median": rss, "q1": rss, "q3": rss, "n": 1}
    detail["failed_share"] = {"median": tally.failed / tally.attempted, "n": tally.attempted}
    metrics = as_metrics({"wall_s": detail["wall_s"]["median"],
                          "setup_s": detail["setup_s"]["median"],
                          "peak_rss_mib": rss}, "end_to_end")
    return tally, metrics, detail


def _holder_model(shape):
    """Computed bytes and operations of holder_seminorm_ensemble on
    (P, n): per lag, a difference, abs and row max over the P x (n - lag)
    overlap, each temporary written once and read once."""
    p, n = shape
    pairs = p * n * (n - 1) / 2
    return 8.0 * (6 * pairs + 5 * p * (n - 1)), 3 * pairs + 2 * p * (n - 1)


def _cost_model(shape):
    """Computed bytes and operations of pairwise_cost_matrix under d_inf on
    (n, m, T, d): difference, conj, square, sum over d, sqrt, max over T,
    power, each temporary written once and read once."""
    n, m, t, d = shape
    e, nm = n * m * t * d, n * m
    return 8.0 * (9 * e + 3 * e / d + 4 * nm), 3 * e + 2 * e / d + nm


def per_layer(tracer, lab, wls, verifier_s, walls) -> dict:
    spans = tracer.select

    def total(phase, name):
        return sum(s.dur for s in spans(phase, name))

    def median_ms(phase, name):
        return 1e3 * statistics.median(s.dur for s in spans(phase, name))

    out = {}
    batch = spans("campaign", "fbm.sample_fbm_circulant_batch")
    requested = sum(s.info["n_paths"] for s in batch)
    widest: dict = {}
    for s in batch:
        widest[s.info["key"]] = max(widest.get(s.info["key"], 0), s.info["n_paths"])
    t0 = time.perf_counter()
    for s in batch:
        seed, _, _, _, comp = s.info["key"]
        for i in range(s.info["n_paths"]):
            lab.fbm.component_rng(seed, i, comp)
    out["fbm.rng_setup.s"] = time.perf_counter() - t0
    out["fbm.circulant_batch.s"] = sum(s.dur for s in batch)
    out["fbm.circulant_batch.paths"] = requested
    out["fbm.distinct_path_ratio"] = sum(widest.values()) / requested
    out["fbm.circulant_single.ms"] = median_ms("pathwise", "fbm.sample_fbm_circulant")
    out["fbm.transfer.ms"] = median_ms("pathwise", "fbm.sample_fbm_transfer")
    kern = spans("pathwise", "fbm.transfer_kernel_matrix")
    out["fbm.transfer_kernel.calls"] = len(kern)
    out["fbm.transfer_kernel.s"] = sum(s.dur for s in kern)
    out["fbm.transfer_kernel.distinct_ratio"] = len({s.info["key"] for s in kern}) / len(kern)

    hold = spans("campaign", "grid.holder_seminorm_ensemble")
    h_bytes, h_ops = map(sum, zip(*(_holder_model(s.info["shape"]) for s in hold)))
    out["grid.holder_ensemble.s"] = sum(s.dur for s in hold)
    out["grid.holder_ensemble.gb_computed"] = h_bytes / 1e9
    out["grid.holder_ensemble.gb_per_s"] = h_bytes / 1e9 / out["grid.holder_ensemble.s"]
    out["grid.holder_ensemble.ops_per_byte"] = h_ops / h_bytes
    out["grid.holder_norm.calls"] = len(spans("campaign", "grid.holder_norm"))
    out["grid.holder_norm.ms"] = median_ms("campaign", "grid.holder_norm")

    out["sde.euler_ensemble.s"] = total("campaign", "sde.euler_additive_ensemble")
    out["sde.scalar.ms"] = median_ms("pathwise", "sde.solve_scalar")
    out["sde.lamperti.ms"] = median_ms("pathwise", "sde.solve_scalar_via_lamperti")
    out["sde.coupled_pair.ms"] = median_ms("pathwise", "sde.drift_coupled_pair")
    out["fractional.young_frac.ms"] = median_ms("pathwise", "fractional.young_integral_frac")
    out["fractional.esti_int_check.ms"] = median_ms("pathwise",
                                                    "fractional.lemma_esti_int_check")

    cost = spans("transport", "transport.pairwise_cost_matrix")
    c_bytes, c_ops = map(sum, zip(*(_cost_model(s.info["shape"]) for s in cost)))
    out["transport.cost_matrix.s"] = sum(s.dur for s in cost)
    out["transport.cost_matrix.peak_alloc_mib"] = max(
        s.info["peak_alloc"] for s in cost) / 2**20
    out["transport.cost_matrix.gb_computed"] = c_bytes / 1e9
    out["transport.cost_matrix.ops_per_byte"] = c_ops / c_bytes
    out["transport.lsa.s"] = total("transport", "transport.linear_sum_assignment")
    out["transport.lp.s"] = total("transport", "transport._transport_lp")
    out["transport.sinkhorn.s"] = total("transport", "transport._sinkhorn")
    sink = spans("transport", "transport._sinkhorn")
    out["transport.entropic_rel_excess"] = (
        sink[-1].info["primal"] / wls["transport"].oracle_cost("entropic") - 1.0)

    for layer, self_s in tracer.self_times().items():
        out[f"{layer}.self_s"] = self_s
    for name, sec in verifier_s.items():
        out[f"cli.verifier.{name}.s"] = sec
    writes = [s for s in spans("pathwise")
              if s.name in ("pathio.write_path_csv", "pathio.write_path_binary",
                            "pathio.write_json_report")]
    out["pathio.write.s"] = sum(s.dur for s in writes)
    out["pathio.bytes_written"] = sum(s.info["bytes"] for s in writes)
    out["pathio.read.s"] = (total("pathwise", "pathio.read_path_csv")
                            + total("pathwise", "pathio.read_path_binary"))
    for fn in ("kappa_empirical", "calibrate_k_hat", "kappa_analytic"):
        out[f"calibration.{fn}.s"] = total("pathwise", f"calibration.{fn}")
    out["config.load.s"] = statistics.median(s.dur for s in spans(name="config.load_config"))
    for name in wls:
        out[f"trace.{name}.wall_s"] = walls[name, name]
        out[f"trace.{name}.overhead_s"] = walls[name, name] - walls[name, None]
    return out


def as_metrics(values: dict, kind: str) -> dict:
    """Result metrics in BENCHMARK.json's order and units; `kind` is
    "end_to_end" or "per_layer"."""
    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def traced_run(seed, work):
    from tracing import Tracer
    from workloads import VERIFIERS, WORKLOADS, Tally
    lab = import_lab()
    wls = {}
    for name, cls in WORKLOADS.items():
        wls[name] = cls(lab, seed, os.path.join(work, name))
        wls[name].setup()
    tracer = Tracer()
    tally = Tally()
    walls = {}
    tracer.install()
    try:
        for name, wl in wls.items():
            # an untraced pass right before the traced one gives the overhead
            for phase in (None, name):
                tracer.phase = phase
                t0 = time.perf_counter()
                out = wl.run_pass(tally)
                walls[name, phase] = time.perf_counter() - t0
                tracer.phase = None
                wl.check(out, tally)
    finally:
        tracer.phase = None
        tracer.uninstall()
    # the campaign's first, untraced pass times each verifier on its own
    verifier_s = {v: tally.times[f"verify_{v}"][0] for v in VERIFIERS}
    values = per_layer(tracer, lab, wls, verifier_s, walls)
    metrics = as_metrics(values, "per_layer")
    detail = {"spans": len(tracer.spans)}
    return tally, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("campaign", "transport", "pathwise"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "fbmlab" / "__init__.py").is_file():
        print(f"bench: no fbmlab sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for mod in THIRD_PARTY:
        importlib.import_module(mod)
    import_lab()  # compiles bytecode and runs lazy imports before any timing

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            tally, metrics, detail = traced_run(args.seed, str(work))
        else:
            tally, metrics, detail = untraced_run(args.workload, args.seed,
                                                  args.seconds, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, m in metrics.items():
        d = detail.get(name)
        spread = f"  [q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, n {d['n']}]" if d and "q1" in d else ""
        print(f"{name:42s} {m['value']:.6g} {m['unit']}{spread}")
    for name in sorted(set(detail) - set(metrics)):
        print(f"{name:42s} {json.dumps(detail[name])}")
    print(f"failed {tally.failed} of {tally.attempted} operations")
    for msg in (tally.errors + tally.wrong)[:20]:
        print(f"  {msg}")
    print("bench-detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(), "detail": detail, "notes": tally.notes,
        "errors": tally.errors, "wrong": tally.wrong}))
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
