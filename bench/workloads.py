"""The benchmark's three workloads: campaign, transport and pathwise.

Each workload is a closed loop with one caller.  `setup` builds the inputs
from the seed (timed as `setup_s`), `run_pass` is one timed pass of program
calls, and `check` verifies that pass's outputs outside the timed region.
Program functions are always looked up through their module (`lab.fbm...`)
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from collections import defaultdict

import numpy as np
from scipy.optimize import linear_sum_assignment

VERIFIERS = ("stability", "esti-int", "fernique", "hoeffding-small",
             "hoeffding-large", "t1-moments", "gaussian-tail", "phi-link")
NEGATIVE_VERIFIERS = ("esti-int", "fernique")
LAMPERTI_TOL = 5e-3  # acceptance tolerance of the direct vs Lamperti routes
ENTROPIC_SLACK = 0.01  # the entropic value must lie in [oracle, 1.01 oracle]


class Tally:
    """Operations attempted, operations failed, and per-operation latency.

    With a `reference` (see run.py), every operation is timed between two
    runs of it (shared with the neighbouring operations), and `op_raw_s`/`op_scaled_s` add up the raw and scaled
    operation times.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.wrong: list[str] = []    # outputs that failed a check
        self.errors: list[str] = []   # operations that raised
        self.times: dict[str, list[float]] = defaultdict(list)
        self.op_raw_s = self.op_scaled_s = 0.0
        self.notes: dict = {}

    def op(self, name, fn, *args, **kwargs):
        """Run one program call; returns (op_id, result or None)."""
        op_id = self.attempted
        self.attempted += 1
        before = self.reference.last() if self.reference else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation, run goes on
            self.failed_ops.add(op_id)
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            result = None
        raw = time.perf_counter() - t0
        self.times[name].append(raw)
        if self.reference:
            self.op_raw_s += raw
            self.op_scaled_s += self.reference.scale(raw, before, self.reference.run())
        return op_id, result

    def check(self, op_id: int, ok: bool, what: str) -> None:
        if not ok:
            self.failed_ops.add(op_id)
            self.wrong.append(what)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def _read_tree(root: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Workload:
    # What one scaled time covers (see run.py): "op", each program call, for
    # workloads whose calls take seconds; "pass", the whole pass, for
    # workloads of many millisecond calls.  A pass time is then the sum of
    # its calls' times.
    SCALED_UNIT = "op"

    def __init__(self, lab, seed: int, work: str):
        self.lab, self.seed, self.work = lab, seed, work
        self.passes = 0
        os.makedirs(work, exist_ok=True)

    def pass_dir(self, *parts) -> str:
        path = os.path.join(self.work, f"pass{self.passes}", *parts)
        os.makedirs(path, exist_ok=True)
        return path


class Campaign(Workload):
    """`fbmlab verify` on default.ini, one call per verifier, then on
    negative_control.ini.

    `fbmlab verify` runs its verifiers one after another and shares nothing
    between them, so 8 `--verifier NAME` calls do the work of one call; the
    split gives scaled times of at most a few seconds each.  The verify seed
    is each config's own seed plus the benchmark seed, so seed 0 is the
    shipped campaign, where all 8 verdicts must be PASS.
    """

    def setup(self):
        cli, config = self.lab.cli, self.lab.config
        self.configs = {}
        for key, fname in (("default", "default.ini"),
                           ("negative", "negative_control.ini")):
            path = cli.default_config_path(fname)
            cfg = config.load_config(path)
            self.configs[key] = (path, cfg.get("experiment", "seed") + self.seed)
        self.lab.fixtures.calibrated_constants()
        self.reference: dict[str, dict[str, bytes]] = {}

    def verify_args(self, key, out, *extra):
        path, seed = self.configs[key]
        return ["verify", "--config", path, "--seed", str(seed), "--out", out, *extra]

    def run_pass(self, tally):
        self.passes += 1
        out = {}
        for v in VERIFIERS:
            d = self.pass_dir("default", v)
            op_id, rc = tally.op(f"verify_{v}", self.lab.cli.main,
                                 self.verify_args("default", d, "--verifier", v))
            out[f"default {v}"] = (op_id, rc, d, (v,))
        d = self.pass_dir("negative")
        op_id, rc = tally.op("verify_negative", self.lab.cli.main,
                             self.verify_args("negative", d))
        out["negative"] = (op_id, rc, d, NEGATIVE_VERIFIERS)
        return out

    def check(self, out, tally):
        verdicts = {}
        for key, (op_id, rc, d, expected) in out.items():
            tally.check(op_id, rc in (0, 1), f"campaign {key}: exit code {rc}")
            files = _read_tree(d)
            need = [f"verify_{v}.json" for v in expected] + ["verify_summary.json"]
            missing = [f for f in need if f not in files]
            tally.check(op_id, not missing, f"campaign {key}: missing {missing}")
            if missing:
                continue
            ref = self.reference.setdefault(key, files)
            tally.check(op_id, files == ref,
                        f"campaign {key}: reports differ between passes at one seed")
            summary = json.loads(files["verify_summary.json"])
            if key == "negative":
                tally.notes["negative_verdicts"] = summary["results"]
                rejected = [json.loads(files[f"verify_{v}.json"]).get("rejected")
                            for v in expected]
                tally.check(op_id, rc == 1 and all(rejected),
                            f"negative control: exit {rc}, rejected {rejected}")
                continue
            verdicts.update(summary["results"])
            if self.seed == 0:
                tally.check(op_id, rc == 0 and all(summary["results"].values()),
                            f"default campaign at its own seed: {summary['results']}")
        tally.notes["default_verdicts"] = verdicts


class Transport(Workload):
    """W2 under d_inf between Euler-solution ensembles, one call per solver
    branch: exact assignment, HiGHS LP and entropic (default epsilon)."""

    CASES = (("exact", 512, 512), ("lp", 384, 256), ("entropic", 520, 520))

    def setup(self):
        fbm, sde, tr = self.lab.fbm, self.lab.sde, self.lab.transport
        self.grid = self.lab.grid.TimeGrid(0.5, 128)
        hp = fbm.HurstParam(0.75)

        def ensemble(n, seed):
            drivers = fbm.sample_fbm_circulant_batch(self.grid, hp, n, seed)
            x = sde.euler_additive_ensemble(0.0, lambda v: -v, drivers, self.grid.dt)
            return tr.PathEnsemble(self.grid, x)

        self.inputs = {}
        for k, (name, n, m) in enumerate(self.CASES):
            base = 1000 * self.seed + 2 * k
            self.inputs[name] = (ensemble(n, base), ensemble(m, base + 1))
        self.oracle: dict[str, float] = {}
        self.values: dict[str, float] = {}

    def run_pass(self, tally):
        self.passes += 1
        tr = self.lab.transport
        out = {}
        for name, (mu, nu) in self.inputs.items():
            out[name] = tally.op(f"w_{name}_s", tr.wasserstein_empirical,
                                 mu, nu, 2, tr.PathMetric.d_infinity)
        return out

    def oracle_cost(self, name: str) -> float:
        """Optimal mean cost from the benchmark's own costs and scipy's LSA.

        Unequal sizes n, m become an l x l assignment (l = lcm(n, m)) by
        repeating each point l/n resp. l/m times, which has the same optimum
        as the uniform-marginal transport LP.
        """
        if name not in self.oracle:
            mu, nu = self.inputs[name]
            a, b = mu.paths[:, :, 0], nu.paths[:, :, 0]
            cost = np.empty((len(a), len(b)))
            for i, row in enumerate(a):
                cost[i] = np.abs(b - row).max(axis=1) ** 2
            l = np.lcm(len(a), len(b))
            cost = np.repeat(np.repeat(cost, l // len(a), axis=0), l // len(b), axis=1)
            ri, ci = linear_sum_assignment(cost)
            self.oracle[name] = float(cost[ri, ci].mean())
        return self.oracle[name]

    def check(self, out, tally):
        for name, (op_id, value) in out.items():
            if value is None:
                continue  # raised; already counted as failed
            oracle = float(np.sqrt(self.oracle_cost(name)))
            if name == "entropic":
                ok = oracle * (1 - 1e-12) <= value <= (1 + ENTROPIC_SLACK) * oracle
            else:
                ok = abs(value - oracle) <= (1e-9 if name == "exact" else 1e-6) * oracle
            tally.check(op_id, ok, f"transport {name}: W2 {value!r} vs oracle {oracle!r}")
            ref = self.values.setdefault(name, value)
            tally.check(op_id, value == ref, f"transport {name}: differs between passes")


class Pathwise(Workload):
    """The single-path API called in Python loops, as tests and demos do.

    A pass is kept short (about 2 s) so that a run holds many passes.
    """

    SCALED_UNIT = "pass"

    N_TRANSFER = 60
    N_COUPLED = 30
    N_SCALAR = 4
    N_YOUNG = 10
    N_ESTI = 40
    N_FILES = 32      # paths written by `fbmlab sample` and `fbmlab solve`
    N_CALIBRATE = 200  # pairs of `fbmlab calibrate`

    def setup(self):
        lab, s = self.lab, self.seed
        fbm, sde, G, F = lab.fbm, lab.sde, lab.grid, lab.fractional
        self.hp = fbm.HurstParam(0.75)
        self.g256 = G.TimeGrid(1.0, 256)
        self.seeds = {k: 1000 * s + i for i, k in enumerate(
            ("transfer", "coupled", "scalar", "young_f", "young_g", "esti_f", "esti_g"))}
        self.drift = sde.DriftSpec(fn=lambda x: -x, dimension=1, lipschitz=1.0,
                                   sup_bound=np.inf, one_sided=-1.0)
        self.sigma_t = sde.TimeDiffusion(fn=lambda t: np.ones((1, 1)), holder_beta=0.6)
        self.sigma_x = sde.ScalarDiffusion(fn=lambda x: 1.0 + 0.3 / (1.0 + x**2),
                                           sigma1=1.0, sigma2=1.3, lipschitz=0.6)
        self.rho = np.ones(self.g256.n_steps + 1)
        self.kernel = fbm.transfer_kernel_matrix(self.g256, self.hp)
        self.coupling_bound = sde.gronwall_coupling_bound(self.g256, self.rho, -1.0,
                                                          1.0, self.hp)
        g1024 = G.TimeGrid(1.0, 1024)
        self.scalar_drivers = [
            fbm.sample_fbm_circulant(g1024, self.hp, 1, self.seeds["scalar"], path_index=k)
            for k in range(self.N_SCALAR)]
        g2048 = G.TimeGrid(1.0, 2048)
        self.young = [
            tuple(G.GridFunction(g2048, fbm.sample_fbm_circulant(
                g2048, self.hp, 1, self.seeds[w], path_index=k).values[:, 0])
                for w in ("young_f", "young_g"))
            for k in range(self.N_YOUNG)]
        self.alpha = F.default_frac_order(0.7)
        g_half = G.TimeGrid(0.5, 256)
        fs = fbm.sample_fbm_circulant_batch(g_half, self.hp, self.N_ESTI, self.seeds["esti_f"])
        gs = fbm.sample_fbm_circulant_batch(g_half, self.hp, self.N_ESTI, self.seeds["esti_g"])
        rng = np.random.default_rng(s)
        self.esti = []
        for i in range(self.N_ESTI):
            ia = int(rng.integers(0, g_half.n_steps - 1))
            ib = int(rng.integers(ia + 1, g_half.n_steps + 1))
            self.esti.append((G.GridFunction(g_half, fs[i]), G.GridFunction(g_half, gs[i]),
                              g_half.points[ia], g_half.points[ib]))
        self.ini = os.path.join(self.work, "pathwise.ini")
        with open(self.ini, "w") as fh:
            fh.write(f"[experiment]\nname = bench-pathwise\nseed = {s}\n\n"
                     f"[fbm]\nn_paths = {self.N_FILES}\n\n"
                     f"[verify]\nn_paths = {self.N_CALIBRATE}\n")
        self.cfg = lab.config.load_config(self.ini)
        lab.fixtures.calibrated_constants()
        self.reference: dict[str, object] = {}

    def run_pass(self, tally):
        self.passes += 1
        lab = self.lab
        fbm, sde, F, pio = lab.fbm, lab.sde, lab.fractional, lab.pathio
        out = {"transfer": [], "coupled": [], "scalar": [], "young": [], "esti": []}
        for i in range(self.N_TRANSFER):
            out["transfer"].append(tally.op(
                "transfer", fbm.sample_fbm_transfer, self.g256, self.hp, 1,
                self.seeds["transfer"], path_index=i))
        for i in range(self.N_COUPLED):
            out["coupled"].append(tally.op(
                "coupled", sde.drift_coupled_pair, 0.0, self.drift, self.sigma_t,
                self.rho, self.hp, self.g256, seed=self.seeds["coupled"],
                path_index=i, kernel=self.kernel))
        for k, drv in enumerate(self.scalar_drivers):
            x0 = -1.0 + 0.2 * k
            out["scalar"].append((
                tally.op("scalar", sde.solve_scalar, x0, self.drift, self.sigma_x, drv),
                tally.op("lamperti", sde.solve_scalar_via_lamperti, x0, self.drift,
                         self.sigma_x, drv)))
        for f, g in self.young:
            out["young"].append((
                tally.op("young_rs", F.young_integral_rs, f, g, 0.0, 1.0),
                tally.op("young_frac", F.young_integral_frac, f, g, self.alpha, 0.0, 1.0)))
        for f, g, a, b in self.esti:
            out["esti"].append(tally.op("esti_int", F.lemma_esti_int_check, f, g, 0.6, a, b))
        for cmd in ("sample", "solve"):
            d = self.pass_dir(cmd)
            op_id, rc = tally.op(cmd, lab.cli.main, [cmd, "--config", self.ini, "--out", d])
            stems = sorted(f[:-4] for f in os.listdir(d) if f.endswith(".csv"))
            back = [(tally.op("read_csv", pio.read_path_csv, os.path.join(d, st + ".csv")),
                     tally.op("read_fbmp", pio.read_path_binary, os.path.join(d, st + ".fbmp")))
                    for st in stems]
            out[cmd] = ((op_id, rc), back)
        d = self.pass_dir("calibrate")
        out["calibrate"] = (tally.op("calibrate_s", lab.cli.main,
                                     ["calibrate", "--config", self.ini, "--out", d]), d)
        return out

    def _same_as_before(self, key, value) -> bool:
        return self.reference.setdefault(key, value) == value

    def check(self, out, tally):
        lab = self.lab
        for op_id, res in out["transfer"]:
            if res is None:
                continue
            path, wiener = res
            rebuilt = lab.fbm.transfer_from_wiener_increments(
                self.kernel, np.diff(wiener, axis=0))
            tally.check(op_id, np.allclose(rebuilt, path.values, rtol=0, atol=1e-12),
                        "transfer path is not K @ dW of its own Wiener increments")
        for op_id, res in out["coupled"]:
            if res is None:
                continue
            x, y, _ = res
            d2sq = (x.values[1:, 0] - y.values[1:, 0]) ** 2
            tally.check(op_id, bool(np.all(d2sq <= self.coupling_bound[1:])),
                        "coupled pair exceeds the Gronwall bound")
        gaps = []
        for (_, d), (op_id, l) in out["scalar"]:
            if d is None or l is None:
                continue
            gaps.append(float(np.abs(d.values - l.values).max()))
            tally.check(op_id, gaps[-1] < LAMPERTI_TOL,
                        f"direct vs Lamperti sup gap {gaps[-1]:.3e}")
        tally.notes["lamperti_worst_gap"] = max(gaps, default=None)
        for k, pair in enumerate(out["young"]):
            for route, (op_id, value) in zip(("rs", "frac"), pair):
                if value is not None:
                    tally.check(op_id, np.isfinite(value) and
                                self._same_as_before(("young", route, k), value),
                                f"Young integral {route} {k}: {value!r} not finite "
                                "or not the same in every pass")
        passed = 0
        for k, (op_id, rep) in enumerate(out["esti"]):
            if rep is not None:
                passed += rep.passed
                tally.check(op_id, self._same_as_before(("esti", k), (rep.lhs, rep.rhs)),
                            f"esti-int check {k} differs between passes")
        tally.notes["esti_int_passed"] = f"{passed} of {len(out['esti'])}"
        self._check_files(out, tally)
        (op_id, rc), d = out["calibrate"]
        path = os.path.join(d, "calibrated_constants.json")
        ok = rc == 0 and os.path.isfile(path)
        tally.check(op_id, ok, f"calibrate: exit {rc}, output present {ok}")
        if ok:
            with open(path, "rb") as fh:
                raw = fh.read()
            consts = json.loads(raw)
            tally.check(op_id, all(np.isfinite(consts[k]) and consts[k] > 0
                                   for k in ("K_hat", "kappa_hat")),
                        f"calibrate: constants {consts['K_hat']}, {consts['kappa_hat']}")
            tally.check(op_id, self._same_as_before("calibrate", raw),
                        "calibrate output differs between passes")

    def _check_files(self, out, tally):
        """Paths written by `fbmlab sample`/`solve` read back exactly, and
        equal the batch ensemble the same config describes."""
        lab = self.lab
        cfg = self.cfg
        grid = lab.grid.TimeGrid(cfg.get("grid", "t_max"), cfg.get("grid", "n_steps"))
        n_paths = cfg.get("fbm", "n_paths")
        batch = lab.fbm.sample_fbm_circulant_batch(
            grid, lab.fbm.HurstParam(cfg.get("fbm", "hurst")), n_paths,
            cfg.get("experiment", "seed"))
        b = cfg.get("sde", "drift_b")
        expected = {
            "sample": batch,
            "solve": lab.sde.euler_additive_ensemble(
                cfg.get("sde", "x0"), lambda x: b * x,
                cfg.get("sde", "sigma") * batch, grid.dt),
        }
        for cmd, ((op_id, rc), back) in ((c, out[c]) for c in ("sample", "solve")):
            tally.check(op_id, rc == 0 and len(back) == n_paths,
                        f"{cmd}: exit {rc}, {len(back)} of {n_paths} paths written")
            for i, ((_, c_res), (b_id, b_res)) in enumerate(back):
                if c_res is None or b_res is None:
                    continue
                (g_c, v_c), (g_b, v_b) = c_res, b_res
                same = (g_c.n_steps == g_b.n_steps == grid.n_steps
                        and np.array_equal(v_c, v_b)
                        and np.array_equal(v_b[:, 0], expected[cmd][i]))
                tally.check(b_id, same, f"{cmd} path {i} does not read back exactly")


WORKLOADS = {"campaign": Campaign, "transport": Transport, "pathwise": Pathwise}
