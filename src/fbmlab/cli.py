"""Command-line entry point.

Subcommands
    sample     generate and persist an fBm ensemble (CSV + FBMP fixtures)
    solve      run the SDE solver over a fresh ensemble and persist paths
    verify     run a subset of the verification campaigns, emit JSON/CSV
    calibrate  recompute the calibrated constants with provenance

Exit codes: 0 pass, 1 verification failure, 2 config error, 3 numerical
error.  All outputs embed the config hash and seed; identical config and
seed reproduce byte-identical reports (no timestamps in machine outputs).
"""

from __future__ import annotations

import argparse
import os
import sys

from .concentration import PremiseError
from .config import ConfigError, ExperimentConfig, load_config
from .fbm import (
    STREAM_LAYOUT,
    HurstParam,
    sample_fbm_cholesky,
    sample_fbm_circulant,
    sample_fbm_circulant_batch,
    sample_fbm_transfer,
)
from .grid import TimeGrid
from .pathio import (
    tail_report_csv,
    write_json_report,
    write_path_binary,
    write_path_csv,
)
from .sde import euler_additive_ensemble
from .verifiers import VERIFIERS

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _sample_one(grid, hp, m, seed, generator, path_index=0):
    if generator == "cholesky":
        return sample_fbm_cholesky(grid, hp, m, seed, path_index=path_index)
    if generator == "transfer":
        return sample_fbm_transfer(grid, hp, m, seed, path_index=path_index)[0]
    return sample_fbm_circulant(grid, hp, m, seed, path_index=path_index)


def _require(cfg: ExperimentConfig, command: str, **supported: dict) -> None:
    """Reject settings the command cannot honour (ConfigError, exit 2);
    `supported` maps a section to {key: the one value the command honours}."""
    for section, keys in supported.items():
        for key, value in keys.items():
            if cfg.get(section, key) != value:
                raise ConfigError(f"{command} supports [{section}] {key} = {value} only, "
                                  f"got {cfg.get(section, key)!r}")


def cmd_sample(cfg: ExperimentConfig, out_dir: str) -> int:
    grid = TimeGrid(cfg.get("grid", "t_max"), cfg.get("grid", "n_steps"))
    hp = HurstParam(cfg.get("fbm", "hurst"))
    seed = cfg.get("experiment", "seed")
    n_paths = cfg.get("fbm", "n_paths")
    m = cfg.get("fbm", "components")
    gen = cfg.get("fbm", "generator")
    os.makedirs(out_dir, exist_ok=True)
    for i in range(n_paths):
        fp = _sample_one(grid, hp, m, seed, gen, path_index=i)
        stem = os.path.join(out_dir, f"path_{i:05d}")
        write_path_csv(stem + ".csv", grid, fp.values)
        write_path_binary(stem + ".fbmp", grid, fp.values)
    write_json_report(os.path.join(out_dir, "sample_manifest.json"), {
        "command": "sample", "experiment": cfg.get("experiment", "name"),
        "config_hash": cfg.config_hash, "seed": seed,
        "generator": gen, "hurst": hp.h, "t_max": grid.t_max,
        "n_steps": grid.n_steps, "n_paths": n_paths, "components": m,
        "stream_layout": STREAM_LAYOUT,
    })
    return EXIT_PASS


def cmd_solve(cfg: ExperimentConfig, out_dir: str) -> int:
    # solve drives the scalar additive model with circulant fBm only
    _require(cfg, "solve", fbm={"components": 1, "generator": "circulant"})
    grid = TimeGrid(cfg.get("grid", "t_max"), cfg.get("grid", "n_steps"))
    hp = HurstParam(cfg.get("fbm", "hurst"))
    seed = cfg.get("experiment", "seed")
    n_paths = cfg.get("fbm", "n_paths")
    B = cfg.get("sde", "drift_b")
    sigma = cfg.get("sde", "sigma")
    x0 = cfg.get("sde", "x0")
    os.makedirs(out_dir, exist_ok=True)
    drivers = sigma * sample_fbm_circulant_batch(grid, hp, n_paths, seed)
    paths = euler_additive_ensemble(x0, lambda x: B * x, drivers, grid.dt)
    for i in range(n_paths):
        stem = os.path.join(out_dir, f"solution_{i:05d}")
        write_path_csv(stem + ".csv", grid, paths[i])
        write_path_binary(stem + ".fbmp", grid, paths[i])
    write_json_report(os.path.join(out_dir, "solve_manifest.json"), {
        "command": "solve", "experiment": cfg.get("experiment", "name"),
        "config_hash": cfg.config_hash, "seed": seed,
        "model": "additive", "drift_b": B, "sigma": sigma, "x0": x0,
        "hurst": hp.h, "t_max": grid.t_max, "n_steps": grid.n_steps,
        "n_paths": n_paths, "stream_layout": STREAM_LAYOUT,
    })
    return EXIT_PASS


def _dump_tail_tables(out_dir: str, name: str, result: dict) -> None:
    """Write r-grid CSV tables for any TailReport-shaped sub-results."""

    def walk(node, label):
        if isinstance(node, dict):
            if "r_grid" in node:
                path = os.path.join(out_dir, f"{name}_{label}.csv")
                with open(path, "w") as fh:
                    fh.write(tail_report_csv(node))
            else:
                for k, v in node.items():
                    walk(v, f"{label}_{k}" if label else str(k))

    walk(result, "")


def cmd_verify(cfg: ExperimentConfig, out_dir: str,
               only: list[str] | None = None) -> int:
    # the verifiers solve dx = drift_b x dt + dB from x = 0 with scalar
    # circulant fBm; [fbm] n_paths is for sample and solve
    _require(cfg, "verify", fbm={"generator": "circulant", "components": 1},
             sde={"sigma": 1.0, "x0": 0.0})
    names = only if only else cfg.verifier_list
    os.makedirs(out_dir, exist_ok=True)
    all_ok = True
    summary = {}
    for name in names:
        if name not in VERIFIERS:
            raise ConfigError(f"unknown verifier {name!r}")
        try:
            result = VERIFIERS[name](cfg)
        except PremiseError as exc:
            # premise guard tripped: the verifier rejects the configuration
            result = {"verifier": name, "passed": False,
                      "rejected": True, "reason": str(exc)}
        result["config_hash"] = cfg.config_hash
        result["seed"] = cfg.get("experiment", "seed")
        write_json_report(os.path.join(out_dir, f"verify_{name}.json"), result)
        _dump_tail_tables(out_dir, f"verify_{name}", result)
        summary[name] = bool(result["passed"])
        all_ok &= result["passed"]
        print(f"[{'PASS' if result['passed'] else 'FAIL'}] {name}")
    write_json_report(os.path.join(out_dir, "verify_summary.json"), {
        "command": "verify", "config_hash": cfg.config_hash,
        "seed": cfg.get("experiment", "seed"), "results": summary,
        "passed": bool(all_ok),
    })
    return EXIT_PASS if all_ok else EXIT_VERIFY_FAIL


def cmd_calibrate(cfg: ExperimentConfig, out_dir: str) -> int:
    from .calibration import run_calibration
    os.makedirs(out_dir, exist_ok=True)
    payload = run_calibration(os.path.join(out_dir, "calibrated_constants.json"),
                              n_pairs=min(cfg.get("verify", "n_paths"), 5000),
                              seed=cfg.get("experiment", "seed"))
    print(f"K_hat = {payload['K_hat']:.6g}  kappa_hat = {payload['kappa_hat']:.6g}")
    return EXIT_PASS


def default_config_path(name: str = "default.ini") -> str:
    from importlib import resources
    return str(resources.files("fbmlab") / "configs" / name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbmlab",
        description="fBm path laboratory: sampling, SDE solving, transport "
                    "and concentration verification")
    parser.add_argument("command", choices=["sample", "solve", "verify", "calibrate"])
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="experiment config (INI); defaults to the shipped config")
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the config seed")
    parser.add_argument("--out", default="fbmlab_out", metavar="DIR",
                        help="output directory")
    parser.add_argument("--verifier", default=None, metavar="NAME[,NAME...]",
                        help="run only these verifiers (verify command)")
    args = parser.parse_args(argv)

    try:
        cfg_path = args.config or default_config_path()
        cfg = load_config(cfg_path, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    only = None
    if args.verifier:
        only = [v.strip() for v in args.verifier.split(",") if v.strip()]

    try:
        if args.command == "sample":
            return cmd_sample(cfg, args.out)
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, only)
        return cmd_calibrate(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
