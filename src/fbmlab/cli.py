"""Command-line entry point.

Subcommands
    sample     generate and persist an fBm ensemble (CSV + FBMP fixtures)
    solve      run the SDE solver over a fresh ensemble and persist paths
    verify     run a subset of the verification campaigns, emit JSON/CSV
    calibrate  recompute the calibrated constants with provenance

This module only parses arguments and writes files.  What a command may
be configured with is checked by ExperimentConfig.require against tables
kept with the science (concentration.MODEL, calibration.SUPPORTED_SETTINGS)
and a `--verifier` selection by the name check of the config
(config.parse_verifiers) before any output directory is made; the flag
belongs to `verify` and is an error on any other command.
concentration.run_campaign turns the selected verifier names into their
reports, one pass per ensemble they read.

Exit codes: 0 pass, 1 verification failure, 2 config error, 3 numerical
error.  All outputs embed the config hash and seed; identical config and
seed reproduce byte-identical reports (no timestamps in machine outputs).
"""

from __future__ import annotations

import argparse
import os
import sys

from .concentration import MODEL, run_campaign
from .config import ConfigError, ExperimentConfig, load_config, parse_verifiers
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


def _write_paths(out_dir: str, prefix: str, grid: TimeGrid, paths) -> None:
    """Write the i-th of paths as <prefix>_<i:05d>.csv and .fbmp in out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    for i, values in enumerate(paths):
        stem = os.path.join(out_dir, f"{prefix}_{i:05d}")
        write_path_csv(stem + ".csv", grid, values)
        write_path_binary(stem + ".fbmp", grid, values)


def cmd_sample(cfg: ExperimentConfig, out_dir: str) -> int:
    grid = TimeGrid(cfg.get("grid", "t_max"), cfg.get("grid", "n_steps"))
    hp = HurstParam(cfg.get("fbm", "hurst"))
    seed = cfg.get("experiment", "seed")
    n_paths = cfg.get("fbm", "n_paths")
    m = cfg.get("fbm", "components")
    gen = cfg.get("fbm", "generator")
    paths = (_sample_one(grid, hp, m, seed, gen, path_index=i).values for i in range(n_paths))
    _write_paths(out_dir, "path", grid, paths)
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
    cfg.require("solve", fbm={"components": 1, "generator": "circulant"})
    grid = TimeGrid(cfg.get("grid", "t_max"), cfg.get("grid", "n_steps"))
    hp = HurstParam(cfg.get("fbm", "hurst"))
    seed = cfg.get("experiment", "seed")
    n_paths = cfg.get("fbm", "n_paths")
    B = cfg.get("sde", "drift_b")
    sigma = cfg.get("sde", "sigma")
    x0 = cfg.get("sde", "x0")
    drivers = sigma * sample_fbm_circulant_batch(grid, hp, n_paths, seed)
    paths = euler_additive_ensemble(x0, lambda x: B * x, drivers, grid.dt)
    _write_paths(out_dir, "solution", grid, paths)
    write_json_report(os.path.join(out_dir, "solve_manifest.json"), {
        "command": "solve", "experiment": cfg.get("experiment", "name"),
        "config_hash": cfg.config_hash, "seed": seed,
        "model": "additive", "drift_b": B, "sigma": sigma, "x0": x0,
        "hurst": hp.h, "t_max": grid.t_max, "n_steps": grid.n_steps,
        "n_paths": n_paths, "stream_layout": STREAM_LAYOUT,
    })
    return EXIT_PASS


def _dump_tail_tables(out_dir: str, name: str, result: dict) -> None:
    """Write the r-grid CSV table of every tail record (a dict holding
    "r_grid") nested in a report."""

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
    # [fbm] n_paths is for sample and solve
    cfg.require("verify", **MODEL)
    names = only or cfg.verifier_list
    os.makedirs(out_dir, exist_ok=True)
    summary = {}
    for name, result in run_campaign(cfg, names):
        write_json_report(os.path.join(out_dir, f"verify_{name}.json"), result)
        _dump_tail_tables(out_dir, f"verify_{name}", result)
        summary[name] = bool(result["passed"])
        print(f"[{'PASS' if summary[name] else 'FAIL'}] {name}")
    all_ok = all(summary.values())
    write_json_report(os.path.join(out_dir, "verify_summary.json"), {
        "command": "verify", "config_hash": cfg.config_hash,
        "seed": cfg.get("experiment", "seed"), "results": summary,
        "passed": all_ok,
    })
    return EXIT_PASS if all_ok else EXIT_VERIFY_FAIL


def cmd_calibrate(cfg: ExperimentConfig, out_dir: str) -> int:
    from .calibration import SUPPORTED_SETTINGS, run_calibration
    cfg.require("calibrate", **SUPPORTED_SETTINGS)
    os.makedirs(out_dir, exist_ok=True)
    payload = run_calibration(cfg.get("verify", "n_paths"), cfg.get("experiment", "seed"))
    write_json_report(os.path.join(out_dir, "calibrated_constants.json"), payload)
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
                        help="experiment config (INI); defaults to the shipped "
                             "default.ini (calibrate.ini for calibrate)")
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the config seed")
    parser.add_argument("--out", default="fbmlab_out", metavar="DIR",
                        help="output directory")
    parser.add_argument("--verifier", default=None, metavar="NAME[,NAME...]",
                        help="run only these verifiers (verify command)")
    args = parser.parse_args(argv)
    if args.verifier is not None and args.command != "verify":
        parser.error(f"--verifier applies to the verify command only, not {args.command}")

    try:
        cfg_path = args.config or default_config_path(
            "calibrate.ini" if args.command == "calibrate" else "default.ini")
        cfg = load_config(cfg_path, seed_override=args.seed)
        only = None if args.verifier is None else parse_verifiers(args.verifier)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

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
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
