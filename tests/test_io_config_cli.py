"""Serialization formats, config parsing and the CLI contract."""

import csv
import hashlib
import io
import json
import os
import re
import struct
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from fbmlab import concentration, fbm
from fbmlab.cli import main
from fbmlab.config import VERIFIER_NAMES, ConfigError, load_config
from fbmlab.grid import TimeGrid
from fbmlab.pathio import (
    FBMP_MAGIC,
    FBMP_VERSION,
    read_path_binary,
    read_path_csv,
    write_json_report,
    write_path_binary,
    write_path_csv,
)


@pytest.fixture
def sample_path():
    grid = TimeGrid(1.0, 16)
    rng = np.random.default_rng(0)
    return grid, rng.standard_normal((17, 2))


def test_csv_round_trip(tmp_path, sample_path):
    grid, vals = sample_path
    p = str(tmp_path / "p.csv")
    write_path_csv(p, grid, vals)
    with open(p) as fh:
        assert fh.readline().strip() == "t,x1,x2"
    grid2, vals2 = read_path_csv(p)
    assert grid2.n_steps == grid.n_steps
    np.testing.assert_array_equal(vals2, vals)  # repr round-trips exactly


@pytest.mark.parametrize("m", [1, 3])
def test_csv_bytes_are_the_csv_module_excel_dialect(tmp_path, m):
    # the one-string writer gives csv.writer's bytes (\r\n line ends) and
    # the file reads back bit for bit, signed zero and extremes included
    grid = TimeGrid(2.0, 8)
    vals = np.random.default_rng(m).standard_normal((9, m))
    vals[1:7, 0] = [-0.0, 1e-300, 1e300, -1e300, 5e-324, 1 / 3]
    p = tmp_path / "p.csv"
    write_path_csv(str(p), grid, vals[:, 0] if m == 1 else vals)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"x{j + 1}" for j in range(m)])
    for row in np.column_stack([grid.points, vals]):
        writer.writerow([repr(float(v)) for v in row])
    assert p.read_bytes() == buf.getvalue().encode()
    grid2, back = read_path_csv(str(p))
    assert grid2.n_steps == 8 and grid2.t_max == 2.0
    assert back.tobytes() == vals.tobytes()


def test_binary_round_trip_and_header(tmp_path, sample_path):
    grid, vals = sample_path
    p = str(tmp_path / "p.fbmp")
    write_path_binary(p, grid, vals)
    with open(p, "rb") as fh:
        head = fh.read(14)
    assert head[:4] == FBMP_MAGIC
    version, n_rows, n_cols = struct.unpack("<HII", head[4:])
    assert (version, n_rows, n_cols) == (FBMP_VERSION, 17, 3)
    grid2, vals2 = read_path_binary(p)
    assert grid2.t_max == grid.t_max
    np.testing.assert_array_equal(vals2, vals)


def test_binary_rejects_bad_magic(tmp_path):
    p = str(tmp_path / "bad.fbmp")
    with open(p, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        read_path_binary(p)


def test_binary_rejects_truncation(tmp_path, sample_path):
    grid, vals = sample_path
    p = str(tmp_path / "t.fbmp")
    write_path_binary(p, grid, vals)
    data = Path(p).read_bytes()
    with open(p, "wb") as fh:
        fh.write(data[:-16])
    with pytest.raises(ValueError):
        read_path_binary(p)


@pytest.mark.parametrize("n_rows, n_cols", [(0, 3), (17, 0), (1, 2), (17, 1)])
def test_binary_rejects_a_table_without_a_path(tmp_path, n_rows, n_cols):
    # fewer than 2 rows or no component column besides t: a ValueError that
    # names the file, not an IndexError or a path with no components
    p = str(tmp_path / "empty.fbmp")
    table = np.repeat(np.linspace(0.0, 1.0, n_rows)[:, None], n_cols, axis=1)
    with open(p, "wb") as fh:
        fh.write(FBMP_MAGIC + struct.pack("<HII", FBMP_VERSION, n_rows, n_cols)
                 + table.astype("<f8").tobytes())
    with pytest.raises(ValueError, match=re.escape(p)):
        read_path_binary(p)


@pytest.mark.parametrize("text", ["", "t\r\n", "t\r\n0.0\r\n1.0\r\n",
                                  "t,x1\r\n0.0,1.5\r\n"])
def test_csv_rejects_a_table_without_a_path(tmp_path, text):
    p = tmp_path / "empty.csv"
    p.write_bytes(text.encode())
    with pytest.raises(ValueError, match=re.escape(str(p))):
        read_path_csv(str(p))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_values(tmp_path, value):
    # in a component or in the time column, on reading and on writing
    p = tmp_path / "nf.csv"
    for rows in (f"0.0,0.0\r\n1.0,{value!r}\r\n", f"0.0,0.0\r\n{value!r},1.0\r\n"):
        p.write_text("t,x1\r\n" + rows)
        with pytest.raises(ValueError, match=re.escape(str(p)) + ".*finite"):
            read_path_csv(str(p))
    p.unlink()
    with pytest.raises(ValueError, match=re.escape(str(p)) + ".*finite"):
        write_path_csv(str(p), TimeGrid(1.0, 2), np.array([0.0, value, 1.0]))
    assert not p.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_json_report_rejects_non_finite_values(tmp_path, value):
    # a non-finite number nested anywhere has no JSON form: ArithmeticError
    # (CLI: exit 3) naming the file, and no file is left
    p = tmp_path / "r.json"
    payload = {"verifier": "x", "records": [{"bound": [1.0, np.float64(value)]}]}
    with pytest.raises(ArithmeticError, match=re.escape(str(p))):
        write_json_report(str(p), payload)
    assert not p.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_binary_rejects_non_finite_values(tmp_path, value):
    # the writer refuses before it opens the file; a file written by other
    # means is refused by the reader
    p = str(tmp_path / "nf.fbmp")
    grid = TimeGrid(1.0, 2)
    with pytest.raises(ValueError, match=re.escape(p) + ".*finite"):
        write_path_binary(p, grid, np.array([0.0, value, 1.0]))
    assert not Path(p).exists()
    table = np.column_stack([grid.points, [0.0, value, 1.0]])
    with open(p, "wb") as fh:
        fh.write(FBMP_MAGIC + struct.pack("<HII", FBMP_VERSION, 3, 2)
                 + table.astype("<f8").tobytes())
    with pytest.raises(ValueError, match=re.escape(p) + ".*finite"):
        read_path_binary(p)


@pytest.mark.parametrize("rows", [b"0.0,0.0\r\n1.0\r\n", b"0.0,0.0\r\n1.0,a\r\n",
                                  b"0.0,0.0\r\n1.0,\xff\r\n"],
                         ids=["ragged", "non-numeric", "not-utf-8"])
def test_csv_malformed_rows_name_the_file(tmp_path, rows):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"t,x1\r\n" + rows)
    with pytest.raises(ValueError, match=re.escape(str(p))):
        read_path_csv(str(p))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def _write_ini(tmp_path, text, name="c.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_config_defaults_and_hash(tmp_path):
    p = _write_ini(tmp_path, "[experiment]\nseed = 7\n")
    cfg = load_config(p)
    assert cfg.get("experiment", "seed") == 7
    assert cfg.get("fbm", "hurst") == 0.75  # default filled in
    h1 = cfg.config_hash
    assert len(h1) == 16
    # same content, same hash; different seed, different hash
    assert load_config(p).config_hash == h1
    assert load_config(p, seed_override=8).config_hash != h1


def test_config_fail_closed(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_ini(tmp_path, "[bogus]\nx = 1\n"))
    with pytest.raises(ConfigError):
        load_config(_write_ini(tmp_path, "[grid]\nt_max = 1\nwrong = 2\n"))
    with pytest.raises(ConfigError):
        load_config(_write_ini(tmp_path, "[grid]\nt_max = not_a_number\n"))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))


def test_config_domain_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_ini(tmp_path, "[fbm]\nhurst = 0.4\n"))
    with pytest.raises(ConfigError):
        load_config(_write_ini(tmp_path, "[fbm]\ngenerator = wavelet\n"))
    with pytest.raises(ConfigError):
        load_config(_write_ini(tmp_path, "[verify]\nverifiers = nonsense\n"))
    for raw in ("", " , "):  # an empty selection would be a vacuous pass
        with pytest.raises(ConfigError, match="empty verifier selection"):
            load_config(_write_ini(tmp_path, f"[verify]\nverifiers = {raw}\n"))
    with pytest.raises(ConfigError):
        load_config(_write_ini(tmp_path, "[sde]\nmodel = scalar\n"))
    for section in ("fbm", "verify"):  # the message names the section
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] n_paths must be >= 1")):
            load_config(_write_ini(tmp_path, f"[{section}]\nn_paths = 0\n"))
    # number lists are parsed at load: non-numeric, non-positive, non-finite,
    # empty or repeated
    for key in ("horizons", "c_delta_values"):
        for raw in ("1,two", "", " , ", "1,0", "-2", "1,nan", "inf", "1,1", "2,1,2.0"):
            with pytest.raises(ConfigError, match=key):
                load_config(_write_ini(tmp_path, f"[verify]\n{key} = {raw}\n"))


FLOAT_KEYS = [("grid", "t_max"), ("fbm", "hurst"), ("sde", "drift_b"), ("sde", "sigma"),
              ("sde", "x0"), ("verify", "beta"), ("verify", "delta")]


@pytest.mark.parametrize("section,key,raw",
                         [(sec, key, raw) for sec, key in FLOAT_KEYS
                          for raw in ("nan", "inf", "-inf")]
                         + [("verify", "delta", "0"), ("verify", "delta", "-1"),
                            ("grid", "t_max", "0"), ("grid", "t_max", "-1"),
                            ("grid", "n_steps", "0"), ("verify", "beta", "0"),
                            ("verify", "beta", "1")])
def test_config_rejects_non_finite_floats_and_non_positive_delta(tmp_path, section, key, raw):
    # every float key is checked at load, and so are the bounds of t_max,
    # n_steps and beta: exit 2 and nothing written
    ini = _write_ini(tmp_path, f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(ini)
    out = tmp_path / "vrf"
    assert main(["verify", "--config", ini, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_u64_rejected(tmp_path, seed):
    # seeds are u64 and never reduced modulo 2**64
    with pytest.raises(ConfigError, match="seed"):
        load_config(_write_ini(tmp_path, f"[experiment]\nseed = {seed}\n"))
    ok = _write_ini(tmp_path, "[fbm]\nn_paths = 1\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config(ok, seed_override=int(seed))
    out = tmp_path / "samp"
    assert main(["sample", "--config", ok, "--seed", seed, "--out", str(out)]) == 2
    assert not out.exists()
    assert load_config(ok, seed_override=2**64 - 1).get("experiment", "seed") == 2**64 - 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

SMALL_INI = """
[experiment]
seed = 42

[grid]
t_max = 0.5
n_steps = 32

[fbm]
n_paths = 2

[verify]
verifiers = phi-link
n_paths = 100
"""


def test_cli_config_error_exit_2(tmp_path):
    bad = _write_ini(tmp_path, "[grid]\nbogus = 1\n")
    assert main(["verify", "--config", bad]) == 2


@pytest.mark.parametrize("text", [b"[experiment]\nseed = 1\nseed = 2\n", b"seed = 1\n",
                                  b"[experiment]\nname = 50%\n",
                                  b"[experiment]\nname = \xff\n"],
                         ids=["repeated-key", "no-section-header", "lone-percent", "not-utf-8"])
def test_cli_malformed_ini_exit_2(tmp_path, capsys, text):
    # a file INI syntax does not parse is a config error naming the file
    ini = tmp_path / "c.ini"
    ini.write_bytes(text)
    out = tmp_path / "samp"
    assert main(["sample", "--config", str(ini), "--out", str(out)]) == 2
    assert f"config error: malformed config file {ini}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sample_and_solve(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI.replace("[experiment]\n",
                                                 "[experiment]\nname = smoke\n"))
    out = str(tmp_path / "samp")
    assert main(["sample", "--config", ini, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "path_00001.fbmp"))
    manifest = json.loads(Path(out, "sample_manifest.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["experiment"] == "smoke"
    assert manifest["stream_layout"] == fbm.STREAM_LAYOUT
    assert "config_hash" in manifest
    out2 = str(tmp_path / "solv")
    assert main(["solve", "--config", ini, "--out", out2]) == 0
    grid, vals = read_path_binary(os.path.join(out2, "solution_00000.fbmp"))
    assert np.all(np.isfinite(vals))
    manifest = json.loads(Path(out2, "solve_manifest.json").read_text())
    assert manifest["experiment"] == "smoke"
    assert manifest["stream_layout"] == fbm.STREAM_LAYOUT == 2


@pytest.mark.parametrize("key,value", [("components", "2"), ("generator", "cholesky")])
def test_cli_solve_rejects_unsupported_drivers(tmp_path, key, value):
    # sample honours the key; solve draws scalar circulant drivers only
    ini = _write_ini(tmp_path, SMALL_INI.replace("[fbm]\n", f"[fbm]\n{key} = {value}\n"))
    assert main(["sample", "--config", ini, "--out", str(tmp_path / "samp")]) == 0
    out = tmp_path / "solv"
    assert main(["solve", "--config", ini, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_verify_rejects_non_circulant_generator(tmp_path, capsys):
    # the verifiers draw circulant fBm only; the key is rejected before any report
    ini = _write_ini(tmp_path, SMALL_INI.replace("[fbm]\n", "[fbm]\ngenerator = cholesky\n"))
    out = tmp_path / "vrf"
    out.mkdir()
    assert main(["verify", "--config", ini, "--out", str(out)]) == 2
    assert list(out.iterdir()) == []
    assert "verify supports [fbm] generator = circulant only" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [("sde", "sigma", "2"), ("sde", "x0", "0.5"),
                                               ("fbm", "components", "2")])
def test_cli_verify_rejects_unused_model_keys(tmp_path, capsys, section, key, value):
    # the verifiers solve dx = drift_b x dt + dB from 0 with scalar drivers
    if section == "fbm":
        text = SMALL_INI.replace("[fbm]\n", f"[fbm]\n{key} = {value}\n")
    else:
        text = SMALL_INI + f"\n[sde]\n{key} = {value}\n"
    ini = _write_ini(tmp_path, text)
    out = tmp_path / "vrf"
    out.mkdir()
    assert main(["verify", "--config", ini, "--out", str(out)]) == 2
    assert list(out.iterdir()) == []
    assert f"verify supports [{section}] {key} = " in capsys.readouterr().err


def test_cli_solve_blow_up_exit_3(tmp_path, capsys):
    # x_{k+1} = (1 + 5000 dt) x_k + dB overflows at step 236 of 256
    ini = _write_ini(tmp_path, "[grid]\nn_steps = 256\n[fbm]\nn_paths = 2\n"
                               "[sde]\ndrift_b = 5000\n")
    out = tmp_path / "solv"
    assert main(["solve", "--config", ini, "--out", str(out)]) == 3
    assert not (out / "solve_manifest.json").exists()
    assert "non-finite state at Euler step" in capsys.readouterr().err


def test_cli_sample_embedding_failure_exit_3(tmp_path, monkeypatch):
    monkeypatch.setattr(fbm, "_fgn_circulant_eigs", lambda n, hurst, dt: -np.ones(2 * n))
    ini = _write_ini(tmp_path, SMALL_INI)
    out = tmp_path / "samp"
    assert main(["sample", "--config", ini, "--out", str(out)]) == 3
    assert not (out / "sample_manifest.json").exists()


def test_cli_sample_non_finite_path_exit_3(tmp_path, monkeypatch, capsys):
    # a NaN from the sampler fails closed in FbmPath before any file is written
    def nan_rows(grid, h, seed, paths, component=0):
        rows = np.zeros((len(paths), grid.n_steps + 1))
        rows[:, -1] = np.nan
        return rows

    monkeypatch.setattr(fbm, "_circulant_rows", nan_rows)
    out = tmp_path / "samp"
    assert main(["sample", "--config", _write_ini(tmp_path, SMALL_INI), "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_verify_pass_and_reports(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI)
    out = str(tmp_path / "vrf")
    assert main(["verify", "--config", ini, "--out", out]) == 0
    rep = json.loads(Path(out, "verify_phi-link.json").read_text())
    assert rep["passed"] is True
    summary = json.loads(Path(out, "verify_summary.json").read_text())
    assert summary["passed"] is True


def test_cli_verify_deterministic_reports(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["verify", "--config", ini, "--out", out1]) == 0
    assert main(["verify", "--config", ini, "--out", out2]) == 0
    a = Path(out1, "verify_summary.json").read_bytes()
    b = Path(out2, "verify_summary.json").read_bytes()
    assert a == b


# sha256 of every report file that an 8-verifier run writes for PIN_INI;
# hoeffding-large fails its scaling gate at 200 paths, so the run exits 1
PIN_INI = SMALL_INI.replace("verifiers = phi-link", "verifiers = " + ",".join(
    VERIFIER_NAMES)).replace("n_paths = 100", "n_paths = 200\nhorizons = 1,2")
PIN_DIGESTS = {
    "verify_esti-int.json": "d20c3ea85c5e29354a8181cf8f8fa55b27f0d2c6d1232781694b1204008998fa",
    "verify_fernique.json": "ad62b0f30eada9b915d09b417eae0c0d8c3797df91856aeb863c47ab85ff5e4a",
    "verify_gaussian-tail.json": "10ff352a57dbca3760c6664cdc381c07929440c9542551a2fe78815589ddf47f",
    "verify_hoeffding-large.json": "a9df8f1625762e80be0637793edb075b3df17fe310478fddb0e3e9146a34a091",
    "verify_hoeffding-large_horizons_1.0_d_infinity.csv":
        "638ceffb84997f3c345e992f532d6c9bff327583e7adb44307bf8f0f3485e7f5",
    "verify_hoeffding-large_horizons_1.0_d_two.csv":
        "4bc380f05f0b7b70ebb6b850558e688c36ae6ac5b7d2b8c3ea50a11912e26cfa",
    "verify_hoeffding-large_horizons_2.0_d_infinity.csv":
        "fdd089699a764ba7a1455026b393e016ef54897929dea29dd4826890fa6f04ad",
    "verify_hoeffding-large_horizons_2.0_d_two.csv":
        "f990111c87737b9092f1da71ba312a39891fc5fa06143f6c53673a72c3040fb7",
    "verify_hoeffding-small.json": "b5834cb7d270e69c5891b8a075826f69bf00ba75ca558147081734cd6c684050",
    "verify_hoeffding-small_sup_displacement.csv":
        "1d2babff0e71050338ad68a5a7281d05ee8daba890379ad822e359750e227c08",
    "verify_hoeffding-small_time_average.csv":
        "f8ee760e9e6a058553b5bd1329fd00114fc9f3105e0e01db61572d11ca7c7ade",
    "verify_phi-link.json": "a58c0c2b5148f6cb289ba1d01d7d91688f67b96270d2148c11db8c15e27a4f91",
    "verify_stability.json": "b1239a9664b1b21aa29483489ade72d1e3c00818f3eb94006de50e98a8c2908d",
    "verify_summary.json": "0d0d9ecbed64ae7dd80972e70e8776df371e45628825368dc5d3cb313ecfd963",
    "verify_t1-moments.json": "87fb9d063b13bde5e95519d26ef1d5d12234b7c0094cb9d08ff7ae4c64fb8f16",
}


def test_cli_verify_all_reports_pinned(tmp_path):
    ini = _write_ini(tmp_path, PIN_INI)
    out = tmp_path / "pin"
    assert main(["verify", "--config", ini, "--out", str(out)]) == 1
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == PIN_DIGESTS


def test_cli_grouped_verify_writes_the_bytes_of_single_runs(tmp_path, monkeypatch):
    # one 8-name run takes one pass per ensemble (primary: fernique,
    # hoeffding-small and every hoeffding-large horizon; pair: stability,
    # t1-moments, gaussian-tail) and writes what eight --verifier runs write,
    # the summary apart
    ini = _write_ini(tmp_path, PIN_INI)
    passes = []
    real = concentration.shared_pass
    monkeypatch.setattr(concentration, "shared_pass",
                        lambda shares: passes.append(shares[0].ensemble) or real(shares))
    grouped = tmp_path / "grouped"
    assert main(["verify", "--config", ini, "--out", str(grouped)]) == 1
    assert len(passes) == len(set(passes)) == 2  # one pass per ensemble
    del passes[:]
    singles = {}
    for name in VERIFIER_NAMES:
        out = tmp_path / name
        main(["verify", "--config", ini, "--out", str(out), "--verifier", name])
        singles.update((p.name, p.read_bytes()) for p in out.iterdir()
                       if p.name != "verify_summary.json")
    assert len(passes) == 6  # each verifier alone: a pass of its own
    written = {p.name: p.read_bytes() for p in grouped.iterdir()
               if p.name != "verify_summary.json"}
    assert written == singles


def test_cli_verify_draws_each_primary_row_once(tmp_path, monkeypatch):
    # the horizons read the primary ensemble: a full run draws each of its
    # rows once, besides the pair rows and esti-int's pairs, and
    # hoeffding-large alone draws the primary rows and no role seed's
    drawn = Counter()
    real = fbm._circulant_rows

    def rows(grid, h, seed, paths, component=0):
        drawn.update((seed, grid, i) for i in paths)
        return real(grid, h, seed, paths, component)

    monkeypatch.setattr(fbm, "_circulant_rows", rows)
    ini = _write_ini(tmp_path, PIN_INI)
    grid, n, partner = TimeGrid(0.5, 32), 200, fbm.role_seed(42, fbm.Role.partner)
    primary = Counter((42, grid, i) for i in range(n))
    pairs = Counter((s, grid, i) for s in (42, partner) for i in range(n))
    assert main(["verify", "--config", ini, "--out", str(tmp_path / "all")]) == 1
    assert drawn == primary + pairs + pairs  # the pair pass, then esti-int's pairs
    drawn.clear()
    assert main(["verify", "--config", ini, "--out", str(tmp_path / "hl"),
                 "--verifier", "hoeffding-large"]) == 1
    assert drawn == primary


def test_cli_verify_reports_carry_the_run_config_hash(tmp_path):
    # every config_hash anywhere in a report is the hash of the run's config
    ini = _write_ini(tmp_path, PIN_INI)
    out = tmp_path / "pin"
    assert main(["verify", "--config", ini, "--out", str(out)]) == 1
    expected = load_config(ini).config_hash
    for p in out.glob("*.json"):
        hashes = re.findall(r'"config_hash": "([^"]*)"', p.read_text())
        assert hashes and set(hashes) == {expected}, p.name


def test_hoeffding_large_scaling_refits_from_written_report(tmp_path):
    # the d_two records read back from the report reproduce its exponent
    ini = _write_ini(tmp_path, PIN_INI)
    out = tmp_path / "hl"
    assert main(["verify", "--config", ini, "--out", str(out),
                 "--verifier", "hoeffding-large"]) == 1
    rep = json.loads((out / "verify_hoeffding-large.json").read_text())
    d_two = {float(T): h["d_two"] for T, h in rep["horizons"].items()}
    assert len(d_two) == 2
    assert concentration.tail_constant_scaling(d_two) == rep["scaling_exponent"]


def test_cli_stability_uses_drift_b(tmp_path):
    # L_b = |drift_b| = 4 gives Delta = 1/8 < t_max = 0.5
    ini = _write_ini(tmp_path, SMALL_INI.replace("verifiers = phi-link", "verifiers = stability")
                     + "\n[sde]\ndrift_b = -4\n")
    out = str(tmp_path / "stab")
    assert main(["verify", "--config", ini, "--out", out]) == 1
    rep = json.loads(Path(out, "verify_stability.json").read_text())
    assert rep["rejected"] is True
    assert "Delta=0.125" in rep["reason"]


def test_cli_esti_int_one_step_grid_rejected(tmp_path):
    # the window draw needs two cells: a premise, not a numpy traceback
    ini = _write_ini(tmp_path, SMALL_INI.replace("n_steps = 32", "n_steps = 1")
                     .replace("verifiers = phi-link", "verifiers = esti-int"))
    out = str(tmp_path / "esti")
    assert main(["verify", "--config", ini, "--out", out]) == 1
    rep = json.loads(Path(out, "verify_esti-int.json").read_text())
    assert rep["rejected"] is True
    assert "n_steps >= 2" in rep["reason"]


STANDARD_ERROR_VERIFIERS = ("fernique", "hoeffding-small", "hoeffding-large", "t1-moments")


def test_cli_one_path_is_a_premise_error(tmp_path, monkeypatch):
    # a ddof=1 standard error of one sample is NaN: the four verifiers that
    # report one reject n_paths = 1 (exit 1) before any path is drawn,
    # instead of a NaN report (exit 3)
    def no_paths(*args, **kwargs):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(fbm, "_circulant_rows", no_paths)
    ini = _write_ini(tmp_path, SMALL_INI.replace("n_paths = 100", "n_paths = 1").replace(
        "verifiers = phi-link", "verifiers = " + ",".join(STANDARD_ERROR_VERIFIERS)))
    out = tmp_path / "one"
    assert main(["verify", "--config", ini, "--out", str(out)]) == 1
    for name in STANDARD_ERROR_VERIFIERS:
        rep = json.loads((out / f"verify_{name}.json").read_text())
        assert rep["rejected"] is True
        assert rep["reason"] == (f"{name} premise violated: a standard error needs "
                                 "[verify] n_paths >= 2, got 1")


def test_cli_two_paths_run_the_standard_error_verifiers(tmp_path):
    # two paths give a standard error; t1-moments is then rejected only by
    # the three pairs its tail-share diagnostic needs
    ini = _write_ini(tmp_path, SMALL_INI.replace("n_paths = 100", "n_paths = 2").replace(
        "verifiers = phi-link", "verifiers = " + ",".join(STANDARD_ERROR_VERIFIERS)))
    out = tmp_path / "two"
    assert main(["verify", "--config", ini, "--out", str(out)]) in (0, 1)
    for name in STANDARD_ERROR_VERIFIERS:
        rep = json.loads((out / f"verify_{name}.json").read_text())
        if name == "t1-moments":
            assert "the tail-share diagnostic needs" in rep["reason"]
        else:
            assert "rejected" not in rep


TAIL_SHARE_VERIFIERS = ("t1-moments", "gaussian-tail")


def test_cli_two_pairs_are_a_tail_share_premise_error(tmp_path, monkeypatch):
    # of two pairs the larger carries half the mean or more, so the
    # top-share flag would fail any data: two pairs are rejected (exit 1)
    # before any path is drawn, three are run
    real = fbm._circulant_rows

    def no_paths(*args, **kwargs):
        raise AssertionError("a path was drawn")

    def ini(n_paths):
        return _write_ini(tmp_path, SMALL_INI.replace("n_paths = 100", f"n_paths = {n_paths}")
                          .replace("verifiers = phi-link",
                                   "verifiers = " + ",".join(TAIL_SHARE_VERIFIERS)))

    monkeypatch.setattr(fbm, "_circulant_rows", no_paths)
    out = tmp_path / "two"
    assert main(["verify", "--config", ini(2), "--out", str(out)]) == 1
    for name in TAIL_SHARE_VERIFIERS:
        rep = json.loads((out / f"verify_{name}.json").read_text())
        assert rep["rejected"] is True
        assert rep["reason"] == (f"{name} premise violated: the tail-share diagnostic "
                                 "needs [verify] n_paths >= 3, got 2")
    monkeypatch.setattr(fbm, "_circulant_rows", real)
    out = tmp_path / "three"
    assert main(["verify", "--config", ini(3), "--out", str(out)]) in (0, 1)
    for name in TAIL_SHARE_VERIFIERS:
        assert "rejected" not in json.loads((out / f"verify_{name}.json").read_text())


@pytest.mark.parametrize("generator, cached", [
    ("transfer", "transfer_kernel_matrix"),
    ("cholesky", "cholesky_factor"),
    ("circulant", "_fgn_circulant_eigs"),
])
def test_cli_sample_builds_per_grid_array_once(tmp_path, generator, cached):
    ini = _write_ini(tmp_path, SMALL_INI.replace("n_paths = 2", "n_paths = 8")
                     .replace("[fbm]\n", f"[fbm]\ngenerator = {generator}\n"))
    misses = getattr(fbm, cached).cache_info().misses
    assert main(["sample", "--config", ini, "--out", str(tmp_path / "samp")]) == 0
    assert len(list((tmp_path / "samp").glob("path_*.fbmp"))) == 8
    assert getattr(fbm, cached).cache_info().misses - misses <= 1


def test_cli_verify_plain_value_error_is_not_a_rejection(tmp_path, monkeypatch):
    # only PremiseError is a rejection; any other ValueError is a fault
    def broken(cfg):
        raise ValueError("not a premise")

    monkeypatch.setitem(concentration.VERIFIERS, "phi-link", broken)
    out = tmp_path / "vrf"
    with pytest.raises(ValueError, match="not a premise"):
        main(["verify", "--config", _write_ini(tmp_path, SMALL_INI), "--out", str(out)])
    assert not (out / "verify_phi-link.json").exists()


@pytest.mark.parametrize("command", ["sample", "solve", "calibrate"])
def test_cli_verifier_flag_only_on_verify(tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", _write_ini(tmp_path, SMALL_INI), "--out", str(out),
              "--verifier", "phi-link"])
    assert exc.value.code == 2
    assert "--verifier applies to the verify command only" in capsys.readouterr().err
    assert not out.exists()


def test_cli_jobs_flag_removed():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--jobs", "2"])
    assert exc.value.code == 2


def test_cli_negative_control_exit_1(tmp_path):
    ini = _write_ini(tmp_path, """
[experiment]
seed = 1

[grid]
t_max = 0.5
n_steps = 32

[fbm]
hurst = 0.6

[verify]
verifiers = fernique
beta = 0.75
n_paths = 100
""")
    out = str(tmp_path / "neg")
    assert main(["verify", "--config", ini, "--out", out]) == 1
    rep = json.loads(Path(out, "verify_fernique.json").read_text())
    assert rep["passed"] is False
    assert rep["rejected"] is True


def test_cli_verifier_flag_subset(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI)
    out = str(tmp_path / "sub")
    assert main(["verify", "--config", ini, "--out", out,
                 "--verifier", "phi-link"]) == 0
    files = os.listdir(out)
    assert "verify_phi-link.json" in files
    assert "verify_fernique.json" not in files


# calibrate reads [experiment] seed and [verify] n_paths; [fbm] n_paths is
# accepted unread, every other key keeps its default
CALIBRATE_INI = """
[experiment]
seed = 42

[fbm]
n_paths = 2

[verify]
n_paths = 100
"""


def test_cli_calibrate_smoke(tmp_path):
    ini = _write_ini(tmp_path, CALIBRATE_INI)
    out = str(tmp_path / "cal")
    assert main(["calibrate", "--config", ini, "--out", out]) == 0
    raw = Path(out, "calibrated_constants.json").read_text()
    payload = json.loads(raw)
    assert payload["K_hat"] > 0
    assert payload["kappa_hat"] > 0
    assert "provenance" in payload
    # written by the one report writer: sorted keys and a trailing newline
    assert raw == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("text,message", [
    ("[verify]\nbeta = 0.65\n", "[verify] beta = 0.6 only"),
    ("[sde]\ndrift_b = -2\n", "[sde] drift_b = -1.0 only"),
    ("[sde]\nsigma = 2\n", "[sde] sigma = 1.0 only"),
    ("[fbm]\ngenerator = cholesky\n", "[fbm] generator = circulant only"),
])
def test_cli_calibrate_rejects_settings_it_cannot_honour(tmp_path, capsys, text, message):
    # calibrate runs the verify model at the reference H, beta and drift_b;
    # any other value is a config error before any file is written
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", _write_ini(tmp_path, text), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"calibrate supports {message}" in capsys.readouterr().err


def test_cli_calibrate_default_config_reproduces_the_fixture(tmp_path):
    # without --config, calibrate runs the shipped calibrate.ini: the 1000
    # pairs of seed 0 that produced the frozen constants, and writes the
    # shipped fixture byte for byte
    out = tmp_path / "cal"
    assert main(["calibrate", "--out", str(out)]) == 0
    shipped = resources.files("fbmlab.fixtures") / "calibrated_constants.json"
    assert (out / "calibrated_constants.json").read_bytes() == shipped.read_bytes()


@pytest.mark.parametrize("text,message", [
    ("[grid]\nt_max = 7\n", "[grid] t_max = 1.0 only, got 7.0"),
    ("[grid]\nn_steps = 3\n", "[grid] n_steps = 256 only, got 3"),
    ("[verify]\nhorizons = 9\n", "[verify] horizons = 1,2,4 only"),
    ("[verify]\ndelta = 0.25\n", "[verify] delta = 0.5 only"),
    ("[verify]\nc_delta_values = 3\n", "[verify] c_delta_values = 1,2,10,1e6 only"),
    ("[verify]\nverifiers = phi-link\n", "[verify] verifiers = stability,"),
])
def test_cli_calibrate_rejects_keys_it_does_not_read(tmp_path, capsys, text, message):
    # calibrate fixes its horizons and grid; a config asking for others exits
    # 2 and writes nothing rather than mislabel constants it did not compute
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", _write_ini(tmp_path, text), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"calibrate supports {message}" in capsys.readouterr().err


def test_cli_calibrate_rejects_shipped_negative_control(tmp_path, capsys):
    # H = 0.6, beta = 0.75: constants calibrated at H = 0.75, beta = 0.6 would be mislabelled
    from fbmlab.cli import default_config_path
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", default_config_path("negative_control.ini"),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "calibrate supports [fbm] hurst = 0.75 only, got 0.6" in capsys.readouterr().err


def test_cli_verify_non_finite_report_exit_3(tmp_path, capsys):
    # at t_max = 1e200 the Fernique moments overflow: the verifier raises
    # where they do, so the run is a numerical error and leaves no report
    ini = _write_ini(tmp_path, "[grid]\nt_max = 1e200\nn_steps = 64\n"
                               "[verify]\nverifiers = fernique\nn_paths = 200\n")
    out = tmp_path / "vrf"
    assert main(["verify", "--config", ini, "--out", str(out)]) == 3
    assert "numerical error: overflow" in capsys.readouterr().err
    assert not (out / "verify_fernique.json").exists()
    for f in out.iterdir():
        text = f.read_text()
        assert "Infinity" not in text and "NaN" not in text


def test_cli_non_finite_ensemble_exit_3(tmp_path, monkeypatch, capsys):
    # a NaN in the solved ensemble fails closed in PathEnsemble
    def nan_solution(drivers, drift_b, dt):
        x = np.zeros_like(drivers)
        x[0, -1] = np.nan
        return x

    monkeypatch.setattr(concentration, "solve_model", nan_solution)
    out = tmp_path / "vrf"
    assert main(["verify", "--config", _write_ini(tmp_path, SMALL_INI), "--out", str(out),
                 "--verifier", "t1-moments"]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "verify_t1-moments.json").exists()


def test_cli_pair_error_stops_verify_where_its_rows_are_read(tmp_path, monkeypatch, capsys):
    # a NaN in partner driver 1500 is read by t1-moments (2000 pairs) but not
    # by stability (1000): the run writes every report before t1-moments, as
    # each verifier run in turn would, and then exits 3
    partner = fbm.role_seed(42, fbm.Role.partner)
    real = fbm._circulant_rows

    def nan_row(grid, h, seed, paths, component=0):
        rows = real(grid, h, seed, paths, component)
        if seed == partner and 1500 in paths:
            rows[paths.index(1500), -1] = np.nan
        return rows

    monkeypatch.setattr(fbm, "_circulant_rows", nan_row)
    out = tmp_path / "vrf"
    ini = _write_ini(tmp_path, PIN_INI.replace("n_paths = 200", "n_paths = 2000"))
    assert main(["verify", "--config", ini, "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert sorted(p.name for p in out.glob("verify_*.json")) == [
        f"verify_{name}.json" for name in
        sorted(["stability", "esti-int", "fernique", "hoeffding-small", "hoeffding-large"])]


def test_cli_phi_link_positive_sign_exit_3(tmp_path, monkeypatch):
    monkeypatch.setattr(concentration, "phi_derivative_sign", lambda x, c: 1.0)
    out = tmp_path / "vrf"
    assert main(["verify", "--config", _write_ini(tmp_path, SMALL_INI), "--out", str(out)]) == 3
    assert not (out / "verify_phi-link.json").exists()


def test_cli_verify_unknown_verifier_exit_2(tmp_path, capsys):
    out = tmp_path / "vrf"
    assert main(["verify", "--config", _write_ini(tmp_path, SMALL_INI), "--out", str(out),
                 "--verifier", "bogus"]) == 2
    assert "unknown verifier 'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("selection,message", [
    ("phi-link,bogus", "unknown verifier 'bogus'"),  # not after phi-link's report
    ("phi-link,phi-link", "verifier 'phi-link' selected twice"),  # not one report twice
    (",", "empty verifier selection"),               # not "run every verifier"
    ("", "empty verifier selection"),
])
def test_cli_verify_bad_selection_writes_nothing(tmp_path, capsys, selection, message):
    # the whole --verifier selection is checked before the output directory is made
    out = tmp_path / "vrf"
    assert main(["verify", "--config", _write_ini(tmp_path, SMALL_INI), "--out", str(out),
                 "--verifier", selection]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_repeated_config_verifier_exit_2(tmp_path, capsys):
    # [verify] verifiers goes through the same name check as --verifier
    ini = _write_ini(tmp_path, SMALL_INI.replace("verifiers = phi-link",
                                                 "verifiers = phi-link,phi-link"))
    out = tmp_path / "vrf"
    assert main(["verify", "--config", ini, "--out", str(out)]) == 2
    assert "verifier 'phi-link' selected twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizons", ["1,1,2", "1,1.0"])
def test_cli_verify_repeated_horizon_exit_2(tmp_path, capsys, horizons):
    # a repeated horizon would be drawn and judged twice but reported once
    ini = _write_ini(tmp_path, SMALL_INI.replace(
        "verifiers = phi-link", f"verifiers = hoeffding-large\nhorizons = {horizons}"))
    out = tmp_path / "vrf"
    assert main(["verify", "--config", ini, "--out", str(out)]) == 2
    assert f"[verify] horizons = '{horizons}': 1 given twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("generator", ["cholesky", "circulant", "transfer"])
def test_cli_sample_without_components_exit_2(tmp_path, capsys, generator):
    # no component would write t-only files that the path readers reject
    ini = _write_ini(tmp_path, SMALL_INI.replace(
        "[fbm]\n", f"[fbm]\ngenerator = {generator}\ncomponents = 0\n"))
    out = tmp_path / "samp"
    assert main(["sample", "--config", ini, "--out", str(out)]) == 2
    assert "[fbm] components must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("generator, dense", [("cholesky", "cholesky_factor"),
                                              ("transfer", "transfer_kernel_matrix")])
def test_cli_sample_above_the_dense_cap_exit_2(tmp_path, capsys, monkeypatch, generator,
                                               dense):
    # the generator's (n_steps, n_steps) array is refused at load, before any file
    monkeypatch.setattr(fbm, dense, lambda grid, h: pytest.fail(f"{dense} called"))
    ini = _write_ini(tmp_path, SMALL_INI.replace("n_steps = 32",
                                                 f"n_steps = {fbm.DENSE_MAX_STEPS + 1}")
                     .replace("[fbm]\n", f"[fbm]\ngenerator = {generator}\n"))
    out = tmp_path / "samp"
    assert main(["sample", "--config", ini, "--out", str(out)]) == 2
    assert (f"[fbm] generator = {generator} builds an (n_steps, n_steps) array, capped at "
            f"{fbm.DENSE_MAX_STEPS} steps") in capsys.readouterr().err
    assert not out.exists()


# sha256 of the three files that the shipped negative_control.ini run writes
NEGATIVE_CONTROL_DIGESTS = {
    "verify_esti-int.json": "daa2bebdfa73f2d9a6109d6913f557c7e52b17e4599b87c2cdf5d06d6ffe453c",
    "verify_fernique.json": "a847c12f1a268302cd005525c119fdfd16061bd675c53bc3a8dabae14634d00a",
    "verify_summary.json": "479f0877589b41432af2f8b69448544829a362664e123aabffbf5a3e899ad822",
}


def test_cli_shipped_negative_control_config(tmp_path):
    from fbmlab.cli import default_config_path
    path = default_config_path("negative_control.ini")
    assert os.path.exists(path)
    out = tmp_path / "neg"
    assert main(["verify", "--config", path, "--out", str(out)]) == 1
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == NEGATIVE_CONTROL_DIGESTS
