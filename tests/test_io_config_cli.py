"""Serialization formats, config parsing and the CLI contract."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from fbmlab import fbm, verifiers
from fbmlab.cli import main
from fbmlab.config import VERIFIER_NAMES, ConfigError, load_config
from fbmlab.grid import TimeGrid
from fbmlab.pathio import (
    FBMP_MAGIC,
    FBMP_VERSION,
    read_path_binary,
    read_path_csv,
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
    data = open(p, "rb").read()
    with open(p, "wb") as fh:
        fh.write(data[:-16])
    with pytest.raises(ValueError):
        read_path_binary(p)


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
    with pytest.raises(ConfigError):
        load_config(_write_ini(tmp_path, "[sde]\nmodel = scalar\n"))
    # number lists are parsed at load: non-numeric, non-positive, non-finite
    # or empty
    for key in ("horizons", "c_delta_values"):
        for raw in ("1,two", "", " , ", "1,0", "-2", "1,nan", "inf"):
            with pytest.raises(ConfigError, match=key):
                load_config(_write_ini(tmp_path, f"[verify]\n{key} = {raw}\n"))


FLOAT_KEYS = [("grid", "t_max"), ("fbm", "hurst"), ("sde", "drift_b"), ("sde", "sigma"),
              ("sde", "x0"), ("verify", "beta"), ("verify", "delta")]


@pytest.mark.parametrize("section,key,raw",
                         [(sec, key, raw) for sec, key in FLOAT_KEYS
                          for raw in ("nan", "inf", "-inf")]
                         + [("verify", "delta", "0"), ("verify", "delta", "-1")])
def test_config_rejects_non_finite_floats_and_non_positive_delta(tmp_path, section, key, raw):
    # every float key is checked at load: exit 2 and nothing written
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


def test_cli_sample_and_solve(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI.replace("[experiment]\n",
                                                 "[experiment]\nname = smoke\n"))
    out = str(tmp_path / "samp")
    assert main(["sample", "--config", ini, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "path_00001.fbmp"))
    manifest = json.load(open(os.path.join(out, "sample_manifest.json")))
    assert manifest["seed"] == 42
    assert manifest["experiment"] == "smoke"
    assert manifest["stream_layout"] == fbm.STREAM_LAYOUT
    assert "config_hash" in manifest
    out2 = str(tmp_path / "solv")
    assert main(["solve", "--config", ini, "--out", out2]) == 0
    grid, vals = read_path_binary(os.path.join(out2, "solution_00000.fbmp"))
    assert np.all(np.isfinite(vals))
    manifest = json.load(open(os.path.join(out2, "solve_manifest.json")))
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


def test_cli_verify_pass_and_reports(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI)
    out = str(tmp_path / "vrf")
    assert main(["verify", "--config", ini, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "verify_phi-link.json")))
    assert rep["passed"] is True
    summary = json.load(open(os.path.join(out, "verify_summary.json")))
    assert summary["passed"] is True


def test_cli_verify_deterministic_reports(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["verify", "--config", ini, "--out", out1]) == 0
    assert main(["verify", "--config", ini, "--out", out2]) == 0
    a = open(os.path.join(out1, "verify_summary.json"), "rb").read()
    b = open(os.path.join(out2, "verify_summary.json"), "rb").read()
    assert a == b


# sha256 of every report file that an 8-verifier run writes for PIN_INI;
# hoeffding-large fails its scaling gate at 200 paths, so the run exits 1
PIN_INI = SMALL_INI.replace("verifiers = phi-link", "verifiers = " + ",".join(
    VERIFIER_NAMES)).replace("n_paths = 100", "n_paths = 200\nhorizons = 1,2")
PIN_DIGESTS = {
    "verify_esti-int.json": "c92c9c17648dbfcd4db62d8ecf5e1f3738d95afe972335080f77ee1541a58e8d",
    "verify_fernique.json": "bfed2f047bfbf8fa3d85d98ad4cb112769383fe9dea276dc92084317812d709a",
    "verify_gaussian-tail.json": "00e81ed794b4f24657eae1f40e7398137ae5780e7ff079f213f51909c4cebff8",
    "verify_hoeffding-large.json": "b00d710454a7000b2b763af113f74e51dd626694e571a204cbfc6980a901c86a",
    "verify_hoeffding-large_horizons_1.0_d_infinity.csv":
        "f2b31b6153d9a4fb0d2de697e19fa2c3255a26c34bb50736e188d569ae255a7e",
    "verify_hoeffding-large_horizons_1.0_d_two.csv":
        "9c16cb0a098e0a6fe30d8adfc6018e987f878a77fa3302295545808c9aeef225",
    "verify_hoeffding-large_horizons_2.0_d_infinity.csv":
        "89f275931cb4797479ea7821847c200e286fae7f180b333dae94bf177f8d70df",
    "verify_hoeffding-large_horizons_2.0_d_two.csv":
        "bd2f9b682bcdf0b36f8baa4d68b2f96dc6e1f731d5261cb56c422d338d2b71b3",
    "verify_hoeffding-small.json": "f7ef0ce482f9ff44ee72b112e89981d0dd74bdd64d896897bb90657a72c83bc1",
    "verify_hoeffding-small_sup_displacement.csv":
        "7b2ab86f69e349408a45eaa268bc2117715099639ea6014245dc9645a494dcc6",
    "verify_hoeffding-small_time_average.csv":
        "df75f429497ab89abc7ac86d6c47be58e40f0e049492add470ac35c99799f2fa",
    "verify_phi-link.json": "a58c0c2b5148f6cb289ba1d01d7d91688f67b96270d2148c11db8c15e27a4f91",
    "verify_stability.json": "652d4097adff877e0202b98305b143ef5b01c55954d7d6d940d99f740fc678a0",
    "verify_summary.json": "0d0d9ecbed64ae7dd80972e70e8776df371e45628825368dc5d3cb313ecfd963",
    "verify_t1-moments.json": "bb3364bf3868c0efb7c4670ca528bb3a7c7cfb8f0c339d2c8d2a284d62ebb3dc",
}


def test_cli_verify_all_reports_pinned(tmp_path):
    ini = _write_ini(tmp_path, PIN_INI)
    out = tmp_path / "pin"
    assert main(["verify", "--config", ini, "--out", str(out)]) == 1
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == PIN_DIGESTS


def test_cli_stability_uses_drift_b(tmp_path):
    # L_b = |drift_b| = 4 gives Delta = 1/8 < t_max = 0.5
    ini = _write_ini(tmp_path, SMALL_INI.replace("verifiers = phi-link", "verifiers = stability")
                     + "\n[sde]\ndrift_b = -4\n")
    out = str(tmp_path / "stab")
    assert main(["verify", "--config", ini, "--out", out]) == 1
    rep = json.load(open(os.path.join(out, "verify_stability.json")))
    assert rep["rejected"] is True
    assert "Delta=0.125" in rep["reason"]


def test_cli_verify_plain_value_error_is_not_a_rejection(tmp_path, monkeypatch):
    # only PremiseError is a rejection; any other ValueError is a fault
    def broken(cfg):
        raise ValueError("not a premise")

    monkeypatch.setitem(verifiers.VERIFIERS, "phi-link", broken)
    out = tmp_path / "vrf"
    with pytest.raises(ValueError, match="not a premise"):
        main(["verify", "--config", _write_ini(tmp_path, SMALL_INI), "--out", str(out)])
    assert not (out / "verify_phi-link.json").exists()


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
    rep = json.load(open(os.path.join(out, "verify_fernique.json")))
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


def test_cli_calibrate_smoke(tmp_path):
    ini = _write_ini(tmp_path, SMALL_INI)
    out = str(tmp_path / "cal")
    assert main(["calibrate", "--config", ini, "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "calibrated_constants.json")))
    assert payload["K_hat"] > 0
    assert payload["kappa_hat"] > 0
    assert "provenance" in payload


def test_cli_shipped_negative_control_config():
    from fbmlab.cli import default_config_path
    path = default_config_path("negative_control.ini")
    assert os.path.exists(path)
    import tempfile
    with tempfile.TemporaryDirectory() as out:
        assert main(["verify", "--config", path, "--out", out]) == 1
