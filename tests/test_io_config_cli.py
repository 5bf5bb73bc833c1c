"""Serialization formats, config parsing and the CLI contract."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from fbmlab import fbm
from fbmlab.cli import main
from fbmlab.config import VERIFIER_NAMES, ConfigError, load_config
from fbmlab.grid import TimeGrid
from fbmlab.pathio import (
    FBMP_MAGIC,
    FBMP_VERSION,
    read_path_binary,
    read_path_csv,
    write_matrix_csv,
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


def test_matrix_csv(tmp_path):
    p = str(tmp_path / "m.csv")
    write_matrix_csv(p, np.array([[1.0, 2.0], [3.0, 4.0]]))
    loaded = np.loadtxt(p, delimiter=",")
    np.testing.assert_allclose(loaded, [[1, 2], [3, 4]])


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
    ini = _write_ini(tmp_path, SMALL_INI)
    out = str(tmp_path / "samp")
    assert main(["sample", "--config", ini, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "path_00001.fbmp"))
    manifest = json.load(open(os.path.join(out, "sample_manifest.json")))
    assert manifest["seed"] == 42
    assert "config_hash" in manifest
    out2 = str(tmp_path / "solv")
    assert main(["solve", "--config", ini, "--out", out2]) == 0
    grid, vals = read_path_binary(os.path.join(out2, "solution_00000.fbmp"))
    assert np.all(np.isfinite(vals))


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
    "verify_esti-int.json": "5cd59e3edd81ca4a0e01f081752a3b80e0a3f7a9bbbd131eba6355d89233509f",
    "verify_fernique.json": "71a1d2871bf5c2625f38f2365beef01c97f856561380c7dfb1c42ddc57bc01d8",
    "verify_gaussian-tail.json": "465c90824d05bc66472c537a8f6a6710ae29125cd56945f382be3ed0387b9a46",
    "verify_hoeffding-large.json": "bb8d22d9e814c57be88f47a4c07dfa530c023193da7c2fe12fe0097723d9fd3f",
    "verify_hoeffding-large_horizons_1.0_d_infinity.csv":
        "d2fa0c0b9c850fcf084196673625e638127e5ab42eba0490c00c3fd23a4ca748",
    "verify_hoeffding-large_horizons_1.0_d_two.csv":
        "fd039f79f223a770f1f6a13d27822f7126ddefca866247c4015f7d33baa9dc34",
    "verify_hoeffding-large_horizons_2.0_d_infinity.csv":
        "f479ca1e7eac9c176c92680540df4150f16f0bcc5618fc1c0e1760c0dd3d4036",
    "verify_hoeffding-large_horizons_2.0_d_two.csv":
        "8455889628791a201079268e1e8bb56d583fc465fefa7ca557750c7aece9b529",
    "verify_hoeffding-small.json": "30cb9a2fb96a5f6b9e14ec4c2534228285ff08f82ab848ba8f72cc8ce096052f",
    "verify_hoeffding-small_sup_displacement.csv":
        "fa1fc4de205d166c409deff544fc6205dce97c806807ec08db0874ab31772c6d",
    "verify_hoeffding-small_time_average.csv":
        "26b22c7ff61eb2d3ae248e71af93087d704cb6b1de41a4de63001cad66e55437",
    "verify_phi-link.json": "a58c0c2b5148f6cb289ba1d01d7d91688f67b96270d2148c11db8c15e27a4f91",
    "verify_stability.json": "5a083da796a2880b4ceae7e8a527b5cf2b77ce528ce5bff93a8aa9c24374eccb",
    "verify_summary.json": "0d0d9ecbed64ae7dd80972e70e8776df371e45628825368dc5d3cb313ecfd963",
    "verify_t1-moments.json": "cf82f4f955fe7b2d9af719e128475e1127b91ec46245c1e3e18353a75bb08045",
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
