import json

import pytest

from polyrec.cli import main
from polyrec.config import (ConfigError, DEFAULT_CONSTANTS, DEFAULT_TOLERANCES,
                            config_from_dict, load_config, validate_config)


def test_defaults_load_without_a_file():
    cfg = load_config(None)
    assert cfg.seed == 0
    assert cfg.constants == DEFAULT_CONSTANTS
    assert cfg.tolerances == DEFAULT_TOLERANCES
    validate_config(cfg)


def test_round_trip_through_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "seed": 99,
        "constants": {"C1": 2.0, "K": 4},
        "tolerances": {"poisson_rel": 1e-6},
        "threads": 2,
    }))
    cfg = load_config(str(path))
    assert cfg.seed == 99
    assert cfg.constants.C1 == 2.0
    assert cfg.constants.K == 4
    assert cfg.constants.C_k == DEFAULT_CONSTANTS.C_k  # untouched field
    assert cfg.tolerances.poisson_rel == 1e-6
    assert cfg.threads == 2


def test_env_var_override(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7}))
    monkeypatch.setenv("POLYREC_CONFIG", str(path))
    assert load_config(None).seed == 7


def test_bad_constant_names_the_field():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"constants": {"C1": -1.0}})
    assert "C1" in str(err.value)


def test_noninteger_k_rejected():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"constants": {"K": 2.5}})
    assert "K" in str(err.value)


def test_unknown_field_rejected():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"constants": {"C9": 1.0}})
    assert "C9" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"frobnicate": True})


def test_output_dir_is_an_unknown_field(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        config_from_dict({"output_dir": "."})
    assert str(err.value) == "output_dir: unknown field"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"output_dir": "out"}))
    assert main(["--config", str(path), "selftest"]) == 2
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert err_lines == ["config error: output_dir: unknown field"]
