import json
from pathlib import Path

import pytest

from magweyl.cli import (EXIT_CONFIG, EXIT_PASS, config_hash, load_config,
                         main)
from magweyl.torus import RESIDUAL_TOL, SOLVER_VERSION

SMALL = {
    "seed": 1,
    "star": {"instances": 30},
    "models": {
        "hermite_levels": 16,
        "halfwidth": 8.0,
        "npoints": 128,
        "block_size": 6,
    },
    "torus": {
        "cluster_pairs": [[2, 16], [2, 32]],
        "cluster_levels": [0, 1, 2],
        "weyl_pairs": [[2, 16], [3, 24]],
        "band_pairs": [[4, 32], [4, 48]],
    },
}


def write_config(tmp_path, extra=None) -> str:
    cfg = json.loads(json.dumps(SMALL))
    if extra:
        for key, val in extra.items():
            cfg.setdefault(key, {}).update(val)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def report_bytes(out_root: Path, cfg_path: str) -> dict:
    cfg = load_config(cfg_path)
    cfg["out_dir"] = str(out_root)
    sub = out_root / config_hash(cfg)
    return {p.name: p.read_bytes() for p in sorted(sub.glob("report.*"))}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_PASS
    assert "star-check" in capsys.readouterr().out


def test_unknown_command_is_config_error(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG


def test_corrupt_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["--config", str(bad), "star-check"])
    assert code == EXIT_CONFIG
    assert "line" in capsys.readouterr().err


def test_unknown_field(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"starz": {}}))
    assert main(["--config", str(path), "star-check"]) == EXIT_CONFIG
    assert "unknown config field" in capsys.readouterr().err


def test_star_check_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "star-check"]) == EXIT_PASS
    assert "PASS" in capsys.readouterr().out
    files = report_bytes(out, cfg)
    assert set(files) == {"report.csv", "report.json"}


def test_dry_run_no_compute(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--dry-run", "torus"]) == EXIT_PASS
    assert "plan:" in capsys.readouterr().out
    assert main(["--config", cfg, "--out", str(out), "--dry-run", "all"]) == EXIT_PASS
    plan = capsys.readouterr().out.splitlines()
    assert [line.split(":")[1].strip() for line in plan[:2]] == ["star-check", "model-symbols"]
    assert plan[-1].startswith("plan: reports -> ")
    assert not out.exists()


def test_model_symbols_small(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "model-symbols"]) == EXIT_PASS
    text = capsys.readouterr().out
    assert "models.residue_identity" in text
    assert "FAIL" not in text


def test_pole_proximity_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"models": {"resolvent_z": [-1.0, 0.5]}})
    assert main(["--config", cfg, "model-symbols"]) == EXIT_CONFIG
    assert "pole" in capsys.readouterr().err


def test_torus_cache_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    cold = report_bytes(out, cfg)
    cfgdict = load_config(cfg)
    cfgdict["out_dir"] = str(out)
    cache = out / config_hash(cfgdict) / "spectra.json"
    assert cache.exists()
    stamp = cache.stat().st_mtime_ns
    # warm rerun: cache hit, byte-identical reports
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    assert cache.stat().st_mtime_ns == stamp
    warm = report_bytes(out, cfg)
    assert warm == cold
    # cold run in a fresh directory gives the same reports
    out2 = tmp_path / "out2"
    assert main(["--config", cfg, "--out", str(out2), "torus"]) == EXIT_PASS
    assert report_bytes(out2, cfg) == cold
    assert set(cold) == {"report.csv", "report.json", "report.svg"}


def _torus_cache(tmp_path, out):
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [[2, 16]], "weyl_pairs": [],
                                            "band_pairs": []}})
    cfgdict = load_config(cfg)
    cfgdict["out_dir"] = str(out)
    return cfg, out / config_hash(cfgdict) / "spectra.json"


def test_stale_spectra_cache_is_recomputed(tmp_path, capsys):
    out = tmp_path / "out"
    cfg, cache = _torus_cache(tmp_path, out)
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    cold = report_bytes(out, cfg)
    payload = json.loads(cache.read_text())
    assert payload["solver_version"] == SOLVER_VERSION
    payload["solver_version"] = SOLVER_VERSION - 1
    for rec in payload["spectra"].values():
        rec["raw"] = [v + 1.0 for v in rec["raw"]]  # what an older solver returned
    cache.write_text(json.dumps(payload))
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    assert "recomputing" in capsys.readouterr().err
    assert json.loads(cache.read_text())["solver_version"] == SOLVER_VERSION
    assert report_bytes(out, cfg) == cold


def test_spectra_cache_schema(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    cfgdict = load_config(cfg)
    cfgdict["out_dir"] = str(out)
    payload = json.loads((out / config_hash(cfgdict) / "spectra.json").read_text())
    assert payload["schema"] == "magweyl/spectra-cache-v2"
    assert payload["config_hash"] == config_hash(cfgdict)
    assert payload["solver_version"] == SOLVER_VERSION
    assert payload["timestamp"] == 0.0
    spectra = {tuple(json.loads(key)): rec for key, rec in payload["spectra"].items()}
    assert set(spectra) == {("clusters", 2, 16), ("clusters", 2, 32), ("full", 2, 16),
                            ("full", 3, 24), ("bands", 4, 32), ("bands", 4, 48)}
    for (purpose, k, npts), rec in spectra.items():
        assert set(rec) == {"raw", "residual_norms", "method"}
        assert rec["method"] == "sectors"  # no potential, or cos_x: x-only
        assert len(rec["raw"]) == (npts ** 2 if purpose == "full" else 3 * k + 8)
        assert rec["raw"] == sorted(rec["raw"])
        assert 0 < len(rec["residual_norms"]) <= 8
        assert max(rec["residual_norms"]) <= RESIDUAL_TOL
    # a cache of the previous schema (records with count_requested) is a noted miss
    payload["schema"] = "magweyl/spectra-cache-v1"
    for rec in payload["spectra"].values():
        rec["count_requested"] = len(rec["raw"])
    (out / config_hash(cfgdict) / "spectra.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    assert "recomputing" in capsys.readouterr().err


def test_truncated_spectra_cache_is_rewritten(tmp_path, capsys):
    out = tmp_path / "out"
    cfg, cache = _torus_cache(tmp_path, out)
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    cold = report_bytes(out, cfg)
    text = cache.read_text()
    cache.write_text(text[: len(text) // 2])
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    assert "unreadable" in capsys.readouterr().err
    assert json.loads(cache.read_text())["spectra"] == json.loads(text)["spectra"]
    assert report_bytes(out, cfg) == cold
    assert [p.name for p in cache.parent.iterdir() if p.name.endswith(".tmp")] == []


def test_all_runs_and_reports(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "all"]) == EXIT_PASS
    text = capsys.readouterr().out
    assert "summary:" in text and "FAIL" not in text
    first = report_bytes(out, cfg)
    assert main(["--config", cfg, "--out", str(out), "all"]) == EXIT_PASS
    assert report_bytes(out, cfg) == first


def test_torus_parallel_jobs_match_serial(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["--config", cfg, "--out", str(out1), "torus"]) == EXIT_PASS
    assert main(["--config", cfg, "--out", str(out2), "--jobs", "2", "torus"]) == EXIT_PASS
    assert report_bytes(out1, cfg) == report_bytes(out2, cfg)


def test_potential_overrides(tmp_path, capsys):
    # null and explicit-mode potentials replace the default wholesale
    cfg = write_config(tmp_path, {"torus": {"potential": None,
                                            "band_pairs": []}})
    out = tmp_path / "o1"
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    modes = {"modes": [[[1, 0], [0.05, 0.0]], [[-1, 0], [0.05, 0.0]]]}
    cfg2 = write_config(tmp_path, {"torus": {"potential": modes,
                                             "band_pairs": [[4, 32]]}})
    out2 = tmp_path / "o2"
    assert main(["--config", cfg2, "--out", str(out2), "torus"]) == EXIT_PASS


def test_sections_can_be_disabled(tmp_path, capsys):
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [],
                                            "weyl_pairs": [[2, 16]],
                                            "band_pairs": []}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    text = capsys.readouterr().out
    assert "torus.weyl_ratio_mid_k" in text
    assert "cluster_center_drift" not in text


def test_resource_cap(tmp_path, capsys):
    cfg = write_config(tmp_path, {"caps": {"max_lattice_dim": 100}})
    code = main(["--config", cfg, "torus"])
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    text = json.dumps(cfg, sort_keys=True)
    assert json.loads(text) == cfg
    assert config_hash(cfg) == config_hash(json.loads(text))
    # out_dir does not affect the hash
    cfg2 = dict(cfg, out_dir="elsewhere")
    assert config_hash(cfg2) == config_hash(cfg)
